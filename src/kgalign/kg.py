"""Knowledge-graph data model and alignment bookkeeping.

A graph is the union of relationship triplets (head, relation, tail) and
attribute triplets (head, attribute, literal value).  Everything is interned
to dense integer ids per graph, triples are deduplicated, and all traversals
are deterministic.  Alignment state between two graphs lives in
:class:`AlignmentStore`; an entity is open for inference exactly when the
store has not aligned it.

Loading a graph allocates one tuple per row, and those tuples live as long
as the graph does, so the cyclic garbage collector would walk them again on
every full pass without ever freeing one.  :func:`load_graph` (and the
pipeline's bootstrap) therefore pause the collector while they run and
restore it afterwards; reference counting still frees everything they drop.
"""

from __future__ import annotations

import functools
import gc
import re
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter

import numpy as np

PROV_SEED = "seed"
PROV_ATTR = "attribute-view"
PROV_REL = "relationship-view"
PROV_MERGED = "merged"

# Codepoint ranges tokenized one character at a time, so that short CJK
# literals still produce usable token statistics.
_CJK_RANGES = (
    (0x3040, 0x30FF),    # hiragana, katakana
    (0x3400, 0x4DBF),    # CJK extension A
    (0x4E00, 0x9FFF),    # CJK unified ideographs
    (0xAC00, 0xD7AF),    # hangul syllables
    (0xF900, 0xFAFF),    # CJK compatibility ideographs
    (0x20000, 0x2A6DF),  # CJK extension B
)

# One CJK codepoint, or a run of alphanumerics (``str.isalnum``) without one.
_CJK = "".join(f"\\U{lo:08x}-\\U{hi:08x}" for lo, hi in _CJK_RANGES)
_TOKEN = re.compile(f"[{_CJK}]|[^\\W_{_CJK}]+")


def tokenize(raw: str) -> tuple[str, ...]:
    """Lowercase and split on whitespace/punctuation; CJK per codepoint.

    The result is empty only when ``raw`` contains no word characters.
    """
    return tuple(_TOKEN.findall(raw.lower()))


@dataclass(frozen=True, slots=True)
class ValueText:
    """A literal attribute value together with its deterministic tokens."""

    raw: str
    tokens: tuple[str, ...]

    @classmethod
    def from_raw(cls, raw: str) -> "ValueText":
        return cls(raw, tokenize(raw))


class ParseError(ValueError):
    """Malformed line in an input file; carries the 1-based line number."""

    def __init__(self, path, lineno: int, message: str):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = str(path)
        self.lineno = lineno


def read_lines(path):
    """``(lineno, line)`` per line of a UTF-8 text file, without the line end;
    the file is read whole when the function is called.

    Lines end at ``\n``, ``\r\n`` or a lone ``\r``, as when iterating over
    the file in text mode; other Unicode line breaks stay inside the line.
    A line that is not valid UTF-8 raises :class:`ParseError` at that line.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()  # universal newlines: every line end is now "\n"
    except UnicodeDecodeError:
        # The decoder reports a byte offset, so find the line from the raw bytes.
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh.read().splitlines(), 1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ParseError(path, lineno, f"not valid UTF-8 ({exc.reason})") from None
        raise
    lines = text.split("\n")
    if lines[-1] == "":  # the end of the last line, or an empty file
        lines.pop()
    return enumerate(lines, 1)


def read_fields(path, count: int, literal: bool = False):
    """``(lineno, fields)`` per line of a tab-separated file that is not blank.

    A line of only whitespace is blank and skipped.  Every other line must
    split into ``count`` fields on tabs, none of them empty, except the last
    one when ``literal`` is set: an attribute value may be the empty string.
    """
    for lineno, line in read_lines(path):
        if not line or line.isspace():
            continue
        fields = line.split("\t")
        if len(fields) != count:
            raise ParseError(path, lineno,
                             f"expected {count} tab-separated fields, got {len(fields)}")
        # The slice is taken only for a row that has an empty field at all.
        if "" in fields and "" in fields[:count - literal]:
            raise ParseError(path, lineno, f"field {fields.index('') + 1} is empty")
        yield lineno, fields


def write_rows(path, rows) -> None:
    """Write each row's fields joined by tabs, one UTF-8 line per row."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines("\t".join(row) + "\n" for row in rows)


class KnowledgeGraph:
    """Immutable interned view of one graph.

    Entities, relations, and attributes are assigned dense ids in order of
    first appearance; triples are deduplicated and kept sorted.
    """

    def __init__(self, rel_rows, attr_rows):
        ents: dict[str, int] = {}
        rels: dict[str, int] = {}
        attrs: dict[str, int] = {}
        # Rows are deduplicated and sorted as plain tuples of ids and literals,
        # which hash in C; each distinct literal then gets one ValueText.
        rel_triples = {(ents.setdefault(h, len(ents)), rels.setdefault(r, len(rels)),
                        ents.setdefault(t, len(ents))) for h, r, t in rel_rows}
        attr_triples = sorted({(ents.setdefault(h, len(ents)), attrs.setdefault(a, len(attrs)), v)
                               for h, a, v in attr_rows})
        texts: dict[str, ValueText] = {}
        ends = [0] * (len(ents) + 1)  # at h + 1: one past h's last row, else 0
        for i, (h, a, v) in enumerate(attr_triples):
            text = texts.get(v)
            if text is None:
                text = texts[v] = ValueText.from_raw(v)
            # In place: each key tuple is freed as its triple is made, which
            # keeps one list of rows alive and holds the peak memory down.
            attr_triples[i] = (h, a, text)
            ends[h + 1] = i + 1
        # Ids are handed out in insertion order, so each table lists its labels by id.
        self._ent_ids = ents
        self.ent_labels, self.rel_labels, self.attr_labels = list(ents), list(rels), list(attrs)
        self.rel_triples = sorted(rel_triples)
        self.attr_triples = attr_triples
        # Entity h's rows run from _attr_starts[h] to _attr_starts[h + 1] (ints: not GC-tracked).
        self._attr_starts = list(accumulate(ends, max))
        self.attribute_counts = Counter(a for _, a, _ in self.attr_triples)

    @property
    def num_entities(self) -> int:
        return len(self.ent_labels)

    @property
    def num_relations(self) -> int:
        return len(self.rel_labels)

    @property
    def num_attributes(self) -> int:
        return len(self.attr_labels)

    def entity_id(self, label: str) -> int:
        try:
            return self._ent_ids[label]
        except KeyError:
            raise KeyError(f"unknown entity {label!r}") from None

    def has_entity(self, label: str) -> bool:
        return label in self._ent_ids

    def attributes_of(self, entity: int) -> list[tuple[int, int, ValueText]]:
        """``(entity, attribute, value)`` rows of one entity: its slice of ``attr_triples``."""
        return self.attr_triples[self._attr_starts[entity]:self._attr_starts[entity + 1]]


def _without_cyclic_gc(func):
    """Run ``func`` with the cyclic garbage collector paused.

    The collector is turned back on afterwards, also when ``func`` raises,
    but only if it was on when the call started.
    """
    @functools.wraps(func)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return paused


@_without_cyclic_gc
def load_graph(rel_path, attr_path) -> KnowledgeGraph:
    """Read one graph from tab-separated relationship and attribute files.

    The cyclic garbage collector is paused during the call (see the module
    docstring).
    """
    return KnowledgeGraph(map(itemgetter(1), read_fields(rel_path, 3)),
                          map(itemgetter(1), read_fields(attr_path, 3, literal=True)))


def frequent_attributes(g: KnowledgeGraph, min_count: int) -> frozenset[int]:
    """Attributes of ``g`` whose triple count strictly exceeds ``min_count``."""
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    return frozenset(a for a, c in g.attribute_counts.items() if c > min_count)


def top_m_attr_slots(g: KnowledgeGraph, entity: int, m_slots: int,
                     frequent: frozenset[int]) -> list[tuple[int, ValueText]]:
    """At most ``m_slots`` frequent-attribute slots for one entity.

    Slots are ranked by (attribute frequency in the graph descending,
    attribute id, value string), which favors attributes most likely to have
    a counterpart on the other side and is fully deterministic.
    """
    if m_slots < 1:
        raise ValueError("m_slots must be >= 1")
    counts = g.attribute_counts
    slots = [(a, v) for _, a, v in g.attributes_of(entity) if a in frequent]
    slots.sort(key=lambda av: (-counts[av[0]], av[0], av[1].raw))
    return slots[:m_slots]


class AlignmentStore:
    """Aligned pairs of entities, relations, attributes, and values.

    Entity, relation, and attribute pairs are one-to-one and enter through
    ``add(kind, ...)``; inserting a pair whose endpoint is already taken is
    refused.  Each of these kinds ("ent", "rel", "attr") is held once, as a
    left-to-right and a right-to-left map.  Value pairs enter through
    ``add_val_pair``, and ``provenance`` names every pair of every kind.
    Pairs are never removed.
    """

    def __init__(self):
        self.val_pairs: set[tuple[ValueText, ValueText]] = set()
        self.provenance: dict[tuple, str] = {}
        self._maps = {kind: ({}, {}) for kind in ("ent", "rel", "attr")}  # left, right

    def add(self, kind: str, left: int, right: int, provenance: str) -> bool:
        left_map, right_map = self._maps[kind]
        if left in left_map or right in right_map:
            return False
        left_map[left] = right
        right_map[right] = left
        self.provenance[(kind, left, right)] = provenance
        return True

    def add_val_pair(self, left: ValueText, right: ValueText, provenance: str) -> bool:
        if (left, right) in self.val_pairs:
            return False
        self.val_pairs.add((left, right))
        self.provenance[("val", left.raw, right.raw)] = provenance
        return True

    # Read-only (left, right) views, each equal to the set of its pairs.
    ent_pairs = property(lambda self: self._maps["ent"][0].items())
    rel_pairs = property(lambda self: self._maps["rel"][0].items())
    attr_pairs = property(lambda self: self._maps["attr"][0].items())

    def attr_map(self) -> dict[int, int]:
        return dict(self._maps["attr"][0])

    def taken(self, kind: str) -> tuple[set[int], set[int]]:
        """Left and right ids that a pair of ``kind`` already holds."""
        left_map, right_map = self._maps[kind]
        return set(left_map), set(right_map)

    def size(self) -> int:
        return len(self.provenance)

    def copy(self) -> "AlignmentStore":
        dup = AlignmentStore()
        dup.val_pairs = set(self.val_pairs)
        dup.provenance = dict(self.provenance)
        dup._maps = {kind: (dict(left_map), dict(right_map))
                     for kind, (left_map, right_map) in self._maps.items()}
        return dup


def greedy_one_to_one(scored, taken_left=(), taken_right=(),
                      key=lambda row: (-row[2], row[0], row[1])) -> list[tuple]:
    """Accept rows in ``key`` order, skipping consumed endpoints.

    Each row starts with (left, right); accepted rows are returned as given.
    The default key ranks (left, right, score) rows by descending score with
    ties toward the smaller (left, right).  Over distinct pairs, any key that
    ends in (left, right) makes the result a deterministic one-to-one matching.
    """
    taken_l = set(taken_left)
    taken_r = set(taken_right)
    accepted = []
    for row in sorted(scored, key=key):
        left, right = row[0], row[1]
        if left in taken_l or right in taken_r:
            continue
        taken_l.add(left)
        taken_r.add(right)
        accepted.append(row)
    return accepted


_SCAN_ROWS = 1024  # score rows compared with the threshold per step


def infer_entity_pairs(scores: np.ndarray, threshold: float,
                       taken_left=(), taken_right=()) -> list[tuple[int, int, float]]:
    """Cells of an entity or relation score matrix strictly above the threshold,
    one-to-one reduced, as (left, right, score) rows by descending score; a cell
    whose row or column is taken is dropped before the sort.  The cells are
    found ``_SCAN_ROWS`` rows at a time, so no N x N' mask is held."""
    scored = []
    for start in range(0, scores.shape[0], _SCAN_ROWS):
        block = scores[start:start + _SCAN_ROWS]
        flat = np.flatnonzero(block > threshold)
        rows, cols = np.divmod(flat, scores.shape[1])
        scored += [(m, n, s) for m, n, s in zip((rows + start).tolist(), cols.tolist(),
                                                np.take(block, flat).tolist())
                   if m not in taken_left and n not in taken_right]
    return greedy_one_to_one(scored)


def _same_name_pairs(labels_left, labels_right) -> list[tuple[int, int]]:
    """One pair per case-folded surface name present on both sides."""
    def first_by_key(labels):
        mapping: dict[str, int] = {}
        for idx, label in enumerate(labels):
            key = label.strip().casefold()
            if key:
                mapping.setdefault(key, idx)
        return mapping

    left = first_by_key(labels_left)
    right = first_by_key(labels_right)
    return sorted((left[k], right[k]) for k in left.keys() & right.keys())


def cooccurring_values(g: KnowledgeGraph, g2: KnowledgeGraph, ent_pairs,
                       attr_map: dict[int, int]):
    """``(left value, right value)`` the two entities of each pair hold under
    an aligned attribute pair; by pair, then left slot, then right value."""
    for left, right in ent_pairs:
        slots_right = g2.attributes_of(right)
        for _, attr, value in g.attributes_of(left):
            counterpart = attr_map.get(attr)
            if counterpart is None:
                continue
            for _, attr2, value2 in slots_right:
                if attr2 == counterpart:
                    yield value, value2


def build_initial_seeds(g: KnowledgeGraph, g2: KnowledgeGraph, ill_train) -> AlignmentStore:
    """Seed store from training inter-lingual links plus same-name matching.

    Entity seeds come from ``ill_train`` (label pairs); relation and
    attribute seeds pair ids whose surface names are equal after trimming and
    case-folding; value seeds are the co-occurring values of every seeded
    entity pair under every seeded attribute pair.
    """
    store = AlignmentStore()
    for left_label, right_label in ill_train:
        if not g.has_entity(left_label):
            raise ValueError(f"ILL pair references unknown entity {left_label!r}")
        if not g2.has_entity(right_label):
            raise ValueError(f"ILL pair references unknown entity {right_label!r}")
        left = g.entity_id(left_label)
        right = g2.entity_id(right_label)
        if not store.add("ent", left, right, PROV_SEED) and (left, right) not in store.ent_pairs:
            raise ValueError(f"ILL pairs are not one-to-one at entity {left_label!r}")
    for kind, labels, labels2 in (("rel", g.rel_labels, g2.rel_labels),
                                  ("attr", g.attr_labels, g2.attr_labels)):
        for left, right in _same_name_pairs(labels, labels2):
            store.add(kind, left, right, PROV_SEED)
    for value, value2 in cooccurring_values(g, g2, sorted(store.ent_pairs), store.attr_map()):
        store.add_val_pair(value, value2, PROV_SEED)
    return store
