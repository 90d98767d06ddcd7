"""Knowledge-graph data model and alignment bookkeeping.

A graph is the union of relationship triplets (head, relation, tail) and
attribute triplets (head, attribute, literal value).  Everything is interned
to dense integer ids per graph, triples are deduplicated, and all traversals
are deterministic.  Alignment state between two graphs lives in
:class:`AlignmentStore`; the pool of entity pairs still open for inference is
:class:`CandidateSet`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

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


def _is_cjk(ch: str) -> bool:
    cp = ord(ch)
    return any(lo <= cp <= hi for lo, hi in _CJK_RANGES)


def tokenize(raw: str) -> tuple[str, ...]:
    """Lowercase and split on whitespace/punctuation; CJK per codepoint.

    The result is empty only when ``raw`` contains no word characters.
    """
    tokens: list[str] = []
    current: list[str] = []
    for ch in raw.lower():
        if _is_cjk(ch):
            if current:
                tokens.append("".join(current))
                current = []
            tokens.append(ch)
        elif ch.isalnum():
            current.append(ch)
        elif current:
            tokens.append("".join(current))
            current = []
    if current:
        tokens.append("".join(current))
    return tuple(tokens)


@dataclass(frozen=True)
class ValueText:
    """A literal attribute value together with its deterministic tokens."""

    raw: str
    tokens: tuple[str, ...]

    @classmethod
    def from_raw(cls, raw: str) -> "ValueText":
        return cls(raw, tokenize(raw))


class ParseError(ValueError):
    """Malformed line in a triple file; carries the 1-based line number."""

    def __init__(self, path, lineno: int, message: str):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = str(path)
        self.lineno = lineno


def _read_triple_file(path) -> list[tuple[str, str, str]]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ParseError(path, lineno, f"expected 3 tab-separated fields, got {len(parts)}")
            rows.append((parts[0], parts[1], parts[2]))
    return rows


class KnowledgeGraph:
    """Immutable interned view of one graph.

    Entities, relations, and attributes are assigned dense ids in order of
    first appearance; triples are deduplicated and kept sorted.
    """

    def __init__(self, rel_rows, attr_rows):
        self._ent_ids: dict[str, int] = {}
        self._rel_ids: dict[str, int] = {}
        self._attr_ids: dict[str, int] = {}
        rel_triples: set[tuple[int, int, int]] = set()
        attr_triples: set[tuple[int, int, ValueText]] = set()
        for h, r, t in rel_rows:
            rel_triples.add((self._intern(self._ent_ids, h),
                             self._intern(self._rel_ids, r),
                             self._intern(self._ent_ids, t)))
        for h, a, v in attr_rows:
            attr_triples.add((self._intern(self._ent_ids, h),
                              self._intern(self._attr_ids, a),
                              ValueText.from_raw(v)))
        self.ent_labels = self._labels(self._ent_ids)
        self.rel_labels = self._labels(self._rel_ids)
        self.attr_labels = self._labels(self._attr_ids)
        self.rel_triples = sorted(rel_triples)
        self.attr_triples = sorted(attr_triples, key=lambda x: (x[0], x[1], x[2].raw))
        self._attrs_by_entity: dict[int, list[tuple[int, ValueText]]] = {}
        self._values_by_slot: dict[tuple[int, int], list[ValueText]] = {}
        for h, a, v in self.attr_triples:
            self._attrs_by_entity.setdefault(h, []).append((a, v))
            self._values_by_slot.setdefault((h, a), []).append(v)
        self.attribute_counts = Counter(a for _, a, _ in self.attr_triples)

    @staticmethod
    def _intern(table: dict[str, int], label: str) -> int:
        if label not in table:
            table[label] = len(table)
        return table[label]

    @staticmethod
    def _labels(table: dict[str, int]) -> list[str]:
        labels = [""] * len(table)
        for label, idx in table.items():
            labels[idx] = label
        return labels

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

    def relation_id(self, label: str) -> int:
        try:
            return self._rel_ids[label]
        except KeyError:
            raise KeyError(f"unknown relation {label!r}") from None

    def attribute_id(self, label: str) -> int:
        try:
            return self._attr_ids[label]
        except KeyError:
            raise KeyError(f"unknown attribute {label!r}") from None

    def has_entity(self, label: str) -> bool:
        return label in self._ent_ids

    def has_relation(self, label: str) -> bool:
        return label in self._rel_ids

    def has_attribute(self, label: str) -> bool:
        return label in self._attr_ids

    def attributes_of(self, entity: int) -> list[tuple[int, ValueText]]:
        """Attribute slots of one entity in deterministic order."""
        return self._attrs_by_entity.get(entity, [])

    def values_of(self, entity: int, attribute: int) -> list[ValueText]:
        return self._values_by_slot.get((entity, attribute), [])


def load_graph(rel_path, attr_path) -> KnowledgeGraph:
    """Read one graph from tab-separated relationship and attribute files."""
    return KnowledgeGraph(_read_triple_file(rel_path), _read_triple_file(attr_path))


@dataclass(frozen=True)
class FrequentAttributes:
    """Attributes occurring more than ``min_count`` times, per graph side."""

    left: frozenset[int]
    right: frozenset[int]


def frequent_attributes(g: KnowledgeGraph, g2: KnowledgeGraph, min_count: int) -> FrequentAttributes:
    """Attributes whose triple count strictly exceeds ``min_count``."""
    if min_count < 1:
        raise ValueError("min_count must be >= 1")
    left = frozenset(a for a, c in g.attribute_counts.items() if c > min_count)
    right = frozenset(a for a, c in g2.attribute_counts.items() if c > min_count)
    return FrequentAttributes(left, right)


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
    slots = [(a, v) for a, v in g.attributes_of(entity) if a in frequent]
    slots.sort(key=lambda av: (-counts[av[0]], av[0], av[1].raw))
    return slots[:m_slots]


class AlignmentStore:
    """Aligned pairs of entities, relations, attributes, and values.

    Entity, relation, and attribute pairs are one-to-one; inserting a pair
    whose endpoint is already taken is refused.  Pairs are never removed.
    """

    def __init__(self):
        self.ent_pairs: set[tuple[int, int]] = set()
        self.rel_pairs: set[tuple[int, int]] = set()
        self.attr_pairs: set[tuple[int, int]] = set()
        self.val_pairs: set[tuple[ValueText, ValueText]] = set()
        self.provenance: dict[tuple, str] = {}
        self._ent_left: dict[int, int] = {}
        self._ent_right: dict[int, int] = {}
        self._rel_left: dict[int, int] = {}
        self._rel_right: dict[int, int] = {}
        self._attr_left: dict[int, int] = {}
        self._attr_right: dict[int, int] = {}

    def _add(self, pairs, left_map, right_map, kind, left, right, provenance) -> bool:
        if (left, right) in pairs:
            return False
        if left in left_map or right in right_map:
            return False
        pairs.add((left, right))
        left_map[left] = right
        right_map[right] = left
        self.provenance[(kind, left, right)] = provenance
        return True

    def add_ent_pair(self, left: int, right: int, provenance: str) -> bool:
        return self._add(self.ent_pairs, self._ent_left, self._ent_right,
                         "ent", left, right, provenance)

    def add_rel_pair(self, left: int, right: int, provenance: str) -> bool:
        return self._add(self.rel_pairs, self._rel_left, self._rel_right,
                         "rel", left, right, provenance)

    def add_attr_pair(self, left: int, right: int, provenance: str) -> bool:
        return self._add(self.attr_pairs, self._attr_left, self._attr_right,
                         "attr", left, right, provenance)

    def add_val_pair(self, left: ValueText, right: ValueText, provenance: str) -> bool:
        if (left, right) in self.val_pairs:
            return False
        self.val_pairs.add((left, right))
        self.provenance[("val", left.raw, right.raw)] = provenance
        return True

    def attr_map(self) -> dict[int, int]:
        return dict(self._attr_left)

    def aligned_left_entities(self) -> set[int]:
        return set(self._ent_left)

    def aligned_right_entities(self) -> set[int]:
        return set(self._ent_right)

    def taken_relations(self) -> tuple[set[int], set[int]]:
        return set(self._rel_left), set(self._rel_right)

    def taken_attributes(self) -> tuple[set[int], set[int]]:
        return set(self._attr_left), set(self._attr_right)

    def size(self) -> int:
        return (len(self.ent_pairs) + len(self.rel_pairs)
                + len(self.attr_pairs) + len(self.val_pairs))

    def copy(self) -> "AlignmentStore":
        dup = AlignmentStore()
        dup.ent_pairs = set(self.ent_pairs)
        dup.rel_pairs = set(self.rel_pairs)
        dup.attr_pairs = set(self.attr_pairs)
        dup.val_pairs = set(self.val_pairs)
        dup.provenance = dict(self.provenance)
        dup._ent_left = dict(self._ent_left)
        dup._ent_right = dict(self._ent_right)
        dup._rel_left = dict(self._rel_left)
        dup._rel_right = dict(self._rel_right)
        dup._attr_left = dict(self._attr_left)
        dup._attr_right = dict(self._attr_right)
        return dup


class CandidateSet:
    """Entity pairs still eligible for inference.

    Represented implicitly as the product of unaligned left and right
    entities; consuming a pair frees neither endpoint again, so the pool and
    the alignment store stay disjoint.
    """

    def __init__(self, free_left, free_right):
        self.free_left: set[int] = set(free_left)
        self.free_right: set[int] = set(free_right)

    @classmethod
    def from_graphs(cls, g: KnowledgeGraph, g2: KnowledgeGraph,
                    store: AlignmentStore) -> "CandidateSet":
        return cls(set(range(g.num_entities)) - store.aligned_left_entities(),
                   set(range(g2.num_entities)) - store.aligned_right_entities())

    def contains(self, left: int, right: int) -> bool:
        return left in self.free_left and right in self.free_right

    def consume(self, left: int, right: int) -> None:
        self.free_left.discard(left)
        self.free_right.discard(right)


@dataclass
class RankedAlignmentList:
    """One view's accepted entity pairs, descending by score (1-based ranks)."""

    pairs: list[tuple[int, int, float]]

    def __len__(self) -> int:
        return len(self.pairs)

    def left_entities(self) -> set[int]:
        return {m for m, _, _ in self.pairs}

    def right_entities(self) -> set[int]:
        return {n for _, n, _ in self.pairs}

    def rank_ratios(self) -> dict[tuple[int, int], float]:
        total = len(self.pairs)
        return {(m, n): (idx + 1) / total for idx, (m, n, _) in enumerate(self.pairs)}

    def scores(self) -> dict[tuple[int, int], float]:
        return {(m, n): s for m, n, s in self.pairs}


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


def infer_entity_pairs(scores: np.ndarray, candidates: CandidateSet, threshold: float,
                       exclude_left=(), exclude_right=()) -> RankedAlignmentList:
    """Candidate pairs scoring strictly above the threshold, one-to-one reduced."""
    rows, cols = np.nonzero(scores > threshold)
    excl_l = set(exclude_left)
    excl_r = set(exclude_right)
    scored = [(int(m), int(n), float(scores[m, n]))
              for m, n in zip(rows, cols)
              if candidates.contains(int(m), int(n))
              and int(m) not in excl_l and int(n) not in excl_r]
    return RankedAlignmentList(greedy_one_to_one(scored))


def _same_name_pairs(labels_left, labels_right) -> list[tuple[int, int]]:
    """One pair per case-folded surface name present on both sides."""
    def first_by_key(labels):
        mapping: dict[str, int] = {}
        for idx, label in enumerate(labels):
            key = label.strip().casefold()
            if key and (key not in mapping or idx < mapping[key]):
                mapping[key] = idx
        return mapping

    left = first_by_key(labels_left)
    right = first_by_key(labels_right)
    return sorted((left[k], right[k]) for k in left.keys() & right.keys())


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
        if not store.add_ent_pair(left, right, PROV_SEED) and (left, right) not in store.ent_pairs:
            raise ValueError(f"ILL pairs are not one-to-one at entity {left_label!r}")
    for left, right in _same_name_pairs(g.rel_labels, g2.rel_labels):
        store.add_rel_pair(left, right, PROV_SEED)
    for left, right in _same_name_pairs(g.attr_labels, g2.attr_labels):
        store.add_attr_pair(left, right, PROV_SEED)
    attr_map = store.attr_map()
    for ent_left, ent_right in sorted(store.ent_pairs):
        for attr, value in g.attributes_of(ent_left):
            counterpart = attr_map.get(attr)
            if counterpart is None:
                continue
            for value2 in g2.values_of(ent_right, counterpart):
                store.add_val_pair(value, value2, PROV_SEED)
    return store
