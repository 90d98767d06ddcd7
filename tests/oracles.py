"""Reference implementations that the fast paths are checked against; slow by
design and used only by the tests."""

import hashlib
import math
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from kgalign.attribute_model import AttributeInference, ValueEmbeddingMatrix
from kgalign.kg import (
    _CJK_RANGES,
    KnowledgeGraph,
    ParseError,
    ValueText,
    cooccurring_values,
    greedy_one_to_one,
    infer_entity_pairs,
)
from kgalign.translator import TranslationTable, _dedup_pairs


def _is_cjk(ch):
    cp = ord(ch)
    return any(lo <= cp <= hi for lo, hi in _CJK_RANGES)


def tokenize_loop(raw):
    """Character loop: CJK codepoints alone, runs of ``isalnum`` characters."""
    tokens = []
    current = []
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


def transe_energy(table, head, relation, tail):
    """||h + r - t||, the residual the relation-translation leaves behind."""
    return float(np.linalg.norm(table.ent[head] + table.rel[relation] - table.ent[tail]))


def swap_triplets_tuples(g, g2, store):
    """The sorted, deduplicated base and seed-swapped triples as tuples: every
    aligned entity replaces its counterpart in head and tail position
    independently, and every aligned relation in relation position."""
    n, l = g.num_entities, g.num_relations
    base = set(g.rel_triples)
    base.update((h + n, r + l, t + n) for h, r, t in g2.rel_triples)

    by_head: dict[int, list] = {}
    by_tail: dict[int, list] = {}
    by_rel: dict[int, list] = {}
    for triple in base:
        by_head.setdefault(triple[0], []).append(triple)
        by_tail.setdefault(triple[2], []).append(triple)
        by_rel.setdefault(triple[1], []).append(triple)

    out = set(base)
    for left, right in sorted(store.ent_pairs):
        for one, other in ((left, right + n), (right + n, left)):
            for h, r, t in by_head.get(one, ()):
                out.add((other, r, t))
            for h, r, t in by_tail.get(one, ()):
                out.add((h, r, other))
    for left, right in sorted(store.rel_pairs):
        for one, other in ((left, right + l), (right + l, left)):
            for h, r, t in by_rel.get(one, ()):
                out.add((h, other, t))
    return sorted(out)


def compact_values(dense, ids):
    """The value matrix of a zero-padded (N, m_slots, D) array: each cell is
    its own row of ``vectors``, behind the zero row 0."""
    n, m, dim = dense.shape
    vectors = np.concatenate([np.zeros((1, dim)), dense.reshape(n * m, dim)])
    index = np.arange(1, n * m + 1).reshape(n, m)
    return ValueEmbeddingMatrix(vectors, index, (ids != -1).sum(axis=1), ids)


def dense_values(values):
    """The zero-padded (N, m_slots, D) array a value matrix stands for."""
    return values.vectors[values.index]


def brute_force_scores(values_l, values_r, ids_l, ids_r):
    """Quadruple-loop reference: every slot pair, masked by equal ids."""
    n, m, _ = values_l.shape
    n2 = values_r.shape[0]
    out = np.zeros((n, n2))
    for a in range(n):
        for b in range(n2):
            total = 0.0
            for i in range(m):
                for j in range(m):
                    if ids_l[a, i] != -1 and ids_l[a, i] == ids_r[b, j]:
                        total += float(values_l[a, i] @ values_r[b, j])
            out[a, b] = total
    return out


def entity_similarity_attr_dense(values_left, values_right, slots_left, slots_right):
    """Definitional path: materialize all slot-pair products, mask, and sum.

    Memory grows as N * N' * m_slots^2, so this is only for small inputs and
    for cross-checking the grouped fast path.
    """
    sims = np.einsum("mid,njd->mnij", dense_values(values_left), dense_values(values_right))
    ids_l = slots_left[:, None, :, None]
    ids_r = slots_right[None, :, None, :]
    mask = (ids_l == ids_r) & (ids_l != -1)
    return (sims * mask).sum(axis=(2, 3))


def entity_similarity_attr_ix(values_left, values_right, slots_left, slots_right,
                              block_size=1024, workers=1):
    """Grouped products accumulated through ``np.ix_`` gathers, whatever a
    group covers: the same blocks and product shapes as the fast path, so its
    sums must agree bit for bit."""
    data_left = dense_values(values_left)
    data_right = dense_values(values_right)
    n = data_left.shape[0]
    n2 = data_right.shape[0]
    shared = sorted(set(np.unique(slots_left)) & set(np.unique(slots_right)) - {-1})
    scores = np.zeros((n, n2))

    right_groups = []
    for ident in shared:
        mask = slots_right == ident
        cols = np.nonzero(mask.any(axis=1))[0]
        agg = (data_right[cols] * mask[cols][:, :, None]).sum(axis=1)
        right_groups.append((ident, cols, agg))

    def fill_block(start):
        stop = min(start + block_size, n)
        ids_block = slots_left[start:stop]
        data_block = data_left[start:stop]
        for ident, cols, right_agg in right_groups:
            mask = ids_block == ident
            rows = np.nonzero(mask.any(axis=1))[0]
            if rows.size == 0:
                continue
            left_agg = (data_block[rows] * mask[rows][:, :, None]).sum(axis=1)
            scores[np.ix_(rows + start, cols)] += left_agg @ right_agg.T

    with ThreadPoolExecutor(max_workers=workers) as pool:
        list(pool.map(fill_block, range(0, n, block_size)))
    return scores


def attr_slot_ids_loop(slots, m_slots, ident_of):
    """Identification per slot, one slot at a time: ``ident_of[attribute]``,
    or -1 for padding and for an attribute ``ident_of`` lacks.  ``slots``
    holds each entity's ``top_m_attr_slots``."""
    ids = np.full((len(slots), m_slots), -1, dtype=np.int64)
    for entity, chosen in enumerate(slots):
        for i, (attr, _) in enumerate(chosen):
            ids[entity, i] = ident_of.get(attr, -1)
    return ids


def masked_group_aggregate(data, ids, ident):
    """Rows of ``ids`` holding ``ident``, and the sum over slots of a masked
    (rows, m_slots, D) copy of their embeddings."""
    mask = ids == ident
    rows = np.nonzero(mask.any(axis=1))[0]
    return rows, (data[rows] * mask[rows][:, :, None]).sum(axis=1)


def infer_entity_pairs_whole(scores, threshold, taken_left=(), taken_right=()):
    """One N x N' mask of the cells above the threshold, scanned whole."""
    rows, cols = np.nonzero(scores > threshold)
    scored = [(m, n, float(scores[m, n]))
              for m, n in zip(rows.tolist(), cols.tolist())
              if m not in taken_left and n not in taken_right]
    return greedy_one_to_one(scored)


def evaluate_masked(scores, test_pairs, ks):
    """HR@K and MRR from ranks counted with two boolean sums and a
    ``cols < right`` mask over each test row."""
    cols = np.arange(scores.shape[1])
    ranks = []
    for left, right in test_pairs:
        row = scores[left]
        s = row[right]
        ranks.append(1 + int((row > s).sum()) + int(((row == s) & (cols < right)).sum()))
    ranks = np.asarray(ranks, dtype=np.float64)
    return {int(k): float((ranks <= k).mean()) for k in ks}, float((1.0 / ranks).mean())


def unified_slot_ids(values_left, values_right, frequent_left, frequent_right, attr_pairs):
    """Slot identifications numbered over the united frequent attributes.

    Every frequent attribute starts with its own identification, the left
    block (sorted) first, then the right block (sorted).  Each aligned pair of
    frequent attributes rewrites the left one's identification to the right
    one's.  Returns the (left, right) identification arrays, -1 for padding.
    """
    left_sorted = sorted(frequent_left)
    right_sorted = sorted(frequent_right)
    left_ids = {a: i for i, a in enumerate(left_sorted)}
    right_ids = {a: len(left_sorted) + i for i, a in enumerate(right_sorted)}
    for left, right in sorted(attr_pairs):
        if left in left_ids and right in right_ids:
            left_ids[left] = right_ids[right]

    def slot_ids(values, mapping):
        ids = np.full(values.attrs.shape, -1, dtype=np.int64)
        for (entity, i), attr in np.ndenumerate(values.attrs):
            if attr != -1:
                ids[entity, i] = mapping[attr]
        return ids

    return slot_ids(values_left, left_ids), slot_ids(values_right, right_ids)


def train_translation_loop(pairs, iterations):
    """Dict-based expectation maximization over the deduplicated corpus.

    Every sum is an explicit ``+=`` loop from 0.0 in corpus order, so the
    result does not depend on how the Python version's ``sum`` adds floats.
    """
    corpus = _dedup_pairs(pairs)
    cooc = {}
    for src_tokens, tgt_tokens in corpus:
        for s in src_tokens:
            cooc.setdefault(s, set()).update(tgt_tokens)
    probs = {s: {t: 1.0 / len(ts) for t in sorted(ts)} for s, ts in cooc.items()}

    log_likelihoods = []
    for _ in range(iterations):
        counts = {}
        totals = {}
        ll = 0.0
        for src_tokens, tgt_tokens in corpus:
            for t in tgt_tokens:
                denom = 0.0
                for s in src_tokens:
                    denom += probs[s].get(t, 0.0)
                ll += math.log(denom) - math.log(len(src_tokens))
                for s in src_tokens:
                    p = probs[s].get(t, 0.0)
                    if p <= 0.0:
                        continue
                    c = p / denom
                    counts[(s, t)] = counts.get((s, t), 0.0) + c
                    totals[s] = totals.get(s, 0.0) + c
        log_likelihoods.append(ll)
        fresh = {s: {} for s in probs}
        for (s, t), c in counts.items():
            fresh[s][t] = c / totals[s]
        probs = fresh

    best = {s: min(ts.items(), key=lambda kv: (-kv[1], kv[0]))[0]
            for s, ts in probs.items() if ts}
    return TranslationTable(probs, best, log_likelihoods)


def seeded_unit_vector(seed, dimension):
    """``standard_normal`` of a fresh ``Generator(PCG64(seed))``,
    L2-normalized; the first basis vector should the draw have norm 0."""
    vec = np.random.Generator(np.random.PCG64(seed)).standard_normal(dimension)
    norm = float(np.linalg.norm(vec))
    if norm == 0.0:
        vec = np.zeros(dimension)
        vec[0] = 1.0
        return vec
    return vec / norm


def token_vector(token, dimension):
    """One token's unit vector, its generator built for it alone from the
    token's 8-byte blake2b digest read little-endian."""
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return seeded_unit_vector(int.from_bytes(digest, "little"), dimension)


def embed_value(provider, value):
    """Mean of per-token unit vectors, L2-normalized; zero for empty values."""
    if not value.tokens:
        return np.zeros(provider.dimension)
    mean = np.mean(provider.vectors(list(value.tokens)), axis=0)
    norm = float(np.linalg.norm(mean))
    if norm < 1e-12:
        return np.zeros(provider.dimension)
    return mean / norm


class AlignmentStoreWithSets:
    """An alignment store that records each entity, relation and attribute
    pair four times: in a pair set, a left and a right endpoint map, and
    ``provenance``."""

    def __init__(self):
        self.ent_pairs = set()
        self.rel_pairs = set()
        self.attr_pairs = set()
        self.val_pairs = set()
        self.provenance = {}
        self._ent_left = {}
        self._ent_right = {}
        self._rel_left = {}
        self._rel_right = {}
        self._attr_left = {}
        self._attr_right = {}

    def _add(self, pairs, left_map, right_map, kind, left, right, provenance):
        if left in left_map or right in right_map:
            return False
        pairs.add((left, right))
        left_map[left] = right
        right_map[right] = left
        self.provenance[(kind, left, right)] = provenance
        return True

    def add_ent_pair(self, left, right, provenance):
        return self._add(self.ent_pairs, self._ent_left, self._ent_right,
                         "ent", left, right, provenance)

    def add_rel_pair(self, left, right, provenance):
        return self._add(self.rel_pairs, self._rel_left, self._rel_right,
                         "rel", left, right, provenance)

    def add_attr_pair(self, left, right, provenance):
        return self._add(self.attr_pairs, self._attr_left, self._attr_right,
                         "attr", left, right, provenance)

    def add_val_pair(self, left, right, provenance):
        if (left, right) in self.val_pairs:
            return False
        self.val_pairs.add((left, right))
        self.provenance[("val", left.raw, right.raw)] = provenance
        return True

    def attr_map(self):
        return dict(self._attr_left)

    def taken_entities(self):
        return set(self._ent_left), set(self._ent_right)

    def taken_relations(self):
        return set(self._rel_left), set(self._rel_right)

    def taken_attributes(self):
        return set(self._attr_left), set(self._attr_right)

    def size(self):
        return (len(self.ent_pairs) + len(self.rel_pairs)
                + len(self.attr_pairs) + len(self.val_pairs))


def write_alignment_dump_per_kind(store, g, g2, path):
    """The alignment dump joined from each kind's pair set and ``provenance``."""
    lines = []
    for left, right in store.ent_pairs:
        lines.append(("ent", g.ent_labels[left], g2.ent_labels[right],
                      store.provenance[("ent", left, right)]))
    for left, right in store.rel_pairs:
        lines.append(("rel", g.rel_labels[left], g2.rel_labels[right],
                      store.provenance[("rel", left, right)]))
    for left, right in store.attr_pairs:
        lines.append(("attr", g.attr_labels[left], g2.attr_labels[right],
                      store.provenance[("attr", left, right)]))
    for left, right in store.val_pairs:
        lines.append(("val", left.raw, right.raw,
                      store.provenance[("val", left.raw, right.raw)]))
    with open(path, "w", encoding="utf-8") as fh:
        for row in sorted(lines):
            fh.write("\t".join(row) + "\n")


def infer_from_attribute_view_unskipped(s_attr, store, tau_e_attr, tau_v, g, g2,
                                        values_left, values_right):
    """The attribute view's inference with slot similarities computed for
    every known entity pair, whether or not its attributes are taken."""
    entities = infer_entity_pairs(s_attr, tau_e_attr, *store.taken("ent"))
    known_pairs = sorted(store.ent_pairs | {(m, n) for m, n, _ in entities})
    data_left = dense_values(values_left)
    data_right = dense_values(values_right)
    proposals = {}
    for left, right in known_pairs:
        sims = data_left[left] @ data_right[right].T
        for i, j in np.argwhere(sims > tau_v):
            if i >= values_left.slot_count[left] or j >= values_right.slot_count[right]:
                continue
            key = (int(values_left.attrs[left, i]), int(values_right.attrs[right, j]))
            sim = float(sims[i, j])
            if sim > proposals.get(key, float("-inf")):
                proposals[key] = sim
    scored = [(a, b, sim) for (a, b), sim in proposals.items()]
    new_attrs = greedy_one_to_one(scored, *store.taken("attr"))
    attr_map = store.attr_map()
    attr_map.update({a: b for a, b, _ in new_attrs})
    new_vals = {pair for pair in cooccurring_values(g, g2, known_pairs, attr_map)
                if pair not in store.val_pairs}
    return AttributeInference(entities, new_attrs, new_vals)


def attribute_index_per_row(g, attr_rows):
    """``g``'s attribute triples, its rows by entity and attribute counts,
    built with one ``ValueText`` per row."""
    triples = sorted({(g.entity_id(h), g.attr_labels.index(a), ValueText.from_raw(v))
                      for h, a, v in attr_rows}, key=lambda x: (x[0], x[1], x[2].raw))
    by_entity = {}
    for row in triples:
        by_entity.setdefault(row[0], []).append(row)
    return triples, by_entity, Counter(a for _, a, _ in triples)


def read_lines_per_line(path):
    """``kg.read_lines`` by text-mode iteration over the file, one line at a time."""
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                yield lineno, line.rstrip("\n").rstrip("\r")
    except UnicodeDecodeError:
        # Text mode decodes in chunks, so find the line from the raw bytes.
        with open(path, "rb") as fh:
            for lineno, raw in enumerate(fh.read().splitlines(), 1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ParseError(path, lineno, f"not valid UTF-8 ({exc.reason})") from None
        raise


def read_triple_file_per_line(path):
    rows = []
    for lineno, line in read_lines_per_line(path):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ParseError(path, lineno, f"expected 3 tab-separated fields, got {len(parts)}")
        rows.append((parts[0], parts[1], parts[2]))
    return rows


def _intern(table, label):
    if label not in table:
        table[label] = len(table)
    return table[label]


def _labels_by_id(table):
    labels = [""] * len(table)
    for label, idx in table.items():
        labels[idx] = label
    return labels


class GraphPerRow(KnowledgeGraph):
    """A ``KnowledgeGraph`` that interns one label at a time, deduplicates
    attribute rows as (entity, attribute, ``ValueText``) triples, and answers
    ``attributes_of`` from its own per-entity lists."""

    def __init__(self, rel_rows, attr_rows):
        self._ent_ids = {}
        self._rel_ids = {}
        self._attr_ids = {}
        rel_triples = set()
        attr_triples = set()
        for h, r, t in rel_rows:
            rel_triples.add((_intern(self._ent_ids, h), _intern(self._rel_ids, r),
                             _intern(self._ent_ids, t)))
        texts = {}  # one ValueText per literal
        for h, a, v in attr_rows:
            text = texts.get(v)
            if text is None:
                text = texts[v] = ValueText.from_raw(v)
            attr_triples.add((_intern(self._ent_ids, h), _intern(self._attr_ids, a), text))
        self.ent_labels = _labels_by_id(self._ent_ids)
        self.rel_labels = _labels_by_id(self._rel_ids)
        self.attr_labels = _labels_by_id(self._attr_ids)
        self.rel_triples = sorted(rel_triples)
        self.attr_triples = sorted(attr_triples, key=lambda x: (x[0], x[1], x[2].raw))
        self._attrs_by_entity = {}
        for row in self.attr_triples:
            self._attrs_by_entity.setdefault(row[0], []).append(row)
        self.attribute_counts = Counter(a for _, a, _ in self.attr_triples)

    def attributes_of(self, entity):
        return self._attrs_by_entity.get(entity, [])


def load_graph_per_line(rel_path, attr_path):
    """``kg.load_graph`` through ``read_lines_per_line`` and ``GraphPerRow``."""
    return GraphPerRow(read_triple_file_per_line(rel_path), read_triple_file_per_line(attr_path))
