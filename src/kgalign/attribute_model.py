"""Interaction-based attribute similarity between two graphs.

Each entity contributes up to ``m_slots`` frequent-attribute value
embeddings.  The entity-pair score sums the dot products of all slot pairs
whose attributes are aligned; slots of unaligned attributes never interact.
Each slot is identified by a right-graph attribute: a right slot by its own,
so the right keys are the right matrix's ``attrs``, and a left slot by the one
its attribute is aligned to (-1 when it has none).
The full 4-d slot-pair tensor is never materialized: because the mask keeps
only equal identifications and dot products are bilinear, grouping slots by
identification and multiplying the per-entity aggregates is exactly
equivalent.

Memory: a graph's slot values are one embedding per distinct token tuple
(distinct values x D floats) plus an N x ``m_slots`` index into them and an
N x ``m_slots`` array of attribute ids; no (N, m_slots, D) array is made.
Besides its N x N' float64 output, ``entity_similarity_attr`` holds the right
graph's per-group aggregates (at most N' * m_slots * D floats, built slot by
slot) and one product buffer per worker, as large as the largest product that
worker forms.  The first group that touches a block is multiplied straight
into it when it covers every row and every column, so it needs no buffer.
Every later product is added ``_ADD_ROWS`` rows at a time by one
``np.add.at`` on the block's flat view, so an add gathers no copy; its cell
indices go into one more buffer per worker, of ``_ADD_ROWS`` x N' intp.
Inference scans the output in row blocks (``infer_entity_pairs``) and builds
no N x N' mask.
"""

from __future__ import annotations

import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .kg import (
    AlignmentStore,
    KnowledgeGraph,
    ValueText,
    cooccurring_values,
    greedy_one_to_one,
    infer_entity_pairs,
    top_m_attr_slots,
)
from .translator import WordVectorProvider, embed_values, translate_tokens


_DUMP_ROWS = 1024  # rows converted per step, so no whole float32 copy is held


def write_similarity_dump(scores: np.ndarray, path) -> None:
    """Binary dump: 8-byte header (rows, cols as little-endian uint32), then
    row-major float32."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<II", scores.shape[0], scores.shape[1]))
        for start in range(0, scores.shape[0], _DUMP_ROWS):
            fh.write(np.ascontiguousarray(scores[start:start + _DUMP_ROWS], dtype="<f4"))


def read_similarity_dump(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(8)
        if len(header) != 8:
            raise ValueError(f"{path}: truncated similarity dump header")
        rows, cols = struct.unpack("<II", header)
        expected = rows * cols * 4
        payload = os.fstat(fh.fileno()).st_size - len(header)
        if payload != expected:
            raise ValueError(f"{path}: expected {expected} payload bytes, got {payload}")
        scores = np.empty((rows, cols))
        for start in range(0, rows, _DUMP_ROWS):
            block = scores[start:start + _DUMP_ROWS]
            block[:] = np.fromfile(fh, dtype="<f4", count=block.size).reshape(block.shape)
    return scores


@dataclass
class ValueEmbeddingMatrix:
    """Per-entity slot embeddings, one row of ``vectors`` per distinct value.

    ``index`` is (N, m_slots): slot ``i`` of entity ``e`` holds
    ``vectors[index[e, i]]``.  Row 0 is the zero vector behind padding.
    ``attrs`` is (N, m_slots) too: the attribute id of each slot, -1 on
    padding.
    """

    vectors: np.ndarray
    index: np.ndarray
    slot_count: np.ndarray
    attrs: np.ndarray


def build_value_matrix(g: KnowledgeGraph, table, provider: WordVectorProvider,
                       m_slots: int, frequent: frozenset[int]) -> ValueEmbeddingMatrix:
    """Slot embeddings for one graph; left-graph values are translated first.

    Pass ``table=None`` to embed original values (the right graph, or a run
    without a trained translator).
    """
    n = g.num_entities
    slots = [top_m_attr_slots(g, entity, m_slots, frequent) for entity in range(n)]
    slot_count = np.array([len(chosen) for chosen in slots], dtype=np.int64)
    tokens = [value.tokens for chosen in slots for _, value in chosen]
    if table is not None:
        # A translation depends only on the tuple, so each distinct one is translated once.
        translated = {t: translate_tokens(table, t) for t in dict.fromkeys(tokens)}
        tokens = [translated[t] for t in tokens]
    # Equal token tuples embed equally, so each distinct one is embedded once.
    # The empty tuple embeds to zero, so it is row 0, behind the padding too.
    distinct = {t: i for i, t in enumerate(dict.fromkeys([(), *tokens]))}
    vectors = embed_values(provider, list(distinct))
    entity = np.repeat(np.arange(n), slot_count)
    position = [i for chosen in slots for i in range(len(chosen))]
    index = np.zeros((n, m_slots), dtype=np.int64)
    index[entity, position] = [distinct[t] for t in tokens]
    attrs = np.full((n, m_slots), -1, dtype=np.int64)
    attrs[entity, position] = [a for chosen in slots for a, _ in chosen]
    return ValueEmbeddingMatrix(vectors, index, slot_count, attrs)


def build_attr_slot_matrix(values: ValueEmbeddingMatrix, ident_of: dict[int, int]) -> np.ndarray:
    """Identification per slot of one graph: ``ident_of[attribute]``, or -1
    for padding and for an attribute ``ident_of`` lacks."""
    # One entry per attribute id up to the largest held, then one that stays
    # -1, which the padding's -1 indexes.
    table = np.full(values.attrs.max(initial=-1) + 2, -1, dtype=np.int64)
    held = [a for a in ident_of if a < table.size - 1]
    table[held] = [ident_of[a] for a in held]
    return table[values.attrs]


def _check_shapes(values_left, values_right, slots_left, slots_right):
    if values_left.vectors.shape[1] != values_right.vectors.shape[1]:
        raise ValueError("embedding dimensions differ between the two graphs")
    if values_left.index.shape != slots_left.shape:
        raise ValueError("left value and identification shapes differ")
    if values_right.index.shape != slots_right.shape:
        raise ValueError("right value and identification shapes differ")


# Product rows added by one ``np.add.at`` on a block's flat view.  A call per
# row (about 16,000 a round at N=4000) holds the GIL for most of its time, so
# a second worker gains nothing; 16 rows make 16 times fewer calls, and their
# index buffer is 16 block rows.
_ADD_ROWS = 16


def _group_aggregate(vectors: np.ndarray, index: np.ndarray, ids: np.ndarray, ident: int):
    """Rows of ``ids`` holding ``ident``, and for each the sum of its slot
    embeddings that hold it.

    The held slots are added into one (rows, D) accumulator in slot order,
    which adds what ``.sum(axis=1)`` over a masked (rows, m_slots, D) copy
    adds, bit for bit: where the masked copy adds a +-0.0, this adds row 0 of
    ``vectors``, and neither changes an accumulator that starts at +0.0.
    Only slot positions holding ``ident`` in some row are visited; the others
    would add only zeros.
    """
    mask = ids == ident
    rows = np.flatnonzero(mask.any(axis=1))
    held = mask[rows]
    agg = np.zeros((rows.size, vectors.shape[1]))
    for pos in np.flatnonzero(held.any(axis=0)):
        agg += vectors[np.where(held[:, pos], index[rows, pos], 0)]
    return rows, agg


def _largest_product(ids_block: np.ndarray, right_groups, n2: int) -> int:
    """Floats in the largest group product a block forms.  The first group
    that touches the block forms none when it covers all of it: that one is
    multiplied straight into the block."""
    sizes = [np.count_nonzero((ids_block == ident).any(axis=1)) * cols.size
             for ident, cols, _ in right_groups]
    sizes = [size for size in sizes if size]
    if sizes and sizes[0] == ids_block.shape[0] * n2:
        sizes = sizes[1:]
    return max(sizes, default=0)


def entity_similarity_attr(values_left: ValueEmbeddingMatrix,
                           values_right: ValueEmbeddingMatrix,
                           slots_left: np.ndarray,
                           slots_right: np.ndarray,
                           block_size: int = 1024,
                           workers: int = 1) -> np.ndarray:
    """Entity scores: sum of slot-pair dot products over equal identifications.

    Computed per identification group as aggregate matrix products, blockwise
    over left-entity rows and added in ascending identification order.  The
    result is bitwise independent of the worker count because each block is
    written by exactly one worker and the within-block summation order is
    fixed.
    """
    _check_shapes(values_left, values_right, slots_left, slots_right)
    n = values_left.index.shape[0]
    n2 = values_right.index.shape[0]
    shared = sorted(set(np.unique(slots_left)) & set(np.unique(slots_right)) - {-1})
    scores = np.zeros((n, n2))

    right_groups = [(ident, *_group_aggregate(values_right.vectors, values_right.index,
                                               slots_right, ident))
                    for ident in shared]

    def fill_blocks(starts, buffer: np.ndarray, index_buffer: np.ndarray) -> None:
        for start in starts:
            stop = min(start + block_size, n)
            ids_block = slots_left[start:stop]
            index_block = values_left.index[start:stop]
            out = scores[start:stop]
            flat = out.reshape(-1)
            first = True
            for ident, cols, right_agg in right_groups:
                rows, left_agg = _group_aggregate(values_left.vectors, index_block, ids_block,
                                                  ident)
                if rows.size == 0:
                    continue
                if first and rows.size == out.shape[0] and cols.size == out.shape[1]:
                    np.matmul(left_agg, right_agg.T, out=out)
                    out += 0.0  # as adding to the zero-filled block: a -0.0 becomes +0.0
                else:
                    product = buffer[:rows.size * cols.size].reshape(rows.size, cols.size)
                    np.matmul(left_agg, right_agg.T, out=product)
                    for chunk in range(0, rows.size, _ADD_ROWS):
                        part = rows[chunk:chunk + _ADD_ROWS]
                        cells = index_buffer[:part.size * cols.size].reshape(part.size, cols.size)
                        np.add(part[:, None] * n2, cols, out=cells)
                        np.add.at(flat, cells.ravel(), product[chunk:chunk + part.size].ravel())
                first = False

    # Worker w fills blocks w, w + workers, ...; no worker is left without a
    # block.  Its buffers are made here, in the calling thread: one as large
    # as the largest product it forms, and one for the flat cell indices of
    # ``_ADD_ROWS`` block rows.
    starts = range(0, n, block_size)
    lanes = [starts[w::workers] for w in range(min(workers, len(starts)))]
    buffers = [np.empty(max((_largest_product(slots_left[s:s + block_size], right_groups, n2)
                             for s in lane), default=0))
               for lane in lanes]
    index_buffers = [np.empty(_ADD_ROWS * n2, dtype=np.intp) for _ in lanes]
    with ThreadPoolExecutor(max_workers=max(len(lanes), 1)) as pool:
        list(pool.map(fill_blocks, lanes, buffers, index_buffers))
    return scores


@dataclass
class AttributeInference:
    """New alignments proposed by the attribute view in one iteration."""

    entities: list[tuple[int, int, float]]  # (left, right, score), descending score
    attribute_pairs: list[tuple[int, int, float]]
    value_pairs: set[tuple[ValueText, ValueText]]


def infer_from_attribute_view(s_attr: np.ndarray, store: AlignmentStore,
                              tau_e_attr: float, tau_v: float,
                              g: KnowledgeGraph, g2: KnowledgeGraph,
                              values_left: ValueEmbeddingMatrix,
                              values_right: ValueEmbeddingMatrix) -> AttributeInference:
    """Entity, attribute, and value alignments from the attribute view.

    Entity pairs with neither entity aligned yet clear ``tau_e_attr`` and
    are one-to-one reduced.  Attribute pairs come from slot pairs of aligned
    entities (existing alignments plus this round's entity inferences) whose
    value similarity clears ``tau_v``.
    Value pairs are the co-occurring values of triples whose entity and
    attribute are both aligned.
    """
    entities = infer_entity_pairs(s_attr, tau_e_attr, *store.taken("ent"))
    known_pairs = sorted(store.ent_pairs | {(m, n) for m, n, _ in entities})

    # A proposal on a taken attribute is dropped by the one-to-one reduction,
    # so a pair whose left or right slots are all on taken ones is skipped.
    taken_left, taken_right = store.taken("attr")
    proposals: dict[tuple[int, int], float] = {}
    for left, right in known_pairs:
        attrs_l = values_left.attrs[left].tolist()
        attrs_r = values_right.attrs[right].tolist()
        if (all(a in taken_left for a in attrs_l if a != -1)
                or all(a in taken_right for a in attrs_r if a != -1)):
            continue
        sims = (values_left.vectors[values_left.index[left]]
                @ values_right.vectors[values_right.index[right]].T)
        for i, j in np.argwhere(sims > tau_v):
            if attrs_l[i] == -1 or attrs_r[j] == -1:
                continue
            key = (attrs_l[i], attrs_r[j])
            sim = float(sims[i, j])
            if sim > proposals.get(key, float("-inf")):
                proposals[key] = sim
    scored = [(a, b, sim) for (a, b), sim in proposals.items()]
    new_attrs = greedy_one_to_one(scored, taken_left, taken_right)

    attr_map = store.attr_map()
    attr_map.update({a: b for a, b, _ in new_attrs})
    new_vals = {pair for pair in cooccurring_values(g, g2, known_pairs, attr_map)
                if pair not in store.val_pairs}
    return AttributeInference(entities, new_attrs, new_vals)
