"""Interaction-based attribute similarity between two graphs.

Each entity contributes up to ``m_slots`` frequent-attribute value
embeddings.  The entity-pair score sums the dot products of all slot pairs
whose attributes carry the same unified identification; slots of unaligned
attributes never interact.  The full 4-d slot-pair tensor is never
materialized: because the mask keeps only equal identifications and dot
products are bilinear, grouping slots by identification and multiplying the
per-entity aggregates is exactly equivalent and needs only
O((N + N') * K * D + N * N') memory.
"""

from __future__ import annotations

import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .kg import (
    AlignmentStore,
    CandidateSet,
    FrequentAttributes,
    KnowledgeGraph,
    RankedAlignmentList,
    ValueText,
    greedy_one_to_one,
    infer_entity_pairs,
    top_m_attr_slots,
)
from .translator import WordVectorProvider, embed_value, translate_value


@dataclass
class SimilarityMatrix:
    """Dense entity-scores between the two graphs; rows index the left graph."""

    data: np.ndarray
    source: str  # "attribute-view" or "relationship-view"


def write_similarity_dump(matrix: SimilarityMatrix, path) -> None:
    """Binary dump: 8-byte header (rows, cols as little-endian uint32), then
    row-major float32."""
    data = np.ascontiguousarray(matrix.data, dtype=np.float32)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<II", data.shape[0], data.shape[1]))
        fh.write(data.tobytes())


def read_similarity_dump(path) -> np.ndarray:
    with open(path, "rb") as fh:
        header = fh.read(8)
        if len(header) != 8:
            raise ValueError(f"{path}: truncated similarity dump header")
        rows, cols = struct.unpack("<II", header)
        payload = fh.read()
    expected = rows * cols * 4
    if len(payload) != expected:
        raise ValueError(f"{path}: expected {expected} payload bytes, got {len(payload)}")
    return np.frombuffer(payload, dtype="<f4").reshape(rows, cols).astype(np.float64)


@dataclass
class ValueEmbeddingMatrix:
    """Per-entity slot embeddings: shape (N, m_slots, dim), zero-padded."""

    data: np.ndarray
    slot_count: np.ndarray
    slots: list[list[tuple[int, ValueText]]]  # (attribute id, value) behind each slot


@dataclass
class AttributeSlotMatrix:
    """Unified attribute identification per slot, -1 for padding."""

    ids: np.ndarray


@dataclass(frozen=True)
class AttributeUnification:
    """Stable identifications over the united frequent attributes.

    Every frequent attribute starts with its own identification (left block
    first, then right block).  Aligning a pair rewrites the left attribute's
    identification to the right one's, so adding a pair changes exactly the
    slots of that attribute and nothing else.
    """

    left_ids: dict[int, int]
    right_ids: dict[int, int]
    universe_size: int
    united_count: int


def build_attribute_unification(frequent: FrequentAttributes, attr_pairs) -> AttributeUnification:
    left_sorted = sorted(frequent.left)
    right_sorted = sorted(frequent.right)
    left_ids = {a: i for i, a in enumerate(left_sorted)}
    right_ids = {a: len(left_sorted) + i for i, a in enumerate(right_sorted)}
    united = 0
    for left, right in sorted(attr_pairs):
        if left in left_ids and right in right_ids:
            left_ids[left] = right_ids[right]
            united += 1
    return AttributeUnification(left_ids, right_ids,
                                len(left_sorted) + len(right_sorted),
                                len(left_sorted) + len(right_sorted) - united)


def build_value_matrix(g: KnowledgeGraph, table, provider: WordVectorProvider,
                       m_slots: int, frequent: frozenset[int]) -> ValueEmbeddingMatrix:
    """Slot embeddings for one graph; left-graph values are translated first.

    Pass ``table=None`` to embed original values (the right graph, or a run
    without a trained translator).
    """
    n = g.num_entities
    data = np.zeros((n, m_slots, provider.dimension))
    slot_count = np.zeros(n, dtype=np.int64)
    slots: list[list[tuple[int, ValueText]]] = []
    for entity in range(n):
        chosen = top_m_attr_slots(g, entity, m_slots, frequent)
        slots.append(chosen)
        slot_count[entity] = len(chosen)
        for i, (_, value) in enumerate(chosen):
            if table is not None:
                value = translate_value(table, value)
            data[entity, i] = embed_value(provider, value)
    return ValueEmbeddingMatrix(data, slot_count, slots)


def build_attr_slot_matrix(values: ValueEmbeddingMatrix, unification: AttributeUnification,
                           side: str) -> AttributeSlotMatrix:
    """Unified identification per slot of one graph side ("left" or "right").

    The slots are the ones ``values`` was built from, so both matrices index
    the same (entity, slot) cells.
    """
    if side not in ("left", "right"):
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    mapping = unification.left_ids if side == "left" else unification.right_ids
    ids = np.full(values.data.shape[:2], -1, dtype=np.int64)
    for entity, chosen in enumerate(values.slots):
        for i, (attr, _) in enumerate(chosen):
            ids[entity, i] = mapping[attr]
    return AttributeSlotMatrix(ids)


def _check_shapes(values_left, values_right, slots_left, slots_right):
    if values_left.data.shape[2] != values_right.data.shape[2]:
        raise ValueError("embedding dimensions differ between the two graphs")
    if values_left.data.shape[:2] != slots_left.ids.shape:
        raise ValueError("left value and identification shapes differ")
    if values_right.data.shape[:2] != slots_right.ids.shape:
        raise ValueError("right value and identification shapes differ")


def entity_similarity_attr(values_left: ValueEmbeddingMatrix,
                           values_right: ValueEmbeddingMatrix,
                           slots_left: AttributeSlotMatrix,
                           slots_right: AttributeSlotMatrix,
                           block_size: int = 1024,
                           workers: int = 1) -> SimilarityMatrix:
    """Entity scores: sum of slot-pair dot products over equal identifications.

    Computed per identification group as aggregate matrix products, blockwise
    over left-entity rows.  The result is bitwise independent of the worker
    count because each block is written by exactly one worker and the
    within-block summation order is fixed.
    """
    _check_shapes(values_left, values_right, slots_left, slots_right)
    n = values_left.data.shape[0]
    n2 = values_right.data.shape[0]
    shared = sorted(set(np.unique(slots_left.ids)) & set(np.unique(slots_right.ids)) - {-1})
    scores = np.zeros((n, n2))

    right_groups = []
    for ident in shared:
        mask = slots_right.ids == ident
        cols = np.nonzero(mask.any(axis=1))[0]
        agg = (values_right.data[cols] * mask[cols][:, :, None]).sum(axis=1)
        right_groups.append((ident, cols, agg))

    def fill_block(start: int) -> None:
        stop = min(start + block_size, n)
        ids_block = slots_left.ids[start:stop]
        data_block = values_left.data[start:stop]
        for ident, cols, right_agg in right_groups:
            mask = ids_block == ident
            rows = np.nonzero(mask.any(axis=1))[0]
            if rows.size == 0:
                continue
            left_agg = (data_block[rows] * mask[rows][:, :, None]).sum(axis=1)
            scores[np.ix_(rows + start, cols)] += left_agg @ right_agg.T

    starts = range(0, n, block_size)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill_block, starts))
    else:
        for start in starts:
            fill_block(start)
    return SimilarityMatrix(scores, "attribute-view")


@dataclass
class AttributeInference:
    """New alignments proposed by the attribute view in one iteration."""

    entities: RankedAlignmentList
    attribute_pairs: list[tuple[int, int, float]]
    value_pairs: set[tuple[ValueText, ValueText]]


def infer_from_attribute_view(s_attr: SimilarityMatrix, store: AlignmentStore,
                              candidates: CandidateSet, tau_e_attr: float, tau_v: float,
                              g: KnowledgeGraph, g2: KnowledgeGraph,
                              values_left: ValueEmbeddingMatrix,
                              values_right: ValueEmbeddingMatrix) -> AttributeInference:
    """Entity, attribute, and value alignments from the attribute view.

    Entity pairs clear ``tau_e_attr`` and are one-to-one reduced.  Attribute
    pairs come from slot pairs of aligned entities (existing alignments plus
    this round's entity inferences) whose value similarity clears ``tau_v``.
    Value pairs are the co-occurring values of triples whose entity and
    attribute are both aligned.
    """
    entities = infer_entity_pairs(s_attr.data, candidates, tau_e_attr)
    known_pairs = sorted(store.ent_pairs | {(m, n) for m, n, _ in entities.pairs})

    proposals: dict[tuple[int, int], float] = {}
    for left, right in known_pairs:
        sims = values_left.data[left] @ values_right.data[right].T
        slots_l = values_left.slots[left]
        slots_r = values_right.slots[right]
        for i, j in np.argwhere(sims > tau_v):
            if i >= len(slots_l) or j >= len(slots_r):
                continue
            key = (slots_l[i][0], slots_r[j][0])
            sim = float(sims[i, j])
            if sim > proposals.get(key, float("-inf")):
                proposals[key] = sim
    scored = [(a, b, sim) for (a, b), sim in proposals.items()
              if (a, b) not in store.attr_pairs]
    taken_left, taken_right = store.taken_attributes()
    new_attrs = greedy_one_to_one(scored, taken_left, taken_right)

    attr_map = store.attr_map()
    attr_map.update({a: b for a, b, _ in new_attrs})
    new_vals: set[tuple[ValueText, ValueText]] = set()
    for left, right in known_pairs:
        for attr, value in g.attributes_of(left):
            counterpart = attr_map.get(attr)
            if counterpart is None:
                continue
            for value2 in g2.values_of(right, counterpart):
                if (value, value2) not in store.val_pairs:
                    new_vals.add((value, value2))
    return AttributeInference(entities, new_attrs, new_vals)
