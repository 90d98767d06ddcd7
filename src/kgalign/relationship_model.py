"""Structure embeddings over both graphs with cross-graph seed swapping.

Both graphs share one TransE parameter space: right-graph entity ids are
offset by the left graph's entity count (and relations likewise), which is
what makes swapped triplets meaningful.  Training minimizes the margin loss
max(0, margin + E(pos) - E(neg)) with E(h, r, t) = ||h + r - t||, plain SGD,
and uniformly corrupted negatives drawn from the corrupted entity's own
graph.

A batch of B positives with k negatives each costs O(B · dim) for the
positives' deltas, which are taken once and not once per negative, and
O(B · k · dim) for the negatives'.  Its entity update costs O(touched rows ·
dim): only the rows the batch's heads and tails name are gathered, updated
and normalized again, found by one pass over a boolean mask of all entities.
The relation gradient covers the whole relation table.  The violating
copies' unit vectors are held column-major, one (dim, 4, V) array of four
entity-role blocks, and each gradient column is one ``np.bincount`` in input
order over them: a column's entity weights are a view of its contiguous 4·V
floats, and only its 2·V relation weights are copied.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .kg import AlignmentStore, KnowledgeGraph, write_rows

LOG = logging.getLogger(__name__)

_RESAMPLE_ROUNDS = 50


@dataclass
class TrainConfig:
    dim: int = 75
    margin: float = 1.0
    learning_rate: float = 0.01
    epochs: int = 100
    negatives_per_positive: int = 5
    batch_size: int = 256
    rng_seed: int = 0

    def __post_init__(self):
        if self.dim <= 0:
            raise ValueError("dim must be > 0")
        if not (math.isfinite(self.margin) and self.margin > 0):
            raise ValueError("margin must be finite and > 0")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and > 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.rng_seed < 0:
            raise ValueError("rng_seed must be >= 0")
        if self.negatives_per_positive < 1 or self.batch_size < 1:
            raise ValueError("counts must be >= 1")


@dataclass
class SwappedTriples:
    """Training triples in the combined id space of both graphs."""

    triples: np.ndarray  # sorted, unique (M, 3) int64 rows of (head, relation, tail)
    n_entities: int
    n_relations: int
    ent_split: int  # ids below this belong to the left graph
    rel_split: int


def swap_triplets(g: KnowledgeGraph, g2: KnowledgeGraph, store: AlignmentStore) -> SwappedTriples:
    """Augment the union of both triple sets with seed-swapped copies.

    Each base triple gains one copy per column (head, relation, tail) whose
    id is aligned, with only that column replaced by its counterpart.  The
    output is deduplicated and sorted.
    """
    n, l = g.num_entities, g.num_relations
    base = np.concatenate([np.array(g.rel_triples, dtype=np.int64).reshape(-1, 3),
                           np.array(g2.rel_triples, dtype=np.int64).reshape(-1, 3) + (n, l, n)])
    # each combined id's aligned counterpart; an unaligned id maps to itself
    ent, rel = np.arange(n + g2.num_entities), np.arange(l + g2.num_relations)
    for counterpart, pairs, split in ((ent, store.ent_pairs, n), (rel, store.rel_pairs, l)):
        left, right = np.array(list(pairs), dtype=np.int64).reshape(-1, 2).T
        counterpart[left] = right + split
        counterpart[right + split] = left
    out = [base]
    for column, counterpart in ((0, ent), (1, rel), (2, ent)):
        ids = counterpart[base[:, column]]
        moved = ids != base[:, column]
        copy = base[moved]
        copy[:, column] = ids[moved]
        out.append(copy)
    return SwappedTriples(np.unique(np.concatenate(out), axis=0), len(ent), len(rel), n, l)


@dataclass
class EmbeddingTable:
    """Entity and relation vectors covering both graphs."""

    ent: np.ndarray
    rel: np.ndarray
    ent_split: int
    rel_split: int
    epoch_losses: list[float] = field(default_factory=list)
    capped_negatives: int = 0  # negatives left equal to a known positive

    def training_summary(self) -> dict:
        """Loss-curve endpoints and resampling health of the training run."""
        losses = self.epoch_losses
        return {"epochs": len(losses),
                "loss_first": losses[0] if losses else None,
                "loss_last": losses[-1] if losses else None,
                "loss_min": min(losses) if losses else None,
                "capped_negatives": self.capped_negatives}


_NORM_ROWS = 4096  # rows per block when a whole table is scaled to unit rows


def _norms(d: np.ndarray) -> np.ndarray:
    """Row norms: the floats ``np.linalg.norm(d, axis=1)`` gives, without its wrapper."""
    return np.sqrt(np.add.reduce(d * d, axis=1))


def _deltas(ent, rel, triples):
    d = ent[triples[:, 0]]
    d += rel[triples[:, 1]]
    d -= ent[triples[:, 2]]
    return d, _norms(d)


def _batch_gradients(ent: np.ndarray, rel: np.ndarray, pos: np.ndarray, neg: np.ndarray,
                     k: int, margin: float):
    """Margin loss of negative row ``i`` against positive row ``i // k``, and its
    gradient: ``(loss, ids, grad_ids, grad_rel)``.

    ``ids`` are the sorted entity rows the batch touches (heads and tails of
    ``pos`` and ``neg``), and ``grad_ids[j]`` is the gradient of row
    ``ids[j]``; every other entity row's gradient is zero.  ``grad_rel``
    covers the whole relation table.  Each positive's delta, norm and unit
    vector is computed once for its k negatives.  Both gradients are filled
    one column at a time by one ``np.bincount`` each, so every cell adds its
    contributions to 0.0 in input order (positive heads, positive tails,
    negative heads, then negative tails for entities; positive then negative
    relations): bit for bit the unbuffered scatter the tests use as oracle.
    """
    pos_d, pos_norm = _deltas(ent, rel, pos)
    neg_d, neg_norm = _deltas(ent, rel, neg)
    hinge = margin + np.repeat(pos_norm, k) - neg_norm
    loss = float(np.maximum(0.0, hinge).sum())
    violating = np.flatnonzero(hinge > 0.0)
    of_positive = violating // k
    pos_v = pos[of_positive]
    neg_v = neg[violating]
    # column-major, one block per entity role in ent_rows order: +unit_pos
    # (positive heads), -unit_pos (positive tails), -unit_neg (negative heads),
    # +unit_neg (negative tails); blocks 0 and 2 are the relation contributions
    dim = ent.shape[1]
    units = np.empty((dim, 4, len(violating)))
    pos_d /= np.maximum(pos_norm, 1e-12)[:, None]
    units[:, 0] = pos_d[of_positive].T
    np.negative(units[:, 0], out=units[:, 1])
    neg_d = neg_d[violating]  # frees the other deltas; scaled to unit rows in place below
    neg_d /= np.maximum(neg_norm[violating], 1e-12)[:, None]
    units[:, 3] = neg_d.T
    np.negative(units[:, 3], out=units[:, 2])
    touched = np.zeros(len(ent), dtype=bool)
    touched[pos[:, 0]] = touched[pos[:, 2]] = touched[neg[:, 0]] = touched[neg[:, 2]] = True
    ids = np.flatnonzero(touched)
    compact = np.empty(len(ent), dtype=np.intp)  # entity row -> its index in ids
    compact[ids] = np.arange(len(ids))
    ent_rows = compact[np.concatenate([pos_v[:, 0], pos_v[:, 2], neg_v[:, 0], neg_v[:, 2]])]
    rel_rows = np.concatenate([pos_v[:, 1], neg_v[:, 1]])
    # column c's entity weights are the view units[c]; its relation weights copy 2·V floats
    grad_ids, grad_rel = np.empty((dim, len(ids))), np.empty((dim, len(rel)))
    for c in range(dim):
        grad_ids[c] = np.bincount(ent_rows, weights=units[c].reshape(-1), minlength=len(ids))
        grad_rel[c] = np.bincount(rel_rows, weights=units[c, 0::2].reshape(-1),
                                  minlength=len(rel))
    return loss, ids, grad_ids.T, grad_rel.T


def _unit_rows(block: np.ndarray) -> np.ndarray:
    """Scale ``block``'s rows to unit length in place and return it; a zero row stays zero.

    Rows go ``_NORM_ROWS`` at a time, so a whole table needs no table-sized temporary.
    """
    for start in range(0, len(block), _NORM_ROWS):
        part = block[start:start + _NORM_ROWS]
        part /= np.maximum(_norms(part), 1e-12)[:, None]
    return block


def _triple_keys(triples: np.ndarray, n_entities: int, n_relations: int) -> np.ndarray:
    return (triples[:, 0] * n_relations + triples[:, 1]) * n_entities + triples[:, 2]


def _is_positive(keys: np.ndarray, positive_keys: np.ndarray) -> np.ndarray:
    """Membership of ``keys`` in the sorted, unique ``positive_keys``."""
    at = np.minimum(np.searchsorted(positive_keys, keys), len(positive_keys) - 1)
    return positive_keys[at] == keys


def _sample_negatives(pos_rep: np.ndarray, swapped: SwappedTriples,
                      positive_keys: np.ndarray, rng) -> tuple[np.ndarray, int]:
    """Corrupt head or tail (equal odds) within the corrupted entity's graph,
    resampling corruptions that reproduce known positives.

    Returns the negatives and how many of them are still known positives
    when the resampling cap runs out.
    """
    total = len(pos_rep)
    column = np.where(rng.integers(0, 2, total) == 0, 0, 2)
    neg = pos_rep.copy()
    pending = np.arange(total)
    for _ in range(_RESAMPLE_ROUNDS):
        original = pos_rep[pending, column[pending]]
        is_left = original < swapped.ent_split
        draw = rng.random(len(pending))
        right_span = swapped.n_entities - swapped.ent_split
        candidate = np.where(
            is_left,
            (draw * swapped.ent_split).astype(np.int64),
            swapped.ent_split + (draw * right_span).astype(np.int64),
        )
        neg[pending, column[pending]] = candidate
        keys = _triple_keys(neg[pending], swapped.n_entities, swapped.n_relations)
        pending = pending[_is_positive(keys, positive_keys)]
        if pending.size == 0:
            break
    return neg, int(pending.size)


def train_transe(swapped: SwappedTriples, cfg: TrainConfig) -> EmbeddingTable:
    """SGD over corrupted triples; deterministic for a fixed seed.

    Entity rows are re-normalized to unit length after every update step;
    with zero epochs the initialization is returned unchanged.
    """
    if len(swapped.triples) == 0:
        raise ValueError("triples must be nonempty")
    rng = np.random.default_rng(cfg.rng_seed)
    bound = 6.0 / np.sqrt(cfg.dim)
    ent = _unit_rows(rng.uniform(-bound, bound, (swapped.n_entities, cfg.dim)))
    rel = _unit_rows(rng.uniform(-bound, bound, (swapped.n_relations, cfg.dim)))

    triples = swapped.triples
    # sorted, unique rows with r < n_relations and t < n_entities: strictly increasing keys
    positive_keys = _triple_keys(triples, swapped.n_entities, swapped.n_relations)
    k = cfg.negatives_per_positive
    table = EmbeddingTable(ent, rel, swapped.ent_split, swapped.rel_split)

    for _ in range(cfg.epochs):
        order = rng.permutation(len(triples))
        epoch_loss = 0.0
        for start in range(0, len(order), cfg.batch_size):
            pos = triples[order[start:start + cfg.batch_size]]
            pos_rep = np.repeat(pos, k, axis=0)
            neg, capped = _sample_negatives(pos_rep, swapped, positive_keys, rng)
            table.capped_negatives += capped
            loss, ids, grad, grad_rel = _batch_gradients(ent, rel, pos, neg, k, cfg.margin)
            epoch_loss += loss
            grad_rel *= cfg.learning_rate
            rel -= grad_rel
            # an untouched row would subtract only +0.0 and keep its unit norm
            rows = ent[ids]
            rows -= cfg.learning_rate * grad
            ent[ids] = _unit_rows(rows)
        table.epoch_losses.append(epoch_loss / (len(triples) * k))
    if table.capped_negatives:
        LOG.warning("%d negative(s) were still known positives after %d resampling rounds",
                    table.capped_negatives, _RESAMPLE_ROUNDS)
    return table


def entity_similarity_rel(table: EmbeddingTable, g: KnowledgeGraph,
                          g2: KnowledgeGraph) -> np.ndarray:
    """Dot products of left-graph against right-graph entity embeddings."""
    left = table.ent[:table.ent_split]
    right = table.ent[table.ent_split:]
    if left.shape[0] != g.num_entities or right.shape[0] != g2.num_entities:
        raise ValueError("embedding table does not cover both graphs")
    return left @ right.T


def relation_similarity(table: EmbeddingTable) -> np.ndarray:
    """Cosine similarities of left-graph against right-graph relation vectors.

    Relation rows are not norm-constrained during training, so raw dot
    products would not respect a [0, 1] threshold; cosine keeps them
    comparable.
    """
    rel = _unit_rows(table.rel.copy())
    return rel[:table.rel_split] @ rel[table.rel_split:].T


def export_embeddings(vectors: np.ndarray, labels, path) -> None:
    """One line per id: ``label<TAB>v1,v2,...`` with 9 significant digits."""
    write_rows(path, ((label, ",".join(f"{x:.9g}" for x in row))
                      for label, row in zip(labels, vectors)))
