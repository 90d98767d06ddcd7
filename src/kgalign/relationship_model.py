"""Structure embeddings over both graphs with cross-graph seed swapping.

Both graphs share one TransE parameter space: right-graph entity ids are
offset by the left graph's entity count (and relations likewise), which is
what makes swapped triplets meaningful.  Training minimizes the margin loss
max(0, margin + E(pos) - E(neg)) with E(h, r, t) = ||h + r - t||, plain SGD,
and uniformly corrupted negatives drawn from the corrupted entity's own
graph.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .kg import AlignmentStore, KnowledgeGraph, greedy_one_to_one
from .attribute_model import SimilarityMatrix

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
        if self.margin <= 0:
            raise ValueError("margin must be > 0")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.negatives_per_positive < 1 or self.batch_size < 1:
            raise ValueError("counts must be >= 1")


@dataclass
class SwappedTriples:
    """Training triples in the combined id space of both graphs."""

    triples: list[tuple[int, int, int]]
    n_entities: int
    n_relations: int
    ent_split: int  # ids below this belong to the left graph
    rel_split: int


def swap_triplets(g: KnowledgeGraph, g2: KnowledgeGraph, store: AlignmentStore) -> SwappedTriples:
    """Augment the union of both triple sets with seed-swapped copies.

    For every aligned entity pair, each base triple mentioning one side
    gains a copy with that side substituted by its counterpart (head and
    tail positions independently); aligned relation pairs substitute the
    relation the same way.  The output is deduplicated and sorted.
    """
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

    return SwappedTriples(sorted(out), n + g2.num_entities, l + g2.num_relations, n, l)


@dataclass
class EmbeddingTable:
    """Entity and relation vectors covering both graphs."""

    ent: np.ndarray
    rel: np.ndarray
    ent_split: int
    rel_split: int
    epoch_losses: list[float] = field(default_factory=list)
    capped_negatives: int = 0  # negatives left equal to a known positive

    def entity_vector(self, entity: int) -> np.ndarray:
        if not 0 <= entity < self.ent.shape[0]:
            raise LookupError(f"unknown entity id {entity}")
        return self.ent[entity]

    def relation_vector(self, relation: int) -> np.ndarray:
        if not 0 <= relation < self.rel.shape[0]:
            raise LookupError(f"unknown relation id {relation}")
        return self.rel[relation]

    def training_summary(self) -> dict:
        """Loss-curve endpoints and resampling health of the training run."""
        losses = self.epoch_losses
        return {"epochs": len(losses),
                "loss_first": losses[0] if losses else None,
                "loss_last": losses[-1] if losses else None,
                "loss_min": min(losses) if losses else None,
                "capped_negatives": self.capped_negatives}


def transe_energy(table: EmbeddingTable, head: int, relation: int, tail: int) -> float:
    """||h + r - t||, the residual the relation-translation leaves behind."""
    h = table.entity_vector(head)
    r = table.relation_vector(relation)
    t = table.entity_vector(tail)
    return float(np.linalg.norm(h + r - t))


def _deltas(ent, rel, triples):
    d = ent[triples[:, 0]] + rel[triples[:, 1]] - ent[triples[:, 2]]
    return d, np.linalg.norm(d, axis=1)


def _scatter_rows(rows: np.ndarray, values: np.ndarray, n_rows: int) -> np.ndarray:
    """Sum ``values[i]`` into row ``rows[i]`` of an ``(n_rows, dim)`` zero table.

    One ``np.bincount`` per column: each cell adds its contributions to 0.0
    in input order, which keeps the sums bitwise-equal to the unbuffered
    scatter the tests use as their oracle.
    """
    out = np.empty((n_rows, values.shape[1]))
    for column in range(values.shape[1]):
        out[:, column] = np.bincount(rows, weights=values[:, column], minlength=n_rows)
    return out


def minibatch_loss_and_grad(ent: np.ndarray, rel: np.ndarray, pos: np.ndarray,
                            neg: np.ndarray, margin: float):
    """Sum of margin violations over aligned (positive, negative) rows, and
    its analytic gradient w.r.t. both tables: ``(loss, grad_ent, grad_rel)``.

    Each gradient cell accumulates in a fixed order: positive heads,
    positive tails, negative heads, then negative tails for entities, and
    positive then negative relations.
    """
    pos_d, pos_norm = _deltas(ent, rel, pos)
    neg_d, neg_norm = _deltas(ent, rel, neg)
    hinge = margin + pos_norm - neg_norm
    loss = float(np.maximum(0.0, hinge).sum())
    violating = hinge > 0.0
    n_violating = int(np.count_nonzero(violating))
    if n_violating == 0:
        return loss, np.zeros_like(ent), np.zeros_like(rel)
    pos_v = pos[violating]
    neg_v = neg[violating]
    # one block per entity role, in ent_rows order: +unit_pos (positive heads),
    # -unit_pos (positive tails), -unit_neg (negative heads), +unit_neg
    # (negative tails); blocks 0 and 2 are the relation contributions
    units = np.empty((4, n_violating, ent.shape[1]))
    np.divide(pos_d[violating], np.maximum(pos_norm[violating], 1e-12)[:, None], out=units[0])
    np.negative(units[0], out=units[1])
    np.divide(neg_d[violating], np.maximum(neg_norm[violating], 1e-12)[:, None], out=units[3])
    np.negative(units[3], out=units[2])
    ent_rows = np.concatenate([pos_v[:, 0], pos_v[:, 2], neg_v[:, 0], neg_v[:, 2]])
    rel_rows = np.concatenate([pos_v[:, 1], neg_v[:, 1]])
    grad_ent = _scatter_rows(ent_rows, units.reshape(-1, ent.shape[1]), ent.shape[0])
    grad_rel = _scatter_rows(rel_rows, units[0::2].reshape(-1, ent.shape[1]), rel.shape[0])
    return loss, grad_ent, grad_rel


def _normalize_rows(array: np.ndarray, rows=None) -> None:
    block = array if rows is None else array[rows]
    norms = np.maximum(np.linalg.norm(block, axis=1, keepdims=True), 1e-12)
    if rows is None:
        array /= norms
    else:
        array[rows] = block / norms


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
    if not swapped.triples:
        raise ValueError("triples must be nonempty")
    rng = np.random.default_rng(cfg.rng_seed)
    bound = 6.0 / np.sqrt(cfg.dim)
    ent = rng.uniform(-bound, bound, (swapped.n_entities, cfg.dim))
    rel = rng.uniform(-bound, bound, (swapped.n_relations, cfg.dim))
    _normalize_rows(ent)
    _normalize_rows(rel)

    triples = np.asarray(swapped.triples, dtype=np.int64)
    positive_keys = np.unique(_triple_keys(triples, swapped.n_entities, swapped.n_relations))
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
            loss, grad_ent, grad_rel = minibatch_loss_and_grad(ent, rel, pos_rep, neg, cfg.margin)
            epoch_loss += loss
            ent -= cfg.learning_rate * grad_ent
            rel -= cfg.learning_rate * grad_rel
            touched = np.unique(np.concatenate([pos_rep[:, 0], pos_rep[:, 2],
                                                neg[:, 0], neg[:, 2]]))
            _normalize_rows(ent, touched)
        table.epoch_losses.append(epoch_loss / (len(triples) * k))
    if table.capped_negatives:
        LOG.warning("%d negative(s) were still known positives after %d resampling rounds",
                    table.capped_negatives, _RESAMPLE_ROUNDS)
    return table


def entity_similarity_rel(table: EmbeddingTable, g: KnowledgeGraph,
                          g2: KnowledgeGraph) -> SimilarityMatrix:
    """Dot products of left-graph against right-graph entity embeddings."""
    left = table.ent[:table.ent_split]
    right = table.ent[table.ent_split:]
    if left.shape[0] != g.num_entities or right.shape[0] != g2.num_entities:
        raise ValueError("embedding table does not cover both graphs")
    return SimilarityMatrix(left @ right.T, "relationship-view")


def relation_similarity(table: EmbeddingTable) -> np.ndarray:
    """Cosine similarities of left-graph against right-graph relation vectors.

    Relation rows are not norm-constrained during training, so raw dot
    products would not respect a [0, 1] threshold; cosine keeps them
    comparable.
    """
    rel = table.rel / np.maximum(np.linalg.norm(table.rel, axis=1, keepdims=True), 1e-12)
    return rel[:table.rel_split] @ rel[table.rel_split:].T


def infer_relation_pairs(rel_scores: np.ndarray, tau_r: float,
                         store: AlignmentStore) -> list[tuple[int, int, float]]:
    """Relation pairs above the threshold, one-to-one against the store."""
    rows, cols = np.nonzero(rel_scores > tau_r)
    scored = [(int(a), int(b), float(rel_scores[a, b]))
              for a, b in zip(rows, cols)
              if (int(a), int(b)) not in store.rel_pairs]
    taken_left, taken_right = store.taken_relations()
    return greedy_one_to_one(scored, taken_left, taken_right)


def export_embeddings(vectors: np.ndarray, labels, path) -> None:
    """One line per id: ``label<TAB>v1,v2,...`` with 9 significant digits."""
    with open(path, "w", encoding="utf-8") as fh:
        for label, row in zip(labels, vectors):
            fh.write(label + "\t" + ",".join(f"{x:.9g}" for x in row) + "\n")
