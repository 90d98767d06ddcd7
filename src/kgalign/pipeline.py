"""Iterative two-view bootstrap over a pair of graphs.

Each iteration retrains the value translator on the current value pairs,
scores entities through the attribute view, trains structure embeddings on
seed-swapped triples, scores entities through the relationship view, merges
the two proposal lists with one of three strategies, and augments the
alignment store until an iteration adds nothing (or the iteration cap is
hit, in which case the result is flagged as truncated).
"""

from __future__ import annotations

import dataclasses
import json
import logging
import time
from dataclasses import dataclass, field

import numpy as np

from .attribute_model import (
    AttributeInference,
    build_attr_slot_matrix,
    build_value_matrix,
    entity_similarity_attr,
    infer_from_attribute_view,
)
from .kg import (
    PROV_ATTR,
    PROV_MERGED,
    PROV_REL,
    AlignmentStore,
    KnowledgeGraph,
    _without_cyclic_gc,
    frequent_attributes,
    greedy_one_to_one,
    infer_entity_pairs,
    write_rows,
)
from .metrics import SimilarityMatrix
from .relationship_model import (
    EmbeddingTable,
    TrainConfig,
    entity_similarity_rel,
    relation_similarity,
    swap_triplets,
    train_transe,
)
from .translator import WordVectorProvider, train_translation

LOG = logging.getLogger(__name__)

MERGE_MODES = ("M1", "M2", "M3")
VIEW_MODES = ("both", "attr", "rel")

_NEG_INF = float("-inf")


@dataclass
class Thresholds:
    """Selection thresholds for the four alignment object types.

    ``tau_e_attr``/``tau_e_rel`` may be None when ``tuning`` is
    "validation-sweep", in which case they are re-tuned every iteration on
    the validation pairs.
    """

    tau_e_attr: float | None = None
    tau_e_rel: float | None = None
    tau_v: float = 0.8
    tau_r: float = 0.9
    tuning: str = "fixed"  # "fixed" or "validation-sweep"

    def __post_init__(self):
        if not 0.0 <= self.tau_v <= 1.0:
            raise ValueError("tau_v must be in [0, 1]")
        if not 0.0 <= self.tau_r <= 1.0:
            raise ValueError("tau_r must be in [0, 1]")
        if self.tuning not in ("fixed", "validation-sweep"):
            raise ValueError(f"unknown tuning mode {self.tuning!r}")


@dataclass
class PipelineSettings:
    """Everything the bootstrap needs besides the graphs and the seeds."""

    m_slots: int = 20
    min_count: int = 50
    value_dim: int = 100
    em_iterations: int = 10
    transe: TrainConfig = field(default_factory=TrainConfig)
    thresholds: Thresholds = field(default_factory=Thresholds)
    views: str = "both"  # "both", "attr", or "rel"
    retrain_translator: bool = True
    workers: int = 1

    def __post_init__(self):
        if self.views not in VIEW_MODES:
            raise ValueError(f"views must be one of {VIEW_MODES}, got {self.views!r}")
        for name in ("m_slots", "min_count", "value_dim", "em_iterations", "workers"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass
class IterationRecord:
    iteration: int
    counts: dict[str, int]
    thresholds: dict[str, float]
    timings: dict[str, float]
    store_size: int
    candidate_overlap: int  # merged entries on an entity aligned before the round; must be 0
    transe: dict = field(default_factory=dict)  # TransE summary; empty without that view
    translator: dict = field(default_factory=dict)  # EM summary; empty unless trained this round

    def to_json_line(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True)


@dataclass
class PipelineResult:
    store: AlignmentStore
    records: list[IterationRecord]
    converged: bool
    s_attr: SimilarityMatrix | None
    s_rel: SimilarityMatrix | None
    embeddings: EmbeddingTable | None

    @property
    def truncated(self) -> bool:
        return not self.converged

    def merged_scores(self) -> np.ndarray:
        """Score-sum of the final per-view matrices, for merged ranking."""
        if self.s_attr is not None and self.s_rel is not None:
            return self.s_attr.data + self.s_rel.data
        if self.s_attr is not None:
            return self.s_attr.data
        if self.s_rel is not None:
            return self.s_rel.data
        raise ValueError("pipeline produced no similarity matrix")


def tune_thresholds(valid_pairs, scores) -> float:
    """Entity threshold maximizing precision of above-threshold predictions.

    For each validation left entity the prediction is its top-scoring column
    (ties to the smaller column id), made only when the top score reaches the
    threshold.  Candidates are the 0.01 multiples within [min, max] of the
    validation top scores plus both endpoints; ties break toward higher
    coverage and then toward the larger threshold.
    """
    if len(valid_pairs) == 0:
        raise ValueError("empty validation set: fixed thresholds required")
    data = np.asarray(scores)
    rows = np.array([m for m, _ in valid_pairs])
    truth = np.array([n for _, n in valid_pairs])
    sub = data[rows]
    top_scores = sub.max(axis=1)
    correct = sub.argmax(axis=1) == truth

    lo = float(top_scores.min())
    hi = float(top_scores.max())
    grid = {lo, hi}
    grid.update(c / 100.0 for c in range(int(np.ceil(lo * 100)), int(np.floor(hi * 100)) + 1))
    best = None
    for tau in sorted(grid):
        if not lo <= tau <= hi:
            continue
        predicted = top_scores >= tau
        n_correct = int((predicted & correct).sum())
        n_predicted = int(predicted.sum())
        precision = n_correct / n_predicted if n_predicted else 0.0
        key = (precision, n_correct, tau)
        if best is None or key > best:
            best = key
    return float(best[2])


def merge_standard(attr_list, rel_list):
    """Sequential co-training merge: the attribute view's pairs, then the
    relationship view's, which must have been inferred without the attribute
    view's entities.  Each list holds (left, right, score) rows as
    ``infer_entity_pairs`` ranks them; each entry is (left, right, provenance).
    """
    return ([(m, n, PROV_ATTR) for m, n, _ in attr_list]
            + [(m, n, PROV_REL) for m, n, _ in rel_list])


def _with_provenance(rows, from_attr, from_rel):
    """(left, right, provenance) per accepted row: merged when both views
    proposed the pair, else the view that did."""
    entries = []
    for m, n, *_ in rows:
        if (m, n) in from_attr and (m, n) in from_rel:
            entries.append((m, n, PROV_MERGED))
        else:
            entries.append((m, n, PROV_ATTR if (m, n) in from_attr else PROV_REL))
    return entries


def merge_score(attr_list, rel_list, s_attr: np.ndarray, s_rel: np.ndarray):
    """Conflicts keep the counterpart with the larger summed score.

    Pairs proposed by both views count once.  Ties break by higher
    attribute score, then higher relationship score, then the smaller
    (left, right); the result is one-to-one.
    """
    from_attr = {(m, n) for m, n, _ in attr_list}
    from_rel = {(m, n) for m, n, _ in rel_list}
    rows = []
    for m, n in sorted(from_attr | from_rel):
        sa = float(s_attr[m, n])
        sr = float(s_rel[m, n])
        rows.append((m, n, sa + sr, sa, sr))
    chosen = greedy_one_to_one(rows, key=lambda r: (-r[2], -r[3], -r[4], r[0], r[1]))
    return _with_provenance(chosen, from_attr, from_rel)


def merge_rank(attr_list, rel_list):
    """Conflicts keep the counterpart with the smaller normalized rank ratio
    (1-based rank divided by the proposing list's size; the minimum when a
    pair appears in both lists).

    Ratio ties break by higher attribute score, then higher relationship
    score (a score missing from a view counts as -inf), then the smaller
    (left, right); the result is one-to-one.
    """
    views = (attr_list, rel_list)
    ratios_attr, ratios_rel = (
        {(m, n): (idx + 1) / len(ranked) for idx, (m, n, _) in enumerate(ranked)}
        for ranked in views)
    scores_attr, scores_rel = ({(m, n): s for m, n, s in ranked} for ranked in views)
    rows = []
    for pair in sorted(set(ratios_attr) | set(ratios_rel)):
        ratio = min(ratios_attr.get(pair, np.inf), ratios_rel.get(pair, np.inf))
        rows.append((pair[0], pair[1], ratio,
                     scores_attr.get(pair, _NEG_INF), scores_rel.get(pair, _NEG_INF)))
    chosen = greedy_one_to_one(rows, key=lambda r: (r[2], -r[3], -r[4], r[0], r[1]))
    return _with_provenance(chosen, ratios_attr, ratios_rel)


def check_thresholds(settings: PipelineSettings, valid_pairs) -> bool:
    """Whether the entity thresholds are swept on ``valid_pairs``: they are
    when tuning is "validation-sweep" and there are pairs to sweep on.
    Otherwise each view in use needs a fixed threshold.
    """
    thresholds = settings.thresholds
    if thresholds.tuning == "validation-sweep" and valid_pairs:
        return True
    for view in ("attr", "rel"):
        name = f"tau_e_{view}"
        if settings.views in ("both", view) and getattr(thresholds, name) is None:
            raise ValueError(f"{name} is unset, and threshold_tuning is {thresholds.tuning!r} "
                             f"with {len(valid_pairs or ())} validation pairs")
    return False


class _AttributeState:
    """What the attribute view keeps between rounds: the word vectors, the
    translation table, and the value matrices (the left one changes only with
    the table, the right one never)."""

    def __init__(self, value_dim: int):
        self.provider = WordVectorProvider(value_dim)
        self.table = self.values_left = self.values_right = None


def _attribute_round(record, state, g, g2, store, settings, threshold):
    """One attribute-view round: the translator when due, grouped-interaction
    scores and new pairs; fills ``record``'s timings, ``tau_e_attr`` and ``translator``."""
    tick = time.perf_counter()
    retrain = settings.retrain_translator or state.table is None
    if retrain:
        train_pairs = sorted(store.val_pairs, key=lambda p: (p[0].raw, p[1].raw))
        try:
            state.table = train_translation(train_pairs, settings.em_iterations)
        except ValueError as exc:
            LOG.warning("translator not trained (%s); embedding raw values", exc)
            state.table = None
        else:
            record.translator = {"pairs": len(train_pairs),
                                 "ll_first": state.table.log_likelihoods[0],
                                 "ll_last": state.table.log_likelihoods[-1]}
    record.timings["translator"] = time.perf_counter() - tick

    tick = time.perf_counter()
    if retrain:
        state.values_left = None  # released before its rebuild, as the score matrices are
        state.values_left = build_value_matrix(g, state.table, state.provider, settings.m_slots,
                                               frequent_attributes(g, settings.min_count))
    if state.values_right is None:
        state.values_right = build_value_matrix(g2, None, state.provider, settings.m_slots,
                                                frequent_attributes(g2, settings.min_count))
    # A left slot meets the right slots of the attribute it is aligned to.
    slots_left = build_attr_slot_matrix(state.values_left, store.attr_map())
    s_attr = entity_similarity_attr(state.values_left, state.values_right, slots_left,
                                    state.values_right.attrs, workers=settings.workers)
    record.timings["attribute_scores"] = time.perf_counter() - tick

    tick = time.perf_counter()
    tau = record.thresholds["tau_e_attr"] = threshold(s_attr, settings.thresholds.tau_e_attr)
    inference = infer_from_attribute_view(s_attr, store, tau, settings.thresholds.tau_v,
                                          g, g2, state.values_left, state.values_right)
    record.timings["attribute_inference"] = time.perf_counter() - tick
    return s_attr, inference


def _relationship_round(record, g, g2, store, settings, threshold, taken_left, taken_right):
    """One relationship-view round: TransE, reseeded per iteration, then entity
    pairs outside the taken ids and relation pairs; fills ``record`` likewise."""
    tick = time.perf_counter()
    swapped = swap_triplets(g, g2, store)
    embeddings = train_transe(swapped, dataclasses.replace(
        settings.transe, rng_seed=settings.transe.rng_seed + record.iteration))
    record.transe = embeddings.training_summary()
    s_rel = entity_similarity_rel(embeddings, g, g2)
    rel_scores = relation_similarity(embeddings)
    record.timings["relationship_training"] = time.perf_counter() - tick

    tick = time.perf_counter()
    tau = record.thresholds["tau_e_rel"] = threshold(s_rel, settings.thresholds.tau_e_rel)
    proposals = infer_entity_pairs(s_rel, tau, taken_left, taken_right)
    rel_pairs = infer_entity_pairs(rel_scores, settings.thresholds.tau_r, *store.taken("rel"))
    record.timings["relationship_inference"] = time.perf_counter() - tick
    return s_rel, proposals, rel_pairs, embeddings


@_without_cyclic_gc
def run_pipeline(g: KnowledgeGraph, g2: KnowledgeGraph, seeds: AlignmentStore,
                 settings: PipelineSettings | None = None, merge_mode: str = "M3",
                 max_iterations: int = 10, valid_pairs=None) -> PipelineResult:
    """Bootstrap both views until no new alignment is found.

    A single-view run merges sequentially whatever ``merge_mode`` says: the
    view that is off proposes nothing.  ``seeds`` is copied, never mutated.
    ``valid_pairs`` are (left id, right id) entity pairs used only for
    threshold sweeps; ``check_thresholds`` runs before the first round.
    The cyclic garbage collector is paused during the call and restored
    afterwards: the rounds allocate and drop many objects but make no
    reference cycles, and the graphs' row tuples would otherwise be walked
    again on every full pass.
    """
    if merge_mode not in MERGE_MODES:
        raise ValueError(f"merge_mode must be one of {MERGE_MODES}, got {merge_mode!r}")
    if max_iterations < 1:
        raise ValueError(f"max_iterations must be >= 1, got {max_iterations}")
    settings = settings or PipelineSettings()
    sweep = check_thresholds(settings, valid_pairs)

    def threshold(scores, fixed):
        return tune_thresholds(valid_pairs, scores) if sweep else fixed

    store = seeds.copy()
    use_attr = settings.views in ("both", "attr")
    use_rel = settings.views in ("both", "rel")
    mode = merge_mode if use_attr and use_rel else "M1"
    attr_state = _AttributeState(settings.value_dim) if use_attr else None
    records: list[IterationRecord] = []

    for iteration in range(1, max_iterations + 1):
        # Every round rebuilds these; dropping the last round's first keeps one
        # score matrix per view alive instead of two.
        s_attr = s_rel = embeddings = None
        record = IterationRecord(iteration, {}, {}, {}, 0, 0)
        records.append(record)
        taken_left, taken_right = store.taken("ent")
        attr_inf = AttributeInference([], [], set())
        rel_list = rel_pairs = []
        if use_attr:
            s_attr, attr_inf = _attribute_round(record, attr_state, g, g2, store, settings,
                                                threshold)
        if use_rel:
            claimed = attr_inf.entities if mode == "M1" else []  # M1: these count as taken
            s_rel, rel_list, rel_pairs, embeddings = _relationship_round(
                record, g, g2, store, settings, threshold,
                taken_left | {m for m, _, _ in claimed}, taken_right | {n for _, n, _ in claimed})

        tick = time.perf_counter()
        if mode == "M1":
            entries = merge_standard(attr_inf.entities, rel_list)
        elif mode == "M2":
            entries = merge_score(attr_inf.entities, rel_list, s_attr, s_rel)
        else:
            entries = merge_rank(attr_inf.entities, rel_list)
        record.timings["merge"] = time.perf_counter() - tick

        record.candidate_overlap = sum(m in taken_left or n in taken_right for m, n, _ in entries)
        record.counts = {
            "new_ent_attr": len(attr_inf.entities),
            "new_ent_rel": len(rel_list),
            "merged": sum(store.add("ent", m, n, provenance) for m, n, provenance in entries),
            "new_attr": sum(store.add("attr", a, b, PROV_ATTR)
                            for a, b, _ in attr_inf.attribute_pairs),
            "new_rel": sum(store.add("rel", a, b, PROV_REL) for a, b, _ in rel_pairs),
            "new_val": sum(store.add_val_pair(v, w, PROV_ATTR)
                           for v, w in sorted(attr_inf.value_pairs,
                                              key=lambda p: (p[0].raw, p[1].raw))),
        }
        record.store_size = store.size()
        LOG.info("iteration %d: %s", iteration, record.counts)
        added = sum(record.counts[k] for k in ("merged", "new_attr", "new_rel", "new_val"))
        if not added:
            break

    return PipelineResult(store, records, not added,
                          SimilarityMatrix(s_attr, PROV_ATTR) if use_attr else None,
                          SimilarityMatrix(s_rel, PROV_REL) if use_rel else None, embeddings)


def write_iteration_log(result: PipelineResult, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in result.records:
            fh.write(record.to_json_line() + "\n")


def write_alignment_dump(store: AlignmentStore, g: KnowledgeGraph, g2: KnowledgeGraph,
                         path) -> None:
    """``type<TAB>left<TAB>right<TAB>provenance`` per alignment, sorted: one row
    per ``store.provenance`` key, its ids written as their graph's labels."""
    labels = {"ent": (g.ent_labels, g2.ent_labels), "rel": (g.rel_labels, g2.rel_labels),
              "attr": (g.attr_labels, g2.attr_labels)}
    rows = []
    for (kind, left, right), provenance in store.provenance.items():
        if kind in labels:
            left, right = labels[kind][0][left], labels[kind][1][right]
        rows.append((kind, left, right, provenance))
    write_rows(path, sorted(rows))
