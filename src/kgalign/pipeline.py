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
    SimilarityMatrix,
    ValueEmbeddingMatrix,
    build_attr_slot_matrix,
    build_attribute_unification,
    build_value_matrix,
    entity_similarity_attr,
    infer_from_attribute_view,
)
from .kg import (
    PROV_ATTR,
    PROV_MERGED,
    PROV_REL,
    AlignmentStore,
    CandidateSet,
    KnowledgeGraph,
    RankedAlignmentList,
    frequent_attributes,
    greedy_one_to_one,
    infer_entity_pairs,
)
from .relationship_model import (
    EmbeddingTable,
    TrainConfig,
    entity_similarity_rel,
    infer_relation_pairs,
    relation_similarity,
    swap_triplets,
    train_transe,
)
from .translator import TranslationTable, WordVectorProvider, train_translation

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
    block_size: int = 1024
    workers: int = 1

    def __post_init__(self):
        if self.views not in VIEW_MODES:
            raise ValueError(f"views must be one of {VIEW_MODES}, got {self.views!r}")


@dataclass
class IterationRecord:
    iteration: int
    counts: dict[str, int]
    thresholds: dict[str, float]
    timings: dict[str, float]
    store_size: int
    candidate_overlap: int  # aligned entities still in the candidate pool; must be 0
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
    translator: TranslationTable | None
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
    data = scores.data if isinstance(scores, SimilarityMatrix) else np.asarray(scores)
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


def merge_standard(attr_list: RankedAlignmentList, infer_remaining):
    """Sequential co-training merge: the attribute view consumes its
    entities first, then the relationship view infers over the remainder.

    ``infer_remaining(consumed_left, consumed_right)`` must return the
    relationship view's ranked list over the reduced candidates.  Returns
    (merged entries, relationship list) where each entry is
    (left, right, provenance).
    """
    rel_list = infer_remaining(attr_list.left_entities(), attr_list.right_entities())
    entries = [(m, n, PROV_ATTR) for m, n, _ in attr_list.pairs]
    entries.extend((m, n, PROV_REL) for m, n, _ in rel_list.pairs)
    return entries, rel_list


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


def merge_score(attr_list: RankedAlignmentList, rel_list: RankedAlignmentList,
                s_attr: np.ndarray, s_rel: np.ndarray):
    """Conflicts keep the counterpart with the larger summed score.

    Pairs proposed by both views count once.  Ties break by higher
    attribute score, then higher relationship score, then the smaller
    (left, right); the result is one-to-one.
    """
    from_attr = {(m, n) for m, n, _ in attr_list.pairs}
    from_rel = {(m, n) for m, n, _ in rel_list.pairs}
    rows = []
    for m, n in sorted(from_attr | from_rel):
        sa = float(s_attr[m, n])
        sr = float(s_rel[m, n])
        rows.append((m, n, sa + sr, sa, sr))
    chosen = greedy_one_to_one(rows, key=lambda r: (-r[2], -r[3], -r[4], r[0], r[1]))
    return _with_provenance(chosen, from_attr, from_rel)


def merge_rank(attr_list: RankedAlignmentList, rel_list: RankedAlignmentList):
    """Conflicts keep the counterpart with the smaller normalized rank ratio
    (1-based rank divided by the proposing list's size; the minimum when a
    pair appears in both lists).

    Ratio ties break by higher attribute score, then higher relationship
    score (a score missing from a view counts as -inf), then the smaller
    (left, right); the result is one-to-one.
    """
    ratios_attr = attr_list.rank_ratios()
    ratios_rel = rel_list.rank_ratios()
    scores_attr = attr_list.scores()
    scores_rel = rel_list.scores()
    rows = []
    for pair in sorted(set(ratios_attr) | set(ratios_rel)):
        ratio = min(ratios_attr.get(pair, np.inf), ratios_rel.get(pair, np.inf))
        rows.append((pair[0], pair[1], ratio,
                     scores_attr.get(pair, _NEG_INF), scores_rel.get(pair, _NEG_INF)))
    chosen = greedy_one_to_one(rows, key=lambda r: (r[2], -r[3], -r[4], r[0], r[1]))
    return _with_provenance(chosen, ratios_attr, ratios_rel)


def _resolve_threshold(fixed: float | None, thresholds: Thresholds, valid_pairs, scores) -> float:
    if thresholds.tuning == "validation-sweep":
        if valid_pairs:
            return tune_thresholds(valid_pairs, scores)
        if fixed is not None:
            return fixed
        raise ValueError("empty validation set: fixed thresholds required")
    if fixed is None:
        raise ValueError("threshold tuning is 'fixed' but no value was given")
    return fixed


def _empty_attr_inference() -> AttributeInference:
    return AttributeInference(RankedAlignmentList([]), [], set())


def run_pipeline(g: KnowledgeGraph, g2: KnowledgeGraph, seeds: AlignmentStore,
                 settings: PipelineSettings | None = None, merge_mode: str = "M3",
                 max_iterations: int = 10, valid_pairs=None) -> PipelineResult:
    """Bootstrap both views until no new alignment is found.

    ``seeds`` is copied, never mutated.  ``valid_pairs`` are (left id,
    right id) entity pairs used only for threshold sweeps.  Structure
    training reseeds per iteration from the configured seed so reruns are
    reproducible end to end.
    """
    if merge_mode not in MERGE_MODES:
        raise ValueError(f"merge_mode must be one of {MERGE_MODES}, got {merge_mode!r}")
    settings = settings or PipelineSettings()
    store = seeds.copy()
    candidates = CandidateSet.from_graphs(g, g2, store)
    frequent = frequent_attributes(g, g2, settings.min_count)
    provider = WordVectorProvider(settings.value_dim)
    use_attr = settings.views in ("both", "attr")
    use_rel = settings.views in ("both", "rel")

    table: TranslationTable | None = None
    values_left: ValueEmbeddingMatrix | None = None
    values_right: ValueEmbeddingMatrix | None = None
    embeddings: EmbeddingTable | None = None
    s_attr: SimilarityMatrix | None = None
    s_rel: SimilarityMatrix | None = None
    records: list[IterationRecord] = []
    converged = False

    for iteration in range(1, max_iterations + 1):
        timings: dict[str, float] = {}
        used: dict[str, float] = {}
        attr_inf = _empty_attr_inference()
        rel_list = RankedAlignmentList([])
        new_rel_pairs: list = []
        transe_summary: dict = {}
        translator_summary: dict = {}

        if use_attr:
            tick = time.perf_counter()
            # The left values change only with the translator, the right never.
            retrain = settings.retrain_translator or table is None
            if retrain:
                train_pairs = sorted(store.val_pairs, key=lambda p: (p[0].raw, p[1].raw))
                try:
                    table = train_translation(train_pairs, settings.em_iterations)
                except ValueError as exc:
                    LOG.warning("translator not trained (%s); embedding raw values", exc)
                    table = None
                else:
                    translator_summary = {"pairs": len(train_pairs),
                                          "ll_first": table.log_likelihoods[0],
                                          "ll_last": table.log_likelihoods[-1]}
            timings["translator"] = time.perf_counter() - tick

            tick = time.perf_counter()
            if retrain:
                values_left = build_value_matrix(g, table, provider, settings.m_slots,
                                                 frequent.left)
            if values_right is None:
                values_right = build_value_matrix(g2, None, provider, settings.m_slots,
                                                  frequent.right)
            unification = build_attribute_unification(frequent, store.attr_pairs)
            slots_left = build_attr_slot_matrix(values_left, unification, "left")
            slots_right = build_attr_slot_matrix(values_right, unification, "right")
            s_attr = entity_similarity_attr(values_left, values_right, slots_left, slots_right,
                                            settings.block_size, settings.workers)
            timings["attribute_scores"] = time.perf_counter() - tick

            tick = time.perf_counter()
            tau_attr = _resolve_threshold(settings.thresholds.tau_e_attr, settings.thresholds,
                                          valid_pairs, s_attr.data)
            used["tau_e_attr"] = tau_attr
            attr_inf = infer_from_attribute_view(s_attr, store, candidates, tau_attr,
                                                 settings.thresholds.tau_v,
                                                 g, g2, values_left, values_right)
            timings["attribute_inference"] = time.perf_counter() - tick

        tau_rel = None
        if use_rel:
            tick = time.perf_counter()
            swapped = swap_triplets(g, g2, store)
            transe_cfg = dataclasses.replace(settings.transe,
                                             rng_seed=settings.transe.rng_seed + iteration)
            embeddings = train_transe(swapped, transe_cfg)
            transe_summary = embeddings.training_summary()
            s_rel = entity_similarity_rel(embeddings, g, g2)
            rel_scores = relation_similarity(embeddings)
            timings["relationship_training"] = time.perf_counter() - tick

            tick = time.perf_counter()
            tau_rel = _resolve_threshold(settings.thresholds.tau_e_rel, settings.thresholds,
                                         valid_pairs, s_rel.data)
            used["tau_e_rel"] = tau_rel
            new_rel_pairs = infer_relation_pairs(rel_scores, settings.thresholds.tau_r, store)
            timings["relationship_inference"] = time.perf_counter() - tick

        tick = time.perf_counter()
        if not use_rel:
            entries = [(m, n, PROV_ATTR) for m, n, _ in attr_inf.entities.pairs]
        elif not use_attr:
            rel_list = infer_entity_pairs(s_rel.data, candidates, tau_rel)
            entries = [(m, n, PROV_REL) for m, n, _ in rel_list.pairs]
        elif merge_mode == "M1":
            def infer_remaining(consumed_left, consumed_right):
                return infer_entity_pairs(s_rel.data, candidates, tau_rel,
                                          consumed_left, consumed_right)
            entries, rel_list = merge_standard(attr_inf.entities, infer_remaining)
        else:
            rel_list = infer_entity_pairs(s_rel.data, candidates, tau_rel)
            if merge_mode == "M2":
                entries = merge_score(attr_inf.entities, rel_list, s_attr.data, s_rel.data)
            else:
                entries = merge_rank(attr_inf.entities, rel_list)
        timings["merge"] = time.perf_counter() - tick

        new_ent = 0
        for m, n, provenance in entries:
            if store.add_ent_pair(m, n, provenance):
                candidates.consume(m, n)
                new_ent += 1
        new_attr = sum(store.add_attr_pair(a, b, PROV_ATTR)
                       for a, b, _ in attr_inf.attribute_pairs)
        new_rel = sum(store.add_rel_pair(a, b, PROV_REL) for a, b, _ in new_rel_pairs)
        new_val = sum(store.add_val_pair(v, w, PROV_ATTR)
                      for v, w in sorted(attr_inf.value_pairs,
                                         key=lambda p: (p[0].raw, p[1].raw)))

        overlap = (len(candidates.free_left & store.aligned_left_entities())
                   + len(candidates.free_right & store.aligned_right_entities()))
        counts = {
            "new_ent_attr": len(attr_inf.entities),
            "new_ent_rel": len(rel_list),
            "merged": new_ent,
            "new_attr": int(new_attr),
            "new_rel": int(new_rel),
            "new_val": int(new_val),
        }
        records.append(IterationRecord(iteration, counts, used, timings, store.size(), overlap,
                                       transe_summary, translator_summary))
        LOG.info("iteration %d: %s", iteration, counts)

        if new_ent + new_attr + new_rel + new_val == 0:
            converged = True
            break

    return PipelineResult(store, records, converged, s_attr, s_rel, table, embeddings)


def write_iteration_log(result: PipelineResult, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for record in result.records:
            fh.write(record.to_json_line() + "\n")


def write_alignment_dump(store: AlignmentStore, g: KnowledgeGraph, g2: KnowledgeGraph,
                         path) -> None:
    """``type<TAB>left<TAB>right<TAB>provenance`` per alignment, sorted."""
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
