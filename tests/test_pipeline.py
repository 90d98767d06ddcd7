"""Merge strategies, threshold sweeps, and the bootstrap loop."""

import gc
import hashlib
import importlib.util
import os
import subprocess
import sys
import weakref
from pathlib import Path
from random import Random

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from kgalign.attribute_model import (
    build_attr_slot_matrix,
    build_value_matrix,
    entity_similarity_attr,
    infer_from_attribute_view,
)
from kgalign.kg import (
    PROV_ATTR,
    PROV_REL,
    KnowledgeGraph,
    build_initial_seeds,
    frequent_attributes,
    infer_entity_pairs,
)
from kgalign import pipeline
from kgalign.pipeline import (
    MERGE_MODES,
    PipelineSettings,
    Thresholds,
    merge_rank,
    merge_score,
    merge_standard,
    run_pipeline,
    tune_thresholds,
    write_alignment_dump,
)
from kgalign.relationship_model import TrainConfig
from kgalign.synth import SynthSpec, generate_synth, write_dataset
from kgalign.translator import WordVectorProvider, train_translation

from oracles import infer_from_attribute_view_unskipped


def renamed_synth():
    """A synthetic pair whose right graph renames attr0-3 and rel0-3, so
    same-name seeding leaves those attributes and relations free."""
    res = generate_synth(SynthSpec(n_entities=60, drop_prob=0.0, rng_seed=13))
    renamed_attr = {f"attr{k}": f"other{k}" for k in range(4)}
    renamed_rel = {f"rel{k}": f"link{k}" for k in range(4)}
    right = res.right
    g2 = KnowledgeGraph(
        [(right.ent_labels[h], renamed_rel.get(right.rel_labels[r], right.rel_labels[r]),
          right.ent_labels[t]) for h, r, t in right.rel_triples],
        [(right.ent_labels[h], renamed_attr.get(right.attr_labels[a], right.attr_labels[a]),
          v.raw) for h, a, v in right.attr_triples])
    return res, g2


def ranked(*pairs):
    return [(m, n, float(s)) for m, n, s in pairs]


class TestMergeStandard:
    def test_attribute_view_consumes_first(self):
        attr = ranked((0, 0, 0.9))
        # the relationship view would have proposed (0, 1), but 0 is gone
        scores = np.zeros((3, 3))
        scores[0, 1], scores[2, 2] = 0.95, 0.8
        rel_list = infer_entity_pairs(scores, 0.5, {0}, {0})
        entries = merge_standard(attr, rel_list)
        assert [(m, n) for m, n, _ in entries] == [(0, 0), (2, 2)]
        assert len(rel_list) == 1

    def test_empty_attribute_view(self):
        entries = merge_standard(ranked(), ranked((1, 1, 0.7)))
        assert entries == [(1, 1, PROV_REL)]

    def test_disjoint_union(self):
        entries = merge_standard(ranked((0, 0, 0.9)), ranked((1, 1, 0.8)))
        assert [(m, n) for m, n, _ in entries] == [(0, 0), (1, 1)]
        assert entries[0][2] == PROV_ATTR
        assert entries[1][2] == PROV_REL


class TestMergeScore:
    def test_summed_score_resolves_conflict(self):
        # attribute view proposes (0, 0): 0.9 + 0.1 = 1.0
        # relationship view proposes (0, 1): 0.2 + 0.7 = 0.9 -> loses
        s_attr = np.array([[0.9, 0.2]])
        s_rel = np.array([[0.1, 0.7]])
        entries = merge_score(ranked((0, 0, 0.9)), ranked((0, 1, 0.7)), s_attr, s_rel)
        assert [(m, n) for m, n, _ in entries] == [(0, 0)]

    def test_agreement_kept_once(self):
        s = np.array([[0.9]])
        entries = merge_score(ranked((0, 0, 0.9)), ranked((0, 0, 0.9)), s, s)
        assert len(entries) == 1
        assert entries[0][2] == "merged"

    def test_equal_sums_tie_to_higher_attribute_score(self):
        # both options sum to 1.0; (0, 0) has the higher attribute score
        s_attr = np.array([[0.8, 0.2]])
        s_rel = np.array([[0.2, 0.8]])
        entries = merge_score(ranked((0, 0, 0.8)), ranked((0, 1, 0.8)), s_attr, s_rel)
        assert [(m, n) for m, n, _ in entries] == [(0, 0)]

    def test_result_one_to_one_subset_of_proposals(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            s_attr = rng.random((4, 4))
            s_rel = rng.random((4, 4))
            attr = ranked(*[(i, int(rng.integers(0, 4)), s) for i, s in
                            enumerate(rng.random(3))])
            rel = ranked(*[(i, int(rng.integers(0, 4)), s) for i, s in
                           enumerate(rng.random(3))])
            entries = merge_score(attr, rel, s_attr, s_rel)
            pairs = [(m, n) for m, n, _ in entries]
            proposed = {(m, n) for m, n, _ in attr + rel}
            assert set(pairs) <= proposed
            assert len({m for m, _ in pairs}) == len(pairs)
            assert len({n for _, n in pairs}) == len(pairs)


class TestMergeRank:
    def test_minimal_ratio_wins(self):
        # left entity 2: attribute view ranks (2, 3) second of three (0.667),
        # relationship view ranks (2, 2) first of one (1.0) -> ratio wins
        attr = ranked((0, 0, 0.9), (2, 3, 0.8), (1, 1, 0.7))
        rel = ranked((2, 2, 0.95))
        entries = merge_rank(attr, rel)
        pairs = {(m, n) for m, n, _ in entries}
        assert (2, 3) in pairs
        assert (2, 2) not in pairs
        assert pairs == {(0, 0), (2, 3), (1, 1)}

    def test_ratio_tie_prefers_attribute_score(self):
        # both lists rank their proposal first with equal sizes: tie at 1.0,
        # broken toward the pair that has an attribute score at all
        entries = merge_rank(ranked((0, 0, 0.5)), ranked((0, 1, 0.9)))
        assert [(m, n) for m, n, _ in entries] == [(0, 0)]

    def test_conflict_free_union(self):
        entries = merge_rank(ranked((0, 0, 0.9)), ranked((1, 1, 0.8)))
        assert {(m, n) for m, n, _ in entries} == {(0, 0), (1, 1)}

    def test_pair_in_both_lists_uses_smaller_ratio(self):
        attr = ranked((0, 0, 0.9), (1, 1, 0.8))   # (1, 1) ratio 1.0
        rel = ranked((1, 1, 0.9), (2, 2, 0.8), (3, 3, 0.7))  # (1, 1) ratio 1/3
        entries = merge_rank(attr, rel)
        assert (1, 1) in {(m, n) for m, n, _ in entries}

    def test_never_invents_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            attr = ranked(*[(i, int(rng.integers(0, 4)), s)
                            for i, s in enumerate(rng.random(3))])
            rel = ranked(*[(i, int(rng.integers(0, 4)), s)
                           for i, s in enumerate(rng.random(3))])
            entries = merge_rank(attr, rel)
            proposed = {(m, n) for m, n, _ in attr + rel}
            assert {(m, n) for m, n, _ in entries} <= proposed


class TestMergeAgreementProperty:
    def test_all_strategies_agree_without_conflicts(self):
        attr = ranked((0, 0, 0.9), (1, 1, 0.7))
        rel = ranked((2, 2, 0.95), (3, 3, 0.6))
        s = np.ones((4, 4))
        from_standard = merge_standard(attr, rel)
        from_score = merge_score(attr, rel, s, s)
        from_rank = merge_rank(attr, rel)
        expected = {(0, 0), (1, 1), (2, 2), (3, 3)}
        for entries in (from_standard, from_score, from_rank):
            assert {(m, n) for m, n, _ in entries} == expected


def assert_one_to_one_subset(entries, attr, rel):
    pairs = [(m, n) for m, n, _ in entries]
    assert set(pairs) <= {(m, n) for m, n, _ in attr + rel}
    assert len({m for m, _ in pairs}) == len(pairs)
    assert len({n for _, n in pairs}) == len(pairs)


def shuffled(ranked_list, rnd):
    pairs = list(ranked_list)
    rnd.shuffle(pairs)
    return pairs


PAIRS = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=6, unique=True)
MATRIX = st.lists(st.lists(st.floats(-1, 1), min_size=4, max_size=4), min_size=4, max_size=4)
# (left, right, score) with distinct pairs and distinct scores, so no merge key ties
PROPOSALS = st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.floats(-1, 1)),
                     max_size=6, unique_by=(lambda p: p[:2], lambda p: p[2]))


class TestMergeProperties:
    @given(PAIRS, PAIRS, MATRIX, MATRIX, st.randoms())
    @example([(0, 0)], [(0, 1)], [[0.9, 0.2]], [[0.1, 0.7]], Random(0))
    @example([(0, 0)], [(0, 1)], [[0.8, 0.2]], [[0.2, 0.8]], Random(0))
    @example([(0, 0)], [(0, 0)], [[0.9]], [[0.9]], Random(0))
    def test_score_merge_one_to_one_and_order_free(self, attr_pairs, rel_pairs, s_attr, s_rel,
                                                   rnd):
        s_attr, s_rel = np.array(s_attr), np.array(s_rel)
        attr = ranked(*[(m, n, s_attr[m, n]) for m, n in attr_pairs])
        rel = ranked(*[(m, n, s_rel[m, n]) for m, n in rel_pairs])
        entries = merge_score(attr, rel, s_attr, s_rel)
        assert_one_to_one_subset(entries, attr, rel)
        assert merge_score(shuffled(attr, rnd), shuffled(rel, rnd), s_attr, s_rel) == entries

    @given(PROPOSALS, PROPOSALS, st.permutations(range(4)), st.permutations(range(4)))
    @example([(0, 0, 0.9), (2, 3, 0.8), (1, 1, 0.7)], [(2, 2, 0.95)], range(4), range(4))
    @example([(0, 0, 0.5)], [(0, 1, 0.9)], range(4), range(4))
    @example([(0, 0, 0.9), (1, 1, 0.8)], [(1, 1, 0.9), (2, 2, 0.8), (3, 3, 0.7)],
             [3, 2, 1, 0], [1, 0, 3, 2])
    def test_rank_merge_one_to_one_and_relabel_free(self, attr_rows, rel_rows, perm_l, perm_r):
        def ranked_by_score(rows, pl=range(4), pr=range(4)):
            return ranked(*sorted(((pl[m], pr[n], s) for m, n, s in rows),
                                  key=lambda p: -p[2]))

        attr, rel = ranked_by_score(attr_rows), ranked_by_score(rel_rows)
        entries = merge_rank(attr, rel)
        assert_one_to_one_subset(entries, attr, rel)
        relabeled = merge_rank(ranked_by_score(attr_rows, perm_l, perm_r),
                               ranked_by_score(rel_rows, perm_l, perm_r))
        assert relabeled == [(perm_l[m], perm_r[n], prov) for m, n, prov in entries]


def sweep_oracle(valid_pairs, scores):
    """Exhaustive independent reimplementation of the documented sweep rule."""
    rows = np.array([m for m, _ in valid_pairs])
    truth = np.array([n for _, n in valid_pairs])
    sub = scores[rows]
    tops = sub.max(axis=1)
    correct = sub.argmax(axis=1) == truth
    lo, hi = float(tops.min()), float(tops.max())
    grid = {lo, hi} | {c / 100.0 for c in range(int(np.ceil(lo * 100)),
                                                int(np.floor(hi * 100)) + 1)}
    best = None
    for tau in sorted(grid):
        if not lo <= tau <= hi:
            continue
        pred = tops >= tau
        n_corr = int((pred & correct).sum())
        prec = n_corr / pred.sum() if pred.any() else 0.0
        key = (prec, n_corr, tau)
        if best is None or key > best:
            best = key
    return best[2]


class TestTuneThresholds:
    def test_separable_case_returns_largest_maximizer(self):
        scores = np.zeros((5, 5))
        for i, s in zip(range(3), (0.9, 0.93, 0.96)):
            scores[i, i] = s
        scores[3, 0] = 0.4   # top-1 wrong for rows 3 and 4
        scores[4, 0] = 0.5
        valid = [(i, i) for i in range(5)]
        tau = tune_thresholds(valid, scores)
        assert tau == pytest.approx(0.9, abs=1e-12)

    def test_singleton_returns_its_score(self):
        scores = np.array([[0.7321, 0.1]])
        assert tune_thresholds([(0, 0)], scores) == pytest.approx(0.7321)

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            scores = rng.random((10, 8))
            valid = [(i, int(rng.integers(0, 8))) for i in range(10)]
            assert tune_thresholds(valid, scores) == pytest.approx(
                sweep_oracle(valid, scores), abs=1e-12)

    def test_empty_validation_rejected(self):
        with pytest.raises(ValueError, match="fixed"):
            tune_thresholds([], np.ones((2, 2)))


def identical_graphs(n=6):
    rel_rows = [(f"e{i}", "r0", f"e{(i + 1) % n}") for i in range(n)]
    attr_rows = [(f"e{i}", "name", f"token{i}") for i in range(n)]
    g = KnowledgeGraph(rel_rows, attr_rows)
    g2 = KnowledgeGraph([(h.replace("e", "f"), r, t.replace("e", "f")) for h, r, t in rel_rows],
                        [(h.replace("e", "f"), a, v) for h, a, v in attr_rows])
    return g, g2


def chain_graphs(n=6):
    """Entity i carries value i under "name" and value i + 1 under "next", so
    each aligned pair teaches the translator the next entity's name."""
    def side(entity, value):
        return KnowledgeGraph([], [(f"{entity}{i}", a, f"{value}{i + k}") for i in range(n)
                                   for k, a in enumerate(("name", "next"))])

    return side("e", "w"), side("f", "v")


def settings_for_tests(**kwargs):
    defaults = dict(m_slots=4, min_count=1, value_dim=24, em_iterations=6,
                    transe=TrainConfig(dim=12, epochs=15, rng_seed=0),
                    thresholds=Thresholds(tau_e_attr=0.5, tau_e_rel=0.5,
                                          tau_v=0.8, tau_r=0.9))
    defaults.update(kwargs)
    return PipelineSettings(**defaults)


def renamed_run(views, path, seeds=None):
    """An M3 bootstrap on ``renamed_synth``, and the sha256 of its alignment
    dump; ``seeds`` defaults to the store ``build_initial_seeds`` makes."""
    res, g2 = renamed_synth()
    if seeds is None:
        seeds = build_initial_seeds(res.left, g2, res.ill_train)
    valid = [(res.left.entity_id(a), g2.entity_id(b)) for a, b in res.ill_valid]
    settings = settings_for_tests(
        m_slots=10, min_count=5, value_dim=40,
        transe=TrainConfig(dim=32, epochs=50, rng_seed=2),
        thresholds=Thresholds(tuning="validation-sweep", tau_v=0.8, tau_r=0.9), views=views)
    result = run_pipeline(res.left, g2, seeds, settings, merge_mode="M3",
                          max_iterations=6, valid_pairs=valid)
    write_alignment_dump(result.store, res.left, g2, path)
    return result, hashlib.sha256(path.read_bytes()).hexdigest()


class TestRunPipeline:
    def test_identical_graphs_reach_fixpoint(self):
        g, g2 = identical_graphs()
        seeds = build_initial_seeds(g, g2, [("e0", "f0")])
        settings = settings_for_tests(views="attr")
        result = run_pipeline(g, g2, seeds, settings, merge_mode="M1", max_iterations=5)
        assert result.converged
        # everything aligned in iteration 1, empty delta in iteration 2
        assert result.records[0].counts["merged"] == 5
        assert len(result.store.ent_pairs) == 6
        assert result.records[-1].counts["merged"] == 0

    def test_unreachable_thresholds_keep_seeds_only(self):
        g, g2 = identical_graphs()
        seeds = build_initial_seeds(g, g2, [("e0", "f0")])
        settings = settings_for_tests(
            views="attr",
            thresholds=Thresholds(tau_e_attr=99.0, tau_e_rel=99.0, tau_v=1.0, tau_r=1.0))
        result = run_pipeline(g, g2, seeds, settings, merge_mode="M2", max_iterations=5)
        assert result.converged
        assert len(result.records) == 1
        assert result.store.ent_pairs == seeds.ent_pairs
        assert result.store.val_pairs == seeds.val_pairs

    def test_seeds_not_mutated(self, tmp_path):
        res, g2 = renamed_synth()
        seeds = build_initial_seeds(res.left, g2, res.ill_train)

        def held(store):
            kinds = {kind: set(getattr(store, f"{kind}_pairs"))
                     for kind in ("ent", "rel", "attr", "val")}
            return kinds, dict(store.provenance)

        before = held(seeds)
        result, _ = renamed_run("both", tmp_path / "alignments.tsv", seeds)
        # The run adds pairs of all four kinds, and none of them to the seeds.
        assert all(sum(r.counts[key] for r in result.records)
                   for key in ("merged", "new_attr", "new_rel", "new_val"))
        assert held(seeds) == before

    def test_bad_merge_mode_rejected(self):
        g, g2 = identical_graphs()
        seeds = build_initial_seeds(g, g2, [("e0", "f0")])
        with pytest.raises(ValueError):
            run_pipeline(g, g2, seeds, settings_for_tests(), merge_mode="M9")

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_collector_state_restored(self, enabled):
        g, g2 = identical_graphs()
        seeds = build_initial_seeds(g, g2, [("e0", "f0")])
        before = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            run_pipeline(g, g2, seeds, settings_for_tests(views="attr"), max_iterations=2)
            assert gc.isenabled() is enabled
            with pytest.raises(ValueError, match="merge_mode"):
                run_pipeline(g, g2, seeds, settings_for_tests(), merge_mode="M9")
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if before else gc.disable()

    def test_synthetic_bootstrap_grows_for_two_iterations(self):
        res = generate_synth(SynthSpec(n_entities=50, rng_seed=21))
        seeds = build_initial_seeds(res.left, res.right, res.ill_train)
        valid = [(res.left.entity_id(a), res.right.entity_id(b)) for a, b in res.ill_valid]
        settings = settings_for_tests(
            m_slots=8, min_count=3, value_dim=32,
            transe=TrainConfig(dim=24, epochs=30, rng_seed=2),
            thresholds=Thresholds(tuning="validation-sweep", tau_v=0.8, tau_r=0.9))
        result = run_pipeline(res.left, res.right, seeds, settings, merge_mode="M3",
                              max_iterations=6, valid_pairs=valid)
        sizes = [r.store_size for r in result.records]
        assert sizes[0] > seeds.size()
        assert sizes[1] > sizes[0]
        # ground truth sanity: inferred entity pairs are correct ones
        truth = set(res.truth.ent_pairs)
        assert set(result.store.ent_pairs) <= truth

    def test_monotone_growth_and_disjoint_candidates(self):
        res = generate_synth(SynthSpec(n_entities=40, rng_seed=5))
        seeds = build_initial_seeds(res.left, res.right, res.ill_train)
        valid = [(res.left.entity_id(a), res.right.entity_id(b)) for a, b in res.ill_valid]
        settings = settings_for_tests(
            m_slots=8, min_count=3, value_dim=32,
            transe=TrainConfig(dim=16, epochs=20, rng_seed=2),
            thresholds=Thresholds(tuning="validation-sweep", tau_v=0.8, tau_r=0.9))
        result = run_pipeline(res.left, res.right, seeds, settings, merge_mode="M2",
                              max_iterations=4, valid_pairs=valid)
        sizes = [r.store_size for r in result.records]
        assert all(b >= a for a, b in zip(sizes, sizes[1:]))
        assert all(r.candidate_overlap == 0 for r in result.records)
        assert result.converged or len(result.records) == 4

    def test_single_view_rel_only(self):
        res = generate_synth(SynthSpec(n_entities=30, rng_seed=9))
        seeds = build_initial_seeds(res.left, res.right, res.ill_train)
        settings = settings_for_tests(
            views="rel", transe=TrainConfig(dim=16, epochs=20, rng_seed=1),
            thresholds=Thresholds(tau_e_attr=0.9, tau_e_rel=0.93, tau_v=0.8, tau_r=0.9))
        result = run_pipeline(res.left, res.right, seeds, settings, max_iterations=3)
        assert result.s_attr is None
        assert result.s_rel is not None
        assert all(r.counts["new_attr"] == 0 and r.counts["new_val"] == 0
                   for r in result.records)

    def test_iteration_records_are_json_lines(self):
        g, g2 = identical_graphs()
        seeds = build_initial_seeds(g, g2, [("e0", "f0")])
        result = run_pipeline(g, g2, seeds, settings_for_tests(views="attr"), max_iterations=2)
        import json
        for record in result.records:
            payload = json.loads(record.to_json_line())
            assert set(payload["counts"]) == {"new_ent_attr", "new_ent_rel", "merged",
                                              "new_attr", "new_rel", "new_val"}
            assert "timings" in payload

    def test_iteration_records_carry_transe_summary(self, monkeypatch):
        g, g2 = identical_graphs()
        seeds = build_initial_seeds(g, g2, [("e0", "f0")])
        import json
        tables = []
        train = pipeline.train_translation
        monkeypatch.setattr(pipeline, "train_translation",
                            lambda *args: tables.append(train(*args)) or tables[-1])
        both = run_pipeline(g, g2, seeds, settings_for_tests(views="both"), max_iterations=2)
        both_table = tables[-1]
        for record in both.records:
            transe = json.loads(record.to_json_line())["transe"]
            assert set(transe) == {"epochs", "loss_first", "loss_last", "loss_min",
                                   "capped_negatives"}
            assert transe["epochs"] == 15
            assert transe["loss_min"] <= min(transe["loss_first"], transe["loss_last"])
            assert transe["capped_negatives"] == 0
        assert both.records[-1].transe == both.embeddings.training_summary()
        attr_only = run_pipeline(g, g2, seeds, settings_for_tests(views="attr"),
                                 max_iterations=1)
        assert attr_only.records[0].transe == {}

        for record in both.records:
            translator = json.loads(record.to_json_line())["translator"]
            assert set(translator) == {"pairs", "ll_first", "ll_last"}
            assert translator["ll_first"] <= translator["ll_last"]
        assert both.records[0].translator["pairs"] == len(seeds.val_pairs)
        assert both.records[-1].translator["ll_last"] == both_table.log_likelihoods[-1]
        rel_only = run_pipeline(g, g2, seeds, settings_for_tests(views="rel"), max_iterations=1)
        assert rel_only.records[0].translator == {}
        frozen = run_pipeline(g, g2, seeds,
                              settings_for_tests(views="attr", retrain_translator=False),
                              max_iterations=2)
        assert frozen.records[0].translator != {}
        assert frozen.records[1].translator == {}

    def test_value_matrices_built_once_per_translator(self, monkeypatch):
        g, g2 = chain_graphs()
        seeds = build_initial_seeds(g, g2, [("e0", "f0")])
        calls = []
        build = pipeline.build_value_matrix
        monkeypatch.setattr(pipeline, "build_value_matrix",
                            lambda graph, *args: calls.append(graph) or build(graph, *args))
        retrained = run_pipeline(g, g2, seeds, settings_for_tests(views="attr"),
                                 max_iterations=3)
        # one more chain link per round, so three rounds do not converge
        assert not retrained.converged and len(retrained.store.ent_pairs) == 4
        assert calls == [g, g2, g, g]
        calls.clear()
        run_pipeline(g, g2, seeds, settings_for_tests(views="attr", retrain_translator=False),
                     max_iterations=3)
        assert calls == [g, g2]

    def test_fixed_tuning_requires_values(self):
        g, g2 = identical_graphs()
        seeds = build_initial_seeds(g, g2, [("e0", "f0")])
        settings = settings_for_tests(
            views="attr", thresholds=Thresholds(tuning="fixed"))
        with pytest.raises(ValueError, match="fixed"):
            run_pipeline(g, g2, seeds, settings, max_iterations=1)

    def test_sweep_without_validation_rejected(self):
        g, g2 = identical_graphs()
        seeds = build_initial_seeds(g, g2, [("e0", "f0")])
        settings = settings_for_tests(
            views="attr", thresholds=Thresholds(tuning="validation-sweep"))
        with pytest.raises(ValueError, match="validation"):
            run_pipeline(g, g2, seeds, settings, max_iterations=1)

    @pytest.mark.parametrize("key", ["tau_e_attr", "tau_e_rel"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_entity_threshold_rejected(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            Thresholds(**{key: value})

    def test_threshold_rule_checked_before_training(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("train_translation called")

        monkeypatch.setattr(pipeline, "train_translation", fail)
        g, g2 = identical_graphs()
        seeds = build_initial_seeds(g, g2, [("e0", "f0")])
        settings = settings_for_tests(views="attr", thresholds=Thresholds(tuning="fixed"))
        with pytest.raises(ValueError, match="tau_e_attr is unset"):
            run_pipeline(g, g2, seeds, settings, max_iterations=1)

    def test_merged_entry_on_aligned_entity_counts_as_overlap(self, monkeypatch):
        # The store refuses the pair, but the record must still show the fault.
        monkeypatch.setattr(pipeline, "merge_rank", lambda attr, rel: [(0, 1, PROV_REL)])
        g, g2 = identical_graphs()
        seeds = build_initial_seeds(g, g2, [("e0", "f0")])
        result = run_pipeline(g, g2, seeds, settings_for_tests(), merge_mode="M3",
                              max_iterations=1)
        assert result.records[0].candidate_overlap == 1
        assert result.records[0].counts["merged"] == 0

    def test_discovers_renamed_attributes_and_relations(self, tmp_path):
        # rename half the right-side labels so same-name seeding misses
        # them; the bootstrap must rediscover those pairs from values and
        # structure
        res, g2 = renamed_synth()
        seeds = build_initial_seeds(res.left, g2, res.ill_train)
        assert len(seeds.attr_pairs) == 5  # name + the four unrenamed ones
        assert len(seeds.rel_pairs) == 4
        result, digest = renamed_run("both", tmp_path / "alignments.tsv")
        attr_pairs = {(res.left.attr_labels[a], g2.attr_labels[b])
                      for a, b in result.store.attr_pairs}
        rel_pairs = {(res.left.rel_labels[a], g2.rel_labels[b])
                     for a, b in result.store.rel_pairs}
        assert {(f"attr{k}", f"other{k}") for k in range(4)} <= attr_pairs
        assert {(f"rel{k}", f"link{k}") for k in range(4)} <= rel_pairs
        # Pins attribute-, relation- and value-pair inference bit for bit.
        assert [(r.counts["new_attr"], r.counts["new_rel"], r.counts["new_val"])
                for r in result.records] == [(4, 3, 96), (0, 1, 113), (0, 0, 0)]
        assert digest == "f8b85fed0be06944d882bfa619de47143d8e0614c658bda0eb09d5d1839350c0"

    def test_renamed_attribute_view_digest_is_frozen(self, tmp_path):
        # The attribute view alone finds the four renamed attributes in round 1
        # and the values under them in both rounds.
        result, digest = renamed_run("attr", tmp_path / "alignments.tsv")
        assert [(r.counts["new_attr"], r.counts["new_rel"], r.counts["new_val"])
                for r in result.records] == [(4, 0, 96), (0, 0, 107), (0, 0, 0)]
        assert [r.counts["merged"] for r in result.records] == [12, 27, 0]
        assert digest == "fcae10c164601807555d7a85f44c4778f14e6fc1d34afcb1058d54157ee95004"

    @pytest.mark.parametrize("views", ["attr", "both"])
    def test_renamed_runs_add_only_true_value_pairs(self, tmp_path, views):
        res, g2 = renamed_synth()
        seeds = build_initial_seeds(res.left, g2, res.ill_train)
        result, _ = renamed_run(views, tmp_path / "alignments.tsv")
        new = result.store.val_pairs - seeds.val_pairs
        assert len(new) == sum(r.counts["new_val"] for r in result.records)
        assert new <= res.truth.val_pairs

    def test_alignment_dump_format(self, tmp_path):
        from kgalign.pipeline import write_alignment_dump
        g, g2 = identical_graphs()
        seeds = build_initial_seeds(g, g2, [("e0", "f0")])
        result = run_pipeline(g, g2, seeds, settings_for_tests(views="attr"), max_iterations=3)
        path = tmp_path / "alignments.tsv"
        write_alignment_dump(result.store, g, g2, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == result.store.size()
        kinds = set()
        for line in lines:
            kind, left, right, provenance = line.split("\t")
            kinds.add(kind)
            assert provenance in {"seed", "attribute-view", "relationship-view", "merged"}
        assert kinds <= {"ent", "rel", "attr", "val"}
        assert "ent" in kinds and "val" in kinds

    def test_attribute_view_alignment_digest_is_frozen(self, tmp_path):
        # Pins tokenizing, translating and embedding bit for bit: round 1
        # trains the translator on the seed values, round 2 retrains it on the
        # values round 1 aligned and adds more pairs, round 3 adds none.
        res = generate_synth(SynthSpec(n_entities=150, drop_prob=0.4, seed_fraction=0.15,
                                       rng_seed=7))
        g, g2 = res.left, res.right
        seeds = build_initial_seeds(g, g2, res.ill_train)
        valid = [(g.entity_id(a), g2.entity_id(b)) for a, b in res.ill_valid]
        settings = PipelineSettings(m_slots=10, min_count=5, value_dim=50, em_iterations=10,
                                    thresholds=Thresholds(tuning="validation-sweep"),
                                    views="attr")
        result = run_pipeline(g, g2, seeds, settings, max_iterations=3, valid_pairs=valid)
        assert [r.counts["merged"] for r in result.records] == [18, 27, 0]
        assert all(r.translator for r in result.records)
        write_alignment_dump(result.store, g, g2, tmp_path / "alignments.tsv")
        digest = hashlib.sha256((tmp_path / "alignments.tsv").read_bytes()).hexdigest()
        assert digest == "3891c74fcf4f1b349edb4c35dd4c928f5b76d28184720fe37f0c60af9cd7a227"


@pytest.mark.parametrize("aligned", [0, 2, 4])
def test_attribute_proposals_skip_taken_attributes(aligned):
    # With none, two or all four renamed attributes aligned, skipping pairs
    # whose slots are all on taken attributes proposes what the full loop does.
    res, g2 = renamed_synth()
    g = res.left
    store = build_initial_seeds(g, g2, res.ill_train)
    for k in range(aligned):
        store.add("attr", g.attr_labels.index(f"attr{k}"), g2.attr_labels.index(f"other{k}"),
                  "seed")
    table = train_translation(sorted(store.val_pairs, key=lambda p: (p[0].raw, p[1].raw)), 10)
    provider = WordVectorProvider(40)
    frequent_right = frequent_attributes(g2, 5)
    values_left = build_value_matrix(g, table, provider, 10, frequent_attributes(g, 5))
    values_right = build_value_matrix(g2, None, provider, 10, frequent_right)
    s_attr = entity_similarity_attr(values_left, values_right,
                                    build_attr_slot_matrix(values_left, store.attr_map()),
                                    build_attr_slot_matrix(values_right,
                                                           {a: a for a in frequent_right}))
    args = (s_attr, store, 1.0, 0.8, g, g2, values_left, values_right)
    inference = infer_from_attribute_view(*args)
    assert inference == infer_from_attribute_view_unskipped(*args)
    assert {(g.attr_labels[a], g2.attr_labels[b]) for a, b, _ in inference.attribute_pairs} == {
        (f"attr{k}", f"other{k}") for k in range(aligned, 4)}


@pytest.fixture(scope="module")
def joint_fixture():
    res = generate_synth(SynthSpec(n_entities=100, drop_prob=0.5, seed_fraction=0.2,
                                   rng_seed=7))
    g, g2 = res.left, res.right
    valid = [(g.entity_id(a), g2.entity_id(b)) for a, b in res.ill_valid]
    return g, g2, build_initial_seeds(g, g2, res.ill_train), valid


def joint_run(fixture, views, merge_mode, path):
    g, g2, seeds, valid = fixture
    settings = PipelineSettings(m_slots=10, min_count=5, value_dim=50,
                                transe=TrainConfig(dim=24, epochs=10, rng_seed=3),
                                thresholds=Thresholds(tuning="validation-sweep"), views=views)
    result = run_pipeline(g, g2, seeds, settings, merge_mode=merge_mode, max_iterations=3,
                          valid_pairs=valid)
    write_alignment_dump(result.store, g, g2, path)
    return result, hashlib.sha256(path.read_bytes()).hexdigest()


class TestMergeDigests:
    # Pins every merge strategy bit for bit on a two-view run, and that a
    # single-view run does not depend on the merge mode.
    @pytest.mark.parametrize("merge_mode, merged, digest", [
        ("M1", [52, 0, 2], "3a8fe927168f2161a4a6945c00fcbe64108fceb748ab2cded579977c33d32e34"),
        ("M2", [50, 0, 0], "d6bf14afa2334c72c07febf9cabe4e52c1b09b11a62c566f240e66a8f144887d"),
        ("M3", [50, 6, 0], "84f8e7444bd9d90adce1afab7097c6a003bdfdbe2a7146ac962f3d275d90697b"),
    ], ids=["M1", "M2", "M3"])
    def test_joint_alignment_digest_is_frozen(self, joint_fixture, tmp_path, merge_mode,
                                              merged, digest):
        result, got = joint_run(joint_fixture, "both", merge_mode, tmp_path / "a.tsv")
        assert [r.counts["merged"] for r in result.records] == merged
        assert got == digest

    @pytest.mark.parametrize("views, digest", [
        ("attr", "915994df9ce6b2253c4ac7d3f1c7974fe1460e5fd2e4db46905b33d8a6195f93"),
        ("rel", "c103a545436b074f7bc1fc92d61e555bc2b2dc449771768572b4a4795a5f908b"),
    ], ids=["attr", "rel"])
    def test_single_view_ignores_merge_mode(self, joint_fixture, tmp_path, views, digest):
        digests = {joint_run(joint_fixture, views, mode, tmp_path / f"{mode}.tsv")[1]
                   for mode in ("M1", "M2", "M3")}
        assert digests == {digest}


def test_alignment_does_not_depend_on_workers(tmp_path):
    # 1100 left entities span two 1024-row scoring blocks, one per worker.
    res = generate_synth(SynthSpec(n_entities=1100, rng_seed=1))
    g, g2 = res.left, res.right
    seeds = build_initial_seeds(g, g2, res.ill_train)
    valid = [(g.entity_id(a), g2.entity_id(b)) for a, b in res.ill_valid]
    dumps = []
    for workers in (1, 2):
        settings = PipelineSettings(m_slots=10, min_count=5, value_dim=50, views="attr",
                                    thresholds=Thresholds(tuning="validation-sweep"),
                                    workers=workers)
        result = run_pipeline(g, g2, seeds, settings, max_iterations=2, valid_pairs=valid)
        assert result.records[0].counts["merged"] > 0
        write_alignment_dump(result.store, g, g2, tmp_path / f"{workers}.tsv")
        dumps.append((tmp_path / f"{workers}.tsv").read_bytes())
    assert dumps[0] == dumps[1]


def test_result_labels_each_view(joint_fixture, tmp_path):
    # The benchmark keys its per-view reports by these labels.
    result, _ = joint_run(joint_fixture, "both", "M3", tmp_path / "a.tsv")
    assert result.s_attr.source == "attribute-view"
    assert result.s_rel.source == "relationship-view"


ATTR_TIMINGS = {"translator", "attribute_scores", "attribute_inference"}
REL_TIMINGS = {"relationship_training", "relationship_inference"}


@pytest.mark.parametrize("views, timings, thresholds", [
    ("attr", ATTR_TIMINGS | {"merge"}, {"tau_e_attr"}),
    ("rel", REL_TIMINGS | {"merge"}, {"tau_e_rel"}),
    ("both", ATTR_TIMINGS | REL_TIMINGS | {"merge"}, {"tau_e_attr", "tau_e_rel"}),
])
def test_record_keys_follow_the_views(views, timings, thresholds):
    # iterations.jsonl carries one timing per stage and one threshold per view
    # that ran, and nothing for a view that is off.
    g, g2 = identical_graphs()
    seeds = build_initial_seeds(g, g2, [("e0", "f0")])
    result = run_pipeline(g, g2, seeds, settings_for_tests(views=views), max_iterations=2)
    assert result.records
    for record in result.records:
        assert set(record.timings) == timings
        assert set(record.thresholds) == thresholds


def test_tracer_targets_are_called_through_module_globals(joint_fixture, monkeypatch):
    # The benchmark's tracer times a layer by replacing the module attribute
    # its caller looks up at call time; a callee captured any other way would
    # escape it and read as zero time.
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("kgalign_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    calls = {}

    def counting(key, func):
        def counted(*args, **kwargs):
            calls[key] += 1
            return func(*args, **kwargs)
        return counted

    for target in tracing.TARGETS:
        if target.lookup in ("kgalign.pipeline", "kgalign.attribute_model"):
            module = importlib.import_module(target.lookup)
            calls[target.lookup, target.attr] = 0
            monkeypatch.setattr(module, target.attr, counting((target.lookup, target.attr),
                                                              getattr(module, target.attr)))
    g, g2, seeds, valid = joint_fixture
    settings = PipelineSettings(m_slots=10, min_count=5, value_dim=50,
                                transe=TrainConfig(dim=24, epochs=10, rng_seed=3),
                                thresholds=Thresholds(tuning="validation-sweep"))
    for merge_mode in MERGE_MODES:
        pipeline.run_pipeline(g, g2, seeds, settings, merge_mode=merge_mode, max_iterations=1,
                              valid_pairs=valid)
    assert {lookup for lookup, _ in calls} == {"kgalign.pipeline", "kgalign.attribute_model"}
    assert [key for key, count in calls.items() if count == 0] == []


def test_previous_round_products_released(joint_fixture, tmp_path, monkeypatch):
    # A round's dense products must be gone before the next round builds its
    # own, so at most one matrix per view is alive at a time.
    refs = {}

    def watch(name):
        func = getattr(pipeline, name)

        def scored(*args, **kwargs):
            assert all(ref() is None for ref in refs.setdefault(name, []))
            result = func(*args, **kwargs)
            refs[name].append(weakref.ref(result))
            return result

        monkeypatch.setattr(pipeline, name, scored)

    for name in ("entity_similarity_attr", "entity_similarity_rel", "train_transe"):
        watch(name)
    result, _ = joint_run(joint_fixture, "both", "M3", tmp_path / "a.tsv")
    assert len(result.records) == 3
    assert [len(r) for r in refs.values()] == [3, 3, 3]
    assert refs["entity_similarity_attr"][-1]() is result.s_attr.data
    assert refs["entity_similarity_rel"][-1]() is result.s_rel.data
    assert refs["train_transe"][-1]() is result.embeddings


# Loads a written pair, bootstraps both views and dumps the alignment; run in
# a child process per string hash seed.
HASH_SEED_RUN = """
import sys
from pathlib import Path
from kgalign.kg import build_initial_seeds, load_graph
from kgalign.pipeline import PipelineSettings, Thresholds, run_pipeline, write_alignment_dump
from kgalign.relationship_model import TrainConfig

data = Path(sys.argv[1])
g = load_graph(data / "rel_triples_1", data / "attr_triples_1")
g2 = load_graph(data / "rel_triples_2", data / "attr_triples_2")

def pairs(name):
    return [line.split("\\t") for line in (data / name).read_text("utf-8").splitlines()]

seeds = build_initial_seeds(g, g2, pairs("ill_train"))
valid = [(g.entity_id(a), g2.entity_id(b)) for a, b in pairs("ill_valid")]
settings = PipelineSettings(m_slots=10, min_count=5, value_dim=50,
                            transe=TrainConfig(dim=24, epochs=10, rng_seed=3),
                            thresholds=Thresholds(tuning="validation-sweep"))
result = run_pipeline(g, g2, seeds, settings, merge_mode="M3", max_iterations=2,
                      valid_pairs=valid)
assert sum(r.counts["merged"] for r in result.records) > 0
write_alignment_dump(result.store, g, g2, Path(sys.argv[2]))
"""


def test_alignment_does_not_depend_on_the_hash_seed(tmp_path):
    # Graphs are interned and deduplicated through sets of strings, whose
    # iteration order follows PYTHONHASHSEED; the alignment must not.
    data = tmp_path / "data"
    write_dataset(generate_synth(SynthSpec(n_entities=100, drop_prob=0.3, rng_seed=5)), data)
    rnd = Random(0)
    for name in ("rel_triples_1", "attr_triples_1", "rel_triples_2", "attr_triples_2"):
        lines = (data / name).read_text(encoding="utf-8").splitlines(keepends=True)
        lines += lines[:20]  # repeated rows
        rnd.shuffle(lines)
        (data / name).write_text("".join(lines), encoding="utf-8")
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    dumps = []
    for hash_seed in ("0", "1"):
        out = tmp_path / f"alignment-{hash_seed}.tsv"
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-c", HASH_SEED_RUN, str(data), str(out)], env=env,
                       check=True, timeout=300)
        dumps.append(out.read_bytes())
    assert dumps[0] == dumps[1]


def test_alignment_does_not_depend_on_blas_threads(tmp_path):
    # At N=200 OpenBLAS splits the attribute and relationship GEMMs across two
    # threads; the alignment must not change with their number.
    data = tmp_path / "data"
    write_dataset(generate_synth(SynthSpec(n_entities=200, drop_prob=0.3, rng_seed=6)), data)
    src = os.path.dirname(os.path.dirname(pipeline.__file__))
    dumps = []
    for threads in ("1", "2"):
        out = tmp_path / f"alignment-{threads}.tsv"
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONHASHSEED": "0",
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run([sys.executable, "-c", HASH_SEED_RUN, str(data), str(out)], env=env,
                       check=True, timeout=300)
        dumps.append(out.read_bytes())
    assert dumps[0] == dumps[1]
