"""Merge strategies, threshold sweeps, and the bootstrap loop."""

from random import Random

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from kgalign.kg import (
    PROV_ATTR,
    PROV_REL,
    KnowledgeGraph,
    RankedAlignmentList,
    build_initial_seeds,
)
from kgalign import pipeline
from kgalign.pipeline import (
    PipelineSettings,
    Thresholds,
    merge_rank,
    merge_score,
    merge_standard,
    run_pipeline,
    tune_thresholds,
)
from kgalign.relationship_model import TrainConfig
from kgalign.synth import SynthSpec, generate_synth


def ranked(*pairs):
    return RankedAlignmentList([(m, n, float(s)) for m, n, s in pairs])


class TestMergeStandard:
    def test_attribute_view_consumes_first(self):
        attr = ranked((0, 0, 0.9))

        def infer_remaining(consumed_left, consumed_right):
            # the relationship view would have proposed (0, 1), but 0 is gone
            proposals = [(0, 1, 0.95), (2, 2, 0.8)]
            return ranked(*[p for p in proposals
                            if p[0] not in consumed_left and p[1] not in consumed_right])

        entries, rel_list = merge_standard(attr, infer_remaining)
        assert [(m, n) for m, n, _ in entries] == [(0, 0), (2, 2)]
        assert len(rel_list) == 1

    def test_empty_attribute_view(self):
        entries, _ = merge_standard(ranked(), lambda cl, cr: ranked((1, 1, 0.7)))
        assert entries == [(1, 1, PROV_REL)]

    def test_disjoint_union(self):
        entries, _ = merge_standard(ranked((0, 0, 0.9)), lambda cl, cr: ranked((1, 1, 0.8)))
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
            proposed = {(m, n) for m, n, _ in attr.pairs} | {(m, n) for m, n, _ in rel.pairs}
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
            proposed = {(m, n) for m, n, _ in attr.pairs} | {(m, n) for m, n, _ in rel.pairs}
            assert {(m, n) for m, n, _ in entries} <= proposed


class TestMergeAgreementProperty:
    def test_all_strategies_agree_without_conflicts(self):
        attr = ranked((0, 0, 0.9), (1, 1, 0.7))
        rel = ranked((2, 2, 0.95), (3, 3, 0.6))
        s = np.ones((4, 4))
        from_standard, _ = merge_standard(attr, lambda cl, cr: rel)
        from_score = merge_score(attr, rel, s, s)
        from_rank = merge_rank(attr, rel)
        expected = {(0, 0), (1, 1), (2, 2), (3, 3)}
        for entries in (from_standard, from_score, from_rank):
            assert {(m, n) for m, n, _ in entries} == expected


def assert_one_to_one_subset(entries, attr, rel):
    pairs = [(m, n) for m, n, _ in entries]
    assert set(pairs) <= {(m, n) for m, n, _ in attr.pairs + rel.pairs}
    assert len({m for m, _ in pairs}) == len(pairs)
    assert len({n for _, n in pairs}) == len(pairs)


def shuffled(ranked_list, rnd):
    pairs = list(ranked_list.pairs)
    rnd.shuffle(pairs)
    return RankedAlignmentList(pairs)


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

    def test_seeds_not_mutated(self):
        g, g2 = identical_graphs()
        seeds = build_initial_seeds(g, g2, [("e0", "f0")])
        before = set(seeds.ent_pairs)
        run_pipeline(g, g2, seeds, settings_for_tests(views="attr"), max_iterations=3)
        assert seeds.ent_pairs == before

    def test_bad_merge_mode_rejected(self):
        g, g2 = identical_graphs()
        seeds = build_initial_seeds(g, g2, [("e0", "f0")])
        with pytest.raises(ValueError):
            run_pipeline(g, g2, seeds, settings_for_tests(), merge_mode="M9")

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

    def test_iteration_records_carry_transe_summary(self):
        g, g2 = identical_graphs()
        seeds = build_initial_seeds(g, g2, [("e0", "f0")])
        import json
        both = run_pipeline(g, g2, seeds, settings_for_tests(views="both"), max_iterations=2)
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
        assert both.records[-1].translator["ll_last"] == both.translator.log_likelihoods[-1]
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

    def test_discovers_renamed_attributes_and_relations(self):
        # rename half the right-side labels so same-name seeding misses
        # them; the bootstrap must rediscover those pairs from values and
        # structure
        res = generate_synth(SynthSpec(n_entities=60, drop_prob=0.0, rng_seed=13))
        renamed_attr = {f"attr{k}": f"other{k}" for k in range(4)}
        renamed_rel = {f"rel{k}": f"link{k}" for k in range(4)}
        right = res.right
        g2 = KnowledgeGraph(
            [(right.ent_labels[h], renamed_rel.get(right.rel_labels[r], right.rel_labels[r]),
              right.ent_labels[t]) for h, r, t in right.rel_triples],
            [(right.ent_labels[h], renamed_attr.get(right.attr_labels[a], right.attr_labels[a]),
              v.raw) for h, a, v in right.attr_triples])
        seeds = build_initial_seeds(res.left, g2, res.ill_train)
        assert len(seeds.attr_pairs) == 5  # name + the four unrenamed ones
        assert len(seeds.rel_pairs) == 4
        valid = [(res.left.entity_id(a), g2.entity_id(b)) for a, b in res.ill_valid]
        settings = settings_for_tests(
            m_slots=10, min_count=5, value_dim=40,
            transe=TrainConfig(dim=32, epochs=50, rng_seed=2),
            thresholds=Thresholds(tuning="validation-sweep", tau_v=0.8, tau_r=0.9))
        result = run_pipeline(res.left, g2, seeds, settings, merge_mode="M3",
                              max_iterations=6, valid_pairs=valid)
        attr_pairs = {(res.left.attr_labels[a], g2.attr_labels[b])
                      for a, b in result.store.attr_pairs}
        rel_pairs = {(res.left.rel_labels[a], g2.rel_labels[b])
                     for a, b in result.store.rel_pairs}
        assert {(f"attr{k}", f"other{k}") for k in range(4)} <= attr_pairs
        assert {(f"rel{k}", f"link{k}") for k in range(4)} <= rel_pairs

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
