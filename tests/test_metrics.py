"""Ranking metrics and the ILL split."""

import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kgalign.metrics import EvalReport, SimilarityMatrix, evaluate, split_ills
from oracles import evaluate_masked

# Few distinct values, so rows tie often; NaN compares unequal to itself.
TIE_VALUES = (0.0, -0.0, 0.5, 1.0, -1.0, float("nan"))


def rank_oracle(scores, left, right):
    """Independent sort-based rank: descending score, ascending column id."""
    row = scores[left]
    order = sorted(range(len(row)), key=lambda c: (-row[c], c))
    return order.index(right) + 1


class TestEvaluate:
    def test_hand_arithmetic(self):
        scores = np.array([
            [0.9, 0.1, 0.1],   # truth at column 0: rank 1
            [0.8, 0.5, 0.1],   # truth at column 1: rank 2
        ])
        report = evaluate(scores, [(0, 0), (1, 1)], ks=(1, 10))
        assert report.hr[1] == pytest.approx(0.5)
        assert report.hr[10] == pytest.approx(1.0)
        assert report.mrr == pytest.approx(0.75)
        assert report.n_test == 2

    def test_perfect_diagonal(self):
        report = evaluate(np.eye(4), [(i, i) for i in range(4)], ks=(1,))
        assert report.hr[1] == 1.0
        assert report.mrr == 1.0

    def test_tie_broken_by_column_id(self):
        scores = np.array([[0.5, 0.5]])
        assert evaluate(scores, [(0, 0)], ks=(1,)).hr[1] == 1.0
        assert evaluate(scores, [(0, 1)], ks=(1,)).hr[1] == 0.0

    def test_matches_sort_oracle(self):
        rng = np.random.default_rng(17)
        scores = rng.random((5, 5))
        pairs = [(i, int(rng.integers(0, 5))) for i in range(5)]
        report = evaluate(scores, pairs, ks=(1, 2, 3))
        ranks = np.array([rank_oracle(scores, m, n) for m, n in pairs])
        for k in (1, 2, 3):
            assert report.hr[k] == pytest.approx(float((ranks <= k).mean()))
        assert report.mrr == pytest.approx(float((1.0 / ranks).mean()))

    @given(st.data(), st.integers(1, 5), st.integers(1, 9))
    def test_ties_rank_like_masked_sums(self, data, n, n2):
        cells = data.draw(st.lists(st.sampled_from(TIE_VALUES), min_size=n * n2,
                                   max_size=n * n2))
        scores = np.array(cells).reshape(n, n2)
        rows = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
        middle = data.draw(st.integers(0, n2 - 1))
        pairs = [(m, c) for m in rows for c in (0, middle, n2 - 1)]
        ks = (1, 2, n2)
        report = evaluate(scores, pairs, ks=ks)
        hr, mrr = evaluate_masked(scores, pairs, ks)
        assert report.hr == hr
        assert report.mrr == mrr

    def test_hr_monotone_and_mrr_dominates_hr1(self):
        rng = np.random.default_rng(23)
        scores = rng.random((8, 8))
        pairs = [(i, int(rng.integers(0, 8))) for i in range(8)]
        report = evaluate(scores, pairs, ks=(1, 2, 5, 8))
        values = [report.hr[k] for k in (1, 2, 5, 8)]
        assert values == sorted(values)
        assert report.mrr >= report.hr[1]

    def test_argsort_invariance_under_monotone_transform(self):
        rng = np.random.default_rng(29)
        scores = rng.random((6, 6))
        pairs = [(i, int(rng.integers(0, 6))) for i in range(6)]
        base = evaluate(scores, pairs, ks=(1, 3))
        transformed = evaluate(np.exp(3.0 * scores) + 7.0, pairs, ks=(1, 3))
        assert base.hr == transformed.hr
        assert base.mrr == pytest.approx(transformed.mrr)

    def test_absent_entity_named(self):
        with pytest.raises(ValueError, match="9"):
            evaluate(np.eye(3), [(9, 0)])
        with pytest.raises(ValueError, match="7"):
            evaluate(np.eye(3), [(0, 7)])

    def test_source_from_matrix(self):
        matrix = SimilarityMatrix(np.eye(2), "attribute-view")
        assert evaluate(matrix, [(0, 0)]).source == "attribute-view"

    def test_empty_test_pairs_rejected(self):
        with pytest.raises(ValueError):
            evaluate(np.eye(2), [])

    @pytest.mark.parametrize("ks", [(), (0,), (1, -1)])
    def test_empty_or_nonpositive_ks_rejected(self, ks):
        with pytest.raises(ValueError, match="ks must be one or more integers >= 1"):
            evaluate(np.eye(2), [(0, 0)], ks=ks)

    def test_report_json(self):
        report = EvalReport({1: 0.5, 10: 1.0}, 0.75, 2, "merged")
        payload = json.loads(report.to_json())
        assert payload["hr"] == {"1": 0.5, "10": 1.0}
        assert payload["mrr"] == 0.75


class TestSplitIlls:
    def test_fifteen_pairs(self):
        train, valid, test = split_ills(list(range(15)))
        assert (len(train), len(valid), len(test)) == (4, 1, 10)

    def test_scaling(self):
        train, valid, test = split_ills(list(range(150)))
        assert (len(train), len(valid), len(test)) == (40, 10, 100)

    def test_deterministic(self):
        pairs = [(i, i) for i in range(30)]
        assert split_ills(pairs, rng_seed=3) == split_ills(pairs, rng_seed=3)

    def test_disjoint_and_exhaustive(self):
        pairs = [(i, i) for i in range(47)]
        train, valid, test = split_ills(pairs, rng_seed=1)
        combined = train + valid + test
        assert len(combined) == 47
        assert len(set(combined)) == 47

    def test_too_few_pairs(self):
        with pytest.raises(ValueError, match="15"):
            split_ills(list(range(14)))

    def test_repeated_pair_kept_once(self):
        # Permuted as two links, a repeated link's copies could land in train
        # and in test.
        links = [(i, i) for i in range(30)]
        train, valid, test = split_ills(links[:10] + links, rng_seed=0)
        assert sorted(train + valid + test) == links
        assert (len(train), len(valid), len(test)) == (8, 2, 20)
        assert split_ills(links[:10] + links, rng_seed=0) == split_ills(links, rng_seed=0)

    @pytest.mark.parametrize("n, seed", [(15, 0), (47, 1), (150, 7)])
    def test_distinct_pairs_split_by_one_permutation(self, n, seed):
        pairs = [(i, (i * 7) % n) for i in range(n)]
        train, valid, test = split_ills(pairs, rng_seed=seed)
        order = np.random.default_rng(seed).permutation(n)
        assert train + valid + test == [pairs[i] for i in order]
        assert (len(train), len(valid)) == (n * 4 // 15, n // 15)
