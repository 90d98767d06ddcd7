"""Ranking metrics over test inter-lingual links."""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np


@dataclass
class SimilarityMatrix:
    """Dense entity scores and the view that made them; rows index the left graph."""

    data: np.ndarray
    source: str  # "attribute-view", "relationship-view" or "merged"


@dataclass
class EvalReport:
    hr: dict[int, float]
    mrr: float
    n_test: int
    source: str

    def to_json(self) -> str:
        return json.dumps({"source": self.source, "n_test": self.n_test,
                           "hr": {str(k): v for k, v in sorted(self.hr.items())},
                           "mrr": self.mrr}, sort_keys=True)


def check_ks(ks) -> None:
    """HR@K needs at least one cut-off, and every cut-off at least 1."""
    if not ks or min(ks) < 1:
        raise ValueError(f"ks must be one or more integers >= 1, got {list(ks)}")


def evaluate(matrix, test_pairs, ks=(1, 10), source=None) -> EvalReport:
    """Rank every right-graph column for each test left entity.

    The rank of the true counterpart uses descending score with ties broken
    by ascending column id.  HR@K is the fraction ranked within K; MRR the
    mean reciprocal rank.
    """
    check_ks(ks)
    if isinstance(matrix, SimilarityMatrix):
        scores = matrix.data
        source = source or matrix.source
    else:
        scores = np.asarray(matrix)
        source = source or "merged"
    if len(test_pairs) == 0:
        raise ValueError("no test pairs")
    n, n2 = scores.shape
    ranks = []
    for left, right in test_pairs:
        if not 0 <= left < n:
            raise ValueError(f"test entity {left} is not a row of the similarity matrix")
        if not 0 <= right < n2:
            raise ValueError(f"test entity {right} is not a column of the similarity matrix")
        row = scores[left]
        s = row[right]
        rank = 1 + np.count_nonzero(row > s) + np.count_nonzero(row[:right] == s)
        ranks.append(rank)
    ranks = np.asarray(ranks, dtype=np.float64)
    hr = {int(k): float((ranks <= k).mean()) for k in ks}
    return EvalReport(hr, float((1.0 / ranks).mean()), len(test_pairs), source)


SPLIT_RATIOS = (4, 1, 10)  # train, valid, test


def split_ills(pairs, rng_seed: int = 0):
    """Disjoint, exhaustive train/valid/test split, divided 4:1:10.

    A repeated pair is kept once, where it first occurs, so that no pair
    lands in two parts.  Sizes are floored by ratio; the remainder goes to
    test.  Deterministic for a fixed seed.
    """
    pairs = list(dict.fromkeys(pairs))
    n = len(pairs)
    if n < 15:
        raise ValueError(f"need at least 15 pairs to split, got {n}")
    total = sum(SPLIT_RATIOS)
    n_train = n * SPLIT_RATIOS[0] // total
    n_valid = n * SPLIT_RATIOS[1] // total
    order = np.random.default_rng(rng_seed).permutation(n)
    train = [pairs[i] for i in order[:n_train]]
    valid = [pairs[i] for i in order[n_train:n_train + n_valid]]
    test = [pairs[i] for i in order[n_train + n_valid:]]
    return train, valid, test
