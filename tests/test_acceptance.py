"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
The end-to-end fixtures are shared across criteria so the whole suite stays
within a few minutes single-threaded.
"""

import time

import numpy as np
import pytest

from kgalign.attribute_model import entity_similarity_attr
from kgalign.kg import (
    ValueText,
    build_initial_seeds,
    infer_entity_pairs,
)
from kgalign.metrics import evaluate
from kgalign.pipeline import (
    PipelineSettings,
    Thresholds,
    merge_rank,
    merge_score,
    merge_standard,
    run_pipeline,
)
from kgalign.relationship_model import TrainConfig, minibatch_loss_and_grad
from kgalign.synth import SynthSpec, generate_synth
from kgalign.translator import train_translation
from oracles import (
    brute_force_scores,
    compact_values,
    dense_values,
    entity_similarity_attr_dense,
)


def check(name, condition, detail=""):
    status = "PASS" if condition else "FAIL"
    print(f"[acceptance] {name}: {status}" + (f" ({detail})" if detail else ""))
    assert condition, f"{name}: {detail}"


# ----------------------------------------------------------------------
# shared random fixtures for the tensor-math criteria
# ----------------------------------------------------------------------

def tensor_fixtures(count=100, seed=1234):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(1, 21))
        n2 = int(rng.integers(1, 21))
        m = int(rng.integers(1, 6))
        dim = int(rng.integers(1, 9))
        n_ids = int(rng.integers(1, 7))

        def side(count_):
            vecs = rng.standard_normal((count_, m, dim))
            vecs /= np.linalg.norm(vecs, axis=2, keepdims=True)
            ids = rng.integers(-1, n_ids, size=(count_, m))
            vecs[ids == -1] = 0.0
            return compact_values(vecs, ids), ids

        vl, il = side(n)
        vr, ir = side(n2)
        yield vl, vr, il, ir


def test_tensor_math_oracle():
    start = time.perf_counter()
    worst = 0.0
    for vl, vr, il, ir in tensor_fixtures():
        fast = entity_similarity_attr(vl, vr, il, ir)
        expected = brute_force_scores(dense_values(vl), dense_values(vr), il, ir)
        worst = max(worst, float(np.abs(fast - expected).max()))
    elapsed = time.perf_counter() - start
    check("tensor-math-oracle", worst <= 1e-6 and elapsed < 10.0,
          f"max |diff| = {worst:.2e}, {elapsed:.1f}s for 100 fixtures")


def test_factorization_identity():
    worst = 0.0
    for vl, vr, il, ir in tensor_fixtures():
        fast = entity_similarity_attr(vl, vr, il, ir)
        dense = entity_similarity_attr_dense(vl, vr, il, ir)
        worst = max(worst, float(np.abs(fast - dense).max()))
    check("factorization-identity", worst <= 1e-6, f"max |diff| = {worst:.2e}")


# ----------------------------------------------------------------------
# gradient check
# ----------------------------------------------------------------------

def finite_difference(ent, rel, pos, neg, margin, h=1e-5):
    grads = []
    for array in (ent, rel):
        grad = np.zeros_like(array)
        it = np.nditer(array, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            original = array[idx]
            array[idx] = original + h
            up = minibatch_loss_and_grad(ent, rel, pos, neg, margin)[0]
            array[idx] = original - h
            down = minibatch_loss_and_grad(ent, rel, pos, neg, margin)[0]
            array[idx] = original
            grad[idx] = (up - down) / (2 * h)
            it.iternext()
        grads.append(grad)
    return grads


def test_transe_gradient_check():
    rng = np.random.default_rng(99)
    batches = 0
    worst = 0.0
    while batches < 10:
        ent = rng.standard_normal((10, 5))
        ent /= np.linalg.norm(ent, axis=1, keepdims=True)
        rel = rng.standard_normal((3, 5)) * 0.5
        rows = 15
        pos = np.column_stack([rng.integers(0, 10, rows), rng.integers(0, 3, rows),
                               rng.integers(0, 10, rows)])
        neg = pos.copy()
        neg[:, 2] = rng.integers(0, 10, rows)
        hinge = (1.0
                 + np.linalg.norm(ent[pos[:, 0]] + rel[pos[:, 1]] - ent[pos[:, 2]], axis=1)
                 - np.linalg.norm(ent[neg[:, 0]] + rel[neg[:, 1]] - ent[neg[:, 2]], axis=1))
        if np.abs(hinge).min() < 1e-3:  # avoid the hinge kink
            continue
        batches += 1
        _, grad_ent, grad_rel = minibatch_loss_and_grad(ent, rel, pos, neg, 1.0)
        fd_ent, fd_rel = finite_difference(ent, rel, pos, neg, 1.0)
        for analytic, numeric in ((grad_ent, fd_ent), (grad_rel, fd_rel)):
            # 1e-4 relative with an absolute floor at the central-difference
            # noise level (h^2 truncation + roundoff), per np.allclose
            err = np.abs(analytic - numeric) - 1e-7
            denom = np.maximum(np.abs(numeric), 1e-300)
            worst = max(worst, float((err / denom).max()))
    check("transe-gradient-check", worst <= 1e-4,
          f"worst noise-floored relative error {max(worst, 0.0):.2e} over 10 batches")


# ----------------------------------------------------------------------
# dictionary recovery
# ----------------------------------------------------------------------

def test_em_dictionary_recovery():
    rng = np.random.default_rng(6)
    n_tokens, n_pairs = 60, 400
    sources = [f"s{i}" for i in range(n_tokens)]
    targets = [f"t{i}" for i in rng.permutation(n_tokens)]
    mapping = dict(zip(sources, targets))
    weights = 1.0 / np.arange(1, n_tokens + 1)
    probs = weights / weights.sum()
    pairs = []
    for _ in range(n_pairs):
        length = int(rng.integers(1, 5))
        toks = [sources[i] for i in rng.choice(n_tokens, size=length, p=probs)]
        pairs.append((ValueText.from_raw(" ".join(toks)),
                      ValueText.from_raw(" ".join(mapping[t] for t in toks))))
    start = time.perf_counter()
    table = train_translation(pairs, 12)
    elapsed = time.perf_counter() - start
    rate = sum(table.best.get(s) == mapping[s] for s in mapping) / n_tokens
    check("em-dictionary-recovery", rate >= 0.95 and elapsed < 5.0,
          f"recovered {rate:.1%} of {n_tokens} entries in {elapsed:.1f}s")


# ----------------------------------------------------------------------
# end-to-end fixtures (shared by several criteria)
# ----------------------------------------------------------------------

E2E_SETTINGS = dict(m_slots=10, min_count=5, value_dim=50, em_iterations=10)


def e2e_settings(views="both", retrain=True):
    return PipelineSettings(
        transe=TrainConfig(dim=48, epochs=60, rng_seed=3),
        thresholds=Thresholds(tuning="validation-sweep", tau_v=0.8, tau_r=0.9),
        views=views, retrain_translator=retrain, **E2E_SETTINGS)


def run_on(res, merge_mode="M3", views="both", retrain=True, max_iterations=5):
    seeds = build_initial_seeds(res.left, res.right, res.ill_train)
    valid = [(res.left.entity_id(a), res.right.entity_id(b)) for a, b in res.ill_valid]
    test = [(res.left.entity_id(a), res.right.entity_id(b)) for a, b in res.ill_test]
    start = time.perf_counter()
    result = run_pipeline(res.left, res.right, seeds, e2e_settings(views, retrain),
                          merge_mode=merge_mode, max_iterations=max_iterations,
                          valid_pairs=valid)
    elapsed = time.perf_counter() - start
    report = evaluate(result.merged_scores(), test, source="merged")
    return result, report, elapsed


@pytest.fixture(scope="module")
def forced_runs():
    res = generate_synth(SynthSpec(n_entities=200, drop_prob=0.0,
                                   seed_fraction=0.3, rng_seed=11))
    return {mode: run_on(res, merge_mode=mode) for mode in ("M1", "M2", "M3")}


@pytest.fixture(scope="module")
def degraded_runs():
    res = generate_synth(SynthSpec(n_entities=200, drop_prob=0.3,
                                   seed_fraction=0.3, rng_seed=11))
    return {
        "joint": run_on(res, max_iterations=8),
        "attr": run_on(res, views="attr", max_iterations=8),
        "rel": run_on(res, views="rel", max_iterations=8),
        "train-once": run_on(res, retrain=False, max_iterations=8),
    }


def test_forced_end_to_end_optimum(forced_runs):
    details = []
    ok = True
    for mode, (result, report, elapsed) in forced_runs.items():
        details.append(f"{mode}: HR@1={report.hr[1]:.3f} in {len(result.records)} iters, {elapsed:.0f}s")
        ok = ok and report.hr[1] == 1.0 and len(result.records) <= 5 and elapsed < 120.0
    check("forced-end-to-end-optimum", ok, "; ".join(details))


def test_degraded_end_to_end(degraded_runs):
    joint = degraded_runs["joint"][1].hr[1]
    attr_only = degraded_runs["attr"][1].hr[1]
    rel_only = degraded_runs["rel"][1].hr[1]
    check("degraded-end-to-end", joint > attr_only and joint > rel_only,
          f"merged {joint:.3f} vs attribute-only {attr_only:.3f}, "
          f"relationship-only {rel_only:.3f}")


def test_iterative_translator_ablation(degraded_runs):
    retrained = degraded_runs["joint"][1].hr[1]
    once = degraded_runs["train-once"][1].hr[1]
    check("iterative-translator-ablation", retrained >= once,
          f"retrained {retrained:.3f} >= train-once {once:.3f}")


def test_bootstrap_invariants(forced_runs, degraded_runs):
    ok = True
    details = []
    runs = [(f"forced-{k}", v[0]) for k, v in forced_runs.items()]
    runs += [(f"degraded-{k}", v[0]) for k, v in degraded_runs.items()]
    for name, result in runs:
        sizes = [r.store_size for r in result.records]
        monotone = all(b >= a for a, b in zip(sizes, sizes[1:]))
        disjoint = all(r.candidate_overlap == 0 for r in result.records)
        if result.converged:
            terminated = sum(result.records[-1].counts.values()) == 0
        else:
            terminated = result.truncated
        ok = ok and monotone and disjoint and terminated
        details.append(f"{name}: monotone={monotone} disjoint={disjoint} "
                       f"{'converged' if result.converged else 'truncated'}")
    check("bootstrap-invariants", ok, "; ".join(details))


# ----------------------------------------------------------------------
# merge-strategy conflict fixtures
# ----------------------------------------------------------------------

def test_merge_strategy_unit_suite():
    ok = True
    # sequential: the attribute view consumes entity 0 before the
    # relationship view may propose (0, 1)
    attr = [(0, 0, 0.9)]
    rel = infer_entity_pairs(np.array([[0.0, 0.95]]), 0.5, {0}, {0})
    entries = merge_standard(attr, rel)
    ok = ok and [(m, n) for m, n, _ in entries] == [(0, 0)]

    # score sum: 0.9 + 0.1 = 1.0 beats 0.2 + 0.7 = 0.9
    entries = merge_score([(0, 0, 0.9)], [(0, 1, 0.7)],
                          np.array([[0.9, 0.2]]), np.array([[0.1, 0.7]]))
    ok = ok and [(m, n) for m, n, _ in entries] == [(0, 0)]

    # rank ratio: 2/3 beats 1/1
    entries = merge_rank([(9, 9, 0.9), (0, 1, 0.8), (8, 8, 0.7)], [(0, 0, 0.95)])
    pairs = {(m, n) for m, n, _ in entries}
    ok = ok and (0, 1) in pairs and (0, 0) not in pairs
    check("merge-strategy-unit-suite", ok)


# ----------------------------------------------------------------------
# metric correctness
# ----------------------------------------------------------------------

def rank_oracle(row, truth_col):
    order = sorted(range(len(row)), key=lambda c: (-row[c], c))
    return order.index(truth_col) + 1


def test_metric_correctness():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        scores = rng.random((20, 20))
        pairs = [(i, int(rng.integers(0, 20))) for i in range(20)]
        report = evaluate(scores, pairs, ks=(1, 5, 10))
        ranks = np.array([rank_oracle(scores[m], n) for m, n in pairs], dtype=float)
        for k in (1, 5, 10):
            worst = max(worst, abs(report.hr[k] - float((ranks <= k).mean())))
        worst = max(worst, abs(report.mrr - float((1.0 / ranks).mean())))
    check("metric-correctness", worst <= 1e-12, f"max |diff| = {worst:.2e}")
