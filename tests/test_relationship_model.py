"""Structure embeddings: swapping, energy, training, and inference."""

import logging
import math

import numpy as np
import pytest

from kgalign.kg import AlignmentStore, CandidateSet, KnowledgeGraph, infer_entity_pairs
from kgalign.relationship_model import (
    EmbeddingTable,
    TrainConfig,
    _is_positive,
    entity_similarity_rel,
    infer_relation_pairs,
    minibatch_loss_and_grad,
    swap_triplets,
    train_transe,
    transe_energy,
)
from kgalign.synth import SynthSpec, generate_synth
from kgalign.kg import build_initial_seeds


def small_pair():
    g = KnowledgeGraph([("e0", "r0", "e1")], [])
    g2 = KnowledgeGraph([("f0", "s0", "f1")], [])
    return g, g2


class TestSwapTriplets:
    def test_single_entity_swap(self):
        g, g2 = small_pair()
        store = AlignmentStore()
        store.add_ent_pair(g.entity_id("e1"), g2.entity_id("f1"), "seed")
        swapped = swap_triplets(g, g2, store)
        # tail e1 swapped for f1 (combined id 2 + f1) and vice versa
        assert (0, 0, 2 + g2.entity_id("f1")) in swapped.triples
        assert (2 + g2.entity_id("f0"), 1, g.entity_id("e1")) in swapped.triples

    def test_empty_store_is_plain_union(self):
        g, g2 = small_pair()
        swapped = swap_triplets(g, g2, AlignmentStore())
        assert swapped.triples == [(0, 0, 1), (2, 1, 3)]
        assert swapped.ent_split == 2
        assert swapped.rel_split == 1

    def test_hand_enumerated_closure(self):
        g, g2 = small_pair()
        store = AlignmentStore()
        store.add_ent_pair(g.entity_id("e0"), g2.entity_id("f0"), "seed")
        store.add_rel_pair(g.relation_id("r0"), g2.relation_id("s0"), "seed")
        swapped = swap_triplets(g, g2, store)
        # base (0,0,1), (2,1,3); e0<->f0 head swaps give (2,0,1), (0,1,3);
        # r0<->s0 relation swaps on the base give (0,1,1), (2,0,3)
        assert set(swapped.triples) == {
            (0, 0, 1), (2, 1, 3), (2, 0, 1), (0, 1, 3), (0, 1, 1), (2, 0, 3)}

    def test_deduplicated(self):
        g = KnowledgeGraph([("e0", "r0", "e1"), ("e1", "r0", "e0")], [])
        g2 = KnowledgeGraph([("f0", "s0", "f1")], [])
        store = AlignmentStore()
        store.add_ent_pair(0, 0, "seed")
        swapped = swap_triplets(g, g2, store)
        assert len(swapped.triples) == len(set(swapped.triples))


class TestEnergy:
    def table(self, ent, rel):
        return EmbeddingTable(np.asarray(ent, dtype=float), np.asarray(rel, dtype=float), 1, 1)

    def test_exact_translation_is_zero(self):
        t = self.table([[1.0, 0.0], [1.0, 1.0]], [[0.0, 1.0]])
        assert transe_energy(t, 0, 0, 1) == pytest.approx(0.0)

    def test_unit_vector_norm(self):
        t = self.table([[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0]])
        assert transe_energy(t, 0, 0, 1) == pytest.approx(1.0)

    def test_hand_computed(self):
        t = self.table([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], [[0.5, 0.25, -0.3]])
        expected = math.sqrt(1.5 ** 2 + (-0.75) ** 2 + (-0.3) ** 2)
        assert transe_energy(t, 0, 0, 1) == pytest.approx(expected, abs=1e-9)

    def test_unknown_id(self):
        t = self.table([[1.0, 0.0]], [[0.0, 0.0]])
        with pytest.raises(LookupError):
            transe_energy(t, 5, 0, 0)


def oracle_loss(ent, rel, pos, neg, margin):
    """Margin loss with each batch's deltas computed on their own."""
    pos_norm = np.linalg.norm(ent[pos[:, 0]] + rel[pos[:, 1]] - ent[pos[:, 2]], axis=1)
    neg_norm = np.linalg.norm(ent[neg[:, 0]] + rel[neg[:, 1]] - ent[neg[:, 2]], axis=1)
    return float(np.maximum(0.0, margin + pos_norm - neg_norm).sum())


def oracle_grad(ent, rel, pos, neg, margin):
    """Gradient scattered with six ``np.add.at`` calls, one per role."""
    pos_d = ent[pos[:, 0]] + rel[pos[:, 1]] - ent[pos[:, 2]]
    neg_d = ent[neg[:, 0]] + rel[neg[:, 1]] - ent[neg[:, 2]]
    pos_norm = np.linalg.norm(pos_d, axis=1)
    neg_norm = np.linalg.norm(neg_d, axis=1)
    violating = margin + pos_norm - neg_norm > 0.0
    grad_ent = np.zeros_like(ent)
    grad_rel = np.zeros_like(rel)
    if not violating.any():
        return grad_ent, grad_rel
    pos_v = pos[violating]
    neg_v = neg[violating]
    unit_pos = pos_d[violating] / np.maximum(pos_norm[violating], 1e-12)[:, None]
    unit_neg = neg_d[violating] / np.maximum(neg_norm[violating], 1e-12)[:, None]
    np.add.at(grad_ent, pos_v[:, 0], unit_pos)
    np.add.at(grad_ent, pos_v[:, 2], -unit_pos)
    np.add.at(grad_rel, pos_v[:, 1], unit_pos)
    np.add.at(grad_ent, neg_v[:, 0], -unit_neg)
    np.add.at(grad_ent, neg_v[:, 2], unit_neg)
    np.add.at(grad_rel, neg_v[:, 1], -unit_neg)
    return grad_ent, grad_rel


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


def random_batch(rng, n_ent=12, n_rel=4, dim=6, rows=18):
    ent = rng.standard_normal((n_ent, dim))
    ent /= np.linalg.norm(ent, axis=1, keepdims=True)
    rel = rng.standard_normal((n_rel, dim)) * 0.5
    pos = np.column_stack([rng.integers(0, n_ent, rows), rng.integers(0, n_rel, rows),
                           rng.integers(0, n_ent, rows)])
    neg = pos.copy()
    neg[:, 2] = rng.integers(0, n_ent, rows)
    return ent, rel, pos, neg


class TestGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(42)
        for _ in range(10):
            ent, rel, pos, neg = random_batch(rng)
            # stay away from hinge and norm kinks so the loss is differentiable
            margins = (1.0 + np.linalg.norm(ent[pos[:, 0]] + rel[pos[:, 1]] - ent[pos[:, 2]], axis=1)
                       - np.linalg.norm(ent[neg[:, 0]] + rel[neg[:, 1]] - ent[neg[:, 2]], axis=1))
            if np.abs(margins).min() < 1e-3:
                continue
            _, grad_ent, grad_rel = minibatch_loss_and_grad(ent, rel, pos, neg, 1.0)
            fd_ent, fd_rel = finite_difference(ent, rel, pos, neg, 1.0)
            np.testing.assert_allclose(grad_ent, fd_ent, rtol=1e-4, atol=1e-8)
            np.testing.assert_allclose(grad_rel, fd_rel, rtol=1e-4, atol=1e-8)

    def test_no_violation_zero_gradient(self):
        ent = np.eye(4)
        rel = np.zeros((1, 4))
        pos = np.array([[0, 0, 0]])   # energy 0
        neg = np.array([[0, 0, 1]])   # energy sqrt(2) > margin 1
        loss, grad_ent, grad_rel = minibatch_loss_and_grad(ent, rel, pos, neg, 1.0)
        assert loss == 0.0
        assert not grad_ent.any()
        assert not grad_rel.any()


class TestOracleParity:
    """The fused kernel must reproduce the ``np.add.at`` oracle bit for bit."""

    def assert_matches_oracle(self, ent, rel, pos, neg, margin):
        loss, grad_ent, grad_rel = minibatch_loss_and_grad(ent, rel, pos, neg, margin)
        oracle_ent, oracle_rel = oracle_grad(ent, rel, pos, neg, margin)
        assert loss == oracle_loss(ent, rel, pos, neg, margin)
        np.testing.assert_array_equal(grad_ent, oracle_ent)
        np.testing.assert_array_equal(grad_rel, oracle_rel)

    def test_heavily_repeated_ids(self):
        rng = np.random.default_rng(5)
        for n_ent, n_rel, rows in ((3, 1, 400), (5, 2, 1280), (40, 3, 1280), (400, 16, 1280)):
            ent, rel, pos, neg = random_batch(rng, n_ent=n_ent, n_rel=n_rel, dim=48, rows=rows)
            neg[: rows // 2, 0] = rng.integers(0, n_ent, rows // 2)
            for margin in (0.1, 1.0):
                self.assert_matches_oracle(ent, rel, pos, neg, margin)

    def test_partial_violations(self):
        rng = np.random.default_rng(6)
        ent, rel, pos, neg = random_batch(rng, n_ent=7, n_rel=2, dim=8, rows=300)
        for margin in (0.05, 0.5, 2.0):
            self.assert_matches_oracle(ent, rel, pos, neg, margin)

    def test_no_violations(self):
        ent = np.eye(4)
        rel = np.zeros((2, 4))
        pos = np.array([[0, 0, 0], [1, 1, 1], [0, 0, 0]])
        neg = np.array([[0, 0, 1], [1, 1, 2], [3, 0, 0]])
        self.assert_matches_oracle(ent, rel, pos, neg, 1.0)


class TestPositiveMembership:
    def test_matches_isin_oracle(self):
        rng = np.random.default_rng(9)
        for positive_keys in (np.unique(rng.integers(10, 1000, 200)), np.array([5])):
            keys = np.concatenate([
                rng.integers(0, 1100, 2000),
                positive_keys,
                [positive_keys[0] - 1, positive_keys[-1] + 1, 0, 10 ** 12],
            ])
            np.testing.assert_array_equal(_is_positive(keys, positive_keys),
                                          np.isin(keys, positive_keys))


def synthetic_swapped(n_entities=100, rng_seed=3):
    spec = SynthSpec(n_entities=n_entities, rng_seed=rng_seed)
    res = generate_synth(spec)
    seeds = build_initial_seeds(res.left, res.right, res.ill_train)
    return swap_triplets(res.left, res.right, seeds), seeds, res


class TestTraining:
    def test_zero_epochs_returns_initialization(self):
        swapped, _, _ = synthetic_swapped(30)
        cfg = TrainConfig(dim=16, epochs=0, rng_seed=1)
        a = train_transe(swapped, cfg)
        b = train_transe(swapped, cfg)
        np.testing.assert_array_equal(a.ent, b.ent)
        np.testing.assert_array_equal(a.rel, b.rel)
        assert a.epoch_losses == []
        np.testing.assert_allclose(np.linalg.norm(a.ent, axis=1), 1.0, atol=1e-9)

    def test_determinism_bitwise(self):
        swapped, _, _ = synthetic_swapped(30)
        cfg = TrainConfig(dim=16, epochs=5, rng_seed=7)
        a = train_transe(swapped, cfg)
        b = train_transe(swapped, cfg)
        np.testing.assert_array_equal(a.ent, b.ent)
        np.testing.assert_array_equal(a.rel, b.rel)

    def test_seed_changes_result(self):
        swapped, _, _ = synthetic_swapped(30)
        a = train_transe(swapped, TrainConfig(dim=16, epochs=5, rng_seed=7))
        b = train_transe(swapped, TrainConfig(dim=16, epochs=5, rng_seed=8))
        assert not np.array_equal(a.ent, b.ent)

    def test_entity_rows_unit_norm_after_training(self):
        swapped, _, _ = synthetic_swapped(30)
        table = train_transe(swapped, TrainConfig(dim=16, epochs=10, rng_seed=2))
        np.testing.assert_allclose(np.linalg.norm(table.ent, axis=1), 1.0, atol=1e-6)

    def test_margin_satisfied_on_single_triple(self):
        # one triple per graph: enough capacity to push every in-graph
        # corruption a full margin beyond the positive
        swapped = swap_triplets(KnowledgeGraph([("a", "r", "b")], []),
                                KnowledgeGraph([("x", "s", "y")], []), AlignmentStore())
        table = train_transe(swapped, TrainConfig(dim=8, epochs=300, rng_seed=0))
        assert table.epoch_losses[-1] == 0.0
        positives = set(swapped.triples)
        for h, r, t in swapped.triples:
            e_pos = transe_energy(table, h, r, t)
            lo = 0 if h < swapped.ent_split else swapped.ent_split
            hi = swapped.ent_split if h < swapped.ent_split else swapped.n_entities
            for alt in range(lo, hi):
                for neg in ((alt, r, t), (h, r, alt)):
                    if neg not in positives:
                        assert transe_energy(table, *neg) >= e_pos + 1.0

    def test_loss_non_increasing_late_at_window_scale(self):
        # The per-epoch loss is a stochastic estimate (negatives are
        # resampled), so monotonicity is asserted on 1/10-length window
        # means over the last 50% with a small sampling-noise allowance.
        swapped, _, _ = synthetic_swapped(100)
        table = train_transe(swapped, TrainConfig(dim=32, epochs=80, rng_seed=9))
        losses = np.array(table.epoch_losses)
        half = losses[len(losses) // 2:]
        windows = half.reshape(5, -1).mean(axis=1)
        assert np.all(np.diff(windows) <= 2e-3)
        assert half.max() <= losses[len(losses) // 2 - 1] + 0.02

    def test_saturated_graph_reports_capped_negatives(self, caplog):
        # every in-graph corruption of a left triple is itself a positive,
        # so each left row exhausts the resampling rounds
        left = KnowledgeGraph([(h, "r", t) for h in "ab" for t in "ab"], [])
        right = KnowledgeGraph([("x", "s", "y")], [])
        swapped = swap_triplets(left, right, AlignmentStore())
        cfg = TrainConfig(dim=8, epochs=20, rng_seed=0)
        with caplog.at_level(logging.WARNING, logger="kgalign.relationship_model"):
            table = train_transe(swapped, cfg)
        assert table.capped_negatives == 4 * cfg.negatives_per_positive * cfg.epochs
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1
        assert str(table.capped_negatives) in warnings[0].getMessage()

    def test_training_summary_without_capped_negatives(self, caplog):
        swapped, _, _ = synthetic_swapped(30)
        with caplog.at_level(logging.WARNING, logger="kgalign.relationship_model"):
            table = train_transe(swapped, TrainConfig(dim=16, epochs=5, rng_seed=7))
        assert not caplog.records
        assert table.training_summary() == {
            "epochs": 5, "loss_first": table.epoch_losses[0],
            "loss_last": table.epoch_losses[-1], "loss_min": min(table.epoch_losses),
            "capped_negatives": 0}

    def test_empty_triples_rejected(self):
        from kgalign.relationship_model import SwappedTriples
        with pytest.raises(ValueError):
            train_transe(SwappedTriples([], 2, 1, 1, 1), TrainConfig(epochs=1))

    def test_swap_consistency_on_synthetic_fixture(self):
        swapped, seeds, res = synthetic_swapped(60)
        table = train_transe(swapped, TrainConfig(dim=32, epochs=60, rng_seed=4))
        scores = entity_similarity_rel(table, res.left, res.right).data
        seeded = [scores[m, n] for m, n in sorted(seeds.ent_pairs)]
        mask = np.ones_like(scores, dtype=bool)
        for m, n in seeds.ent_pairs:
            mask[m, n] = False
        assert np.mean(seeded) > scores[mask].mean()


class TestSimilarity:
    def test_identical_unit_vectors(self):
        ent = np.array([[1.0, 0.0], [1.0, 0.0]])
        table = EmbeddingTable(ent, np.zeros((2, 2)), 1, 1)
        g = KnowledgeGraph([("e0", "r", "e0")], [])
        g2 = KnowledgeGraph([("f0", "s", "f0")], [])
        s = entity_similarity_rel(table, g, g2)
        assert s.data[0, 0] == pytest.approx(1.0)
        assert s.source == "relationship-view"

    def test_orthogonal_vectors(self):
        ent = np.array([[1.0, 0.0], [0.0, 1.0]])
        table = EmbeddingTable(ent, np.zeros((2, 2)), 1, 1)
        g = KnowledgeGraph([("e0", "r", "e0")], [])
        g2 = KnowledgeGraph([("f0", "s", "f0")], [])
        assert entity_similarity_rel(table, g, g2).data[0, 0] == pytest.approx(0.0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(8)
        ent = rng.standard_normal((6, 4))
        ent /= np.linalg.norm(ent, axis=1, keepdims=True)
        table = EmbeddingTable(ent, np.zeros((2, 4)), 3, 1)
        g = KnowledgeGraph([("e0", "r", "e1"), ("e1", "r", "e2")], [])
        g2 = KnowledgeGraph([("f0", "s", "f1"), ("f1", "s", "f2")], [])
        s = entity_similarity_rel(table, g, g2).data
        for m in range(3):
            for n in range(3):
                assert s[m, n] == pytest.approx(float(ent[m] @ ent[3 + n]), abs=1e-9)


class TestRelationshipInference:
    def candidates(self, n=3):
        g = KnowledgeGraph([(f"e{i}", "r", f"e{(i + 1) % n}") for i in range(n)], [])
        g2 = KnowledgeGraph([(f"f{i}", "s", f"f{(i + 1) % n}") for i in range(n)], [])
        return CandidateSet.from_graphs(g, g2, AlignmentStore())

    def test_threshold(self):
        scores = np.array([[0.95, 0.1, 0.1], [0.1, 0.2, 0.1], [0.1, 0.1, 0.3]])
        ents = infer_entity_pairs(scores, self.candidates(), 0.9)
        assert [(m, n) for m, n, _ in ents.pairs] == [(0, 0)]
        assert infer_relation_pairs(np.zeros((1, 1)), 0.9, AlignmentStore()) == []

    def test_one_to_one_keeps_best(self):
        scores = np.array([[0.95, 0.93], [0.1, 0.1]])
        ents = infer_entity_pairs(scores, self.candidates(2), 0.9)
        assert [(m, n) for m, n, _ in ents.pairs] == [(0, 0)]

    def test_all_below_threshold_empty(self):
        ents = infer_entity_pairs(np.full((3, 3), 0.5), self.candidates(), 0.9)
        rels = infer_relation_pairs(np.full((2, 2), 0.5), 0.9, AlignmentStore())
        assert len(ents) == 0 and rels == []

    def test_relation_pairs_respect_store(self):
        store = AlignmentStore()
        store.add_rel_pair(0, 0, "seed")
        scores = np.array([[0.99, 0.95], [0.96, 0.94]])
        pairs = infer_relation_pairs(scores, 0.9, store)
        # relation 0 on both sides is taken, so only (1, 1) can be added
        assert [(a, b) for a, b, _ in pairs] == [(1, 1)]


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TrainConfig(dim=0)
        with pytest.raises(ValueError):
            TrainConfig(margin=0.0)
        with pytest.raises(ValueError):
            TrainConfig(negatives_per_positive=0)


class TestEmbeddingExport:
    def test_format_nine_significant_digits(self, tmp_path):
        from kgalign.relationship_model import export_embeddings
        vectors = np.array([[1.0 / 3.0, -2.0 / 7.0], [0.125, 10.0]])
        path = tmp_path / "emb.tsv"
        export_embeddings(vectors, ["alpha", "beta"], path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0].split("\t")[0] == "alpha"
        first_row = [float(x) for x in lines[0].split("\t")[1].split(",")]
        np.testing.assert_allclose(first_row, vectors[0], rtol=1e-8)
        assert lines[0].split("\t")[1].split(",")[0] == "0.333333333"
