"""Structure embeddings: swapping, energy, training, and inference."""

import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kgalign.kg import AlignmentStore, KnowledgeGraph, infer_entity_pairs
from kgalign.relationship_model import (
    EmbeddingTable,
    SwappedTriples,
    TrainConfig,
    _batch_gradients,
    _is_positive,
    _triple_keys,
    entity_similarity_rel,
    relation_similarity,
    swap_triplets,
    train_transe,
)
from kgalign.synth import SynthSpec, generate_synth
from kgalign.kg import build_initial_seeds

from oracles import (
    finite_difference,
    minibatch_loss_and_grad,
    spread_rows,
    swap_triplets_tuples,
    train_transe_dense,
    transe_energy,
)

# triples over entities 0-4 and relations 0-2 of one graph, and id pairs
TRIPLES = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 2), st.integers(0, 4)),
                   max_size=12)
PAIRS = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=6)


def small_pair():
    g = KnowledgeGraph([("e0", "r0", "e1")], [])
    g2 = KnowledgeGraph([("f0", "s0", "f1")], [])
    return g, g2


class TestSwapTriplets:
    def test_single_entity_swap(self):
        g, g2 = small_pair()
        store = AlignmentStore()
        store.add("ent", g.entity_id("e1"), g2.entity_id("f1"), "seed")
        swapped = swap_triplets(g, g2, store)
        triples = set(map(tuple, swapped.triples.tolist()))
        # tail e1 swapped for f1 (combined id 2 + f1) and vice versa
        assert (0, 0, 2 + g2.entity_id("f1")) in triples
        assert (2 + g2.entity_id("f0"), 1, g.entity_id("e1")) in triples

    def test_empty_store_is_plain_union(self):
        g, g2 = small_pair()
        swapped = swap_triplets(g, g2, AlignmentStore())
        assert swapped.triples.tolist() == [[0, 0, 1], [2, 1, 3]]
        assert swapped.ent_split == 2
        assert swapped.rel_split == 1

    def test_hand_enumerated_closure(self):
        g, g2 = small_pair()
        store = AlignmentStore()
        store.add("ent", g.entity_id("e0"), g2.entity_id("f0"), "seed")
        store.add("rel", g.rel_labels.index("r0"), g2.rel_labels.index("s0"), "seed")
        swapped = swap_triplets(g, g2, store)
        # base (0,0,1), (2,1,3); e0<->f0 head swaps give (2,0,1), (0,1,3);
        # r0<->s0 relation swaps on the base give (0,1,1), (2,0,3)
        assert set(map(tuple, swapped.triples.tolist())) == {
            (0, 0, 1), (2, 1, 3), (2, 0, 1), (0, 1, 3), (0, 1, 1), (2, 0, 3)}

    def test_deduplicated(self):
        g = KnowledgeGraph([("e0", "r0", "e1"), ("e1", "r0", "e0")], [])
        g2 = KnowledgeGraph([("f0", "s0", "f1")], [])
        store = AlignmentStore()
        store.add("ent", 0, 0, "seed")
        swapped = swap_triplets(g, g2, store)
        assert len(swapped.triples) == len(set(map(tuple, swapped.triples.tolist())))

    @settings(max_examples=150, deadline=None)
    @given(left=TRIPLES, right=TRIPLES, ent_pairs=PAIRS, rel_pairs=PAIRS)
    @example(left=[], right=[], ent_pairs=[(0, 1)], rel_pairs=[])
    @example(left=[(1, 0, 1), (1, 0, 2)], right=[(2, 1, 2)], ent_pairs=[(0, 0), (1, 2)],
             rel_pairs=[(0, 1)])
    @example(left=[(0, 0, 1)], right=[(3, 2, 3)], ent_pairs=[], rel_pairs=[])
    def test_matches_tuple_set_oracle(self, left, right, ent_pairs, rel_pairs):
        # every entity 0-4 exists on both sides, with or without relation triples
        g, g2 = (KnowledgeGraph([(f"{side}{h}", f"r{r}", f"{side}{t}") for h, r, t in rows],
                                [(f"{side}{e}", "a", "v") for e in range(5)])
                 for side, rows in (("e", left), ("f", right)))
        store = AlignmentStore()
        for m, n in ent_pairs:
            store.add("ent", m, n, "seed")
        for a, b in rel_pairs:
            if a < g.num_relations and b < g2.num_relations:
                store.add("rel", a, b, "seed")
        swapped = swap_triplets(g, g2, store)
        triples = swapped.triples
        assert triples.dtype == np.int64 and triples.shape == (len(triples), 3)
        assert triples.tolist() == [list(t) for t in swap_triplets_tuples(g, g2, store)]
        # train_transe searches these keys as they are
        keys = _triple_keys(triples, swapped.n_entities, swapped.n_relations)
        assert (np.diff(keys) > 0).all()


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


def step(ent, rel, pos, neg, margin, k=1):
    """The library's batch step as full tables: ``(loss, grad_ent, grad_rel)``,
    after checking that it reports exactly the rows ``pos`` and ``neg`` touch."""
    loss, ids, grad, grad_rel = _batch_gradients(ent, rel, pos, neg, k, margin)
    np.testing.assert_array_equal(ids, np.unique(np.concatenate([pos[:, [0, 2]].ravel(),
                                                                 neg[:, [0, 2]].ravel()])))
    return loss, spread_rows(ids, grad, len(ent)), grad_rel


def random_batch(rng, n_ent=12, n_rel=4, dim=6, rows=18, k=1):
    """Unit entity rows, relation rows, ``rows`` positives and k negatives per
    positive, each its positive with the tail redrawn."""
    ent = rng.standard_normal((n_ent, dim))
    ent /= np.linalg.norm(ent, axis=1, keepdims=True)
    rel = rng.standard_normal((n_rel, dim)) * 0.5
    pos = np.column_stack([rng.integers(0, n_ent, rows), rng.integers(0, n_rel, rows),
                           rng.integers(0, n_ent, rows)])
    neg = np.repeat(pos, k, axis=0)
    neg[:, 2] = rng.integers(0, n_ent, rows * k)
    return ent, rel, pos, neg


class TestGradient:
    def test_matches_central_differences(self):
        rng = np.random.default_rng(42)
        for k in (1, 3):
            for _ in range(10):
                ent, rel, pos, neg = random_batch(rng, rows=18 // k, k=k)
                pos_rep = np.repeat(pos, k, axis=0)
                # stay away from hinge and norm kinks so the loss is differentiable
                margins = (1.0
                           + np.linalg.norm(ent[pos_rep[:, 0]] + rel[pos_rep[:, 1]]
                                            - ent[pos_rep[:, 2]], axis=1)
                           - np.linalg.norm(ent[neg[:, 0]] + rel[neg[:, 1]] - ent[neg[:, 2]],
                                            axis=1))
                if np.abs(margins).min() < 1e-3:
                    continue
                _, grad_ent, grad_rel = step(ent, rel, pos, neg, 1.0, k)
                fd_ent, fd_rel = finite_difference(ent, rel, pos_rep, neg, 1.0)
                np.testing.assert_allclose(grad_ent, fd_ent, rtol=1e-4, atol=1e-8)
                np.testing.assert_allclose(grad_rel, fd_rel, rtol=1e-4, atol=1e-8)

    def test_no_violation_zero_gradient(self):
        ent = np.eye(4)
        rel = np.zeros((1, 4))
        pos = np.array([[0, 0, 0]])   # energy 0
        neg = np.array([[0, 0, 1]])   # energy sqrt(2) > margin 1
        loss, grad_ent, grad_rel = step(ent, rel, pos, neg, 1.0)
        assert loss == 0.0
        assert not grad_ent.any()
        assert not grad_rel.any()


class TestOracleParity:
    """The batch step must reproduce the dense ``np.add.at`` oracle bit for bit."""

    def assert_matches_oracle(self, ent, rel, pos, neg, margin, k=1):
        loss, grad_ent, grad_rel = step(ent, rel, pos, neg, margin, k)
        oracle_loss, oracle_ent, oracle_rel = minibatch_loss_and_grad(
            ent, rel, np.repeat(pos, k, axis=0), neg, margin)
        assert loss == oracle_loss
        np.testing.assert_array_equal(grad_ent.view(np.int64), oracle_ent.view(np.int64))
        np.testing.assert_array_equal(grad_rel.view(np.int64), oracle_rel.view(np.int64))

    def test_heavily_repeated_ids(self):
        rng = np.random.default_rng(5)
        for k in (1, 5):
            for n_ent, n_rel, rows in ((3, 1, 400), (5, 2, 1280), (40, 3, 1280), (400, 16, 1280)):
                ent, rel, pos, neg = random_batch(rng, n_ent=n_ent, n_rel=n_rel, dim=48,
                                                  rows=rows // k, k=k)
                neg[: rows // 2, 0] = rng.integers(0, n_ent, rows // 2)
                for margin in (0.1, 1.0):
                    self.assert_matches_oracle(ent, rel, pos, neg, margin, k)

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

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_ent=st.integers(1, 300), dim=st.integers(1, 6),
           rows=st.integers(1, 20), k=st.sampled_from([1, 2, 5]),
           margin=st.sampled_from([-100.0, 1e-3, 1.0, 100.0]))
    def test_random_batches(self, seed, n_ent, dim, rows, k, margin):
        # margin -100 leaves every row inside the margin, and 100 makes every row violate it
        rng = np.random.default_rng(seed)
        ent, rel, pos, neg = random_batch(rng, n_ent=n_ent, n_rel=3, dim=dim, rows=rows, k=k)
        heads = rng.random(len(neg)) < 0.5
        neg[heads, 0] = rng.integers(0, n_ent, int(heads.sum()))
        neg[heads, 2] = np.repeat(pos, k, axis=0)[heads, 2]
        self.assert_matches_oracle(ent, rel, pos, neg, margin, k)


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
        positives = set(map(tuple, swapped.triples.tolist()))
        for h, r, t in swapped.triples.tolist():
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
        scores = entity_similarity_rel(table, res.left, res.right)
        seeded = [scores[m, n] for m, n in sorted(seeds.ent_pairs)]
        mask = np.ones_like(scores, dtype=bool)
        for m, n in seeds.ent_pairs:
            mask[m, n] = False
        assert np.mean(seeded) > scores[mask].mean()


def assert_same_training(table, oracle):
    np.testing.assert_array_equal(table.ent.view(np.int64), oracle.ent.view(np.int64))
    np.testing.assert_array_equal(table.rel.view(np.int64), oracle.rel.view(np.int64))
    assert table.epoch_losses == oracle.epoch_losses
    assert table.capped_negatives == oracle.capped_negatives


class TestDenseParity:
    """Training equals a loop of dense full-table steps bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(n_left=st.integers(100, 200), n_right=st.integers(100, 200),
           rows=st.lists(st.tuples(st.integers(0, 399), st.integers(0, 2), st.integers(0, 399)),
                         min_size=1, max_size=30),
           dim=st.integers(1, 6), k=st.sampled_from([1, 2, 5]), batch_size=st.integers(1, 16),
           margin=st.sampled_from([1e-9, 0.5, 100.0]), learning_rate=st.sampled_from([0.01, 0.3]),
           epochs=st.integers(1, 3), rng_seed=st.integers(0, 1000))
    # 7 triples in batches of 3, where every copy violates the margin 100
    @example(n_left=100, n_right=100, rows=[(i, 0, 199 - i) for i in range(7)], dim=4, k=5,
             batch_size=3, margin=100.0, learning_rate=0.01, epochs=2, rng_seed=0)
    # one triple a batch and a margin near 0: many batches have no violation at all
    @example(n_left=150, n_right=120, rows=[(i, i % 3, 200 + i) for i in range(9)], dim=3, k=1,
             batch_size=1, margin=1e-9, learning_rate=0.3, epochs=3, rng_seed=1)
    def test_matches_full_table_steps(self, n_left, n_right, rows, dim, k, batch_size, margin,
                                      learning_rate, epochs, rng_seed):
        triples = np.unique(np.array(rows, dtype=np.int64) % [n_left + n_right, 3, n_left + n_right],
                            axis=0)
        swapped = SwappedTriples(triples, n_left + n_right, 3, n_left, 1)
        cfg = TrainConfig(dim=dim, margin=margin, learning_rate=learning_rate, epochs=epochs,
                          negatives_per_positive=k, batch_size=batch_size, rng_seed=rng_seed)
        assert_same_training(train_transe(swapped, cfg), train_transe_dense(swapped, cfg))

    def test_capped_negatives_match(self):
        left = KnowledgeGraph([(h, "r", t) for h in "ab" for t in "ab"], [])
        right = KnowledgeGraph([("x", "s", "y")], [])
        swapped = swap_triplets(left, right, AlignmentStore())
        cfg = TrainConfig(dim=4, epochs=3, negatives_per_positive=2, batch_size=2, rng_seed=5)
        table = train_transe(swapped, cfg)
        assert table.capped_negatives > 0
        assert_same_training(table, train_transe_dense(swapped, cfg))

    def test_peak_memory_below_one_table(self):
        # 50k entities and 300 triples: a batch touches a few hundred rows, so
        # no step may allocate anything the size of the entity table
        rng = np.random.default_rng(0)
        n_entities, m = 50_000, 300
        triples = np.unique(np.column_stack([rng.integers(0, n_entities, m), rng.integers(0, 3, m),
                                             rng.integers(0, n_entities, m)]), axis=0)
        swapped = SwappedTriples(triples, n_entities, 3, n_entities // 2, 1)
        cfg = TrainConfig(dim=32, epochs=2, batch_size=128, rng_seed=0)
        tracemalloc.start()
        try:
            table = train_transe(swapped, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        one_table = n_entities * cfg.dim * 8
        assert peak - table.ent.nbytes - table.rel.nbytes < one_table
        # the same rows over more than one 4096-row normalization block
        assert_same_training(table, train_transe_dense(swapped, cfg))


class TestSimilarity:
    def test_identical_unit_vectors(self):
        ent = np.array([[1.0, 0.0], [1.0, 0.0]])
        table = EmbeddingTable(ent, np.zeros((2, 2)), 1, 1)
        g = KnowledgeGraph([("e0", "r", "e0")], [])
        g2 = KnowledgeGraph([("f0", "s", "f0")], [])
        s = entity_similarity_rel(table, g, g2)
        assert type(s) is np.ndarray  # not a wrapper whose .data would be a memoryview
        assert s[0, 0] == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        ent = np.array([[1.0, 0.0], [0.0, 1.0]])
        table = EmbeddingTable(ent, np.zeros((2, 2)), 1, 1)
        g = KnowledgeGraph([("e0", "r", "e0")], [])
        g2 = KnowledgeGraph([("f0", "s", "f0")], [])
        assert entity_similarity_rel(table, g, g2)[0, 0] == pytest.approx(0.0)

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(8)
        ent = rng.standard_normal((6, 4))
        ent /= np.linalg.norm(ent, axis=1, keepdims=True)
        table = EmbeddingTable(ent, np.zeros((2, 4)), 3, 1)
        g = KnowledgeGraph([("e0", "r", "e1"), ("e1", "r", "e2")], [])
        g2 = KnowledgeGraph([("f0", "s", "f1"), ("f1", "s", "f2")], [])
        s = entity_similarity_rel(table, g, g2)
        for m in range(3):
            for n in range(3):
                assert s[m, n] == pytest.approx(float(ent[m] @ ent[3 + n]), abs=1e-9)


    def test_relation_similarity_is_the_cosine_bit_for_bit(self):
        rng = np.random.default_rng(12)
        # rows far below and above unit length, and a zero row on each side
        rel = rng.standard_normal((9, 6)) * rng.choice([1e-14, 1e-3, 1.0, 1e4, 1e9], (9, 1))
        rel[[1, 6]] = 0.0
        table = EmbeddingTable(np.zeros((2, 6)), rel, 1, 4)
        raw = rel.copy()
        unit = rel / np.maximum(np.linalg.norm(rel, axis=1, keepdims=True), 1e-12)
        expected = unit[:4] @ unit[4:].T
        s = relation_similarity(table)
        assert s.shape == (4, 5)
        np.testing.assert_array_equal(s.view(np.int64), expected.view(np.int64))
        np.testing.assert_array_equal(table.rel, raw)  # the table is left as it was


class TestRelationshipInference:
    def test_threshold(self):
        scores = np.array([[0.95, 0.1, 0.1], [0.1, 0.2, 0.1], [0.1, 0.1, 0.3]])
        ents = infer_entity_pairs(scores, 0.9)
        assert [(m, n) for m, n, _ in ents] == [(0, 0)]
        assert infer_entity_pairs(np.zeros((1, 1)), 0.9) == []

    def test_one_to_one_keeps_best(self):
        scores = np.array([[0.95, 0.93], [0.1, 0.1]])
        ents = infer_entity_pairs(scores, 0.9)
        assert [(m, n) for m, n, _ in ents] == [(0, 0)]

    def test_all_below_threshold_empty(self):
        ents = infer_entity_pairs(np.full((3, 3), 0.5), 0.9)
        rels = infer_entity_pairs(np.full((2, 2), 0.5), 0.9)
        assert len(ents) == 0 and rels == []

    def test_relation_pairs_respect_store(self):
        store = AlignmentStore()
        store.add("rel", 0, 0, "seed")
        scores = np.array([[0.99, 0.95], [0.96, 0.94]])
        pairs = infer_entity_pairs(scores, 0.9, *store.taken("rel"))
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
        assert path.read_text(encoding="utf-8") == ("alpha\t0.333333333,-0.285714286\n"
                                                    "beta\t0.125,10\n")
