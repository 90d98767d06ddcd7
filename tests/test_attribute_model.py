"""Masked slot-pair similarity: construction, fast path, and inference."""

import numpy as np
import pytest

from kgalign.attribute_model import (
    AttributeSlotMatrix,
    SimilarityMatrix,
    ValueEmbeddingMatrix,
    build_attr_slot_matrix,
    build_attribute_unification,
    build_value_matrix,
    entity_similarity_attr,
    infer_from_attribute_view,
    read_similarity_dump,
    write_similarity_dump,
)
from kgalign.kg import (
    AlignmentStore,
    CandidateSet,
    FrequentAttributes,
    KnowledgeGraph,
    top_m_attr_slots,
)
from kgalign.translator import WordVectorProvider, embed_value
from oracles import brute_force_scores, entity_similarity_attr_dense


def random_fixture(rng, n, n2, m, dim, n_ids=4):
    def side(count):
        vecs = rng.standard_normal((count, m, dim))
        vecs /= np.linalg.norm(vecs, axis=2, keepdims=True)
        ids = rng.integers(-1, n_ids, size=(count, m))
        vecs[ids == -1] = 0.0
        return vecs, ids

    vl, il = side(n)
    vr, ir = side(n2)
    values_l = ValueEmbeddingMatrix(vl, (il != -1).sum(axis=1), [])
    values_r = ValueEmbeddingMatrix(vr, (ir != -1).sum(axis=1), [])
    return values_l, values_r, AttributeSlotMatrix(il), AttributeSlotMatrix(ir)


class TestUnification:
    def freq(self):
        return FrequentAttributes(frozenset({0, 1, 2}), frozenset({0, 1}))

    def test_no_pairs_all_distinct(self):
        u = build_attribute_unification(self.freq(), set())
        assert len(set(u.left_ids.values()) & set(u.right_ids.values())) == 0
        assert u.united_count == 5

    def test_pair_shares_identification(self):
        u = build_attribute_unification(self.freq(), {(1, 0)})
        assert u.left_ids[1] == u.right_ids[0]
        assert u.united_count == 4

    def test_adding_pair_changes_only_affected_slots(self):
        rows = [("e0", "a0", "x"), ("e0", "a1", "y"), ("e1", "a1", "z")]
        g = KnowledgeGraph([], rows)
        rows2 = [("f0", "b0", "x2"), ("f0", "b1", "y2")]
        g2 = KnowledgeGraph([], rows2)
        freq = FrequentAttributes(frozenset(range(g.num_attributes)),
                                  frozenset(range(g2.num_attributes)))
        values = build_value_matrix(g, None, WordVectorProvider(8), 2, freq.left)
        unification = build_attribute_unification(freq, set())
        before = build_attr_slot_matrix(values, unification, "left")
        pair = (g.attribute_id("a1"), g2.attribute_id("b0"))
        after = build_attr_slot_matrix(values, build_attribute_unification(freq, {pair}), "left")
        changed = before.ids != after.ids
        slots = [top_m_attr_slots(g, e, 2, freq.left) for e in range(g.num_entities)]
        for e in range(g.num_entities):
            for i in range(2):
                is_affected = i < len(slots[e]) and slots[e][i][0] == pair[0]
                assert changed[e, i] == is_affected
                expected = unification.left_ids[slots[e][i][0]] if i < len(slots[e]) else -1
                assert before.ids[e, i] == expected


class TestBuildValueMatrix:
    def test_entity_without_frequent_attributes_is_zero(self):
        g = KnowledgeGraph([("e0", "r", "e1")], [("e1", "a0", "x")])
        provider = WordVectorProvider(16)
        vm = build_value_matrix(g, None, provider, 3, frozenset())
        np.testing.assert_array_equal(vm.data, 0.0)
        assert vm.slot_count.tolist() == [0, 0]

    def test_partial_fill(self):
        g = KnowledgeGraph([], [("e0", "a0", "x")])
        provider = WordVectorProvider(16)
        vm = build_value_matrix(g, None, provider, 2, frozenset({0}))
        assert vm.slot_count.tolist() == [1]
        assert np.linalg.norm(vm.data[0, 0]) == pytest.approx(1.0)
        np.testing.assert_array_equal(vm.data[0, 1], 0.0)

    def test_matches_per_slot_oracle(self):
        rows = [("e0", "a0", "paris france"), ("e0", "a1", "1984"),
                ("e1", "a0", "lyon"), ("e2", "a1", "42"), ("e2", "a0", "metz")]
        g = KnowledgeGraph([], rows)
        provider = WordVectorProvider(24)
        freq = frozenset(range(g.num_attributes))
        vm = build_value_matrix(g, None, provider, 2, freq)
        for e in range(g.num_entities):
            for i, (_, value) in enumerate(top_m_attr_slots(g, e, 2, freq)):
                np.testing.assert_allclose(vm.data[e, i], embed_value(provider, value))


class TestEntitySimilarity:
    def unit_fixture(self, same_id):
        provider = WordVectorProvider(8)
        vec = provider.vector("x")
        values = ValueEmbeddingMatrix(vec.reshape(1, 1, 8).copy(), np.array([1]), [])
        values2 = ValueEmbeddingMatrix(vec.reshape(1, 1, 8).copy(), np.array([1]), [])
        ids = AttributeSlotMatrix(np.array([[0]]))
        ids2 = AttributeSlotMatrix(np.array([[0 if same_id else 1]]))
        return values, values2, ids, ids2

    def test_identical_embeddings_same_id(self):
        s = entity_similarity_attr(*self.unit_fixture(True))
        assert s.data[0, 0] == pytest.approx(1.0)

    def test_mask_kills_different_ids(self):
        s = entity_similarity_attr(*self.unit_fixture(False))
        assert s.data[0, 0] == pytest.approx(0.0)

    def test_no_attribute_pairs_means_all_zero_scores(self):
        # without alignments no identification is shared across graphs
        g = KnowledgeGraph([], [("e0", "a0", "same"), ("e1", "a1", "same")])
        g2 = KnowledgeGraph([], [("f0", "b0", "same"), ("f1", "b1", "same")])
        freq = FrequentAttributes(frozenset(range(g.num_attributes)),
                                  frozenset(range(g2.num_attributes)))
        provider = WordVectorProvider(16)
        vl = build_value_matrix(g, None, provider, 2, freq.left)
        vr = build_value_matrix(g2, None, provider, 2, freq.right)
        unification = build_attribute_unification(freq, set())
        sl = build_attr_slot_matrix(vl, unification, "left")
        sr = build_attr_slot_matrix(vr, unification, "right")
        s = entity_similarity_attr(vl, vr, sl, sr)
        np.testing.assert_array_equal(s.data, 0.0)

    def test_matches_brute_force_small(self):
        rng = np.random.default_rng(0)
        vl, vr, il, ir = random_fixture(rng, 2, 2, 2, 5)
        fast = entity_similarity_attr(vl, vr, il, ir)
        expected = brute_force_scores(vl.data, vr.data, il.ids, ir.ids)
        np.testing.assert_allclose(fast.data, expected, atol=1e-6)

    def test_fast_equals_dense_path(self):
        rng = np.random.default_rng(1)
        vl, vr, il, ir = random_fixture(rng, 7, 5, 4, 6)
        fast = entity_similarity_attr(vl, vr, il, ir)
        dense = entity_similarity_attr_dense(vl, vr, il, ir)
        np.testing.assert_allclose(fast.data, dense.data, atol=1e-6)

    def test_workers_bitwise_equal_blocking_close(self):
        rng = np.random.default_rng(2)
        vl, vr, il, ir = random_fixture(rng, 20, 9, 3, 4)
        base = entity_similarity_attr(vl, vr, il, ir)
        blocked = entity_similarity_attr(vl, vr, il, ir, block_size=3)
        threaded = entity_similarity_attr(vl, vr, il, ir, block_size=3, workers=4)
        # worker count must not change bits; block size may reassociate sums
        np.testing.assert_array_equal(blocked.data, threaded.data)
        np.testing.assert_allclose(base.data, blocked.data, atol=1e-12)

    def test_mask_monotone_on_nonnegative_embeddings(self):
        # all-nonnegative vectors guarantee nonnegative dot products
        rng = np.random.default_rng(3)
        vl = np.abs(rng.standard_normal((4, 2, 6)))
        vl /= np.linalg.norm(vl, axis=2, keepdims=True)
        vr = np.abs(rng.standard_normal((5, 2, 6)))
        vr /= np.linalg.norm(vr, axis=2, keepdims=True)
        ids_l = np.array([[0, 1]] * 4)
        values_l = ValueEmbeddingMatrix(vl, np.full(4, 2), [])
        values_r = ValueEmbeddingMatrix(vr, np.full(5, 2), [])
        without = entity_similarity_attr(values_l, values_r,
                                         AttributeSlotMatrix(ids_l),
                                         AttributeSlotMatrix(np.array([[2, 1]] * 5)))
        with_pair = entity_similarity_attr(values_l, values_r,
                                           AttributeSlotMatrix(ids_l),
                                           AttributeSlotMatrix(np.array([[0, 1]] * 5)))
        assert (with_pair.data >= without.data - 1e-12).all()

    def test_slot_permutation_invariance(self):
        rng = np.random.default_rng(4)
        vl, vr, il, ir = random_fixture(rng, 3, 3, 4, 5)
        base = entity_similarity_attr(vl, vr, il, ir)
        perm = rng.permutation(4)
        vl2 = ValueEmbeddingMatrix(vl.data[:, perm], vl.slot_count, [])
        il2 = AttributeSlotMatrix(il.ids[:, perm])
        permuted = entity_similarity_attr(vl2, vr, il2, ir)
        np.testing.assert_allclose(base.data, permuted.data, atol=1e-12)

    def test_dimension_mismatch_raises(self):
        rng = np.random.default_rng(5)
        vl, vr, il, ir = random_fixture(rng, 2, 2, 2, 4)
        bad = ValueEmbeddingMatrix(np.zeros((2, 2, 7)), vr.slot_count, [])
        with pytest.raises(ValueError):
            entity_similarity_attr(vl, bad, il, ir)

    def test_finite_entries(self):
        rng = np.random.default_rng(6)
        vl, vr, il, ir = random_fixture(rng, 6, 6, 3, 4)
        s = entity_similarity_attr(vl, vr, il, ir)
        assert np.isfinite(s.data).all()


class TestSimilarityDump:
    def test_round_trip(self, tmp_path):
        data = np.arange(12, dtype=np.float64).reshape(3, 4) / 7.0
        path = tmp_path / "s.bin"
        write_similarity_dump(SimilarityMatrix(data, "attribute-view"), path)
        loaded = read_similarity_dump(path)
        assert loaded.shape == (3, 4)
        np.testing.assert_allclose(loaded, data, atol=1e-6)
        assert path.stat().st_size == 8 + 12 * 4

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x01\x02")
        with pytest.raises(ValueError):
            read_similarity_dump(path)

    def test_payload_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x02\x00\x00\x00\x02\x00\x00\x00" + b"\x00" * 7)
        with pytest.raises(ValueError):
            read_similarity_dump(path)


def make_aligned_pair():
    """Two tiny graphs with one seeded entity pair and one seeded attribute."""
    g = KnowledgeGraph([], [("e0", "year", "1984"), ("e0", "place", "paris"),
                            ("e1", "year", "1990")])
    g2 = KnowledgeGraph([], [("f0", "jahr", "1984"), ("f0", "ort", "paris"),
                             ("f1", "jahr", "1990")])
    store = AlignmentStore()
    store.add_ent_pair(g.entity_id("e0"), g2.entity_id("f0"), "seed")
    store.add_attr_pair(g.attribute_id("year"), g2.attribute_id("jahr"), "seed")
    return g, g2, store


class TestAttributeInference:
    def build(self, store, g, g2, tau_e=0.5, tau_v=0.8):
        provider = WordVectorProvider(32)
        freq = FrequentAttributes(frozenset(range(g.num_attributes)),
                                  frozenset(range(g2.num_attributes)))
        vl = build_value_matrix(g, None, provider, 3, freq.left)
        vr = build_value_matrix(g2, None, provider, 3, freq.right)
        unification = build_attribute_unification(freq, store.attr_pairs)
        sl = build_attr_slot_matrix(vl, unification, "left")
        sr = build_attr_slot_matrix(vr, unification, "right")
        s = entity_similarity_attr(vl, vr, sl, sr)
        cands = CandidateSet.from_graphs(g, g2, store)
        return infer_from_attribute_view(s, store, cands, tau_e, tau_v, g, g2, vl, vr), s

    def test_threshold_rule_single_entry(self):
        g, g2, store = make_aligned_pair()
        inf, s = self.build(store, g, g2, tau_e=0.8)
        # e1/f1 share the value 1990 under the seeded year/jahr pair: 1.0 > 0.8
        assert [(m, n) for m, n, _ in inf.entities.pairs] == [
            (g.entity_id("e1"), g2.entity_id("f1"))]

    def test_threshold_excludes_low_scores(self):
        g, g2, store = make_aligned_pair()
        inf, _ = self.build(store, g, g2, tau_e=1.5)
        assert len(inf.entities) == 0

    def test_attribute_pair_from_aligned_entities(self):
        g, g2, store = make_aligned_pair()
        inf, _ = self.build(store, g, g2)
        # the seeded entity pair shares value "paris" under place/ort
        assert (g.attribute_id("place"), g2.attribute_id("ort")) in {
            (a, b) for a, b, _ in inf.attribute_pairs}

    def test_value_pairs_require_both_alignments(self):
        g, g2, store = make_aligned_pair()
        inf, _ = self.build(store, g, g2, tau_e=0.8)
        vals = {(v.raw, w.raw) for v, w in inf.value_pairs}
        # entity + attribute alignment intersections only; new entity pair
        # (e1 ~ f1) with seeded year/jahr contributes 1990, the seed pair
        # contributes 1984 (year) and paris (newly aligned place/ort)
        assert ("1984", "1984") in vals
        assert ("1990", "1990") in vals
        assert ("paris", "paris") in vals
        assert not any(v == "1990" and w == "1984" for v, w in vals)

    def test_value_inference_enumerates_matching_triples(self):
        g = KnowledgeGraph([], [("e0", "a", "v1"), ("e0", "a", "v2")])
        g2 = KnowledgeGraph([], [("f0", "b", "w1")])
        store = AlignmentStore()
        store.add_ent_pair(0, 0, "seed")
        store.add_attr_pair(g.attribute_id("a"), g2.attribute_id("b"), "seed")
        inf, _ = self.build(store, g, g2, tau_e=99.0, tau_v=0.99)
        vals = {(v.raw, w.raw) for v, w in inf.value_pairs}
        assert vals == {("v1", "w1"), ("v2", "w1")}
