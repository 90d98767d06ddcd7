"""Masked slot-pair similarity: construction, fast path, and inference."""

import functools
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kgalign import attribute_model
from kgalign.attribute_model import (
    _ADD_ROWS,
    _DUMP_ROWS,
    _group_aggregate,
    build_attr_slot_matrix,
    build_value_matrix,
    entity_similarity_attr,
    infer_from_attribute_view,
    read_similarity_dump,
    write_similarity_dump,
)
from kgalign.kg import (
    AlignmentStore,
    KnowledgeGraph,
    frequent_attributes,
    top_m_attr_slots,
)
from kgalign.synth import SynthSpec, generate_synth
from kgalign.translator import TranslationTable, WordVectorProvider, translate_tokens
from oracles import (
    attr_slot_ids_loop,
    brute_force_scores,
    compact_values,
    dense_values,
    embed_value,
    entity_similarity_attr_dense,
    entity_similarity_attr_ix,
    masked_group_aggregate,
    unified_slot_ids,
)


def random_fixture(rng, n, n2, m, dim, n_ids=4):
    def side(count):
        vecs = rng.standard_normal((count, m, dim))
        vecs /= np.linalg.norm(vecs, axis=2, keepdims=True)
        ids = rng.integers(-1, n_ids, size=(count, m))
        vecs[ids == -1] = 0.0
        return vecs, ids

    vl, il = side(n)
    vr, ir = side(n2)
    values_l = compact_values(vl, il)
    values_r = compact_values(vr, ir)
    return values_l, values_r, il, ir


def all_attributes(g):
    return frozenset(range(g.num_attributes))


def own_ids(attributes):
    """Right-graph identification: each attribute stands for itself."""
    return {a: a for a in attributes}


class TestSlotIdentification:
    def graphs(self):
        g = KnowledgeGraph([], [("e0", "a0", "x"), ("e0", "a1", "y"), ("e1", "a1", "z"),
                                ("e1", "a2", "w")])
        g2 = KnowledgeGraph([], [("f0", "b0", "x2"), ("f0", "b1", "y2"), ("f1", "b1", "z2")])
        provider = WordVectorProvider(8)
        values = build_value_matrix(g, None, provider, 2, all_attributes(g))
        values2 = build_value_matrix(g2, None, provider, 2, all_attributes(g2))
        return g, g2, values, values2

    def test_no_pairs_no_shared_identification(self):
        g, g2, values, values2 = self.graphs()
        left = build_attr_slot_matrix(values, {})
        right = build_attr_slot_matrix(values2, own_ids(all_attributes(g2)))
        np.testing.assert_array_equal(left, -1)
        for e in range(g2.num_entities):
            chosen = top_m_attr_slots(g2, e, 2, all_attributes(g2))
            assert right[e, :len(chosen)].tolist() == [a for a, _ in chosen]
        assert set(np.unique(right)) - {-1} == set(all_attributes(g2))

    def test_pair_shares_identification(self):
        g, g2, values, values2 = self.graphs()
        pair = (g.attr_labels.index("a1"), g2.attr_labels.index("b0"))
        left = build_attr_slot_matrix(values, dict([pair]))
        right = build_attr_slot_matrix(values2, own_ids(all_attributes(g2)))
        assert set(np.unique(left)) - {-1} == {pair[1]}
        assert (set(np.unique(left)) & set(np.unique(right))) - {-1} == {pair[1]}

    def test_adding_pair_changes_only_affected_slots(self):
        g, g2, values, _ = self.graphs()
        before = build_attr_slot_matrix(values, {})
        pair = (g.attr_labels.index("a1"), g2.attr_labels.index("b0"))
        after = build_attr_slot_matrix(values, dict([pair]))
        changed = before != after
        slots = [top_m_attr_slots(g, e, 2, all_attributes(g)) for e in range(g.num_entities)]
        for e in range(g.num_entities):
            for i in range(2):
                is_affected = i < len(slots[e]) and slots[e][i][0] == pair[0]
                assert changed[e, i] == is_affected
                assert before[e, i] == -1
                assert after[e, i] == (pair[1] if is_affected else -1)


@functools.lru_cache(maxsize=None)
def synth_graphs(seed):
    """The two graphs of a small synthetic pair."""
    result = generate_synth(SynthSpec(n_entities=40, n_attributes=5, drop_prob=0.3,
                                      rng_seed=seed))
    return result.left, result.right


@functools.lru_cache(maxsize=None)
def synth_values(seed, min_count, m_slots):
    """Value matrices and frequent attributes of a small synthetic pair."""
    provider = WordVectorProvider(8)
    sides = []
    for g in synth_graphs(seed):
        frequent = frequent_attributes(g, min_count)
        sides.append((build_value_matrix(g, None, provider, m_slots, frequent), frequent))
    return sides


class TestSlotAttributes:
    """``attrs`` holds the attribute of each slot ``top_m_attr_slots`` picks,
    and the lookup keys slots by it as the per-slot loop does."""

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2), min_count=st.integers(1, 40), m_slots=st.integers(1, 6),
           side=st.sampled_from([0, 1]),
           ident_of=st.dictionaries(st.integers(0, 9), st.integers(0, 9)))
    @example(seed=0, min_count=40, m_slots=3, side=0, ident_of={0: 1, 9: 2})
    def test_attrs_and_lookup_match_top_slots(self, seed, min_count, m_slots, side, ident_of):
        g = synth_graphs(seed)[side]
        values, frequent = synth_values(seed, min_count, m_slots)[side]
        slots = [top_m_attr_slots(g, e, m_slots, frequent) for e in range(g.num_entities)]
        assert values.attrs.dtype == np.int64
        assert values.attrs.tolist() == [[a for a, _ in chosen] + [-1] * (m_slots - len(chosen))
                                         for chosen in slots]
        ids = build_attr_slot_matrix(values, ident_of)  # ids 6-9 are not in the graph
        np.testing.assert_array_equal(ids, attr_slot_ids_loop(slots, m_slots, ident_of))

    @pytest.mark.parametrize("rows", [[], [("e0", "a0", "x"), ("e1", "a1", "y")]],
                             ids=["no-entities", "all-padding"])
    def test_lookup_without_attributes(self, rows):
        g = KnowledgeGraph([], rows)
        values = build_value_matrix(g, None, WordVectorProvider(8), 3, frozenset())
        padding = [[-1] * 3] * g.num_entities
        assert values.attrs.tolist() == padding
        ids = build_attr_slot_matrix(values, {0: 1, 1: 0, 7: 2})
        assert ids.shape == (g.num_entities, 3) and ids.dtype == np.int64
        assert ids.tolist() == padding


class TestNumberingEquivalence:
    """Keying left slots by the attribute map scores exactly as the united
    numbering did: both order the shared groups by right attribute id."""

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2), min_count=st.integers(1, 40), m_slots=st.integers(1, 6),
           targets=st.permutations(range(6)), kept=st.lists(st.booleans(), min_size=6,
                                                             max_size=6),
           block_size=st.integers(1, 48), workers=st.sampled_from([1, 2]))
    @example(seed=0, min_count=1, m_slots=6, targets=[5, 4, 3, 2, 1, 0], kept=[True] * 6,
             block_size=16, workers=2)
    def test_scores_bitwise_equal(self, seed, min_count, m_slots, targets, kept, block_size,
                                  workers):
        (values_l, frequent_l), (values_r, frequent_r) = synth_values(seed, min_count, m_slots)
        # one-to-one, and free to pair attributes that are not frequent
        attr_map = {a: b for a, (b, keep) in enumerate(zip(targets, kept)) if keep}
        new = (build_attr_slot_matrix(values_l, attr_map),
               build_attr_slot_matrix(values_r, own_ids(frequent_r)))
        old = unified_slot_ids(values_l, values_r, frequent_l, frequent_r, attr_map.items())
        scores_new = entity_similarity_attr(values_l, values_r, *new, block_size, workers)
        scores_old = entity_similarity_attr(values_l, values_r, *old, block_size, workers)
        np.testing.assert_array_equal(scores_new.view(np.int64), scores_old.view(np.int64))


class TestBuildValueMatrix:
    def test_entity_without_frequent_attributes_is_zero(self):
        g = KnowledgeGraph([("e0", "r", "e1")], [("e1", "a0", "x")])
        provider = WordVectorProvider(16)
        vm = build_value_matrix(g, None, provider, 3, frozenset())
        np.testing.assert_array_equal(dense_values(vm), 0.0)
        assert vm.slot_count.tolist() == [0, 0]

    def test_partial_fill(self):
        g = KnowledgeGraph([], [("e0", "a0", "x")])
        provider = WordVectorProvider(16)
        vm = build_value_matrix(g, None, provider, 2, frozenset({0}))
        assert vm.slot_count.tolist() == [1]
        assert np.linalg.norm(dense_values(vm)[0, 0]) == pytest.approx(1.0)
        np.testing.assert_array_equal(dense_values(vm)[0, 1], 0.0)

    def test_matches_per_slot_oracle(self):
        rows = [("e0", "a0", "paris france"), ("e0", "a1", "1984"),
                ("e1", "a0", "lyon"), ("e2", "a1", "42"), ("e2", "a0", "metz")]
        g = KnowledgeGraph([], rows)
        provider = WordVectorProvider(24)
        freq = frozenset(range(g.num_attributes))
        vm = build_value_matrix(g, None, provider, 2, freq)
        for e in range(g.num_entities):
            for i, (_, value) in enumerate(top_m_attr_slots(g, e, 2, freq)):
                np.testing.assert_allclose(dense_values(vm)[e, i], embed_value(provider, value))

    def test_one_row_per_distinct_value(self):
        result = generate_synth(SynthSpec(n_entities=60, n_attributes=4, rng_seed=3))
        g = result.left
        provider = WordVectorProvider(8)
        frequent = all_attributes(g)
        vm = build_value_matrix(g, None, provider, 4, frequent)
        tuples = {value.tokens for e in range(g.num_entities)
                  for _, value in top_m_attr_slots(g, e, 4, frequent)}
        assert len(tuples) < vm.slot_count.sum()  # values repeat across slots
        assert vm.vectors.shape[0] <= len(tuples) + 1
        assert vm.index.shape == (g.num_entities, 4)
        np.testing.assert_array_equal(vm.vectors[0], 0.0)

    def test_translates_each_distinct_tuple_once(self, monkeypatch):
        g = generate_synth(SynthSpec(n_entities=60, n_attributes=4, rng_seed=3)).left
        frequent = all_attributes(g)
        slot_tuples = [value.tokens for e in range(g.num_entities)
                       for _, value in top_m_attr_slots(g, e, 4, frequent)]
        assert len(set(slot_tuples)) < len(slot_tuples)  # values repeat across slots
        table = TranslationTable({}, {tok: f"{tok}x" for t in slot_tuples[::2] for tok in t})
        calls = []

        def counting(tbl, tokens):
            calls.append(tokens)
            return translate_tokens(tbl, tokens)

        monkeypatch.setattr(attribute_model, "translate_tokens", counting)
        build_value_matrix(g, table, WordVectorProvider(8), 4, frequent)
        assert len(calls) == len(set(slot_tuples))
        assert set(calls) == set(slot_tuples)


class TestEntitySimilarity:
    def unit_fixture(self, same_id):
        provider = WordVectorProvider(8)
        vec = provider.vectors(["x"])[0]
        ids = np.array([[0]])
        ids2 = np.array([[0 if same_id else 1]])
        values = compact_values(vec.reshape(1, 1, 8).copy(), ids)
        values2 = compact_values(vec.reshape(1, 1, 8).copy(), ids2)
        return values, values2, ids, ids2

    def test_identical_embeddings_same_id(self):
        s = entity_similarity_attr(*self.unit_fixture(True))
        assert type(s) is np.ndarray  # not a wrapper whose .data would be a memoryview
        assert s[0, 0] == pytest.approx(1.0)

    def test_mask_kills_different_ids(self):
        s = entity_similarity_attr(*self.unit_fixture(False))
        assert s[0, 0] == pytest.approx(0.0)

    def test_no_attribute_pairs_means_all_zero_scores(self):
        # without alignments no identification is shared across graphs
        g = KnowledgeGraph([], [("e0", "a0", "same"), ("e1", "a1", "same")])
        g2 = KnowledgeGraph([], [("f0", "b0", "same"), ("f1", "b1", "same")])
        provider = WordVectorProvider(16)
        vl = build_value_matrix(g, None, provider, 2, all_attributes(g))
        vr = build_value_matrix(g2, None, provider, 2, all_attributes(g2))
        sl = build_attr_slot_matrix(vl, {})
        sr = build_attr_slot_matrix(vr, own_ids(all_attributes(g2)))
        s = entity_similarity_attr(vl, vr, sl, sr)
        np.testing.assert_array_equal(s, 0.0)

    def test_matches_brute_force_small(self):
        rng = np.random.default_rng(0)
        vl, vr, il, ir = random_fixture(rng, 2, 2, 2, 5)
        fast = entity_similarity_attr(vl, vr, il, ir)
        expected = brute_force_scores(dense_values(vl), dense_values(vr), il, ir)
        np.testing.assert_allclose(fast, expected, atol=1e-6)

    def test_fast_equals_dense_path(self):
        rng = np.random.default_rng(1)
        vl, vr, il, ir = random_fixture(rng, 7, 5, 4, 6)
        fast = entity_similarity_attr(vl, vr, il, ir)
        dense = entity_similarity_attr_dense(vl, vr, il, ir)
        np.testing.assert_allclose(fast, dense, atol=1e-6)

    def test_workers_bitwise_equal_blocking_close(self):
        rng = np.random.default_rng(2)
        vl, vr, il, ir = random_fixture(rng, 20, 9, 3, 4)
        base = entity_similarity_attr(vl, vr, il, ir)
        blocked = entity_similarity_attr(vl, vr, il, ir, block_size=3)
        threaded = entity_similarity_attr(vl, vr, il, ir, block_size=3, workers=4)
        # worker count must not change bits; block size may reassociate sums
        np.testing.assert_array_equal(blocked, threaded)
        np.testing.assert_allclose(base, blocked, atol=1e-12)

    def test_mask_monotone_on_nonnegative_embeddings(self):
        # all-nonnegative vectors guarantee nonnegative dot products
        rng = np.random.default_rng(3)
        vl = np.abs(rng.standard_normal((4, 2, 6)))
        vl /= np.linalg.norm(vl, axis=2, keepdims=True)
        vr = np.abs(rng.standard_normal((5, 2, 6)))
        vr /= np.linalg.norm(vr, axis=2, keepdims=True)
        ids_l = np.array([[0, 1]] * 4)
        values_l = compact_values(vl, ids_l)
        values_r = compact_values(vr, np.array([[0, 1]] * 5))
        without = entity_similarity_attr(values_l, values_r, ids_l, np.array([[2, 1]] * 5))
        with_pair = entity_similarity_attr(values_l, values_r, ids_l, np.array([[0, 1]] * 5))
        assert (with_pair >= without - 1e-12).all()

    def test_slot_permutation_invariance(self):
        rng = np.random.default_rng(4)
        vl, vr, il, ir = random_fixture(rng, 3, 3, 4, 5)
        base = entity_similarity_attr(vl, vr, il, ir)
        perm = rng.permutation(4)
        il2 = il[:, perm]
        vl2 = compact_values(dense_values(vl)[:, perm], il2)
        permuted = entity_similarity_attr(vl2, vr, il2, ir)
        np.testing.assert_allclose(base, permuted, atol=1e-12)

    def test_no_worker_without_a_block(self, monkeypatch):
        started = []
        start = threading.Thread.start
        monkeypatch.setattr(threading.Thread, "start",
                            lambda thread: started.append(thread) or start(thread))
        fixture = layout_fixture(0, 200, 20, [("all", "all"), ("some", "some")])
        scores = entity_similarity_attr(*fixture, workers=8)
        assert len(started) == 1  # one 1024-row block, so one lane
        single = entity_similarity_attr(*fixture, workers=1)
        np.testing.assert_array_equal(scores.view(np.int64), single.view(np.int64))

    def test_dimension_mismatch_raises(self):
        rng = np.random.default_rng(5)
        vl, vr, il, ir = random_fixture(rng, 2, 2, 2, 4)
        bad = compact_values(np.zeros((2, 2, 7)), ir)
        with pytest.raises(ValueError):
            entity_similarity_attr(vl, bad, il, ir)

    def test_finite_entries(self):
        rng = np.random.default_rng(6)
        vl, vr, il, ir = random_fixture(rng, 6, 6, 3, 4)
        s = entity_similarity_attr(vl, vr, il, ir)
        assert np.isfinite(s).all()


COVERAGE = ("all", "some", "none")


def covered(rng, mode, count):
    if mode == "all":
        return np.ones(count, dtype=bool)
    if mode == "none":
        return np.zeros(count, dtype=bool)
    return rng.random(count) < 0.5


def layout_fixture(seed, n, n2, modes, dim=3):
    """Identification ``k`` sits in slot ``k`` of the entities its coverage
    mode picks on each side; one more slot draws any identification or -1,
    so an entity can hold an identification twice.  Slots are then shuffled
    per entity."""
    rng = np.random.default_rng(seed)
    m = len(modes) + 1

    def side(count, which):
        ids = np.full((count, m), -1)
        for k, mode in enumerate(modes):
            ids[covered(rng, mode[which], count), k] = k
        ids[:, -1] = rng.integers(-1, len(modes), count)
        ids = rng.permuted(ids, axis=1)
        vecs = rng.standard_normal((count, m, dim))
        vecs[ids == -1] = 0.0
        return compact_values(vecs, ids), ids

    values_l, slots_l = side(n, 0)
    values_r, slots_r = side(n2, 1)
    return values_l, values_r, slots_l, slots_r


class TestAccumulation:
    """In-place accumulation must add exactly what the ``np.ix_`` gathers add."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 23), n2=st.integers(1, 9),
           block_size=st.integers(1, 8), workers=st.sampled_from([1, 2]),
           modes=st.lists(st.tuples(st.sampled_from(COVERAGE), st.sampled_from(COVERAGE)),
                          min_size=1, max_size=4))
    @example(seed=0, n=10, n2=7, block_size=4, workers=2,
             modes=[("all", "all"), ("all", "some"), ("some", "all"), ("some", "some")])
    @example(seed=1, n=9, n2=5, block_size=9, workers=1, modes=[("all", "all")])
    def test_bitwise_equal_to_ix_accumulation(self, seed, n, n2, block_size, workers, modes):
        fixture = layout_fixture(seed, n, n2, modes)
        fast = entity_similarity_attr(*fixture, block_size=block_size, workers=workers)
        oracle = entity_similarity_attr_ix(*fixture, block_size=block_size, workers=workers)
        np.testing.assert_array_equal(fast.view(np.int64), oracle.view(np.int64))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 23),
           modes=st.lists(st.tuples(st.sampled_from(COVERAGE), st.sampled_from(COVERAGE)),
                          min_size=1, max_size=4))
    def test_slot_by_slot_aggregate_equals_masked_sum(self, seed, n, modes):
        values_l, values_r, slots_l, slots_r = layout_fixture(seed, n, n, modes)
        for values, slots in ((values_l, slots_l), (values_r, slots_r)):
            for ident in range(len(modes)):
                rows, agg = _group_aggregate(values.vectors, values.index, slots, ident)
                oracle_rows, oracle_agg = masked_group_aggregate(dense_values(values), slots,
                                                                 ident)
                np.testing.assert_array_equal(rows, oracle_rows)
                np.testing.assert_array_equal(agg.view(np.int64), oracle_agg.view(np.int64))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_peak_memory_of_a_full_group(self, workers):
        # One identification on every entity: each block's first product is
        # written into the block itself, so no block-sized product is held.
        n, n2, block_size = 2100, 300, 1024
        values_l, values_r, slots_l, slots_r = layout_fixture(3, n, n2, [("all", "all")])
        # a first call imports modules lazily; keep that out of the measured peak
        entity_similarity_attr(*layout_fixture(3, 2, 2, [("all", "all")]), workers=workers)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            scores = entity_similarity_attr(values_l, values_r, slots_l, slots_r,
                                            block_size=block_size, workers=workers)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert scores.nbytes == n * n2 * 8
        assert peak < scores.nbytes + workers * block_size * n2 * 8 * 0.25

    @pytest.mark.parametrize("workers", [1, 2])
    def test_peak_memory_of_partial_groups(self, workers):
        # Groups partial on the columns, on the rows and on both: each worker
        # holds one product buffer and one index buffer of _ADD_ROWS block
        # rows, and its adds gather no copy.
        n, n2, block_size = 2100, 300, 1024
        fixture = layout_fixture(3, n, n2, [("all", "some"), ("some", "all"), ("some", "some")])
        values_l, values_r, slots_l, slots_r = fixture
        groups = [np.flatnonzero((slots_r == ident).any(axis=1)) for ident in range(3)]
        right_aggregates = sum(cols.size for cols in groups) * values_r.vectors.shape[1] * 8
        largest = max(np.count_nonzero((slots_l[start:start + block_size] == ident).any(axis=1))
                      * cols.size * 8
                      for start in range(0, n, block_size) for ident, cols in enumerate(groups))
        assert largest < block_size * n2 * 8  # no group covers a whole block
        entity_similarity_attr(*layout_fixture(3, 2, 2, [("some", "some")]), workers=workers)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            scores = entity_similarity_attr(*fixture, block_size=block_size, workers=workers)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        cells = _ADD_ROWS * n2 * np.dtype(np.intp).itemsize
        assert peak < scores.nbytes + right_aggregates + workers * (1.25 * largest + cells)


class TestSimilarityDump:
    def test_round_trip(self, tmp_path):
        data = np.arange(12, dtype=np.float64).reshape(3, 4) / 7.0
        path = tmp_path / "s.bin"
        write_similarity_dump(data, path)
        loaded = read_similarity_dump(path)
        assert loaded.shape == (3, 4)
        np.testing.assert_allclose(loaded, data, atol=1e-6)
        assert path.stat().st_size == 8 + 12 * 4

    def test_rows_beyond_one_block(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((2 * _DUMP_ROWS + 5, 3))
        path = tmp_path / "s.bin"
        write_similarity_dump(data, path)
        assert path.read_bytes() == struct.pack("<II", *data.shape) + data.astype("<f4").tobytes()
        loaded = read_similarity_dump(path)
        np.testing.assert_array_equal(loaded, data.astype(np.float32).astype(np.float64))

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
    store.add("ent", g.entity_id("e0"), g2.entity_id("f0"), "seed")
    store.add("attr", g.attr_labels.index("year"), g2.attr_labels.index("jahr"), "seed")
    return g, g2, store


class TestAttributeInference:
    def build(self, store, g, g2, tau_e=0.5, tau_v=0.8):
        provider = WordVectorProvider(32)
        vl = build_value_matrix(g, None, provider, 3, all_attributes(g))
        vr = build_value_matrix(g2, None, provider, 3, all_attributes(g2))
        sl = build_attr_slot_matrix(vl, store.attr_map())
        sr = build_attr_slot_matrix(vr, own_ids(all_attributes(g2)))
        s = entity_similarity_attr(vl, vr, sl, sr)
        return infer_from_attribute_view(s, store, tau_e, tau_v, g, g2, vl, vr), s

    def test_threshold_rule_single_entry(self):
        g, g2, store = make_aligned_pair()
        inf, s = self.build(store, g, g2, tau_e=0.8)
        # e1/f1 share the value 1990 under the seeded year/jahr pair: 1.0 > 0.8
        assert [(m, n) for m, n, _ in inf.entities] == [
            (g.entity_id("e1"), g2.entity_id("f1"))]

    def test_threshold_excludes_low_scores(self):
        g, g2, store = make_aligned_pair()
        inf, _ = self.build(store, g, g2, tau_e=1.5)
        assert len(inf.entities) == 0

    def test_attribute_pair_from_aligned_entities(self):
        g, g2, store = make_aligned_pair()
        inf, _ = self.build(store, g, g2)
        # the seeded entity pair shares value "paris" under place/ort
        assert (g.attr_labels.index("place"), g2.attr_labels.index("ort")) in {
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
        store.add("ent", 0, 0, "seed")
        store.add("attr", g.attr_labels.index("a"), g2.attr_labels.index("b"), "seed")
        inf, _ = self.build(store, g, g2, tau_e=99.0, tau_v=0.99)
        vals = {(v.raw, w.raw) for v, w in inf.value_pairs}
        assert vals == {("v1", "w1"), ("v2", "w1")}
