"""Data model, ingestion, tokenization, and seed construction."""

import pytest
from hypothesis import given, strategies as st

from kgalign.kg import (
    AlignmentStore,
    CandidateSet,
    KnowledgeGraph,
    ParseError,
    ValueText,
    build_initial_seeds,
    frequent_attributes,
    greedy_one_to_one,
    load_graph,
    tokenize,
    top_m_attr_slots,
)


class TestTokenize:
    def test_lowercase_and_punctuation_split(self):
        assert tokenize("Hello, World!") == ("hello", "world")

    def test_cjk_per_codepoint(self):
        assert tokenize("1984年") == ("1984", "年")
        assert tokenize("北京市") == ("北", "京", "市")

    def test_mixed_script(self):
        assert tokenize("Audi RSQ 奥迪") == ("audi", "rsq", "奥", "迪")

    def test_empty_only_without_word_characters(self):
        assert tokenize("...  !!") == ()
        assert tokenize("") == ()
        assert tokenize("a") == ("a",)

    @given(st.text(max_size=30))
    def test_deterministic_and_pure(self, raw):
        assert tokenize(raw) == tokenize(raw)
        assert ValueText.from_raw(raw).tokens == tokenize(raw)

    @given(st.text(max_size=30))
    def test_empty_iff_no_word_characters(self, raw):
        if tokenize(raw) == ():
            assert not any(ch.isalnum() for ch in raw)
        else:
            assert any(ch.isalnum() for ch in raw)


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


class TestLoadGraph:
    def test_minimal(self, tmp_path):
        rel = tmp_path / "rel"
        attr = tmp_path / "attr"
        write_lines(rel, ["e1\tr1\te2"])
        write_lines(attr, ["e1\ta1\tParis"])
        g = load_graph(rel, attr)
        assert g.num_entities == 2
        assert g.num_relations == 1
        assert g.num_attributes == 1
        assert len(g.rel_triples) == 1
        assert len(g.attr_triples) == 1

    def test_empty_attribute_file(self, tmp_path):
        rel = tmp_path / "rel"
        attr = tmp_path / "attr"
        write_lines(rel, ["e1\tr1\te2"])
        attr.write_text("")
        g = load_graph(rel, attr)
        assert g.attr_triples == []

    def test_duplicate_lines_collapse(self, tmp_path):
        rel = tmp_path / "rel"
        attr = tmp_path / "attr"
        write_lines(rel, ["e1\tr1\te2", "e1\tr1\te2"])
        write_lines(attr, ["e1\ta1\tParis", "e1\ta1\tParis", "e1\ta1\tLyon"])
        g = load_graph(rel, attr)
        assert len(g.rel_triples) == 1
        assert len(g.attr_triples) == 2  # same (h, a) with different values both kept

    def test_malformed_line_reports_number(self, tmp_path):
        rel = tmp_path / "rel"
        attr = tmp_path / "attr"
        write_lines(rel, ["e1\tr1\te2", "e1\tr1"])
        attr.write_text("")
        with pytest.raises(ParseError) as err:
            load_graph(rel, attr)
        assert err.value.lineno == 2

    def test_unreadable_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_graph(tmp_path / "missing", tmp_path / "missing2")

    def test_idempotent(self, tmp_path):
        rel = tmp_path / "rel"
        attr = tmp_path / "attr"
        write_lines(rel, ["e1\tr1\te2", "e2\tr2\te3"])
        write_lines(attr, ["e1\ta1\tParis", "e3\ta2\t42"])
        a = load_graph(rel, attr)
        b = load_graph(rel, attr)
        assert a.ent_labels == b.ent_labels
        assert a.rel_triples == b.rel_triples
        assert a.attr_triples == b.attr_triples

    def test_interning_round_trips(self, tmp_path):
        rel = tmp_path / "rel"
        attr = tmp_path / "attr"
        write_lines(rel, ["e1\tr1\te2"])
        write_lines(attr, ["e2\ta1\tv"])
        g = load_graph(rel, attr)
        for label in g.ent_labels:
            assert g.ent_labels[g.entity_id(label)] == label
        for label in g.rel_labels:
            assert g.rel_labels[g.relation_id(label)] == label
        for label in g.attr_labels:
            assert g.attr_labels[g.attribute_id(label)] == label


def graph_with_counts(counts):
    """One graph whose attribute 'a{i}' occurs counts[i] times."""
    rows = []
    n = 0
    for i, c in enumerate(counts):
        for j in range(c):
            rows.append((f"e{n}", f"a{i}", f"v{i}_{j}"))
            n += 1
    return KnowledgeGraph([], rows)


class TestFrequentAttributes:
    def test_boundary_strictly_more_than(self):
        g = graph_with_counts([51, 50])
        g2 = KnowledgeGraph([], [])
        freq = frequent_attributes(g, g2, 50)
        assert g.attribute_id("a0") in freq.left
        assert g.attribute_id("a1") not in freq.left

    def test_planted_frequencies(self):
        # direct count oracle: {a1: 100, a2: 10} with min_count 50 keeps only a1
        g = graph_with_counts([100, 10])
        freq = frequent_attributes(g, KnowledgeGraph([], []), 50)
        assert freq.left == frozenset({g.attribute_id("a0")})

    def test_either_graph_counts(self):
        g = graph_with_counts([3])
        g2 = graph_with_counts([10])
        freq = frequent_attributes(g, g2, 5)
        assert freq.left == frozenset()
        assert freq.right == frozenset({g2.attribute_id("a0")})

    def test_min_count_validated(self):
        with pytest.raises(ValueError):
            frequent_attributes(KnowledgeGraph([], []), KnowledgeGraph([], []), 0)


class TestTopMSlots:
    def test_under_capacity(self):
        rows = [("e0", "a0", "x"), ("e0", "a1", "y"), ("e0", "a2", "z")]
        g = KnowledgeGraph([], rows)
        freq = frozenset(range(3))
        slots = top_m_attr_slots(g, g.entity_id("e0"), 20, freq)
        assert len(slots) == 3

    def test_no_attributes(self):
        g = KnowledgeGraph([("e0", "r", "e1")], [])
        assert top_m_attr_slots(g, 0, 20, frozenset()) == []

    def test_25_triples_capped_by_documented_ranking(self):
        # Entity e0 carries 25 triples over 5 attributes; other entities pad
        # the global frequencies so the ranking order is a3 > a1 > a0 > a2 > a4.
        rows = []
        for i in range(5):
            for j in range(5):
                rows.append(("e0", f"a{i}", f"v{i}{j}"))
        pad = {"a3": 9, "a1": 7, "a0": 4, "a2": 2, "a4": 0}
        k = 0
        for attr, extra in pad.items():
            for _ in range(extra):
                rows.append((f"pad{k}", attr, f"p{k}"))
                k += 1
        g = KnowledgeGraph([], rows)
        freq = frozenset(range(g.num_attributes))
        slots = top_m_attr_slots(g, g.entity_id("e0"), 20, freq)
        assert len(slots) == 20
        # independent application of the rule: frequency desc, attr id, value
        counts = g.attribute_counts
        expected = sorted(
            ((a, v) for a, v in g.attributes_of(g.entity_id("e0"))),
            key=lambda av: (-counts[av[0]], av[0], av[1].raw),
        )[:20]
        assert slots == expected
        # a4 is the least frequent attribute, so its 5 slots are the ones cut
        assert all(g.attr_labels[a] != "a4" for a, _ in slots)

    def test_deterministic(self):
        rows = [("e0", "a0", f"v{j}") for j in range(6)]
        g = KnowledgeGraph([], rows)
        freq = frozenset({0})
        first = top_m_attr_slots(g, 0, 4, freq)
        assert first == top_m_attr_slots(g, 0, 4, freq)


class TestInitialSeeds:
    def build_pair(self):
        g = KnowledgeGraph(
            [("e1", "born in", "e2")],
            [("e1", "birthDate", "1984"), ("e2", "population", "100")],
        )
        g2 = KnowledgeGraph(
            [("f1", "Born In", "f2")],
            [("f1", "birthdate", "1984年"), ("f2", "pop", "100万")],
        )
        return g, g2

    def test_same_name_attribute_casefolded(self):
        g, g2 = self.build_pair()
        store = build_initial_seeds(g, g2, [("e1", "f1")])
        assert (g.attribute_id("birthDate"), g2.attribute_id("birthdate")) in store.attr_pairs

    def test_same_name_relation(self):
        g, g2 = self.build_pair()
        store = build_initial_seeds(g, g2, [("e1", "f1")])
        assert (g.relation_id("born in"), g2.relation_id("Born In")) in store.rel_pairs

    def test_value_seed_from_entity_and_attribute_seeds(self):
        g, g2 = self.build_pair()
        store = build_initial_seeds(g, g2, [("e1", "f1")])
        assert (ValueText.from_raw("1984"), ValueText.from_raw("1984年")) in store.val_pairs
        # e2/f2 are not seeded entities, so their values stay out
        assert len(store.val_pairs) == 1

    def test_no_label_collisions_no_pairs(self):
        g = KnowledgeGraph([("e1", "r1", "e2")], [("e1", "a1", "x")])
        g2 = KnowledgeGraph([("f1", "s1", "f2")], [("f1", "b1", "y")])
        store = build_initial_seeds(g, g2, [("e1", "f1")])
        assert store.rel_pairs == set()
        assert store.attr_pairs == set()
        assert store.val_pairs == set()

    def test_unknown_entity_named_in_error(self):
        g, g2 = self.build_pair()
        with pytest.raises(ValueError, match="nosuch"):
            build_initial_seeds(g, g2, [("nosuch", "f1")])

    def test_contains_all_ill_pairs_one_to_one(self):
        g, g2 = self.build_pair()
        store = build_initial_seeds(g, g2, [("e1", "f1"), ("e2", "f2")])
        assert store.ent_pairs == {
            (g.entity_id("e1"), g2.entity_id("f1")),
            (g.entity_id("e2"), g2.entity_id("f2")),
        }
        lefts = [left for left, _ in store.ent_pairs]
        rights = [right for _, right in store.ent_pairs]
        assert len(set(lefts)) == len(lefts)
        assert len(set(rights)) == len(rights)

    def test_conflicting_ill_pairs_rejected(self):
        g, g2 = self.build_pair()
        with pytest.raises(ValueError, match="one-to-one"):
            build_initial_seeds(g, g2, [("e1", "f1"), ("e1", "f2")])


class TestAlignmentStore:
    def test_one_to_one_enforced_at_insertion(self):
        store = AlignmentStore()
        assert store.add_ent_pair(0, 0, "seed")
        assert not store.add_ent_pair(0, 1, "seed")
        assert not store.add_ent_pair(1, 0, "seed")
        assert store.add_ent_pair(1, 1, "seed")
        assert store.ent_pairs == {(0, 0), (1, 1)}

    def test_provenance_tracked(self):
        store = AlignmentStore()
        store.add_ent_pair(0, 0, "seed")
        store.add_attr_pair(2, 3, "attribute-view")
        assert store.provenance[("ent", 0, 0)] == "seed"
        assert store.provenance[("attr", 2, 3)] == "attribute-view"

    def test_copy_is_independent(self):
        store = AlignmentStore()
        store.add_ent_pair(0, 0, "seed")
        dup = store.copy()
        dup.add_ent_pair(1, 1, "merged")
        assert (1, 1) not in store.ent_pairs

    def test_value_pairs_deduplicate(self):
        store = AlignmentStore()
        v = ValueText.from_raw("x")
        w = ValueText.from_raw("y")
        assert store.add_val_pair(v, w, "seed")
        assert not store.add_val_pair(v, w, "seed")


class TestCandidateSet:
    def test_consume_keeps_pool_disjoint_from_store(self):
        g = KnowledgeGraph([("e0", "r", "e1"), ("e1", "r", "e2")], [])
        g2 = KnowledgeGraph([("f0", "r", "f1"), ("f1", "r", "f2")], [])
        store = AlignmentStore()
        store.add_ent_pair(0, 0, "seed")
        cands = CandidateSet.from_graphs(g, g2, store)
        assert not cands.contains(0, 1)
        assert cands.contains(1, 1)
        cands.consume(1, 1)
        assert not cands.contains(1, 2)
        assert 1 not in cands.free_left and 1 not in cands.free_right


class TestGreedyOneToOne:
    def test_descending_order_consumes_endpoints(self):
        scored = [(0, 0, 0.5), (1, 0, 0.4), (0, 1, 0.9)]
        # (0, 1) wins first and consumes left 0, so (0, 0) is skipped
        assert greedy_one_to_one(scored) == [(0, 1, 0.9), (1, 0, 0.4)]

    def test_tie_break_smaller_pair_first(self):
        scored = [(2, 2, 0.5), (1, 1, 0.5), (1, 2, 0.5)]
        assert greedy_one_to_one(scored) == [(1, 1, 0.5), (2, 2, 0.5)]

    def test_taken_endpoints_skipped(self):
        assert greedy_one_to_one([(0, 0, 1.0)], taken_left={0}) == []
        assert greedy_one_to_one([(0, 0, 1.0)], taken_right={0}) == []

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                              st.floats(0, 1, allow_nan=False)), max_size=25))
    def test_output_is_one_to_one_and_sorted(self, scored):
        out = greedy_one_to_one(scored)
        lefts = [left for left, _, _ in out]
        rights = [right for _, right, _ in out]
        assert len(set(lefts)) == len(lefts)
        assert len(set(rights)) == len(rights)
        scores = [s for _, _, s in out]
        assert scores == sorted(scores, reverse=True)

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5),
                              st.sampled_from([-1.0, 0.0, 0.5, 1.0])), max_size=25),
           st.sets(st.integers(0, 5)), st.sets(st.integers(0, 5)),
           st.sampled_from([None,
                            lambda r: (r[2], r[0], r[1]),
                            lambda r: (r[1], -r[2], r[0])]),
           st.randoms())
    def test_any_key_one_to_one_disjoint_and_order_free(self, scored, taken_l, taken_r, key,
                                                        rnd):
        keyed = {} if key is None else {"key": key}
        out = greedy_one_to_one(scored, taken_l, taken_r, **keyed)
        lefts = [row[0] for row in out]
        rights = [row[1] for row in out]
        assert len(set(lefts)) == len(lefts) and len(set(rights)) == len(rights)
        assert not set(lefts) & taken_l and not set(rights) & taken_r
        permuted = list(scored)
        rnd.shuffle(permuted)
        assert greedy_one_to_one(permuted, taken_l, taken_r, **keyed) == out
