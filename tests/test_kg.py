"""Data model, ingestion, tokenization, and seed construction."""

import gc
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from kgalign.kg import (
    AlignmentStore,
    KnowledgeGraph,
    ParseError,
    ValueText,
    build_initial_seeds,
    frequent_attributes,
    greedy_one_to_one,
    infer_entity_pairs,
    load_graph,
    read_fields,
    read_lines,
    tokenize,
    top_m_attr_slots,
    write_rows,
)
from kgalign.pipeline import write_alignment_dump

from oracles import (
    AlignmentStoreWithSets,
    GraphPerRow,
    attribute_index_per_row,
    infer_entity_pairs_whole,
    load_graph_per_line,
    read_lines_per_line,
    tokenize_loop,
    write_alignment_dump_per_kind,
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

    def test_matches_loop_on_every_codepoint(self):
        for start in range(0, sys.maxunicode + 1, 1000):
            chunk = "".join(map(chr, range(start, min(start + 1000, sys.maxunicode + 1))))
            assert tokenize(chunk) == tokenize_loop(chunk), hex(start)

    @given(st.text())
    def test_matches_loop(self, raw):
        assert tokenize(raw) == tokenize_loop(raw)

    @given(st.text())
    def test_joined_tokens_tokenize_to_themselves(self, raw):
        tokens = tokenize(raw)
        assert tokenize(" ".join(tokens)) == tokens


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

    def test_non_utf8_line_reports_number_past_the_decode_chunk(self, tmp_path):
        # Text mode decodes far ahead of the line being read, and "\r" alone
        # ends a line; the reported line must still be the bad one.
        rel = tmp_path / "rel"
        rel.write_bytes(b"e1\tr1\tZ\xc3\xbcrich\r" * 3000 + b"e1\tr1\t\xff\xfe\n" + b"e1\tr1\te2\n")
        with pytest.raises(ParseError) as err:
            load_graph(rel, rel)
        assert err.value.lineno == 3001
        assert "not valid UTF-8" in str(err.value)

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
        for labels in (g.rel_labels, g.attr_labels):
            assert [labels.index(label) for label in labels] == list(range(len(labels)))


REL_ROWS = st.lists(st.tuples(st.sampled_from("pqr"), st.just("r"), st.sampled_from("pqrs")),
                    max_size=4)
ATTR_ROWS = st.lists(st.tuples(st.sampled_from("pqrst"), st.sampled_from("abc"),
                               st.sampled_from(["x", "x y", "X, y", "", "...", "1984年", "x  y"])),
                     max_size=25)


def assert_same_graph(g, oracle):
    """``g`` and ``oracle`` agree on every label, id, triple, count and slot,
    and ``g`` holds one ``ValueText`` per literal."""
    assert g.ent_labels == oracle.ent_labels
    assert g.rel_labels == oracle.rel_labels
    assert g.attr_labels == oracle.attr_labels
    for labels, ids in ((g.ent_labels, oracle._ent_ids), (g.rel_labels, oracle._rel_ids),
                        (g.attr_labels, oracle._attr_ids)):
        assert [ids[label] for label in labels] == list(range(len(labels)))
    assert g.rel_triples == oracle.rel_triples
    assert g.attr_triples == oracle.attr_triples
    by_raw = {}
    for _, _, value in g.attr_triples:
        assert by_raw.setdefault(value.raw, value) is value
    assert g.attribute_counts == oracle.attribute_counts
    for entity in range(oracle.num_entities):
        assert g.attributes_of(entity) == oracle.attributes_of(entity)


# (relationship file, attribute file) contents that text-mode iteration over
# the file splits differently from str.splitlines or a plain split on "\n".
GRAPH_FILES = {
    "crlf": (b"e1\tr1\te2\r\ne2\tr1\te3\r\n", b"e1\ta1\tParis\r\ne3\ta1\tLyon\r\n"),
    "lone-cr": (b"e1\tr1\te2\re2\tr1\te3\r", b"e1\ta1\tParis\re3\ta1\tLyon\r\n\r"),
    "breaks-in-literals": (b"e1\tr1\te2\n",
                           "e1\ta1\tfoo\u2028bar\ne2\ta1\tx\x0cy\ne1\ta2\tp\x0bq\x1cr\x85s\u2029t\n"
                           .encode("utf-8")),
    "blank-lines-no-final-newline": (b"\n\ne1\tr1\te2\n\n\ne2\tr1\te3",
                                     b"e1\ta1\tParis\n\n\ne2\ta1\tLyon"),
    "repeated-rows": (b"e2\tr1\te1\ne1\tr1\te2\ne2\tr1\te1\n",
                      b"e1\ta1\tParis\ne2\ta1\tParis\ne1\ta1\tParis\ne1\ta1\tLyon\n"
                      b"e1\ta0\tParis\n"),
    "empty": (b"", b""),
}

# Files that fail, each with the line the error must name.
BAD_FILES = {
    "malformed": (b"e1\tr1\te2\ne1\tr1\n", 2),
    "malformed-after-lone-cr": (b"e1\tr1\te2\r\re1\tr1\te2\tx\n", 3),
    "malformed-after-unicode-break": ("e1\tr1\u2028x\te2\ne1\tr1\n".encode("utf-8"), 2),
    "not-utf8": (b"e1\tr1\te2\re1\tr1\t\xff\n", 2),
}


class TestValueInterning:
    """One ``ValueText`` per literal gives the graph a one-per-row build gives."""

    @settings(max_examples=60, deadline=None)
    @given(rel_rows=REL_ROWS, attr_rows=ATTR_ROWS)
    @example(rel_rows=[], attr_rows=[("p", "a", "x"), ("q", "a", "x"), ("p", "b", "x"),
                                     ("p", "a", "x")])
    def test_equal_to_one_value_per_row(self, rel_rows, attr_rows):
        g = KnowledgeGraph(rel_rows, attr_rows)
        triples, by_entity, counts = attribute_index_per_row(g, attr_rows)
        assert g.attr_triples == triples
        assert g.attribute_counts == counts
        for entity in range(g.num_entities):
            assert g.attributes_of(entity) == by_entity.get(entity, [])
        by_raw = {}
        for _, _, value in g.attr_triples:
            assert by_raw.setdefault(value.raw, value) is value

    @settings(max_examples=60, deadline=None)
    @given(rel_rows=REL_ROWS, attr_rows=ATTR_ROWS)
    @example(rel_rows=[("q", "r", "p"), ("p", "r", "q"), ("q", "r", "p")],
             attr_rows=[("s", "b", "x"), ("p", "a", "x"), ("s", "b", "x"), ("s", "a", "x y")])
    def test_equal_to_deduplicating_value_texts(self, rel_rows, attr_rows):
        assert_same_graph(KnowledgeGraph(rel_rows, attr_rows), GraphPerRow(rel_rows, attr_rows))

    @pytest.mark.parametrize("name", GRAPH_FILES)
    def test_loads_like_line_by_line_reading(self, tmp_path, name):
        rel, attr = tmp_path / "rel", tmp_path / "attr"
        rel.write_bytes(GRAPH_FILES[name][0])
        attr.write_bytes(GRAPH_FILES[name][1])
        for path in (rel, attr):
            assert list(read_lines(path)) == list(read_lines_per_line(path))
        assert_same_graph(load_graph(rel, attr), load_graph_per_line(rel, attr))

    def test_unicode_line_breaks_stay_in_the_literal(self, tmp_path):
        rel, attr = tmp_path / "rel", tmp_path / "attr"
        rel.write_bytes(GRAPH_FILES["breaks-in-literals"][0])
        attr.write_bytes(GRAPH_FILES["breaks-in-literals"][1])
        raws = [v.raw for _, _, v in load_graph(rel, attr).attr_triples]
        assert raws == ["foo\u2028bar", "p\x0bq\x1cr\x85s\u2029t", "x\x0cy"]

    @pytest.mark.parametrize("name", BAD_FILES)
    def test_fails_like_line_by_line_reading(self, tmp_path, name):
        content, lineno = BAD_FILES[name]
        path = tmp_path / "rel"
        path.write_bytes(content)
        with pytest.raises(ParseError) as err:
            load_graph(path, path)
        with pytest.raises(ParseError) as oracle_err:
            load_graph_per_line(path, path)
        assert (err.value.lineno, str(err.value)) == (oracle_err.value.lineno,
                                                      str(oracle_err.value))
        assert err.value.lineno == lineno

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.sampled_from(["e", "é", " ", "\t", "\n", "\r", "\r\n", "\u2028",
                                     "\u2029", "\x0b", "\x0c", "\x1c", "\x85"]), max_size=30))
    def test_splits_lines_like_text_mode_iteration(self, tmp_path, pieces):
        path = tmp_path / "lines"
        path.write_bytes("".join(pieces).encode("utf-8"))
        assert list(read_lines(path)) == list(read_lines_per_line(path))

    def test_value_text_has_no_instance_dict(self):
        assert not hasattr(ValueText.from_raw("x"), "__dict__")


FIELD_CHARS = st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\r\n")
# whitespace that the reader takes for a blank line, and the three characters
# that would split a line or a field
AWKWARD = st.sampled_from([" ", "\x0c", "\u3000", "\t", "\r", "\n"])


def reads_back(row):
    """Whether ``read_fields`` reads ``row`` back as it was written."""
    line = "\t".join(row)
    return line.strip() != "" and not any(c in field for field in row for c in "\t\r\n")


@st.composite
def tab_separated_rows(draw):
    """``(count, literal, rows)``: rows of ``count`` fields, each non-empty
    except the last under ``literal``.  Some fields are only whitespace, and
    some hold a tab, CR or LF, so some rows would not read back."""
    count, literal = draw(st.integers(1, 4)), draw(st.booleans())
    field = st.text(FIELD_CHARS | AWKWARD, min_size=1, max_size=6) | st.text(AWKWARD, min_size=1,
                                                                            max_size=2)
    last = field | st.just("") if literal else field
    row = st.tuples(*[field] * (count - 1), last)
    return count, literal, draw(st.lists(row, max_size=6))


class TestFieldRules:
    """One reader for every tab-separated input: a line of only whitespace is
    skipped, and an entity, relation or attribute field must not be empty."""

    def test_whitespace_only_lines_skipped(self, tmp_path):
        rel, attr = tmp_path / "rel", tmp_path / "attr"
        rel.write_text("a\tr\tb\n\t\t\n \n\x0c\t\n", encoding="utf-8")
        attr.write_text("\t \t\na\tname\t\n", encoding="utf-8")
        g = load_graph(rel, attr)
        assert (g.ent_labels, g.rel_labels, g.attr_labels) == (["a", "b"], ["r"], ["name"])
        assert g.rel_triples == [(0, 0, 1)]
        # An empty literal is a value like any other.
        assert [(h, a, v.raw) for h, a, v in g.attr_triples] == [(0, 0, "")]

    def test_same_lines_skipped_in_a_pair_file(self, tmp_path):
        path = tmp_path / "pairs"
        path.write_text("\t\t\ne0\tf0\n \t\n\ne1\tf1\n", encoding="utf-8")
        assert list(read_fields(path, 2)) == [(2, ["e0", "f0"]), (5, ["e1", "f1"])]

    @pytest.mark.parametrize("name, line, field", [
        ("rel", "\tr\tb", 1), ("rel", "a\t\tb", 2), ("rel", "a\tr\t", 3),
        ("attr", "\tname\tx", 1), ("attr", "a\t\tx", 2), ("attr", "\t\tx", 1)])
    def test_empty_label_refused_with_location(self, tmp_path, name, line, field):
        paths = {"rel": tmp_path / "rel", "attr": tmp_path / "attr"}
        write_lines(paths["rel"], ["a\tr\tb"])
        write_lines(paths["attr"], ["a\tname\tx"])
        write_lines(paths[name], ["a\tr\tb" if name == "rel" else "a\tname\tx", line])
        message = f"{paths[name]}:2: field {field} is empty"
        with pytest.raises(ParseError, match=re.escape(message)):
            load_graph(paths["rel"], paths["attr"])

    @pytest.mark.parametrize("line, field", [("\tf0", 1), ("e0\t", 2)])
    def test_empty_label_refused_in_a_pair_file(self, tmp_path, line, field):
        path = tmp_path / "pairs"
        write_lines(path, ["e1\tf1", line])
        with pytest.raises(ParseError, match=re.escape(f"{path}:2: field {field} is empty")):
            list(read_fields(path, 2))

    @pytest.mark.parametrize("row, message", [
        ((" ", " ", " "), "would be a blank line"), (("", ""), "would be a blank line"),
        (("\t\t",), "would be a blank line"), (("a\tb", "c"), "has a field with a tab, CR or LF"),
        (("a", "b\n"), "has a field with a tab, CR or LF"),
        (("a", "\rb", ""), "has a field with a tab, CR or LF")])
    def test_write_rows_refuses_a_row_that_would_not_read_back(self, tmp_path, row, message):
        path = tmp_path / "rows"
        with pytest.raises(ValueError, match=re.escape(f"row 1 {message}: {row!r}")):
            write_rows(path, [("x", "y"), row, ("z", "w")])
        assert path.read_text(encoding="utf-8") == "x\ty\n"

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(tab_separated_rows())
    @example((2, False, [("a", "b"), (" ", "\x0c")]))
    @example((3, True, [("a", "r", ""), ("\t", "b", "c")]))
    @example((1, False, [("a\rb",)]))
    @example((3, False, [(" ", " ", " ")]))
    @example((2, True, [("\t", "")]))
    def test_written_rows_read_back(self, tmp_path, case):
        count, literal, rows = case
        path = tmp_path / "rows"
        bad = [index for index, row in enumerate(rows) if not reads_back(row)]
        if bad:
            with pytest.raises(ValueError, match=rf"^row {bad[0]} "):
                write_rows(path, rows)
            return
        write_rows(path, rows)
        assert list(read_fields(path, count, literal)) == [(lineno, list(row))
                                                           for lineno, row in enumerate(rows, 1)]


@pytest.fixture
def collector_state():
    """Puts the cyclic garbage collector back the way the test found it."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


def collections_during(call):
    """Generations of the garbage collections that start while ``call`` runs."""
    seen = []

    def probe(phase, info):
        if phase == "start":
            seen.append(info["generation"])

    gc.callbacks.append(probe)
    try:
        call()
    finally:
        gc.callbacks.remove(probe)
    return seen


class TestCollectorPause:
    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_state_restored_after_a_load(self, tmp_path, collector_state, enabled):
        rel, attr = tmp_path / "rel", tmp_path / "attr"
        write_lines(rel, ["e1\tr1\te2"])
        write_lines(attr, ["e1\ta1\tParis"])
        gc.enable() if enabled else gc.disable()
        load_graph(rel, attr)
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
    def test_state_restored_after_a_failed_load(self, tmp_path, collector_state, enabled):
        rel = tmp_path / "rel"
        write_lines(rel, ["e1\tr1\te2", "e1\tr1"])
        gc.enable() if enabled else gc.disable()
        with pytest.raises(ParseError):
            load_graph(rel, rel)
        assert gc.isenabled() is enabled

    def test_no_collection_during_a_load(self, tmp_path, collector_state):
        rel, attr = tmp_path / "rel", tmp_path / "attr"
        write_lines(rel, [f"e{i}\tr{i % 7}\te{i + 1}" for i in range(3000)])
        write_lines(attr, [f"e{i}\ta{i % 5}\tvalue {i % 300}" for i in range(3000)])
        gc.enable()
        # The same load with the collector running collects, so the probe works.
        assert collections_during(lambda: load_graph.__wrapped__(rel, attr)) != []
        assert collections_during(lambda: load_graph(rel, attr)) == []
        assert gc.isenabled()


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
        freq = frequent_attributes(g, 50)
        assert g.attr_labels.index("a0") in freq
        assert g.attr_labels.index("a1") not in freq

    def test_planted_frequencies(self):
        # direct count oracle: {a1: 100, a2: 10} with min_count 50 keeps only a1
        g = graph_with_counts([100, 10])
        assert frequent_attributes(g, 50) == frozenset({g.attr_labels.index("a0")})

    def test_either_graph_counts(self):
        g = graph_with_counts([3])
        g2 = graph_with_counts([10])
        assert frequent_attributes(g, 5) == frozenset()
        assert frequent_attributes(g2, 5) == frozenset({g2.attr_labels.index("a0")})

    def test_min_count_validated(self):
        with pytest.raises(ValueError):
            frequent_attributes(KnowledgeGraph([], []), 0)


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
            ((a, v) for _, a, v in g.attributes_of(g.entity_id("e0"))),
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
        pair = (g.attr_labels.index("birthDate"), g2.attr_labels.index("birthdate"))
        assert pair in store.attr_pairs

    def test_same_name_relation(self):
        g, g2 = self.build_pair()
        store = build_initial_seeds(g, g2, [("e1", "f1")])
        assert (g.rel_labels.index("born in"), g2.rel_labels.index("Born In")) in store.rel_pairs

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

    def test_colliding_names_seed_the_smaller_id(self):
        # Two labels of one side fold to the same name after trimming and
        # case-folding; the one with the smaller id is paired.
        g = KnowledgeGraph([("e1", "Born In", "e2"), ("e2", "born in ", "e1")],
                           [("e1", "Name", "x"), ("e1", " name", "y")])
        g2 = KnowledgeGraph([("f1", "BORN IN", "f2"), ("f2", "born in", "f1")],
                            [("f1", "NAME", "x"), ("f1", "name", "y")])
        assert g.rel_labels.index("Born In") < g.rel_labels.index("born in ")
        assert g2.attr_labels.index("NAME") < g2.attr_labels.index("name")
        store = build_initial_seeds(g, g2, [("e1", "f1")])
        assert store.rel_pairs == {(g.rel_labels.index("Born In"), g2.rel_labels.index("BORN IN"))}
        assert store.attr_pairs == {(g.attr_labels.index("Name"), g2.attr_labels.index("NAME"))}

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


KINDS = ("ent", "rel", "attr")

# (kind, left, right, provenance) insertions over four ids a side, so that
# repeats and taken endpoints are common; a value pair's ids name literals.
STORE_OPS = st.lists(st.tuples(st.sampled_from(KINDS + ("val",)), st.integers(0, 3),
                               st.integers(0, 3),
                               st.sampled_from(["seed", "attribute-view", "merged"])),
                     max_size=30)

# Two graphs whose entity, relation and attribute ids 0-3 all have labels.
STORE_GRAPHS = tuple(
    KnowledgeGraph([(f"{e}{i}", f"{r}{i}", f"{e}{(i + 1) % 4}") for i in range(4)],
                   [(f"{e}{i}", f"{a}{i}", "v") for i in range(4)])
    for e, r, a in (("e", "r", "a"), ("f", "s", "b")))


def store_state(store):
    """Everything a store holds, as sets that a later state must contain."""
    state = {kind: set(getattr(store, f"{kind}_pairs")) for kind in KINDS}
    for kind in KINDS:
        state[f"{kind}_left"], state[f"{kind}_right"] = store.taken(kind)
    state["val"] = set(store.val_pairs)
    state["provenance"] = set(store.provenance.items())
    return state


class TestAlignmentStore:
    def test_one_to_one_enforced_at_insertion(self):
        store = AlignmentStore()
        assert store.add("ent", 0, 0, "seed")
        assert not store.add("ent", 0, 1, "seed")
        assert not store.add("ent", 1, 0, "seed")
        assert store.add("ent", 1, 1, "seed")
        assert store.ent_pairs == {(0, 0), (1, 1)}

    @pytest.mark.parametrize("kind", ["ent", "rel", "attr"])
    def test_readding_a_pair_keeps_its_first_provenance(self, kind):
        store = AlignmentStore()
        assert store.add(kind, 2, 3, "seed")
        assert not store.add(kind, 2, 3, "merged")
        assert getattr(store, f"{kind}_pairs") == {(2, 3)}
        assert store.provenance == {(kind, 2, 3): "seed"}

    def test_provenance_tracked(self):
        store = AlignmentStore()
        store.add("ent", 0, 0, "seed")
        store.add("attr", 2, 3, "attribute-view")
        assert store.provenance[("ent", 0, 0)] == "seed"
        assert store.provenance[("attr", 2, 3)] == "attribute-view"

    def test_copy_is_independent(self):
        store = AlignmentStore()
        store.add("ent", 0, 0, "seed")
        store.add("rel", 0, 0, "seed")
        store.add("attr", 0, 0, "seed")
        store.add_val_pair(ValueText.from_raw("x"), ValueText.from_raw("y"), "seed")
        before = {name: value.copy() for name, value in vars(store).items()}
        dup = store.copy()
        dup.add("ent", 1, 1, "merged")
        dup.add("rel", 1, 1, "relationship-view")
        dup.add("attr", 1, 1, "attribute-view")
        dup.add_val_pair(ValueText.from_raw("u"), ValueText.from_raw("w"), "attribute-view")
        dup.provenance[("ent", 0, 0)] = "merged"
        assert (1, 1) not in store.ent_pairs
        assert vars(store) == before
        assert dup.size() == store.size() + 4

    def test_value_pairs_deduplicate(self):
        store = AlignmentStore()
        v = ValueText.from_raw("x")
        w = ValueText.from_raw("y")
        assert store.add_val_pair(v, w, "seed")
        assert not store.add_val_pair(v, w, "seed")

    @pytest.mark.parametrize("changed", ["copy", "original"])
    def test_copy_and_original_share_no_state(self, changed):
        store = AlignmentStore()
        for kind in KINDS:
            store.add(kind, 0, 0, "seed")
        store.add_val_pair(ValueText.from_raw("x"), ValueText.from_raw("y"), "seed")
        dup = store.copy()
        expected = store_state(store)
        assert store_state(dup) == expected
        target, other = (dup, store) if changed == "copy" else (store, dup)
        for kind in KINDS:
            assert target.add(kind, 1, 1, "merged")
        assert target.add_val_pair(ValueText.from_raw("u"), ValueText.from_raw("w"), "merged")
        assert store_state(other) == expected
        assert target.size() == other.size() + 4

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(STORE_OPS)
    @example([("ent", 0, 0, "seed"), ("ent", 0, 0, "merged"), ("ent", 0, 1, "seed"),
              ("ent", 1, 0, "seed"), ("rel", 0, 0, "seed"), ("attr", 3, 2, "seed"),
              ("val", 0, 0, "seed"), ("val", 0, 0, "merged"), ("val", 0, 1, "seed")])
    def test_matches_a_store_with_pair_sets(self, tmp_path, ops):
        store, oracle = AlignmentStore(), AlignmentStoreWithSets()
        oracle_taken = {"ent": oracle.taken_entities, "rel": oracle.taken_relations,
                        "attr": oracle.taken_attributes}
        for kind, left, right, provenance in ops:
            if kind == "val":
                left, right = ValueText.from_raw(f"v{left}"), ValueText.from_raw(f"w{right}")
            before = store_state(store)
            added = (store.add_val_pair(left, right, provenance) if kind == "val"
                     else store.add(kind, left, right, provenance))
            assert added == getattr(oracle, f"add_{kind}_pair")(left, right, provenance)
            after = store_state(store)
            assert all(before[name] <= after[name] for name in before)  # only grows
            for one_to_one in KINDS:
                pairs = getattr(store, f"{one_to_one}_pairs")
                assert pairs == getattr(oracle, f"{one_to_one}_pairs")
                assert store.taken(one_to_one) == oracle_taken[one_to_one]()
                assert len({left for left, _ in pairs}) == len(pairs)
                assert len({right for _, right in pairs}) == len(pairs)
            assert store.val_pairs == oracle.val_pairs
            assert store.provenance == oracle.provenance
            assert store.attr_map() == oracle.attr_map()
            assert store.size() == oracle.size()
        g, g2 = STORE_GRAPHS
        write_alignment_dump(store, g, g2, tmp_path / "store.tsv")
        write_alignment_dump_per_kind(oracle, g, g2, tmp_path / "oracle.tsv")
        assert (tmp_path / "store.tsv").read_bytes() == (tmp_path / "oracle.tsv").read_bytes()


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


@st.composite
def sparse_scores(draw):
    """Up to about two row blocks of zeros with a few cells set above zero,
    and taken rows and columns among them."""
    n = draw(st.integers(1, 2100))
    n2 = draw(st.integers(1, 6))
    cells = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n2 - 1),
                                    st.sampled_from([0.25, 0.5, 1.0])), max_size=20))
    scores = np.zeros((n, n2))
    for m, c, value in cells:
        scores[m, c] = value
    taken_l = draw(st.sets(st.sampled_from([m for m, _, _ in cells]))) if cells else set()
    taken_r = draw(st.sets(st.integers(0, n2 - 1), max_size=n2 - 1))
    return scores, taken_l, taken_r


def boundary_scores():
    scores = np.zeros((2100, 3))
    scores[[0, 1023, 1024, 1024, 2047, 2048, 2099], [0, 1, 1, 2, 0, 2, 1]] = \
        [0.5, 1.0, 1.0, 0.25, 0.5, 0.25, 1.0]
    return scores, {2047}, set()


class TestInferEntityPairs:
    @given(st.lists(st.lists(st.sampled_from([-1.0, 0.0, 0.25, 0.5, 0.5, 1.0]),
                             min_size=4, max_size=4), min_size=1, max_size=5),
           st.sampled_from([-1.0, 0.0, 0.5]),
           st.sets(st.integers(0, 4)), st.sets(st.integers(0, 3)))
    def test_equals_greedy_over_all_cells_above_threshold(self, rows, tau, taken_l, taken_r):
        scores = np.array(rows)
        above = [(m, n, float(scores[m, n])) for m in range(scores.shape[0])
                 for n in range(scores.shape[1]) if scores[m, n] > tau]
        out = infer_entity_pairs(scores, tau, taken_l, taken_r)
        assert out == greedy_one_to_one(above, taken_l, taken_r)
        assert not {m for m, _, _ in out} & taken_l
        assert not {n for _, n, _ in out} & taken_r

    @settings(deadline=None)
    @given(sparse_scores(), st.sampled_from([0.0, 0.25]))
    @example(boundary_scores(), 0.0)
    @example((np.zeros((1500, 0)), set(), set()), 0.0)
    @example((np.zeros((0, 3)), set(), set()), 0.0)
    def test_row_blocks_equal_whole_matrix_scan(self, case, tau):
        scores, taken_l, taken_r = case
        assert (infer_entity_pairs(scores, tau, taken_l, taken_r)
                == infer_entity_pairs_whole(scores, tau, taken_l, taken_r))

    def test_peak_memory_below_one_block_mask(self):
        rng = np.random.default_rng(0)
        scores = rng.random((3000, 2000))
        infer_entity_pairs(scores[:2], 0.9999)  # keep lazy first-call work out of the peak
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            out = infer_entity_pairs(scores, 0.9999)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert out
        assert peak < 1024 * scores.shape[1] * 1.25
