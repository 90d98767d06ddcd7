"""Translation table training, value translation, and hash embeddings."""

import hashlib
import random

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from hypothesis.extra import numpy as hnp

from kgalign.kg import ValueText, tokenize
from kgalign.translator import (
    WordVectorProvider,
    _pcg64_states,
    _unit_vectors,
    embed_values,
    train_translation,
    translate_tokens,
)
from oracles import embed_value, seeded_unit_vector, token_vector, train_translation_loop


def V(raw):
    return ValueText.from_raw(raw)


def pairs_of(*texts):
    return [(V(a), V(b)) for a, b in texts]


class TestTrainTranslation:
    def test_single_unambiguous_pair(self):
        table = train_translation(pairs_of(("a", "x")), 5)
        assert table.probs["a"]["x"] == pytest.approx(1.0)

    def test_two_pair_corpus_ten_iterations(self):
        table = train_translation(pairs_of(("a b", "x y"), ("a", "x")), 10)
        assert table.best.get("a") == "x"
        assert table.best.get("b") == "y"
        # frozen values from the independent EM oracle on this corpus
        assert table.probs["a"]["x"] == pytest.approx(0.997035273218, abs=1e-9)
        assert table.probs["a"]["y"] == pytest.approx(0.002964726782, abs=1e-9)
        assert table.probs["b"]["x"] == pytest.approx(0.071000387848, abs=1e-9)
        assert table.probs["b"]["y"] == pytest.approx(0.928999612152, abs=1e-9)

    def test_matches_reference_em(self):
        texts = [("a b", "x y"), ("a", "x"), ("b c", "y z"), ("c c", "z z")]
        table = train_translation(pairs_of(*texts), 7)
        oracle = train_translation_loop(pairs_of(*texts), 7).probs
        for s, targets in oracle.items():
            for t, p in targets.items():
                assert table.probs[s][t] == pytest.approx(p, abs=1e-12)

    def test_symmetric_ambiguity(self):
        table = train_translation(pairs_of(("a", "x"), ("a", "y")), 5)
        assert table.probs["a"]["x"] == pytest.approx(0.5)
        assert table.probs["a"]["y"] == pytest.approx(0.5)

    def test_normalization_after_training(self):
        table = train_translation(pairs_of(("a b c", "x y"), ("b", "y z"), ("a c", "w")), 6)
        for s, targets in table.probs.items():
            assert sum(targets.values()) == pytest.approx(1.0, abs=1e-9)

    def test_vocabularies_cover_entries(self):
        table = train_translation(pairs_of(("a b", "x y"), ("c", "z")), 4)
        assert set(table.best) == {s for s, targets in table.probs.items() if targets}
        for source, targets in table.probs.items():
            if targets:
                assert table.best[source] == min(targets, key=lambda t: (-targets[t], t))
        # a and b split evenly between x and y; the tie goes to the smaller target
        assert table.probs["a"]["x"] == table.probs["a"]["y"]
        assert table.best == {"a": "x", "b": "x", "c": "z"}

    def test_log_likelihood_non_decreasing(self):
        table = train_translation(
            pairs_of(("a b", "x y"), ("b c", "y z"), ("a", "x"), ("c a", "z x")), 15)
        ll = table.log_likelihoods
        assert len(ll) == 15
        assert all(ll[i + 1] >= ll[i] - 1e-12 for i in range(len(ll) - 1))

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            train_translation([], 5)

    def test_no_trainable_tokens(self):
        with pytest.raises(ValueError, match="no trainable tokens"):
            train_translation(pairs_of(("...", "!!!")), 5)

    def test_iterations_validated(self):
        with pytest.raises(ValueError):
            train_translation(pairs_of(("a", "x")), 0)


def frozen_corpus():
    """300 pairs over a planted 40-token dictionary with dropped and noise
    targets; up to six source tokens, so denominators have many terms."""
    rng = random.Random(11)
    mapping = {f"s{i}": f"t{(7 * i) % 40}" for i in range(40)}
    sources = sorted(mapping)
    pairs = []
    for _ in range(300):
        left = [rng.choice(sources) for _ in range(rng.randint(1, 6))]
        right = [mapping[s] for s in left if rng.random() < 0.8]
        right += [f"t{rng.randrange(40)}" for _ in range(rng.randint(0, 2))]
        rng.shuffle(right)
        pairs.append((V(" ".join(left)), V(" ".join(right))))
    return pairs


def table_digest(table):
    h = hashlib.sha256()
    for s in sorted(table.probs):
        for t in sorted(table.probs[s]):
            h.update(f"{s} {t} {table.probs[s][t].hex()}\n".encode())
    for s in sorted(table.best):
        h.update(f"{s} {table.best[s]}\n".encode())
    for ll in table.log_likelihoods:
        h.update(f"{ll.hex()}\n".encode())
    return h.hexdigest()


tokens_st = st.lists(st.sampled_from("abcdefg"), max_size=6).map(tuple)


@st.composite
def em_corpora(draw):
    """Value pairs with duplicate pairs, repeated and missing tokens."""
    distinct = draw(st.lists(st.tuples(tokens_st, tokens_st.map(
        lambda toks: tuple(t.upper() for t in toks))), min_size=1, max_size=8))
    picks = draw(st.lists(st.sampled_from(distinct), min_size=1, max_size=12))
    return [(ValueText(" ".join(a), a), ValueText(" ".join(b), b)) for a, b in picks]


class TestFastEMMatchesLoop:
    @given(em_corpora(), st.integers(1, 6))
    def test_table_equals_dict_loop(self, pairs, iterations):
        assume(any(left.tokens and right.tokens for left, right in pairs))
        fast = train_translation(pairs, iterations)
        slow = train_translation_loop(pairs, iterations)
        assert fast.probs == slow.probs
        assert fast.best == slow.best
        assert fast.log_likelihoods == slow.log_likelihoods

    def test_frozen_corpus_equals_dict_loop(self):
        pairs = frozen_corpus()
        fast = train_translation(pairs, 10)
        slow = train_translation_loop(pairs, 10)
        assert (fast.probs, fast.best, fast.log_likelihoods) == \
            (slow.probs, slow.best, slow.log_likelihoods)

    def test_table_digest_is_frozen(self):
        # Recorded with the dict loop on Python 3.11, whose ``sum`` adds
        # floats left to right; a compensated sum gives another table.
        assert table_digest(train_translation(frozen_corpus(), 10)) == \
            "70f9758c8f40f049e3d60af42b42049bacea9f13541484405a4eb5354fe6795a"


class TestTranslateValue:
    def table(self):
        return train_translation(pairs_of(("a b", "x y"), ("a", "x")), 10)

    def test_repetition_preserved(self):
        table = train_translation(pairs_of(("a", "x")), 5)
        assert translate_tokens(table, V("a a").tokens) == ("x", "x")

    def test_unknown_token_passes_through(self):
        assert translate_tokens(self.table(), V("zzz").tokens) == ("zzz",)

    def test_order_follows_input(self):
        assert translate_tokens(self.table(), V("b a").tokens) == ("y", "x")

    def test_empty_value(self):
        assert translate_tokens(self.table(), V("").tokens) == ()

    @given(st.lists(st.tuples(st.text(max_size=12), st.text(max_size=12)),
                    min_size=1, max_size=4),
           st.text())
    def test_tokens_are_the_tokenized_raw(self, texts, raw):
        pairs = pairs_of(*texts)
        assume(any(left.tokens and right.tokens for left, right in pairs))
        table = train_translation(pairs, 3)
        for value in [V(raw)] + [left for left, _ in pairs]:
            out = translate_tokens(table, value.tokens)
            assert tokenize(" ".join(out)) == out


class TestUpdateTranslation:
    def test_retrain_determinism(self):
        seeds = pairs_of(("a b", "x y"), ("a", "x"))
        first = train_translation(seeds, 10)
        again = train_translation(seeds, 10)
        assert again.probs == first.probs

    def test_new_pair_unlocks_token(self):
        seeds = pairs_of(("a", "x"))
        table = train_translation(seeds, 10)
        assert table.best.get("c") is None
        updated = train_translation(seeds + pairs_of(("c", "z")), 10)
        assert updated.best.get("c") == "z"

    def test_duplicates_counted_once(self):
        base = pairs_of(("a b", "x y"), ("a", "x"))
        doubled = base + pairs_of(("a", "x"), ("a b", "x y"))
        assert train_translation(base, 8).probs == train_translation(doubled, 8).probs


class TestWordVectors:
    def test_unit_norm_and_determinism(self):
        provider = WordVectorProvider(64)
        v1 = provider.vectors(["paris"])[0]
        v2 = WordVectorProvider(64).vectors(["paris"])[0]
        assert np.linalg.norm(v1) == pytest.approx(1.0)
        np.testing.assert_array_equal(v1, v2)

    def test_distinct_tokens_differ(self):
        a, b = WordVectorProvider(64).vectors(["a", "b"])
        assert abs(float(a @ b)) < 0.9

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1])
    def test_bulk_seeding_equals_fresh_generator_at_word_edges(self, seed):
        # A seed below 2**32 enters SeedSequence as one 32-bit word, a larger
        # one as two.  The reused generator has drawn before, as it has for
        # every token of a build but the first.
        generator = np.random.Generator(np.random.PCG64(7))
        generator.standard_normal(3)
        seeds = np.array([seed, seed], dtype=np.uint64)
        for dimension in (1, 3, 50):
            for vec in _unit_vectors(generator, seeds, dimension):
                assert vec.tobytes() == seeded_unit_vector(seed, dimension).tobytes()
        assert _pcg64_states(seeds[:1]) == [tuple(
            np.random.PCG64(seed).state["state"][key] for key in ("state", "inc"))]

    @given(st.lists(st.one_of(st.text(min_size=1, max_size=4),
                              st.text(st.characters(min_codepoint=0x4E00, max_codepoint=0x9FFF),
                                      min_size=1, max_size=3),
                              st.from_regex(r"[0-9]{1,20}", fullmatch=True),
                              st.text(min_size=200, max_size=600)),
                    max_size=12),
           st.integers(1, 60))
    def test_bulk_vectors_equal_per_token_generators(self, tokens, dimension):
        provider = WordVectorProvider(dimension)
        half = len(tokens) // 2
        # a second call seeds only the tokens the first did not see
        rows = np.concatenate([provider.vectors(tokens[:half]), provider.vectors(tokens)])
        assert rows.shape == (half + len(tokens), dimension)
        for row, token in zip(rows, tokens[:half] + tokens):
            assert row.tobytes() == token_vector(token, dimension).tobytes()

    def test_dimension_validated(self):
        with pytest.raises(ValueError):
            WordVectorProvider(0)


class TestEmbedValue:
    def test_single_token_is_unit_vector(self):
        provider = WordVectorProvider(32)
        np.testing.assert_allclose(embed_value(provider, V("a")), provider.vectors(["a"])[0])

    def test_self_similarity_is_one(self):
        provider = WordVectorProvider(32)
        e = embed_value(provider, V("a b c"))
        assert float(e @ e) == pytest.approx(1.0)

    def test_permutation_invariance(self):
        provider = WordVectorProvider(32)
        np.testing.assert_allclose(embed_value(provider, V("a b")),
                                   embed_value(provider, V("b a")))

    def test_empty_value_is_zero(self):
        provider = WordVectorProvider(32)
        np.testing.assert_array_equal(embed_value(provider, V("")), np.zeros(32))


class TestEmbedValues:
    # More than 8 tokens crosses numpy's pairwise-summation block size.
    @given(st.lists(st.lists(st.sampled_from("abcdefghij"), max_size=12).map(tuple),
                    max_size=10),
           st.integers(1, 40))
    def test_rows_equal_per_value_oracle(self, values, dimension):
        provider = WordVectorProvider(dimension)
        fast = embed_values(provider, values)
        assert fast.shape == (len(values), dimension)
        for row, tokens in zip(fast, values):
            np.testing.assert_array_equal(
                row, embed_value(provider, ValueText(" ".join(tokens), tokens)))

    def test_cancelling_tokens_embed_to_zero(self):
        class Opposite(WordVectorProvider):
            def vectors(self, tokens):
                return np.array([[1.0 if token == "up" else -1.0, 0.0, 0.0, 0.0]
                                 for token in tokens])

        provider = Opposite(4)
        values = [("up", "down"), (), ("up",)]
        fast = embed_values(provider, values)
        np.testing.assert_array_equal(fast, [[0.0] * 4, [0.0] * 4, [1.0, 0.0, 0.0, 0.0]])
        for row, tokens in zip(fast, values):
            np.testing.assert_array_equal(
                row, embed_value(provider, ValueText(" ".join(tokens), tokens)))

    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=70),
                      elements=st.floats(-1e6, 1e6)))
    def test_row_norm_is_one_dimensional_norm(self, rows):
        norms = np.sqrt(np.vecdot(rows, rows))
        for row, norm in zip(rows, norms):
            assert norm == np.linalg.norm(row)


class TestPlantedDictionary:
    def make_corpus(self, n_tokens=60, n_pairs=400, seed=5):
        rng = np.random.default_rng(seed)
        sources = [f"s{i}" for i in range(n_tokens)]
        targets = [f"t{i}" for i in rng.permutation(n_tokens)]
        mapping = dict(zip(sources, targets))
        weights = 1.0 / np.arange(1, n_tokens + 1)
        probs = weights / weights.sum()
        pairs = []
        for _ in range(n_pairs):
            length = int(rng.integers(1, 5))
            toks = [sources[i] for i in rng.choice(n_tokens, size=length, p=probs)]
            pairs.append((V(" ".join(toks)), V(" ".join(mapping[t] for t in toks))))
        return mapping, pairs

    def test_recovery_rate(self):
        mapping, pairs = self.make_corpus()
        table = train_translation(pairs, 12)
        trained = [s for s in mapping if table.best.get(s) is not None]
        hits = sum(table.best.get(s) == mapping[s] for s in trained)
        assert len(trained) >= 0.9 * len(mapping)
        assert hits / len(mapping) >= 0.95

    def test_translated_pairs_reach_cosine_one(self):
        mapping, pairs = self.make_corpus()
        table = train_translation(pairs, 12)
        provider = WordVectorProvider(50)
        checked = 0
        for left, right in pairs[:50]:
            translated = translate_tokens(table, left.tokens)
            if translated != right.tokens:
                continue  # imperfectly learned token; exactness is checked above
            cos = float(embed_value(provider, ValueText(" ".join(translated), translated))
                        @ embed_value(provider, right))
            assert cos == pytest.approx(1.0, abs=1e-12)
            checked += 1
        assert checked > 25

