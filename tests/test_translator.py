"""Translation table training, value translation, and hash embeddings."""

import numpy as np
import pytest

from kgalign.kg import ValueText
from kgalign.translator import (
    WordVectorProvider,
    embed_value,
    export_translation_table,
    load_translation_table,
    train_translation,
    translate_value,
)


def V(raw):
    return ValueText.from_raw(raw)


def pairs_of(*texts):
    return [(V(a), V(b)) for a, b in texts]


def reference_em(corpus, iterations):
    """Independent dict-based expectation maximization used as an oracle."""
    cooc = {}
    for s_toks, t_toks in corpus:
        for s in s_toks:
            cooc.setdefault(s, set()).update(t_toks)
    probs = {s: {t: 1.0 / len(ts) for t in sorted(ts)} for s, ts in cooc.items()}
    for _ in range(iterations):
        counts, totals = {}, {}
        for s_toks, t_toks in corpus:
            for t in t_toks:
                denom = sum(probs[s].get(t, 0.0) for s in s_toks)
                for s in s_toks:
                    p = probs[s].get(t, 0.0)
                    if p <= 0:
                        continue
                    counts[(s, t)] = counts.get((s, t), 0.0) + p / denom
                    totals[s] = totals.get(s, 0.0) + p / denom
        probs = {s: {} for s in probs}
        for (s, t), c in counts.items():
            probs[s][t] = c / totals[s]
    return probs


class TestTrainTranslation:
    def test_single_unambiguous_pair(self):
        table = train_translation(pairs_of(("a", "x")), 5)
        assert table.probs["a"]["x"] == pytest.approx(1.0)

    def test_two_pair_corpus_ten_iterations(self):
        table = train_translation(pairs_of(("a b", "x y"), ("a", "x")), 10)
        assert table.best("a") == "x"
        assert table.best("b") == "y"
        # frozen values from the independent EM oracle on this corpus
        assert table.probs["a"]["x"] == pytest.approx(0.997035273218, abs=1e-9)
        assert table.probs["a"]["y"] == pytest.approx(0.002964726782, abs=1e-9)
        assert table.probs["b"]["x"] == pytest.approx(0.071000387848, abs=1e-9)
        assert table.probs["b"]["y"] == pytest.approx(0.928999612152, abs=1e-9)

    def test_matches_reference_em(self):
        texts = [("a b", "x y"), ("a", "x"), ("b c", "y z"), ("c c", "z z")]
        table = train_translation(pairs_of(*texts), 7)
        oracle = reference_em([(V(a).tokens, V(b).tokens) for a, b in texts], 7)
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
        for source, targets in table.probs.items():
            assert source in table.source_vocab
            for target, prob in targets.items():
                if prob > 0:
                    assert target in table.target_vocab

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


class TestTranslateValue:
    def table(self):
        return train_translation(pairs_of(("a b", "x y"), ("a", "x")), 10)

    def test_repetition_preserved(self):
        table = train_translation(pairs_of(("a", "x")), 5)
        assert translate_value(table, V("a a")).tokens == ("x", "x")

    def test_unknown_token_passes_through(self):
        assert translate_value(self.table(), V("zzz")).tokens == ("zzz",)

    def test_order_follows_input(self):
        assert translate_value(self.table(), V("b a")).tokens == ("y", "x")

    def test_empty_value(self):
        assert translate_value(self.table(), V("")).tokens == ()


class TestUpdateTranslation:
    def test_retrain_determinism(self):
        seeds = pairs_of(("a b", "x y"), ("a", "x"))
        first = train_translation(seeds, 10)
        again = train_translation(seeds, first.em_iterations)
        assert again.probs == first.probs

    def test_new_pair_unlocks_token(self):
        seeds = pairs_of(("a", "x"))
        table = train_translation(seeds, 10)
        assert table.best("c") is None
        updated = train_translation(seeds + pairs_of(("c", "z")), table.em_iterations)
        assert updated.best("c") == "z"

    def test_duplicates_counted_once(self):
        base = pairs_of(("a b", "x y"), ("a", "x"))
        doubled = base + pairs_of(("a", "x"), ("a b", "x y"))
        assert train_translation(base, 8).probs == train_translation(doubled, 8).probs


class TestWordVectors:
    def test_unit_norm_and_determinism(self):
        provider = WordVectorProvider(64)
        v1 = provider.vector("paris")
        v2 = WordVectorProvider(64).vector("paris")
        assert np.linalg.norm(v1) == pytest.approx(1.0)
        np.testing.assert_array_equal(v1, v2)

    def test_distinct_tokens_differ(self):
        provider = WordVectorProvider(64)
        assert abs(float(provider.vector("a") @ provider.vector("b"))) < 0.9

    def test_dimension_validated(self):
        with pytest.raises(ValueError):
            WordVectorProvider(0)


class TestEmbedValue:
    def test_single_token_is_unit_vector(self):
        provider = WordVectorProvider(32)
        np.testing.assert_allclose(embed_value(provider, V("a")), provider.vector("a"))

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
        trained = [s for s in mapping if table.best(s) is not None]
        hits = sum(table.best(s) == mapping[s] for s in trained)
        assert len(trained) >= 0.9 * len(mapping)
        assert hits / len(mapping) >= 0.95

    def test_translated_pairs_reach_cosine_one(self):
        mapping, pairs = self.make_corpus()
        table = train_translation(pairs, 12)
        provider = WordVectorProvider(50)
        checked = 0
        for left, right in pairs[:50]:
            translated = translate_value(table, left)
            if translated.tokens != right.tokens:
                continue  # imperfectly learned token; exactness is checked above
            cos = float(embed_value(provider, translated) @ embed_value(provider, right))
            assert cos == pytest.approx(1.0, abs=1e-12)
            checked += 1
        assert checked > 25


class TestTableRoundTrip:
    def test_export_import(self, tmp_path):
        table = train_translation(pairs_of(("a b", "x y"), ("a", "x"), ("c", "z")), 9)
        path = tmp_path / "table.tsv"
        export_translation_table(table, path)
        loaded = load_translation_table(path)
        assert set(loaded.probs) == set(table.probs)
        for s in table.probs:
            for t, p in table.probs[s].items():
                assert loaded.probs[s][t] == pytest.approx(p, rel=1e-9)

    def test_export_format(self, tmp_path):
        table = train_translation(pairs_of(("a", "x")), 3)
        path = tmp_path / "table.tsv"
        export_translation_table(table, path)
        line = path.read_text(encoding="utf-8").splitlines()[0]
        source, target, prob = line.split("\t")
        assert (source, target) == ("a", "x")
        assert len(prob) >= 9
