"""Trainable word-translation table and deterministic value embeddings.

Cross-lingual literal values are compared by translating left-graph values
token-by-token through a statistical translation table (expectation
maximization over co-occurrence counts of value pairs) and then averaging
per-token unit vectors.  The table is retrained from scratch whenever new
value pairs are discovered, so the component stays stateless across
bootstrap iterations.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .kg import ValueText


@dataclass
class TranslationTable:
    """Conditional token-translation probabilities, source -> target."""

    probs: dict[str, dict[str, float]]
    best: dict[str, str]  # argmax target per source token; ties go to the smaller target
    log_likelihoods: list[float] = field(default_factory=list)


def _dedup_pairs(pairs) -> list[tuple[tuple[str, ...], tuple[str, ...]]]:
    # Duplicate training pairs count once so boilerplate values cannot
    # dominate the expected counts.
    seen = set()
    corpus = []
    for left, right in pairs:
        key = (left.raw, right.raw)
        if key in seen:
            continue
        seen.add(key)
        if left.tokens and right.tokens:
            corpus.append((left.tokens, right.tokens))
    return corpus


def train_translation(pairs, iterations: int = 10) -> TranslationTable:
    """Fit the translation table on (left value, right value) pairs.

    Probabilities start uniform over co-occurring target tokens and are
    refined by iterating expected-count normalization; the per-iteration
    corpus log-likelihood is recorded and is non-decreasing.
    """
    if not pairs:
        raise ValueError("pairs must be nonempty")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    corpus = _dedup_pairs(pairs)
    if not corpus:
        raise ValueError("no trainable tokens")

    cooc: dict[str, set[str]] = {}
    for src_tokens, tgt_tokens in corpus:
        for s in src_tokens:
            cooc.setdefault(s, set()).update(tgt_tokens)
    probs = {s: {t: 1.0 / len(ts) for t in sorted(ts)} for s, ts in cooc.items()}

    log_likelihoods = []
    for _ in range(iterations):
        counts: dict[tuple[str, str], float] = {}
        totals: dict[str, float] = {}
        ll = 0.0
        for src_tokens, tgt_tokens in corpus:
            for t in tgt_tokens:
                denom = sum(probs[s].get(t, 0.0) for s in src_tokens)
                ll += math.log(denom) - math.log(len(src_tokens))
                for s in src_tokens:
                    p = probs[s].get(t, 0.0)
                    if p <= 0.0:
                        continue
                    c = p / denom
                    counts[(s, t)] = counts.get((s, t), 0.0) + c
                    totals[s] = totals.get(s, 0.0) + c
        log_likelihoods.append(ll)
        fresh: dict[str, dict[str, float]] = {s: {} for s in probs}
        for (s, t), c in counts.items():
            fresh[s][t] = c / totals[s]
        probs = fresh

    best = {s: min(ts.items(), key=lambda kv: (-kv[1], kv[0]))[0]
            for s, ts in probs.items() if ts}
    return TranslationTable(probs, best, log_likelihoods)


def translate_value(table: TranslationTable, value: ValueText) -> ValueText:
    """Token-wise argmax translation; unknown tokens pass through unchanged."""
    out = tuple(table.best.get(tok, tok) for tok in value.tokens)
    # Every token is a tokenize() output, so tokenizing the joined raw gives ``out``.
    return ValueText(" ".join(out), out)


class WordVectorProvider:
    """Deterministic unit vectors per token, seeded from a keyed hash.

    Identical tokens always map to the same vector and distinct tokens
    collide with negligible probability, which makes exact-match values
    provably maximal-similarity without any trained embedding model.
    """

    def __init__(self, dimension: int = 100):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.dimension = dimension
        self._cache: dict[str, np.ndarray] = {}

    def vector(self, token: str) -> np.ndarray:
        cached = self._cache.get(token)
        if cached is not None:
            return cached
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
        seed = int.from_bytes(digest, "little")
        vec = np.random.Generator(np.random.PCG64(seed)).standard_normal(self.dimension)
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            vec = np.zeros(self.dimension)
            vec[0] = 1.0
        else:
            vec = vec / norm
        self._cache[token] = vec
        return vec


def embed_value(provider: WordVectorProvider, value: ValueText) -> np.ndarray:
    """Mean of per-token unit vectors, L2-normalized; zero for empty values."""
    if not value.tokens:
        return np.zeros(provider.dimension)
    mean = np.mean([provider.vector(tok) for tok in value.tokens], axis=0)
    norm = float(np.linalg.norm(mean))
    if norm < 1e-12:
        return np.zeros(provider.dimension)
    return mean / norm

