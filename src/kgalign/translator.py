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


def _ragged(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row and position of each item when rows of ``lengths`` lie end to end."""
    rows = np.repeat(np.arange(len(lengths)), lengths)
    return rows, np.arange(len(rows)) - np.repeat(np.cumsum(lengths) - lengths, lengths)


def train_translation(pairs, iterations: int = 10) -> TranslationTable:
    """Fit the translation table on (left value, right value) pairs.

    Probabilities start uniform over co-occurring target tokens and are
    refined by iterating expected-count normalization; the per-iteration
    corpus log-likelihood is recorded and is non-decreasing.

    Tokens are interned and every co-occurring (source, target) cell gets an
    id, sources in first-seen order and targets sorted.  One flat entry per
    (pair, target position, source position), in corpus order, lets each
    step sum with ``np.bincount``, which adds in input order from 0.0 just as
    a loop over the corpus would, so the table does not depend on how the
    Python version sums floats.
    """
    if not pairs:
        raise ValueError("pairs must be nonempty")
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    corpus = _dedup_pairs(pairs)
    if not corpus:
        raise ValueError("no trainable tokens")

    sources = list(dict.fromkeys(s for src_tokens, _ in corpus for s in src_tokens))
    src_ids = {s: i for i, s in enumerate(sources)}
    tgt_vocab = sorted({t for _, tgt_tokens in corpus for t in tgt_tokens})
    tgt_ids = {t: i for i, t in enumerate(tgt_vocab)}
    src_flat = np.array([src_ids[s] for src_tokens, _ in corpus for s in src_tokens],
                        dtype=np.int64)
    tgt_flat = np.array([tgt_ids[t] for _, tgt_tokens in corpus for t in tgt_tokens],
                        dtype=np.int64)
    src_len = np.array([len(src_tokens) for src_tokens, _ in corpus], dtype=np.int64)
    tgt_len = np.array([len(tgt_tokens) for _, tgt_tokens in corpus], dtype=np.int64)
    src_start = np.cumsum(src_len) - src_len

    # One entry per (pair, target position, source position).
    pos_pair, _ = _ragged(tgt_len)
    pos_len = src_len[pos_pair]
    entry_pos, offset = _ragged(pos_len)
    entry_src = src_flat[src_start[pos_pair][entry_pos] + offset]
    entry_tgt = tgt_flat[entry_pos]
    cell_key, entry_cell = np.unique(entry_src * len(tgt_vocab) + entry_tgt,
                                     return_inverse=True)
    cell_src, cell_tgt = np.divmod(cell_key, len(tgt_vocab))
    log_len = [math.log(n) for n in pos_len.tolist()]

    prob = 1.0 / np.bincount(cell_src, minlength=len(sources))[cell_src]
    log_likelihoods = []
    for _ in range(iterations):
        p = prob[entry_cell]
        denom = np.bincount(entry_pos, weights=p, minlength=len(pos_pair))
        ll = 0.0
        for d, lg in zip(denom.tolist(), log_len):
            ll += math.log(d) - lg
        log_likelihoods.append(ll)
        live = p > 0.0
        c = p[live] / denom[entry_pos[live]]
        counts = np.bincount(entry_cell[live], weights=c, minlength=len(cell_key))
        totals = np.bincount(entry_src[live], weights=c, minlength=len(sources))
        has_count = np.bincount(entry_cell[live], minlength=len(cell_key)) > 0
        with np.errstate(invalid="ignore"):  # 0/0 for a source without counts
            prob = np.where(has_count, counts / totals[cell_src], 0.0)

    probs: dict[str, dict[str, float]] = {s: {} for s in sources}
    kept = np.nonzero(has_count)[0]
    for si, ti, value in zip(cell_src[kept].tolist(), cell_tgt[kept].tolist(),
                             prob[kept].tolist()):
        probs[sources[si]][tgt_vocab[ti]] = value
    # Targets are in sorted order, so the first maximum is the (-p, target) argmax.
    best = {s: max(ts, key=ts.get) for s, ts in probs.items() if ts}
    return TranslationTable(probs, best, log_likelihoods)


def translate_tokens(table: TranslationTable, tokens: tuple[str, ...]) -> tuple[str, ...]:
    """Token-wise argmax translation; unknown tokens pass through unchanged.

    Every output token is a ``tokenize`` output, so the joined output
    tokenizes back to itself.
    """
    return tuple(table.best.get(tok, tok) for tok in tokens)


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


def embed_values(provider: WordVectorProvider, values: list[tuple[str, ...]]) -> np.ndarray:
    """One row per token tuple: the mean of its per-token unit vectors,
    L2-normalized; zero for an empty tuple or a mean of norm below 1e-12.

    The mean adds the vectors position by position and divides by the token
    count, which gives ``np.mean`` over the tuple's vectors bit for bit.
    """
    out = np.zeros((len(values), provider.dimension))
    filled = [i for i, tokens in enumerate(values) if tokens]
    if not filled:
        return out
    # Token ids start at 1: row 0 of ``vectors`` is the zero vector behind
    # the zero padding of ``ids``.
    vocab: dict[str, int] = {}
    flat = [vocab.setdefault(tok, len(vocab) + 1) for i in filled for tok in values[i]]
    lengths = np.array([len(values[i]) for i in filled])
    ids = np.zeros((len(filled), lengths.max()), dtype=np.int64)
    ids[_ragged(lengths)] = flat
    vectors = np.stack([np.zeros(provider.dimension)] + [provider.vector(tok) for tok in vocab])
    mean = vectors[ids[:, 0]]
    for position in range(1, ids.shape[1]):
        mean += vectors[ids[:, position]]
    mean /= lengths[:, None]
    norm = np.sqrt(np.vecdot(mean, mean))
    keep = norm >= 1e-12
    out[np.array(filled)[keep]] = mean[keep] / norm[keep, None]
    return out
