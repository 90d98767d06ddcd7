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
    log_len = np.array([math.log(n) for n in pos_len.tolist()])

    prob = 1.0 / np.bincount(cell_src, minlength=len(sources))[cell_src]
    log_likelihoods = []
    for _ in range(iterations):
        p = prob[entry_cell]
        denom = np.bincount(entry_pos, weights=p, minlength=len(pos_pair))
        # ``math.log``, whose last bit ``np.log`` does not always match;
        # ``np.cumsum`` adds the terms one by one in corpus order.
        terms = np.array(list(map(math.log, denom.tolist()))) - log_len
        log_likelihoods.append(float(np.cumsum(terms)[-1]))
        # An entry with p == 0 adds +0.0: every denominator is > 0, or math.log had raised.
        c = p / denom[entry_pos]
        counts = np.bincount(entry_cell, weights=c, minlength=len(cell_key))
        totals = np.bincount(entry_src, weights=c, minlength=len(sources))
        has_count = counts > 0.0
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


# numpy's SeedSequence hash constants (``numpy/random/bit_generator.pyx``) and
# PCG64's 128-bit LCG multiplier (``pcg64.h``).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash_steps(init: int, mult: int):
    """The (constant, next constant) pair of each ``hashmix`` call in turn.
    A SeedSequence hash advances its constant by ``mult`` per call, whatever
    the data, so one sequence serves a whole array of seeds."""
    while True:
        after = init * mult & _MASK32
        yield init, after
        init = after


def _hashmix(value: np.ndarray, before: int, after: int) -> np.ndarray:
    """SeedSequence's ``hashmix`` of uint32 ``value``: xor with the hash
    constant, multiply by its successor, xorshift."""
    value = (value ^ np.uint32(before)) * np.uint32(after)
    return value ^ (value >> np.uint32(16))


def _pcg64_states(seeds: np.ndarray) -> list[tuple[int, int]]:
    """The (state, inc) that ``np.random.PCG64(seed)`` starts from, for each
    uint64 seed.

    A seed below 2**64 enters SeedSequence as its low and high 32-bit words,
    and a seed below 2**32 as its low word alone, which hashes into the
    4-word pool just as a high word of 0 does.  The pool mixing and
    ``generate_state(4, np.uint64)`` run over uint32 arrays, whose products
    wrap as the C code's do.  The 128-bit seeding steps of
    ``pcg64_srandom_r`` then run on Python ints.
    """
    steps = _hash_steps(_INIT_A, _MULT_A)
    zeros = np.zeros(seeds.size, np.uint32)
    pool = [_hashmix(word, *next(steps))
            for word in ((seeds & np.uint64(_MASK32)).astype(np.uint32),
                         (seeds >> np.uint64(32)).astype(np.uint32), zeros, zeros)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                hashed = _hashmix(pool[src], *next(steps))
                mixed = np.uint32(_MIX_L) * pool[dst] - np.uint32(_MIX_R) * hashed
                pool[dst] = mixed ^ (mixed >> np.uint32(16))
    steps = _hash_steps(_INIT_B, _MULT_B)
    words = [_hashmix(pool[i % 4], *next(steps)).astype(np.uint64) for i in range(8)]
    # Little-endian word pairs make four uint64: the seed's high and low
    # halves, then the stream's.
    halves = [(words[2 * k] | words[2 * k + 1] << np.uint64(32)).tolist() for k in range(4)]
    states = []
    for seed_hi, seed_lo, inc_hi, inc_lo in zip(*halves):
        inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
        states.append((((inc + (seed_hi << 64 | seed_lo)) * _PCG_MULT + inc) & _MASK128, inc))
    return states


def _unit_vectors(generator: np.random.Generator, seeds: np.ndarray,
                  dimension: int) -> list[np.ndarray]:
    """Per uint64 seed, ``standard_normal(dimension)`` of
    ``Generator(PCG64(seed))``, L2-normalized (the first basis vector for a
    draw of norm 0).  Each seed's starting state is set on ``generator``,
    which then draws what a fresh generator would."""
    vectors = []
    for state, inc in _pcg64_states(seeds):
        generator.bit_generator.state = {"bit_generator": "PCG64",
                                         "state": {"state": state, "inc": inc},
                                         "has_uint32": 0, "uinteger": 0}
        vec = generator.standard_normal(dimension)
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            vec = np.zeros(dimension)
            vec[0] = 1.0
        else:
            vec = vec / norm
        vectors.append(vec)
    return vectors


class WordVectorProvider:
    """Deterministic unit vectors per token, seeded from a keyed hash.

    A token's vector is ``standard_normal`` from ``Generator(PCG64(seed))``,
    with ``seed`` the token's 8-byte blake2b digest read little-endian, then
    L2-normalized.  Identical tokens always map to the same vector and
    distinct tokens collide with negligible probability, which makes
    exact-match values provably maximal-similarity without any trained
    embedding model.
    """

    def __init__(self, dimension: int = 100):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self.dimension = dimension
        self._cache: dict[str, np.ndarray] = {}
        self._generator = np.random.Generator(np.random.PCG64(0))

    def vectors(self, tokens: list[str]) -> np.ndarray:
        """One row per token: its unit vector.  The tokens not seen before
        are seeded together, in one pass."""
        new = [tok for tok in dict.fromkeys(tokens) if tok not in self._cache]
        digests = b"".join(hashlib.blake2b(tok.encode("utf-8"), digest_size=8).digest()
                           for tok in new)
        seeds = np.frombuffer(digests, dtype="<u8").astype(np.uint64)
        self._cache.update(zip(new, _unit_vectors(self._generator, seeds, self.dimension)))
        rows = np.empty((len(tokens), self.dimension))
        for i, tok in enumerate(tokens):
            rows[i] = self._cache[tok]
        return rows


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
    vectors = np.zeros((len(vocab) + 1, provider.dimension))
    vectors[1:] = provider.vectors(list(vocab))
    mean = vectors[ids[:, 0]]
    for position in range(1, ids.shape[1]):
        mean += vectors[ids[:, position]]
    mean /= lengths[:, None]
    norm = np.sqrt(np.vecdot(mean, mean))
    keep = norm >= 1e-12
    out[np.array(filled)[keep]] = mean[keep] / norm[keep, None]
    return out
