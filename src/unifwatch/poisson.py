"""Sampling plumbing: seeded RNG, exact Poisson draws, splitting, frequency vectors.

The RNG is numpy's Philox bit generator, a counter-based PRNG with a
documented algorithm, wrapped so that independent child generators can be
derived by index (SeedSequence spawn keys).  Identical seed and call sequence
reproduce outputs bit-exactly on any platform for a fixed numpy version.
Philox is counter-based, so a child's stream is fixed by its key alone:
child_keys computes the keys of many children in one vectorized pass, and
child_permutations rewinds one generator to each instead of building one
per child.

Poisson and binomial draws use numpy's exact samplers (inversion for small
rates, transformed rejection for large ones); no normal approximation is
involved at any rate.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np


class StreamExhausted(RuntimeError):
    """A finite sample stream ran out before the requested read completed."""


class SeededRng:
    """Philox-backed generator addressable by a path of child indexes.

    child(i) derives an independent generator; the (seed, path) pair fully
    determines the stream, so trials, stages, and repeats can each get their
    own reproducible randomness.  child_keys(rng, first, count) gives the
    Philox keys of many children at once, the same pure function of (seed,
    path, index) as child, and child_permutations draws from those keys.
    """

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.path = tuple(int(i) for i in path)
        if any(i < 0 for i in self.path):
            raise ValueError("child indexes must be nonnegative")
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        self.generator = np.random.Generator(np.random.Philox(seq))

    def child(self, index: int) -> "SeededRng":
        return SeededRng(self.seed, self.path + (int(index),))

    def __repr__(self) -> str:
        return f"SeededRng(seed={self.seed}, path={self.path})"


# numpy's SeedSequence (pool of four 32-bit words) and its hash constants;
# child_keys repeats its arithmetic to address many children at once.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


def _words(value: int) -> list[int]:
    """value as SeedSequence reads it: little-endian 32-bit words, [0] for 0."""
    words = [value & _MASK32]
    while value >> 32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _seed_pool(entropy: list) -> list:
    """SeedSequence's mixed pool of at least _POOL_SIZE entropy words.

    A word is a Python int or a uint32 array; arrays broadcast, so one call
    mixes many entropies that differ only in their array words.  The hash
    constants advance the same way whatever the words hold, so they stay
    Python ints.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = (((_MIX_MULT_L * x) & _MASK32) - ((_MIX_MULT_R * y) & _MASK32)) & _MASK32
        return result ^ (result >> _XSHIFT)

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def child_keys(rng: SeededRng, first: int, count: int) -> np.ndarray:
    """Philox keys of rng.child(first + j) for j < count, as (count, 2) uint64.

    Row j is rng.child(first + j).generator.bit_generator.state's key: the
    same pure function of (seed, path, index) as child, computed for every
    index in one vectorized uint32 pass of SeedSequence's algorithm instead
    of one SeedSequence and one Philox per child.
    """
    first, count = int(first), int(count)
    if first < 0:
        raise ValueError("child indexes must be nonnegative")
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    # a child's spawn key is never empty, so the seed is padded to the pool
    seed_words = _words(rng.seed)
    prefix = seed_words + [0] * (_POOL_SIZE - len(seed_words))
    for index in rng.path:
        prefix += _words(index)
    keys = np.empty((count, 2), dtype=np.uint64)
    start = first
    while start < first + count:
        # a run of indexes that share every word above the lowest
        stop = min(first + count, ((start >> 32) + 1) << 32)
        low = np.arange(start & _MASK32, (start & _MASK32) + (stop - start),
                        dtype=np.uint32)
        high = _words(start)[1:]
        pool = _seed_pool(prefix + [low] + high)  # low mixes into every word
        # generate_state(2, uint64): four output words, two per key word
        hash_const = _INIT_B
        state = []
        for i in range(4):
            value = pool[i % _POOL_SIZE] ^ hash_const
            hash_const = (hash_const * _MULT_B) & _MASK32
            value = (value * hash_const) & _MASK32
            state.append((value ^ (value >> _XSHIFT)).astype(np.uint64))
        rows = keys[start - first:stop - first]
        rows[:, 0] = state[0] | (state[1] << np.uint64(32))
        rows[:, 1] = state[2] | (state[3] << np.uint64(32))
        start = stop
    return keys


def child_permutations(rng: SeededRng, first: int, count: int,
                       n: int) -> Iterator[np.ndarray]:
    """Iterate rng.child(first + j).generator.permutation(n) for j < count.

    Bit-identical to building each child, but the keys come from one
    child_keys pass, made (and checked) at the call, and one Philox
    generator is rewound to each key (counter 0, empty buffer, as a fresh
    Philox starts) instead of built anew.
    """
    keys = child_keys(rng, first, count)
    bit_generator = np.random.Philox(key=0)
    generator = np.random.Generator(bit_generator)
    # a fresh Philox's state, which only the key tells apart from a child's;
    # the setter copies it, so one dict serves every key
    state = bit_generator.state

    def permutations():
        for key in keys:
            state["state"]["key"] = key
            bit_generator.state = state
            yield generator.permutation(n)

    return permutations()


def sample_poisson(rate: float, rng: SeededRng) -> int:
    """One exact Poisson draw.  Rejects NaN, negative, or infinite rates."""
    rate = float(rate)
    if not math.isfinite(rate) or rate < 0:
        raise ValueError(f"rate must be finite and nonnegative, got {rate}")
    return int(rng.generator.poisson(rate))


def poisson_split(y: int, s: int, rng: SeededRng) -> np.ndarray:
    """Split a count y into s exchangeable parts that sum to y exactly.

    Multinomial(y, uniform over s bins), drawn via sequential binomials
    internally, so a part is marginally Binomial(y, 1/s); when y ~ Poi(s*lam)
    the parts are i.i.d. Poi(lam).  O(s) time, not O(y).
    """
    y = int(y)
    s = int(s)
    if y < 0:
        raise ValueError(f"y must be nonnegative, got {y}")
    if s < 1:
        raise ValueError(f"s must be positive, got {s}")
    if s == 1:
        return np.array([y], dtype=np.int64)
    return rng.generator.multinomial(y, np.full(s, 1.0 / s)).astype(np.int64)


def validate_frequency_vector(freq: np.ndarray) -> np.ndarray:
    freq = np.asarray(freq)
    if freq.ndim != 1 or freq.size < 1:
        raise ValueError("frequency vector must be a nonempty 1-D array")
    if not np.issubdtype(freq.dtype, np.integer):
        raise ValueError("frequency vector must hold integers")
    if freq.min() < 0:
        raise ValueError(f"negative count {freq.min()}")
    return freq.astype(np.int64)


def poissonize(samples: np.ndarray, n: int) -> np.ndarray:
    """Fold a sequence of 1-based symbols into per-symbol counts of length n."""
    n = int(n)
    if n < 1:
        raise ValueError("n must be >= 1")
    samples = np.asarray(samples)
    if samples.size and not np.issubdtype(samples.dtype, np.integer):
        raise ValueError("symbols must be integers")
    if samples.size and (samples.min() < 1 or samples.max() > n):
        raise ValueError(f"symbol out of range 1..{n}")
    return np.bincount(samples - 1, minlength=n).astype(np.int64) if samples.size \
        else np.zeros(n, dtype=np.int64)


def depoissonize(freq: np.ndarray, rng: SeededRng) -> np.ndarray:
    """Expand counts back into a uniformly shuffled sequence of symbols."""
    freq = validate_frequency_vector(freq)
    symbols = np.repeat(np.arange(1, freq.size + 1, dtype=np.int64), freq)
    return rng.generator.permutation(symbols)


class SymbolStream:
    """Block-readable stream of 1-based symbols with a consumption counter.

    Wraps either a block sampler (callable k -> array of k symbols, endless)
    or a finite 1-D integer array, read by slicing.  take(k) returns exactly
    k symbols or raises StreamExhausted.  A finite source of any other shape
    or dtype (floats, iterators) is rejected at construction.
    """

    def __init__(self, source: Callable[[int], np.ndarray] | Sequence[int] | np.ndarray):
        self._sampler: Callable[[int], np.ndarray] | None = None
        self._symbols: np.ndarray | None = None
        if callable(source):
            self._sampler = source
        else:
            symbols = np.asarray(source)
            if symbols.ndim != 1:
                raise ValueError("a finite stream needs a 1-D array of symbols")
            if symbols.size and not np.issubdtype(symbols.dtype, np.integer):
                raise ValueError(f"symbols must be integers, got dtype {symbols.dtype}")
            # Read-only view: blocks handed out by take() alias this array.
            self._symbols = symbols.astype(np.int64, copy=False).view()
            self._symbols.flags.writeable = False
        self.consumed = 0

    def take(self, k: int) -> np.ndarray:
        k = int(k)
        if k < 0:
            raise ValueError("k must be nonnegative")
        if k == 0:
            return np.empty(0, dtype=np.int64)
        if self._sampler is not None:
            block = np.asarray(self._sampler(k), dtype=np.int64)
            if block.size != k:
                raise StreamExhausted(f"sampler returned {block.size} of {k} symbols")
        else:
            block = self._symbols[self.consumed:self.consumed + k]
            if block.size < k:
                raise StreamExhausted(
                    f"stream exhausted after {block.size} of {k} symbols")
        self.consumed += k
        return block


def stream_from_distribution(dist, rng: SeededRng) -> SymbolStream:
    """Endless i.i.d. stream of symbols drawn from a DiscreteDistribution."""
    probs = dist.probs
    n = probs.size
    if np.allclose(probs, 1.0 / n, rtol=0.0, atol=1e-15):
        def sampler(k: int) -> np.ndarray:
            return rng.generator.integers(1, n + 1, size=k, dtype=np.int64)
    else:
        def sampler(k: int) -> np.ndarray:
            return rng.generator.choice(n, size=k, p=probs).astype(np.int64) + 1
    return SymbolStream(sampler)


def read_frequency_vector(path) -> np.ndarray:
    """Read newline-delimited decimal counts."""
    with open(path) as fh:
        values = [int(line) for line in fh if line.strip()]
    return validate_frequency_vector(np.asarray(values, dtype=np.int64))


def read_symbols(lines: Iterable[str]) -> np.ndarray:
    """Parse newline-delimited 1-based symbols from text lines."""
    values = [int(line) for line in lines if line.strip()]
    return np.asarray(values, dtype=np.int64)
