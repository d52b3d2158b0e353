"""Sampling plumbing: seeded RNG, exact Poisson draws, splitting, frequency vectors.

The RNG is numpy's Philox bit generator, a counter-based PRNG with a
documented algorithm, wrapped so that independent child generators can be
derived by index (SeedSequence spawn keys).  Identical seed and call sequence
reproduce outputs bit-exactly on any platform for a fixed numpy version.

Poisson and binomial draws use numpy's exact samplers (inversion for small
rates, transformed rejection for large ones); no normal approximation is
involved at any rate.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

import numpy as np


class StreamExhausted(RuntimeError):
    """A finite sample stream ran out before the requested read completed."""


class SeededRng:
    """Philox-backed generator addressable by a path of child indexes.

    child(i) derives an independent generator; the (seed, path) pair fully
    determines the stream, so trials, stages, and repeats can each get their
    own reproducible randomness.
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


def sample_perm_poisson(rates: np.ndarray, rng: SeededRng) -> np.ndarray:
    """Sample counts from a uniformly relabeled Poisson product.

    Permutes the rate vector uniformly at random, then draws each coordinate
    independently Poisson.  This is the null model for testers that must be
    label-blind.
    """
    rates = np.asarray(rates, dtype=np.float64)
    if rates.ndim != 1 or rates.size < 1:
        raise ValueError("rates must be a nonempty 1-D array")
    if not np.all(np.isfinite(rates)) or rates.min() < 0:
        raise ValueError("rates must be finite and nonnegative")
    perm = rng.generator.permutation(rates.size)
    return rng.generator.poisson(rates[perm]).astype(np.int64)


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
