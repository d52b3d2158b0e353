"""Sampling plumbing: seeded RNG, count splitting, frequency vectors, streams.

The RNG is numpy's Philox bit generator, a counter-based PRNG with a
documented algorithm, wrapped so that independent child generators can be
derived by index (SeedSequence spawn keys).  Identical seed and call sequence
reproduce outputs bit-exactly on any platform for a fixed numpy version.

poisson_split splits counts exactly by throwing balls into bins: every
sample gets one uniform bin label, so a split costs O(sum(y) + len(y)*s)
vectorized operations, not s binomial draws per count.

stream_from_distribution draws a non-uniform source through a guide table
(Chen & Asau 1974; Devroye 1986, sec. III.2): one uniform double per symbol
is mapped to its symbol by a table lookup, with a binary search of the CDF
only for the few doubles whose table bucket holds a CDF boundary.  Every
symbol is the one Generator.choice(n, p=probs) draws from the same double,
so the stream equals choice's output bit for bit and leaves the generator
in the same state.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Iterable, Sequence

import numpy as np

from .distances import check_integer, check_integers


class StreamExhausted(RuntimeError):
    """A finite sample stream ran out before the requested read completed."""


class SeededRng:
    """Philox-backed generator addressable by a path of child indexes.

    child(i) derives an independent generator; the (seed, path) pair fully
    determines the stream, so trials, stages, and the draws within a test
    can each get their own reproducible randomness.
    """

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        self.seed = check_integer(seed, "seed", 0)
        self.path = tuple(check_integer(i, "child index", 0) for i in path)
        seq = np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)
        self.generator = np.random.Generator(np.random.Philox(seq))

    def child(self, index: int) -> "SeededRng":
        return SeededRng(self.seed, self.path + (index,))

    def __repr__(self) -> str:
        return f"SeededRng(seed={self.seed}, path={self.path})"


# poisson_split draws at most SPLIT_CHUNK bin labels at a time, so beyond
# the parts it returns it holds two int64 arrays of at most SPLIT_CHUNK
# values (4 MiB), and one more array of parts when the labels take more
# than one chunk, however large a count is.  full_tester splits groups of
# at most SPLIT_CHUNK parts and samples, so a group's 2 MiB of int64 parts
# fit one core's L2 cache and each group's labels take one chunk.
SPLIT_CHUNK = 1 << 18


def poisson_split(y, s: int, rng: SeededRng) -> np.ndarray:
    """Split each count into s exchangeable parts that sum to it exactly.

    y is one count or a 1-D array of counts; the parts have shape
    y.shape + (s,).  Balls into bins: each of the y_i samples of count i
    gets one uniform bin label, rng.generator.integers(0, s), and part j is
    the number of labels equal to j.  So the parts of y_i are
    Multinomial(y_i, uniform over s bins), a part is marginally
    Binomial(y_i, 1/s), and when y_i ~ Poi(s*lam) the parts are i.i.d.
    Poi(lam).

    Labels are drawn for count 0's samples, then count 1's, and so on, at
    most SPLIT_CHUNK at a time, and each chunk's labels are counted over
    the bins of only the counts they span.  numpy's bounded integers do not depend on
    how a draw is cut into calls, so neither do the parts: splitting an
    array equals splitting its counts one by one, in order, from the same
    generator.  O(sum(y) + len(y)*s) time, against one binomial per part
    for a multinomial draw: about 7x faster at n=1000, s=17,329, mu=0.128,
    but about 5x slower at n=64, s=9,000, mu=64, where the samples
    outnumber the parts 64 to 1 (BENCH_split_balls.json).
    """
    s = check_integer(s, "s", 1)
    flat = check_integers(np.atleast_1d(y), "count", 0)
    size = flat.size * s
    offsets = np.arange(0, size, s, dtype=np.int64)  # bin 0 of each count
    bounds = np.zeros(flat.size + 1, dtype=np.int64)  # count i's first sample
    np.cumsum(flat, out=bounds[1:])
    total = int(bounds[-1])
    parts = None
    for first in range(0, total, SPLIT_CHUNK):
        last = min(first + SPLIT_CHUNK, total)
        # the counts with samples in [first, last) are lo..hi-1
        lo = int(bounds.searchsorted(first, side="right")) - 1
        hi = int(bounds.searchsorted(last, side="left"))
        balls = np.diff(bounds[lo:hi + 1].clip(first, last))  # their labels here
        labels = rng.generator.integers(0, s, size=last - first)
        labels += np.repeat(offsets[:hi - lo], balls)
        counted = np.bincount(labels, minlength=(hi - lo) * s)
        if parts is None and counted.size == size:
            parts = counted  # one chunk spans every count: no second array
        else:
            if parts is None:
                parts = np.zeros(size, dtype=np.int64)
            parts[lo * s:hi * s] += counted
    if parts is None:
        parts = np.zeros(size, dtype=np.int64)
    return parts.reshape(np.shape(y) + (s,))


def validate_frequency_vector(freq: np.ndarray) -> np.ndarray:
    return check_integers(freq, "count", 0)


def poissonize(samples: np.ndarray, n: int) -> np.ndarray:
    """Fold a 1-D array of symbols 1..n into per-symbol counts of length n."""
    n = check_integer(n, "n", 1)
    samples = check_integers(samples, "symbol", 1, n)
    return np.bincount(samples, minlength=n + 1)[1:].astype(np.int64)


class SymbolStream:
    """Block-readable stream of 1-based symbols with a consumption counter.

    Wraps either a block sampler (callable k -> array of k symbols, endless)
    or a finite 1-D integer array, read by slicing.  take(k) returns exactly
    k symbols or raises StreamExhausted; a float k is refused, not
    truncated.  A finite source of any other shape or dtype (floats,
    iterators) is rejected at construction (check_integers), and a sampler
    block of any other at the take that reads it.
    """

    def __init__(self, source: Callable[[int], np.ndarray] | Sequence[int] | np.ndarray):
        self._sampler: Callable[[int], np.ndarray] | None = None
        self._symbols: np.ndarray | None = None
        if callable(source):
            self._sampler = source
        else:
            # Read-only view: blocks handed out by take() alias this array.
            self._symbols = check_integers(source, "symbol").view()
            self._symbols.flags.writeable = False
        self.consumed = 0

    def take(self, k: int) -> np.ndarray:
        k = check_integer(k, "k", 0)
        if k == 0:
            return np.empty(0, dtype=np.int64)
        if self._sampler is not None:
            # no range pass: the callers check the range they need
            block = check_integers(self._sampler(k), "symbol")
        else:
            block = self._symbols[self.consumed:self.consumed + k]
        if block.size != k:
            raise StreamExhausted(f"stream exhausted after {block.size} of {k} symbols")
        self.consumed += k
        return block


# A non-uniform stream maps the doubles of a take to symbols at most
# TAKE_CHUNK at a time, so beyond the symbols it returns a take holds about
# 17 bytes per chunk entry (1.1 MiB), which fits one core's L2 cache.  Its
# guide table has a power of two of buckets, about 32 per symbol and at
# most GUIDE_CAP (2 MiB of int64), so a large n does not allocate hundreds
# of MB; past the cap more buckets hold a CDF boundary and more doubles
# take the binary search.
TAKE_CHUNK = 1 << 16
GUIDE_CAP = 1 << 18


def _checked_probs(dist) -> np.ndarray:
    """dist.probs as float64, with the checks Generator.choice makes on p."""
    probs = np.asarray(dist.probs, dtype=np.float64)
    if probs.ndim != 1 or probs.size < 1:
        raise ValueError("probabilities must be a nonempty 1-D array")
    total = float(probs.sum())
    if math.isnan(total):
        raise ValueError("probabilities contain NaN")
    if (probs < 0).any():
        raise ValueError(f"negative probability {probs.min()}")
    if abs(total - 1.0) > math.sqrt(np.finfo(np.float64).eps):
        raise ValueError(f"probabilities sum to {total}, not 1")
    return probs


def _guide_sampler(probs: np.ndarray,
                   generator: np.random.Generator) -> Callable[[int], np.ndarray]:
    """Sampler of k symbols, each searchsorted(cdf, u, "right") + 1 for one
    u = generator.random(), as Generator.choice(p=probs) draws them.

    cdf is choice's own (cumsum, divided by its last entry), scaled by the
    bucket count G, a power of two, so the scaling and u*G are exact and
    every comparison keeps its outcome.  Bucket j covers u*G in [j, j+1)
    and holds the symbol all of them get, the number of scaled CDF entries
    <= j plus 1, unless a scaled entry lies strictly inside the bucket;
    then it holds 0 and sends its u to the binary search: at most one u in
    32 while 32*n <= GUIDE_CAP.  Built in O(n + G) by repeating each symbol
    over the buckets up to its ceiled entry.
    """
    n = probs.size
    buckets = min(1 << (32 * n - 1).bit_length(), GUIDE_CAP)
    cdf = probs.cumsum()
    cdf /= cdf[-1]
    cdf *= buckets
    upper = np.ceil(cdf).astype(np.intp)
    lower = cdf.astype(np.intp)  # floor: the entries are nonnegative
    table = np.repeat(np.arange(1, n + 1, dtype=np.int64),
                      np.diff(upper, prepend=0))
    table[lower[lower != upper]] = 0

    def sampler(k: int) -> np.ndarray:
        symbols = np.empty(k, dtype=np.int64)
        for first in range(0, k, TAKE_CHUNK):
            u = generator.random(min(TAKE_CHUNK, k - first))
            u *= buckets
            block = symbols[first:first + u.size]
            np.take(table, u.astype(np.intp), out=block, mode="clip")
            boundary = block == 0
            if boundary.any():
                block[boundary] = cdf.searchsorted(u[boundary], side="right") + 1
        return symbols

    return sampler


def stream_from_distribution(dist, rng: SeededRng) -> SymbolStream:
    """Endless i.i.d. stream of symbols drawn from a DiscreteDistribution.

    A uniform dist draws generator.integers(1, n + 1).  Any other draws
    through a guide table (_guide_sampler), bit-identical to
    generator.choice(n, p=probs) + 1: the same symbols from the same
    doubles, one double per symbol, so a take of k leaves the generator
    where choice of size k would, however takes are cut.  choice's checks
    on probs (no NaN, no negative entry, a sum within sqrt(eps) of 1) are
    made here, once, so a bad dist fails at the build, not at a take.
    """
    probs = _checked_probs(dist)
    n = probs.size
    if np.allclose(probs, 1.0 / n, rtol=0.0, atol=1e-15):
        def sampler(k: int) -> np.ndarray:
            return rng.generator.integers(1, n + 1, size=k, dtype=np.int64)
    else:
        sampler = _guide_sampler(probs, rng.generator)
    return SymbolStream(sampler)


def _int64_array(values: list[int]) -> np.ndarray:
    """values as an int64 array; one outside int64 raises ValueError naming it."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        wide = next(v for v in values if not -(1 << 63) <= v < 1 << 63)
        raise ValueError(f"value {wide} does not fit in int64") from None


def read_frequency_vector(path) -> np.ndarray:
    """Read newline-delimited decimal counts; a line that is not a count
    that fits int64 raises ValueError."""
    with open(path) as fh:
        values = [int(line) for line in fh if line.strip()]
    return validate_frequency_vector(_int64_array(values))


def stream_from_lines(lines: Iterable[str]) -> SymbolStream:
    """Stream of the decimal symbols on non-blank text lines, parsed lazily.

    A take of k parses the next k non-blank lines and reads no line past
    them, so a caller reads only as much of a file or of stdin as it takes.
    A line that is not a decimal integer that fits int64 raises ValueError
    at the take that reaches it.
    """
    symbols = map(int, filter(str.strip, lines))
    return SymbolStream(lambda k: _int64_array(list(itertools.islice(symbols, k))))
