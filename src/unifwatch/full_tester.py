"""Full tester: is a count vector Poi(mu)^n or a relabeled non-uniform product?

Input is one frequency vector y where y_i ~ Poi(s*lambda_i) independently,
with the alternative promising that the rate profile (lambda_i) is a uniform
relabeling of something far from the constant profile (mu, ..., mu).  Each
count is split exactly into s exchangeable parts, so every coordinate yields
s i.i.d. Poi(lambda_i) looks.  A random subset of coordinates then pools
into a Poisson mixture, and the one-shot interval comparison applies.

The split throws balls into bins: poisson.poisson_split gives each sample
of coordinate 0, then of coordinate 1, and so on, one uniform bin label
drawn from rng.child(0), and a part is the number of labels in its bin.
That costs O(sum(y) + n*s) vectorized operations, where one multinomial
draw per coordinate costs s binomials, so it is cheap while the counts
are small against s (mu of a few) and dearer at large mu.

Subsets are shared across sizes: each repeat draws one permutation and grows
a prefix k = 1..n, testing every interval at threshold tau/k.  That reuses
one permutation for all k instead of resampling a fresh subset per
(size, interval, repeat) triple.  literal_full_tester in tests/reference.py
runs the literal per-triple scheme as a brute-force reference.

The scan is exact but compares only the live window.  Let L be one more
than the largest part value the split keeps.  A cell [a, b] with a >= L
counts 0 for every k and repeat, so whether it fires depends on k alone and
one flag per k decides all of them.  The cells [a, b] with a < L <= b all
count [a, L-1], so each row's tail folds into its cell [a, L-1], with the
tightest of the tail's bounds.  Each repeat then compares the L(L+1)/2
cells of the live triangle per k, as one matrix product of the subset
prefix sums and two comparisons, instead of the (x_max+1)(x_max+2)/2 cells
of the full triangle.  Only the bounds those cells need are built
(_live_bounds), one K_BLOCK block of k at a time, when repeat 0 reaches
the block.  A rejection names its repeat and k; the witness is then found
by interval_tester.first_violation on that subset's prefix counts over
all of [0, x_max], the same scan the interval tester runs.

Every repeat draws its permutation, in order, from rng.child(1).  Repeat 0
runs alone, so a rejection there builds no later block and draws no later
permutation.  Once it accepts, no zero-count cell fires at any k, and the
other repeats need not all be scanned.  Whatever the permutation, a live
cell's count at size k lies between the sums of the k smallest and of the
k largest per-coordinate counts of that cell (the sorted-count envelope).
A (k, cell) pair is reachable when that envelope meets one of its bounds;
no other pair can fire in any repeat.  When no pair is reachable the
tester accepts at once, having drawn one permutation.  Otherwise it scans
the later repeats over the reachable rectangle only (k up to the largest
reachable k, and the cells with a reachable pair) in batches of 1, 2,
4, ... repeats, up to about BATCH_COUNTS counts each: one
Generator.permuted call on rows of arange(n), whose rows take the same
Fisher-Yates draws as one permutation(n) call each, then one prefix sum
of the subsets up to that k, one matrix product onto the reachable cells
and two comparisons.  The first repeat of a batch with a violation holds
the lowest witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .distances import check_integer, check_real, hellinger_sq_bernoulli_bounds
from .interval_tester import (ACCEPT, REJECT, Verdict, first_violation,
                              interval_mass_matrix, poisson_pmf_table)
from .poisson import (SPLIT_CHUNK, SeededRng, poisson_split,
                      validate_frequency_vector)

# Repeat 0 builds the live bounds for K_BLOCK subset sizes at a time, so a
# rejection at a small k builds only its own block; intervals_evaluated
# counts whole blocks scanned.
K_BLOCK = 128

# The repeats after the first are scanned in batches whose (repeat, k, cell)
# float64 counts hold at most about this many values, 0.5 MiB, so a batch's
# working set stays the same size whatever n, r and L are.
BATCH_COUNTS = 1 << 16


@dataclass(frozen=True)
class FullTesterParams:
    """Operating point: split factor s, repeats r, ceiling x_max, threshold tau.

    n, s, r and x_max are stored as ints, mu and tau as finite floats; a
    float or bool integer, or a bool or string real, is refused."""

    n: int
    mu: float
    tau: float
    s: int
    r: int
    x_max: int

    def __post_init__(self):
        for name, low in (("n", 2), ("s", 1), ("r", 1), ("x_max", 0)):
            object.__setattr__(self, name, check_integer(getattr(self, name), name, low))
        object.__setattr__(self, "mu", check_real(self.mu, "mu", ge=0))
        object.__setattr__(self, "tau", check_real(self.tau, "tau", gt=0))


def derive_full_params(n: int, mu: float, delta: float,
                       r: int | None = None,
                       s: int | None = None,
                       x_max: int | None = None,
                       tau: float | None = None) -> FullTesterParams:
    """Derive the operating point for domain size n and failure budget delta.

    With L = ln(max(n, 3)):
        x_max = ceil(2*mu + 6*(L + ln(20/delta)))
        tau   = 1/(16*L^2)
        r     = ceil(8*ln(2/delta)*n*L)
        s     = ceil((1/tau)*ln(8*(x_max+1)^2*n*r/delta))

    Any constant can be overridden (s is derived from the final r, so a
    downward r override shrinks s consistently).  The derived combination
    must keep the union-bound self-check
    n*r*(x_max+1)^2 * 2*exp(-s*tau) <= delta/2; overrides that break it are
    rejected.  r dominates runtime and may be overridden downward for
    desk-scale experiments; completeness is unaffected (fewer tests), only
    the soundness repetition margin shrinks.  A float or bool n, r, s or
    x_max, or a bool or string mu, delta or tau, is refused, not truncated
    or cast.
    """
    n = check_integer(n, "n", 2)
    mu = check_real(mu, "mu", ge=0)
    delta = check_real(delta, "delta", gt=0, lt=1)
    big_l = math.log(max(n, 3))
    if x_max is None:
        x_max = math.ceil(2.0 * mu + 6.0 * (big_l + math.log(20.0 / delta)))
    if tau is None:
        tau = 1.0 / (16.0 * big_l * big_l)
    if r is None:
        r = math.ceil(8.0 * math.log(2.0 / delta) * n * big_l)
    try:
        r, x_max = check_integer(r, "r", 1), check_integer(x_max, "x_max", 0)
        tau = check_real(tau, "tau", gt=0)
    except ValueError as err:
        raise ValueError(f"r must be >= 1, x_max >= 0 and tau > 0 ({err})") from None
    if s is None:
        s = math.ceil((1.0 / tau) * math.log(8.0 * (x_max + 1) ** 2 * n * r / delta))
    params = FullTesterParams(n=n, mu=mu, tau=tau, s=s, r=r, x_max=x_max)
    failure = n * params.r * (params.x_max + 1) ** 2 * 2.0 * math.exp(-params.s * params.tau)
    if failure > delta / 2.0:
        raise ValueError(
            f"union-bound self-check failed: total false-rejection mass {failure:.3g} "
            f"> delta/2 = {delta / 2.0:.3g}; raise s or lower r/x_max")
    return params


def subset_thresholds(params: FullTesterParams) -> np.ndarray:
    """Rejection threshold used at each subset size k = 1..n: exactly tau/k."""
    return params.tau / np.arange(1, params.n + 1, dtype=np.float64)


def _split_histograms(params: FullTesterParams, freq: np.ndarray,
                      rng: SeededRng) -> np.ndarray:
    """Validate freq, split each count into s parts, histogram the parts.

    Returns H with H[i, x] = number of parts of coordinate i equal to x,
    for x <= x_max; larger parts land in no interval and are dropped.
    poisson_split splits groups of coordinates with at most SPLIT_CHUNK
    parts and SPLIT_CHUNK samples each (or one coordinate), drawing the
    labels of coordinate 0's samples first from rng, so H does not depend
    on the grouping.  Each group is histogrammed with one np.minimum, which
    sends every part above x_max to column x_max+1, and one bincount offset
    by coordinate; that column is then dropped.  O(sum(freq) + n*s) time.
    """
    freq = validate_frequency_vector(freq)
    if freq.size != params.n:
        raise ValueError(f"expected {params.n} counts, got {freq.size}")
    if params.s * params.mu > 1e12:
        raise ValueError(f"s*mu = {params.s * params.mu:.3g} too large to split safely")
    width = params.x_max + 1
    hist = np.empty((params.n, width), dtype=np.float64)
    ends = np.cumsum(freq)  # samples of coordinates 0..i
    most = max(1, SPLIT_CHUNK // params.s)
    first = 0
    while first < params.n:
        # at most SPLIT_CHUNK parts and SPLIT_CHUNK samples, or one coordinate
        fits = np.searchsorted(ends, ends[first] - freq[first] + SPLIT_CHUNK, side="right")
        last = min(first + most, max(first + 1, int(fits)))
        parts = poisson_split(freq[first:last], params.s, rng)
        rows = last - first
        np.minimum(parts, width, out=parts)
        parts += np.arange(0, rows * (width + 1), width + 1)[:, None]
        counts = np.bincount(parts.ravel(), minlength=rows * (width + 1))
        hist[first:last] = counts.reshape(rows, width + 1)[:, :width]
        first = last
    return hist


def _live_cells(live: int) -> np.ndarray:
    """How to count the live triangle's cells, a <= b < live in (a, b) order.

    With P the prefix sums of a subset's live histogram over x (P[j] =
    parts below j), the counts of all cells are P @ diff: column (a, b) of
    diff is +1 at row b+1 and -1 at row a.  Integer counts make the product
    exact.
    """
    cell_a, cell_b = np.triu_indices(live)
    columns = np.arange(cell_a.size)
    diff = np.zeros((live + 1, cell_a.size))
    diff[cell_b + 1, columns] = 1.0
    diff[cell_a, columns] = -1.0
    return diff


def _live_bounds(params: FullTesterParams, mu_mass: np.ndarray, live: int,
                 k0: int, k1: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rejection bounds on raw counts of the live cells, for k in k0+1..k1.

    A count fires at size k when it is at most lo*s*k or at least hi*s*k,
    (lo, hi) from hellinger_sq_bernoulli_bounds at tau/k, so each repeat
    tests raw prefix-sum differences with two comparisons and no square
    roots.  lo and hi hold one row per k and one column per cell
    a <= b < live in (a, b) order, bit-identical to bounds built over the
    whole square, since the formula is elementwise.

    The cells [a, b] with a < live <= b all count [a, live-1], so the last
    cell of row a takes the max of lo and the min of hi over b >= live-1.
    hi at b = live-1 alone would not do: u_hi is not monotone in the mass
    in floating point.

    zero_fires[k] says whether a cell a >= live, whose count is always 0,
    fires at k.  Cell [live, x_max] decides it: u_lo = sqrt(mu)*c -
    sqrt(1-mu)*spread is monotone in the mass mu through correctly rounded
    operations, no such cell has more mass (its prefix-sum difference spans
    theirs), and hi <= 0 forces spread = 0, so lo >= 0 at the same cell.
    """
    threshold = subset_thresholds(params)[k0:k1, None]
    cell_a, cell_b = np.triu_indices(live)
    lo, hi = hellinger_sq_bernoulli_bounds(mu_mass[cell_a, cell_b], threshold)
    tail_lo, tail_hi = hellinger_sq_bernoulli_bounds(mu_mass[:live, live - 1:],
                                                     threshold[:, :, None])
    last = cell_b == live - 1  # the last cell of each row, rows in order
    lo[:, last] = tail_lo.max(axis=2)
    hi[:, last] = tail_hi.min(axis=2)
    scale = params.s * np.arange(k0 + 1, k1 + 1, dtype=np.float64)[:, None]
    lo *= scale
    hi *= scale
    # [live, x_max], or no cell at all when live > x_max
    zero_lo, _ = hellinger_sq_bernoulli_bounds(mu_mass[live:live + 1, -1], threshold)
    return lo, hi, (zero_lo >= 0.0).any(axis=1)


def run_full_tester(params: FullTesterParams, freq: np.ndarray,
                    rng: SeededRng) -> Verdict:
    """Run the full tester on one frequency vector.

    Rejection takes the lowest (repeat, k, a, b) witness, so the verdict is a
    pure function of (params, freq, rng seed).  Total interval evaluations
    are bounded by r*n*(x_max+1)*(x_max+2)/2 and reported on the verdict.
    Repeat j permutes with the (j+1)-th permutation(n) of rng.child(1).

    Only the live window is compared (see the module docstring): with L =
    1 + the largest part value the split kept, or 0 when it kept none, a
    repeat compares the L(L+1)/2 cells a <= b < L per k, where cell
    [a, L-1] also stands for the tail b >= L of its row, and one flag per k
    decides all the zero-count cells a >= L, which come after the rows
    a < L in (k, a, b) order.  Repeat 0 builds the bounds of those cells
    (_live_bounds) per K_BLOCK block of k as it reaches them, so a
    rejection in an early block never builds the later ones.

    After repeat 0 accepts, the sorted-count envelope proves every pair it
    cannot reach silent in all later repeats.  Draws: a rejection at
    repeat 0, or an accept with no reachable pair, draws one permutation;
    an accept with a reachable pair draws all r; a later rejection draws
    up to the end of its batch.  No caller sees these draws: child(1) is
    the tester's own generator.  intervals_evaluated still counts every
    cell of each block scanned, r*n*(x_max+1)*(x_max+2)/2 on accept: a
    cell proved silent without a comparison is decided all the same.  The
    witness is the lowest (a, b) that first_violation finds in the
    rejecting subset's prefix counts at threshold tau/k and scale s*k.
    """
    hist = _split_histograms(params, freq, rng.child(0))
    n, width = params.n, params.x_max + 1
    per_k_intervals = width * (width + 1) // 2
    mu_mass = interval_mass_matrix(poisson_pmf_table(params.mu, params.x_max))
    present = np.flatnonzero(hist.any(axis=0))
    live = int(present[-1]) + 1 if present.size else 0
    diff = _live_cells(live)
    row_prefix = np.zeros((n, live + 1))  # parts of coordinate i below x
    np.cumsum(hist[:, :live], axis=1, out=row_prefix[:, 1:])

    def reject(rep: int, k: int, prefix_row: np.ndarray) -> Verdict:
        """The lowest witness of repeat rep at size k, from the subset's
        live prefix counts; every count at x >= live equals the last."""
        # count whole K_BLOCK blocks, up to the one holding the witness
        evaluated = (rep * n + min(-(-k // K_BLOCK) * K_BLOCK, n)) * per_k_intervals
        row = np.pad(prefix_row, (0, width - live), mode="edge")
        witness = first_violation(row, mu_mass, subset_thresholds(params)[k - 1],
                                  params.s * k)
        return Verdict(outcome=REJECT, intervals_evaluated=evaluated,
                       witness=replace(witness, repeat=rep, subset_size=k))

    generator = rng.child(1).generator  # every repeat's permutation, in order
    prefix = np.cumsum(row_prefix[generator.permutation(n)], axis=0)  # (k, x)
    blocks = []  # (lo, hi) of the live cells, one K_BLOCK block of k each
    for k0 in range(0, n, K_BLOCK):
        k1 = min(k0 + K_BLOCK, n)
        lo, hi, zero_fires = _live_bounds(params, mu_mass, live, k0, k1)
        counts = prefix[k0:k1] @ diff                             # (k, cell)
        fired = ((counts <= lo) | (counts >= hi)).any(axis=1) | zero_fires
        if fired.any():
            k_off = int(np.argmax(fired))
            return reject(0, k0 + k_off + 1, prefix[k0 + k_off])
        blocks.append((lo, hi))

    # Repeat 0 accepted, so no zero-count cell fires at any k, and a later
    # repeat can fire only at a (k, cell) pair whose sorted-count envelope,
    # the sums of the k smallest and k largest per-coordinate counts,
    # meets a bound.
    lo_cells, hi_cells = (np.concatenate(side) for side in zip(*blocks))
    ranked = np.sort(row_prefix @ diff, axis=0)   # each cell's per-coordinate counts
    reach = ((np.cumsum(ranked, axis=0) <= lo_cells)
             | (np.cumsum(ranked[::-1], axis=0) >= hi_cells))   # (k, cell)
    accept = Verdict(outcome=ACCEPT, intervals_evaluated=params.r * n * per_k_intervals)
    if not reach.any():
        return accept
    # The later repeats count only the reachable rectangle, k <= top and the
    # cells with a reachable pair, a batch of repeats at a time.  Batches
    # grow 1, 2, 4, ... so an early rejection scans little more than it
    # needs, up to about BATCH_COUNTS counts.
    top = int(np.flatnonzero(reach.any(axis=1))[-1]) + 1
    columns = np.flatnonzero(reach.any(axis=0))
    # take, unlike [:, columns], keeps C order for the row-wise comparisons
    diff, lo_cells, hi_cells = (np.take(table, columns, axis=1)
                                for table in (diff, lo_cells[:top], hi_cells[:top]))
    most = max(1, BATCH_COUNTS // (top * columns.size))
    rep, size = 1, 1
    while rep < params.r:
        size = min(size, most, params.r - rep)
        batch = generator.permuted(np.tile(np.arange(n), (size, 1)), axis=1)
        prefix = np.cumsum(row_prefix[batch[:, :top]], axis=1).reshape(size * top, live + 1)
        counts = (prefix @ diff).reshape(size, top, columns.size)  # (repeat, k, cell)
        below, above = counts <= lo_cells, counts >= hi_cells
        if below.any() or above.any():
            viol = below | above
            j, k_off = divmod(int(np.argmax(viol.any(axis=2))), top)
            return reject(rep + j, k_off + 1, prefix[j * top + k_off])
        rep += size
        size *= 2
    return accept
