"""Matrix composition, left-fold powers, and the convergence engine.

Matrices store the membership and non-membership components as two
float64 numpy arrays. Entries of a freshly ingested matrix satisfy the
IFN sum constraint; intermediate powers under p > 1 may not, and such
violations are counted, never clamped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Union

import numpy as np

from .errors import DimensionMismatchError, DomainError, ZeroPError
from .ifn import ComponentPair, Ifn

# Threshold above which mu + nu > 1 counts as a real closure violation
# rather than float drift.
SUM_VIOLATION_TOL = 1e-9

# Bytes of float64 buffer per chunk of rows in _reduce_full. The buffer
# and the tile of the right factor it meets, about 1 MB together, stay
# inside a 2 MB per-core L2 cache, and no composition allocates an n^3
# array.
CHUNK_BYTES = 512 * 2**10

# Bytes of (rows, t, c) terms per row group of the pruned kernel
# (_reduce_rows), over which its miss share is counted.
BLOCK_BYTES = 8 * 2**20

# Pruned reductions in compose (see _reduce_rows): candidate t per row
# of the left factor and per column of the right one; the shortest and
# the longest reduction that is pruned; the rows probed before pruning
# a call; and the share of entries needing a full reduce above which
# the call, or a row group, is reduced in full. PRUNE_MAX_T is a size
# rule: pruning at t = 300 left the benchmark process's peak RSS about
# 6 MB higher in most runs, and no change to the kernel's own
# allocations removed that (CHANGES.md).
PRUNE_K = 8
PRUNE_MIN_T = 8 * PRUNE_K
PRUNE_MAX_T = 200
PRUNE_PROBE_ROWS = 8
PRUNE_MAX_MISS = 0.05


@dataclass(frozen=True)
class GeneralizedMean:
    """Max/min composition via the weighted power mean with weight lam."""

    lam: float
    p: float

    def __post_init__(self):
        if not (math.isfinite(self.lam) and math.isfinite(self.p)):
            raise DomainError(
                f"lambda and p must be finite, got lambda={self.lam}, p={self.p}"
            )
        if not (0.0 <= self.lam <= 1.0):
            raise ValueError(f"lambda must lie in [0, 1], got {self.lam}")
        if self.p == 0:
            raise ZeroPError("p must be nonzero")
        # compose maps s = x^p back by s^(1/p); 1/p overflows for |p|
        # below about 5.6e-309.
        if not math.isfinite(1.0 / self.p):
            raise DomainError(f"1/p must be finite, got p={self.p}")


@dataclass(frozen=True)
class ConvexCombo:
    """Convex combination of max-min and arithmetic-mean composition."""

    lam: float

    def __post_init__(self):
        if not math.isfinite(self.lam):
            raise DomainError(f"lambda must be finite, got lambda={self.lam}")
        if not (0.0 <= self.lam <= 1.0):
            raise ValueError(f"lambda must lie in [0, 1], got {self.lam}")

    @property
    def alpha(self):
        return (1.0 + self.lam) / 2.0


Operator = Union[GeneralizedMean, ConvexCombo]


def arith_mean():
    return GeneralizedMean(0.5, 1.0)


def root_power(p):
    if p <= 0:
        raise ValueError(f"root-power preset needs p > 0, got {p}")
    return GeneralizedMean(0.5, p)


def convex_mean(lam):
    return GeneralizedMean(lam, 1.0)


def harmonic():
    return GeneralizedMean(0.5, -1.0)


class Ifm:
    """A rectangular grid of <mu, nu> pairs.

    Each component is a private, read-only copy of the input. Adding
    0.0 makes that copy and turns -0.0 into +0.0, so no matrix holds a
    negative zero and every max or min over its entries is the same
    float in any order.
    """

    __slots__ = ("mu", "nu")

    def __init__(self, mu, nu):
        mu = np.asarray(mu, dtype=np.float64) + 0.0
        nu = np.asarray(nu, dtype=np.float64) + 0.0
        if mu.ndim != 2 or mu.shape != nu.shape:
            raise DimensionMismatchError(
                f"component grids must share a 2-D shape, got {mu.shape} and {nu.shape}"
            )
        if mu.size == 0:
            raise DimensionMismatchError("matrix must be non-empty")
        # min and max propagate NaN, so NaN fails the range test.
        if not (mu.min() >= 0 and mu.max() <= 1 and nu.min() >= 0 and nu.max() <= 1):
            raise ValueError("all components must be finite and lie in [0, 1]")
        self.mu = mu
        self.nu = nu
        self.mu.setflags(write=False)
        self.nu.setflags(write=False)

    @classmethod
    def from_pairs(cls, grid):
        """Build from a nested sequence of (mu, nu) pairs, validating
        each entry as an IFN."""
        rows = [[Ifn(m, v) for m, v in row] for row in grid]
        if len({len(r) for r in rows}) != 1:
            raise DimensionMismatchError("ragged rows")
        return cls(
            [[e.mu for e in row] for row in rows],
            [[e.nu for e in row] for row in rows],
        )

    @classmethod
    def universal(cls, n):
        """The n x n matrix with every entry <1, 0>."""
        return cls(np.ones((n, n)), np.zeros((n, n)))

    @property
    def rows(self):
        return self.mu.shape[0]

    @property
    def cols(self):
        return self.mu.shape[1]

    def is_square(self):
        return self.rows == self.cols

    def entry(self, i, j):
        """The (i, j) entry (0-based) as an Ifn when valid, else a
        ComponentPair."""
        m, v = float(self.mu[i, j]), float(self.nu[i, j])
        try:
            return Ifn(m, v)
        except ValueError:
            return ComponentPair(m, v)

    def sum_violations(self, tol=SUM_VIOLATION_TOL):
        """Number of entries with mu + nu > 1 beyond tol."""
        return int((self.mu + self.nu > 1.0 + tol).sum())

    def __eq__(self, other):
        if not isinstance(other, Ifm):
            return NotImplemented
        return (
            self.mu.shape == other.mu.shape
            and np.array_equal(self.mu, other.mu)
            and np.array_equal(self.nu, other.nu)
        )

    def __hash__(self):
        return hash((self.mu.tobytes(), self.nu.tobytes()))

    def __repr__(self):
        body = "; ".join(
            " ".join(f"<{self.mu[i, j]:g},{self.nu[i, j]:g}>" for j in range(self.cols))
            for i in range(self.rows)
        )
        return f"Ifm[{self.rows}x{self.cols}: {body}]"


class _Right:
    """One component of a right factor, prepared once for all the
    products that reduce over it with `reduce`:

    - y, its terms;
    - tile, `rows` copies of y side by side, so that entry
      [t, i * c + j] is y[t, j]; rows is the number of left-factor rows
      in one _reduce_full chunk, at most r, the left factor's row count;
    - top, the candidate partition of y's columns for _reduce_rows, or
      None where a reduction over t terms is not pruned.
    """

    __slots__ = ("y", "rows", "tile", "top")

    def __init__(self, y, r, reduce):
        t, c = y.shape
        self.y = y
        self.rows = max(1, min(r, CHUNK_BYTES // (8 * t * c)))
        # np.concatenate has a third of np.tile's fixed cost, which a
        # fold of tiny matrices pays once per component.
        self.tile = np.concatenate([y] * self.rows, axis=1)
        self.top = None
        if PRUNE_MIN_T <= t <= PRUNE_MAX_T:
            top, val, nxt = _top(y.T, reduce is np.maximum)
            self.top = top.T.copy(), val.T.copy(), nxt


def _reduce_full(reduce, combine, x, right, out=None):
    """out[i, j] = reduce over t of combine(x[i, t], y[t, j]), over
    every t, where y is right.y.

    Rows of x are taken right.rows at a time, a chunk whose buffer
    fits CHUNK_BYTES (or holds one row). repeat lays a chunk out as
    a contiguous (t, rows * c) buffer with entry [t, i * c + j] =
    x[i, t]; combine(buf, tile, out=buf) meets it with right.tile in
    place, and the reduce over its first axis writes the chunk's
    (rows, c) view of out. Every ufunc thus runs one long contiguous
    inner loop, where broadcasting x[:, :, None] against y would run
    r * t loops of c elements.
    """
    r, t = x.shape
    c = right.y.shape[1]
    if out is None:
        out = np.empty((r, c))
    for i in range(0, r, right.rows):
        xb = x[i:i + right.rows]
        buf = xb.T.repeat(c, axis=1)
        combine(buf, right.tile[:, :buf.shape[1]], out=buf)
        reduce.reduce(buf.reshape(t, len(xb), c), axis=0, out=out[i:i + len(xb)])
    return out


def _top(v, largest):
    """For each row of v: PRUNE_K column indices that include every
    entry beyond v', the (PRUNE_K + 1)-th largest (or smallest) entry;
    the entries at those indices; and v'. The rest of the row lies on
    the other side of v'. A row with ties at v' has fewer entries
    beyond it, and its list is padded with column 0, a harmless extra
    candidate."""
    r, n = v.shape
    kth = n - PRUNE_K - 1 if largest else PRUNE_K
    nxt = np.partition(v, kth, axis=1)[:, kth:kth + 1]
    # flatnonzero is several times faster than a 2-D nonzero.
    flat = np.flatnonzero(v > nxt if largest else v < nxt)
    rows = flat // n
    counts = np.bincount(rows, minlength=r)
    top = np.zeros((r, PRUNE_K), dtype=np.intp)
    top[rows, np.arange(len(flat)) - (np.cumsum(counts) - counts)[rows]] = flat - rows * n
    return top, v[np.arange(r)[:, None], top], nxt[:, 0]


def _reduce_rows(reduce, combine, x, right):
    """out[i, j] = reduce over t of combine(x[i, t], y[t, j]), where y
    is right.y, reduce is np.maximum or np.minimum and combine is
    monotone non-decreasing in both arguments.

    Where right carries a partition (reductions of PRUNE_MIN_T to
    PRUNE_MAX_T terms), entries are proven by a certificate (the
    threshold rule of top-k aggregation), written here for max; min is
    the mirror image. Let S_i hold the PRUNE_K t with the largest
    x[i, t] and T_j those with the largest y[t, j]; every other t has
    x[i, t] <= x'_i and y[t, j] <= y'_j, the (PRUNE_K + 1)-th largest
    values. Floating-point +, min, max and scaling by a non-negative
    constant are monotone, so combine(x'_i, y'_j) bounds every term
    outside S_i | T_j, and an entry whose reduce over those 2 * PRUNE_K
    candidates reaches the bound is the full reduce, bit for bit: with
    no -0.0 and no NaN among the terms (see Ifm), a max or min is the
    same float whichever equal term it keeps. Entries the bound cannot
    prove are reduced over every t again, one by one.

    Rows are taken in groups of about BLOCK_BYTES of (rows, t, c)
    terms, after a probe of the first PRUNE_PROBE_ROWS rows; this
    grouping sets only the miss share, while _reduce_full's chunks
    follow CHUNK_BYTES. When more than PRUNE_MAX_MISS of the probe's
    entries need the full reduce (as on a first step A o A), the whole
    call is reduced in full; a later group past that share is reduced
    in full on its own.
    """
    if right.top is None:
        return _reduce_full(reduce, combine, x, right)
    r, t = x.shape
    y = right.y
    c = y.shape[1]
    largest = reduce is np.maximum
    proven = np.greater_equal if largest else np.less_equal
    y_top, y_top_val, y_next = right.top
    out = np.empty((r, c))
    step = max(1, BLOCK_BYTES // (8 * t * c))
    bounds = [0, *range(min(PRUNE_PROBE_ROWS, r), r, step), r]
    for i, stop in zip(bounds, bounds[1:]):
        xb, cand = x[i:stop], out[i:stop]
        x_top, x_top_val, x_next = _top(xb, largest)
        reduce.reduce(combine(x_top_val[:, :, None], y[x_top]), axis=1, out=cand)
        reduce(cand, reduce.reduce(combine(np.take(xb, y_top, axis=1), y_top_val), axis=1),
               out=cand)
        need = ~proven(cand, combine(x_next[:, None], y_next))
        if np.count_nonzero(need) > PRUNE_MAX_MISS * need.size:
            if i == 0:
                return _reduce_full(reduce, combine, x, right, out)
            _reduce_full(reduce, combine, xb, right, cand)
            continue
        if need.any():
            mi, mj = np.nonzero(need)
            cand[mi, mj] = reduce.reduce(combine(xb[mi], y[:, mj].T), axis=1)
    return out


def _star(lam, extreme):
    """ConvexCombo's combine, lam * extreme(x, y) + (1 - lam) * (x + y) / 2,
    in place where out is given (x may be out). It keeps the operations
    of that expression (add, scale by 1 - lam, halve; extreme, scale by
    lam; add), so its bits hold on subnormal inputs too, where halving
    (1 - lam) first could round differently."""

    def combine(x, y, out=None):
        mean = np.add(x, y)
        mean *= 1.0 - lam
        mean /= 2.0
        out = extreme(x, y, out=out)
        out *= lam
        out += mean
        return out

    return combine


def _power_terms(x, w, p):
    # x^p is +inf for x = 0 (or tiny x) when p < 0; it maps back to 0.
    return w * x ** p


def _extremes(p):
    """The reduces for mu and nu in the s = x^p domain; s -> s^(1/p)
    decreases for p < 0, which swaps them."""
    return (np.maximum, np.minimum) if p > 0 else (np.minimum, np.maximum)


def _prepare(B, op, r):
    """B's side of X o B under op for X with r rows: a _Right per
    component, or None where GeneralizedMean with lam in {0, 1}
    collapses to one argument."""
    if isinstance(op, ConvexCombo):
        return _Right(B.mu, r, np.maximum), _Right(B.nu, r, np.minimum)
    if op.lam in (0.0, 1.0):
        return None
    hi, lo = _extremes(op.p)
    w = 1.0 - op.lam
    with np.errstate(divide="ignore", over="ignore"):
        return (_Right(_power_terms(B.mu, w, op.p), r, hi),
                _Right(_power_terms(B.nu, w, op.p), r, lo))


class _FoldFactor(Ifm):
    """The right factor A of every step of one fold under op, holding
    the same components as A and its _prepare data, so that each step's
    compose skips that work. It lives only as long as the fold."""

    __slots__ = ("op", "right")

    def __init__(self, A, op):
        self.mu, self.nu = A.mu, A.nu
        self.op = op
        self.right = _prepare(A, op, A.rows)


def compose(A, B, op):
    """Max-mean / min-mean product of two matrices under op.

    GeneralizedMean works in the s = x^p domain, where entry (i, j) is
    (reduce over t of lam*a_it^p + (1-lam)*b_tj^p)^(1/p): a scaled
    max-plus product for mu and min-plus for nu. s -> s^(1/p) is
    increasing for p > 0 and decreasing for p < 0 (zeros map to +inf
    and come back as 0), so reducing s first picks the same element as
    reducing the means, and the final power gives the same bits.

    B's side of the work (its s-domain terms, their tiles and candidate
    partitions; see _prepare) is done once per call, or once per fold
    when power or power_sequence passes its prepared factor as B. The
    reduce runs on contiguous chunks in _reduce_full. Both families
    reduce a combine that is monotone in each argument (+ in the s
    domain; min, max, + and non-negative scaling for ConvexCombo), so
    _reduce_rows proves most entries of a long reduction from the
    PRUNE_K extreme terms of their row and column: an entry whose
    candidate reaches the bound formed from the next-largest terms is
    exact. Entries the bound cannot prove are reduced over every t; the
    output is bit-identical either way.
    """
    if A.cols != B.rows:
        raise DimensionMismatchError(
            f"cannot compose {A.rows}x{A.cols} with {B.rows}x{B.cols}"
        )
    if isinstance(B, _FoldFactor) and B.op is op:
        right = B.right
    else:
        right = _prepare(B, op, A.rows)
    if isinstance(op, GeneralizedMean):
        lam, p = op.lam, op.p
        # lam in {0, 1} stays out of the s domain, where 0 * inf would
        # give NaN for p < 0.
        if lam == 1.0:
            # The mean collapses to the left argument; the right matrix
            # only contributes its column count.
            mu = np.repeat(A.mu.max(axis=1)[:, None], B.cols, axis=1)
            nu = np.repeat(A.nu.min(axis=1)[:, None], B.cols, axis=1)
        elif lam == 0.0:
            mu = np.repeat(B.mu.max(axis=0)[None, :], A.rows, axis=0)
            nu = np.repeat(B.nu.min(axis=0)[None, :], A.rows, axis=0)
        else:
            hi, lo = _extremes(p)
            with np.errstate(divide="ignore", over="ignore"):
                mu = _reduce_rows(hi, np.add, _power_terms(A.mu, lam, p), right[0])
                nu = _reduce_rows(lo, np.add, _power_terms(A.nu, lam, p), right[1])
            mu **= 1.0 / p
            nu **= 1.0 / p
    else:
        mu = _reduce_rows(np.maximum, _star(op.lam, np.minimum), A.mu, right[0])
        nu = _reduce_rows(np.minimum, _star(op.lam, np.maximum), A.nu, right[1])
    # Guard against float spill just outside [0, 1]; mu and nu are
    # fresh, and Ifm copies them anyway.
    return Ifm(mu.clip(0.0, 1.0, out=mu), nu.clip(0.0, 1.0, out=nu))


def power(A, k, op):
    """Left-fold power A^k = (A^(k-1)) o A; the operators are
    non-associative so the fold direction matters."""
    if not A.is_square():
        raise DimensionMismatchError("powers require a square matrix")
    if k < 1:
        raise ValueError(f"power exponent must be >= 1, got {k}")
    if k == 1:
        return A
    right = _FoldFactor(A, op)
    result = A
    for _ in range(k - 1):
        result = compose(result, right, op)
    return result


def delta(A, B):
    """Max componentwise absolute difference over all entries."""
    if A.mu.shape != B.mu.shape:
        raise DimensionMismatchError(
            f"shape mismatch: {A.mu.shape} vs {B.mu.shape}"
        )
    return float(
        max(np.abs(A.mu - B.mu).max(), np.abs(A.nu - B.nu).max())
    )


def row_uniformity(M):
    """Max per-column spread (max - min over rows, both components);
    0 means all rows are identical."""
    if not M.is_square():
        raise DimensionMismatchError("row uniformity is defined for square matrices")
    spread_mu = (M.mu.max(axis=0) - M.mu.min(axis=0)).max()
    spread_nu = (M.nu.max(axis=0) - M.nu.min(axis=0)).max()
    return float(max(spread_mu, spread_nu))


def is_universal(M, tol):
    """True iff every entry is within tol of <1, 0>."""
    return bool((M.mu >= 1.0 - tol).all() and (M.nu <= tol).all())


def step_bound(op, m):
    """Theoretical Cauchy bound on delta(A^m, A^(m-1)), or None when
    the contraction argument does not apply (lam = 1, or p < 0).

    For GeneralizedMean with p > 0, put y = x^p. In that domain one
    fold step is a max-plus (min-plus for nu) update of the previous
    power scaled by lam, which is nonexpansive in the sup norm, so the
    y-domain step difference is at most lam^(m-2) (it is at most 1 at
    m = 2). Mapping back through y -> y^(1/p) on [0, 1]:

    - p >= 1: the map is (1/p)-Hoelder with constant 1, giving the
      published bound lam^((m-2)/p);
    - 0 < p < 1: the map is Lipschitz with constant 1/p, giving
      (1/p) * lam^(m-2). The published lam^((m-2)/p) holds for p >= 1
      only; below 1 it is smaller than real step differences.

    ConvexCombo contracts by alpha = (1 + lam)/2 per step.
    """
    if isinstance(op, GeneralizedMean):
        if op.lam == 1.0 or op.p < 0:
            return None
        if op.p < 1:
            return op.lam ** (m - 2) / op.p
        return op.lam ** ((m - 2) / op.p)
    if op.lam == 1.0:
        return None
    return op.alpha ** (m - 2)


@dataclass
class ConvergenceReport:
    """Outcome of iterating powers to a fixed point."""

    limit: Ifm
    iterations: int
    converged: bool
    oscillation_period: Optional[int] = None
    deltas: List[float] = field(default_factory=list)
    bound_trace: List[Optional[float]] = field(default_factory=list)
    sum_violations: int = 0


def power_sequence(A, op, eps=1e-12, max_iter=100000):
    """Iterate A^m until the step difference drops to eps or max_iter
    compositions have run.

    deltas[i] is delta(A^(i+2), A^(i+1)); bound_trace carries the
    matching theoretical bound (None where no guarantee holds).
    ConvexCombo(1.0) does not contract, so exact repeats are detected
    instead and reported as an oscillation period. GeneralizedMean with
    lam in {0, 1} has A^3 = A^2, so it stops at delta = 0 before any
    repeat could be seen, and is not hashed.
    """
    if not A.is_square():
        raise DimensionMismatchError("powers require a square matrix")
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite, got {eps}")

    detect_cycles = isinstance(op, ConvexCombo) and op.lam == 1.0
    seen = {A: 1} if detect_cycles else None

    report = ConvergenceReport(limit=A, iterations=0, converged=False)
    report.sum_violations = A.sum_violations()
    right = _FoldFactor(A, op)
    prev = A
    for m in range(2, max_iter + 2):
        cur = compose(prev, right, op)
        d = delta(cur, prev)
        report.iterations = m - 1
        report.deltas.append(d)
        report.bound_trace.append(step_bound(op, m))
        report.sum_violations += cur.sum_violations()
        report.limit = cur
        if d <= eps:
            report.converged = True
            return report
        if detect_cycles:
            if cur in seen:
                report.oscillation_period = m - seen[cur]
                return report
            seen[cur] = m
        prev = cur
    return report
