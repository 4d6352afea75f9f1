"""Matrix composition, left-fold powers, and the convergence engine.

Matrices store the membership and non-membership components as the two
planes of one float64 numpy array. Entries of a freshly ingested matrix
satisfy the IFN sum constraint; intermediate powers under p > 1 may not,
and such violations are counted, never clamped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .errors import DimensionMismatchError, DomainError, ZeroPError
from .ifn import ComponentPair, Ifn, check_components

# Threshold above which mu + nu > 1 counts as a real closure violation
# rather than float drift.
SUM_VIOLATION_TOL = 1e-9

# Bytes of float64 temporaries per chunk or group of rows in _reduce_rows.
# A chunk and the tile of the right factor it meets, about 1 MB together,
# stay inside a 2 MB per-core L2 cache, and no composition allocates an
# n^3 array.
CHUNK_BYTES = 512 * 2**10

# Pruned reductions in compose (see _reduce_rows): candidate t per row
# of the left factor and per column of the right one, and the shortest
# reduction that is pruned.
PRUNE_K = 8
PRUNE_MIN_T = 8 * PRUNE_K


@dataclass(frozen=True)
class GeneralizedMean:
    """Max/min composition via the weighted power mean with weight lam.

    Each operator class carries its family's rules: s_exponent, terms
    and combine for compose, bound, oscillates, and its scalar mean
    and fold, which the oracle and path weights left-fold.
    """

    lam: float
    p: float
    combine = np.add
    oscillates = False

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

    @property
    def s_exponent(self):
        """The p of the s domain, or 1 where lam in {0, 1} keeps one
        argument for every p: 1 * x + 0 * y is x exactly, and no weight of
        0 meets the inf that a zero gives at p < 0 (0 * inf is NaN)."""
        return self.p if 0.0 < self.lam < 1.0 else 1.0

    def terms(self, pairs, weight):
        """pairs' planes as compose max-reduces them: weight * x^p, the
        weight signed as p, and nu's negated (see compose)."""
        p = self.s_exponent
        with np.errstate(divide="ignore", over="ignore"):
            s = pairs ** p
            s *= math.copysign(weight, p)
        return s[0], np.negative(s[1], out=s[1])

    def bound(self, m):
        """step_bound: None where lam = 1 or p < 0. For p > 0 put
        y = x^p: a fold step is then a max-plus (min-plus for nu) update
        of the previous power scaled by lam, nonexpansive in the sup
        norm, so the y-domain step difference is at most lam^(m-2) (at
        most 1 at m = 2). Mapped back through y -> y^(1/p) on [0, 1]:

        - p >= 1: the map is (1/p)-Hoelder with constant 1, giving the
          published bound lam^((m-2)/p);
        - 0 < p < 1: the map is Lipschitz with constant 1/p, giving
          (1/p) * lam^(m-2). The published lam^((m-2)/p) holds for p >= 1
          only; below 1 it is smaller than real step differences.
        """
        if self.lam == 1.0 or self.p < 0:
            return None
        if self.p < 1:
            return self.lam ** (m - 2) / self.p
        return self.lam ** ((m - 2) / self.p)

    def mean(self, x, y):
        """Weighted power mean (lam*x^p + (1-lam)*y^p)^(1/p) on [0, 1].

        lam = 1 or 0 collapses to the corresponding argument. For p < 0 a
        zero argument forces the result to 0 (the limit convention that
        makes the harmonic case total on [0, 1]).
        """
        lam, p = self.lam, self.p
        if lam == 1.0:
            return x
        if lam == 0.0:
            return y
        if x == y:
            return x
        if p < 0 and (x == 0.0 or y == 0.0):
            return 0.0
        try:
            s = lam * x**p + (1.0 - lam) * y**p
        except OverflowError:
            # x**p for denormal x and p < 0; the mean underflows to 0
            return 0.0
        return s ** (1.0 / p)

    def fold(self):
        """(w_mu, w_nu, e_mu, e_nu) to the folded (mu, nu) on floats,
        range-checked as a ComponentPair is; walks left-fold it."""
        mean = self.mean

        def fold(wm, wn, em, en):
            mu = mean(wm, em)
            nu = mean(wn, en)
            check_components(mu, nu)
            return mu, nu
        return fold


@dataclass(frozen=True)
class ConvexCombo:
    """Convex combination of max-min and arithmetic-mean composition;
    it carries GeneralizedMean's rules but mean; its star works on x."""

    lam: float
    s_exponent = 1.0

    def __post_init__(self):
        if not math.isfinite(self.lam):
            raise DomainError(f"lambda must be finite, got lambda={self.lam}")
        if not (0.0 <= self.lam <= 1.0):
            raise ValueError(f"lambda must lie in [0, 1], got {self.lam}")

    @property
    def alpha(self):
        return (1.0 + self.lam) / 2.0

    @property
    def oscillates(self):
        return self.lam == 1.0

    def terms(self, pairs, weight):
        """mu and negated nu: the star weighs its arguments itself."""
        return pairs[0], -pairs[1]

    def combine(self, x, y, out=None):
        """lam * min(x, y) + (1 - lam) * (x + y) / 2, in place where out
        is given (x or y may be out), by that expression's operations
        (add, scale by 1 - lam, halve; min, scale by lam; add): halving
        1 - lam first could round subnormal inputs differently."""
        mean = np.add(x, y)
        mean *= 1.0 - self.lam
        mean /= 2.0
        out = np.minimum(x, y, out=out)
        out *= self.lam
        out += mean
        return out

    def bound(self, m):
        """The star contracts by alpha per step; max-min does not."""
        return None if self.lam == 1.0 else self.alpha ** (m - 2)

    def fold(self):
        """As GeneralizedMean.fold, by the star on floats (see combine)."""
        lam = self.lam

        def fold(wm, wn, em, en):
            mu = lam * min(wm, em) + (1.0 - lam) * (wm + em) / 2.0
            nu = lam * max(wn, en) + (1.0 - lam) * (wn + en) / 2.0
            check_components(mu, nu)
            return mu, nu
        return fold


def gen_mean_scalar(x, y, lam, p):
    """GeneralizedMean(lam, p).mean(x, y), with the operator's checks."""
    return GeneralizedMean(lam, p).mean(x, y)


def gen_mean_pair(a, b, lam, p):
    """Componentwise weighted power mean of two pairs."""
    return ComponentPair(*GeneralizedMean(lam, p).fold()(a.mu, a.nu, b.mu, b.nu))


def star_scalar(a, b, lam):
    """Convex combination of max-min and arithmetic mean, per component."""
    return ComponentPair(*ConvexCombo(lam).fold()(a.mu, a.nu, b.mu, b.nu))


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

    Both components live in pairs, one private, read-only
    (2, rows, cols) copy of the input; mu and nu are its two planes.
    Adding 0.0 to pairs as it is held turns -0.0 into +0.0, so no matrix
    holds a negative zero and every max or min over its entries is the
    same float in any order.
    """

    __slots__ = ("pairs", "mu", "nu")

    def __init__(self, mu, nu):
        mu = np.asarray(mu, dtype=np.float64)
        nu = np.asarray(nu, dtype=np.float64)
        if mu.ndim != 2 or mu.shape != nu.shape:
            raise DimensionMismatchError(
                f"component grids must share a 2-D shape, got {mu.shape} and {nu.shape}"
            )
        if mu.size == 0:
            raise DimensionMismatchError("matrix must be non-empty")
        # concatenate keeps each plane in its input's memory order.
        pairs = np.concatenate((mu[None], nu[None]))
        # min and max propagate NaN, so NaN fails the range test.
        if not (pairs.min() >= 0 and pairs.max() <= 1):
            raise ValueError("all components must be finite and lie in [0, 1]")
        self._hold(pairs)

    def _hold(self, pairs):
        pairs += 0.0
        pairs.setflags(write=False)
        self.pairs = pairs
        self.mu, self.nu = pairs

    @classmethod
    def _wrap(cls, pairs):
        """Hold a fresh array whose values its builder has checked to lie
        in [0, 1], without Ifm's copy and range scan: compose's output,
        or parse_matrix's rows."""
        M = object.__new__(cls)
        M._hold(pairs)
        return M

    @classmethod
    def from_pairs(cls, grid):
        """Build from a nested sequence of (mu, nu) pairs, validating
        each entry as an IFN."""
        rows = [[Ifn(m, v) for m, v in row] for row in grid]
        if not rows:
            raise DimensionMismatchError("matrix must be non-empty")
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

    def sum_violations(self):
        """Number of entries with mu + nu > 1 beyond SUM_VIOLATION_TOL."""
        return int((self.mu + self.nu > 1.0 + SUM_VIOLATION_TOL).sum())

    def __eq__(self, other):
        if not isinstance(other, Ifm):
            return NotImplemented
        return np.array_equal(self.pairs, other.pairs)

    def __hash__(self):
        return hash(self.pairs.tobytes())

    def __repr__(self):
        body = "; ".join(
            " ".join(f"<{self.mu[i, j]:g},{self.nu[i, j]:g}>" for j in range(self.cols))
            for i in range(self.rows)
        )
        return f"Ifm[{self.rows}x{self.cols}: {body}]"


class _Right:
    """One component of a right factor, prepared once for all the
    products that max-reduce over it:

    - y, its terms;
    - tile, `rows` copies of y side by side, so that entry
      [t, i * c + j] is y[t, j]; rows is the number of left-factor rows
      in one full-reduce chunk, at most r, the left factor's row count;
    - top, the candidate partition of y's columns for _reduce_rows, or
      None where t < PRUNE_MIN_T and a reduction is not pruned.
    """

    __slots__ = ("y", "rows", "tile", "top")

    def __init__(self, y, r):
        t, c = y.shape
        self.y = y
        self.rows = max(1, min(r, CHUNK_BYTES // (8 * t * c)))
        # np.concatenate has a third of np.tile's fixed cost, which a
        # fold of tiny matrices pays once per component.
        self.tile = np.concatenate([y] * self.rows, axis=1)
        self.top = None
        if t >= PRUNE_MIN_T:
            top, val, nxt = _top(y.T)
            self.top = top.T.copy(), val.T.copy(), nxt


def _top(v):
    """For each row of v: the column indices of its PRUNE_K largest
    entries (ties at the boundary kept in any order), the entries at
    those indices, and v', the (PRUNE_K + 1)-th largest entry, which no
    other entry of the row exceeds."""
    kth = v.shape[1] - PRUNE_K - 1
    idx = np.argpartition(v, kth, axis=1)[:, kth:]
    val = np.take_along_axis(v, idx, axis=1)
    return idx[:, 1:], val[:, 1:], val[:, 0]


def _reduce_rows(combine, x, right, out):
    """out[i, j] = max over t of combine(x[i, t], y[t, j]), where y is
    right.y and combine is non-decreasing in each argument, into out.
    Returns the first row it reduced in full: 0 where right carries no
    partition, and len(x) where pruning proved every row group.

    Where right carries a partition (reductions of PRUNE_MIN_T or more
    terms), entries are proven by a certificate (the threshold rule of
    top-k aggregation), in two stages. Let T_j hold the PRUNE_K t with
    the largest y[t, j] and S_i those with the largest x[i, t], ties at
    the boundary taken in any order; every other t has y[t, j] <= y'_j
    and x[i, t] <= x'_i, the (PRUNE_K + 1)-th largest values.
    Floating-point +, min and scaling by a non-negative constant are
    monotone, so combine of two such upper bounds bounds every term
    whose arguments they bound:

    1. The right factor's candidates, prepared once per fold. Every t
       outside T_j has a term at most combine(max_t x[i, t], y'_j),
       so an entry whose max over T_j reaches that bound is proven.
       In a late step of a fold the left factor has contracted and
       the right factor's largest terms decide nearly every entry.
    2. The row's own candidates, only where the first stage leaves too
       many entries for the re-reduce below. The max now runs over
       S_i | T_j, and every other t has a term at most
       combine(x'_i, y'_j).

    A proven entry is the full max, bit for bit: with no NaN and zeros
    of one sign only among the terms (see compose), a max is the same
    float whichever equal term it keeps. Entries neither bound proves
    are reduced over every t again, one by one.

    Rows are taken in groups whose (rows, PRUNE_K, c) candidate grids
    fit CHUNK_BYTES. A group's one-by-one re-reduce takes a (misses, t)
    grid; a group whose misses after the first stage would pass
    CHUNK_BYTES takes the second stage, and the first group whose misses
    after both would pass it (as on a first step A o A, where it is the
    first group) ends pruning: it and every later row are reduced in
    full, and its start is returned.

    The full reduce takes rows right.rows at a time, a chunk whose
    buffer fits CHUNK_BYTES (or holds one row). repeat lays a chunk out
    as a contiguous (t, rows * c) buffer, entry [t, i * c + j] =
    x[i, t]; combine(buf, tile, out=buf) meets it with right.tile in
    place, and a max over its first axis writes the chunk's (rows, c)
    view of out. Every ufunc thus runs one long contiguous loop, not
    r * t loops of c elements as x[:, :, None] broadcast against y would.
    """
    r, t = x.shape
    y = right.y
    c = y.shape[1]
    start = 0
    if right.top is not None:
        y_top, y_top_val, y_next = right.top
        step = max(1, CHUNK_BYTES // (8 * PRUNE_K * c))
        for start in range(0, r, step):
            xb, cand = x[start:start + step], out[start:start + step]
            terms = np.take(xb, y_top, axis=1)
            np.maximum.reduce(combine(terms, y_top_val, out=terms), axis=1, out=cand)
            # Not cand < bound: a NaN fails greater_equal and is recomputed.
            need = ~np.greater_equal(cand, combine(xb.max(axis=1)[:, None], y_next))
            misses = np.count_nonzero(need)
            if 8 * misses * t > CHUNK_BYTES:
                x_top, x_top_val, x_next = _top(xb)
                # The row candidates reuse the first stage's grid; _top's
                # indices are in range, and mode="raise" would buffer out.
                np.take(y, x_top, axis=0, out=terms, mode="clip")
                np.maximum(cand, combine(x_top_val[:, :, None], terms, out=terms).max(axis=1),
                           out=cand)
                need &= ~np.greater_equal(cand, combine(x_next[:, None], y_next))
                misses = np.count_nonzero(need)
            # Freed, so that no re-reduce grid or full-reduce chunk meets it.
            del terms
            if 8 * misses * t > CHUNK_BYTES:
                break
            if misses:
                mi, mj = np.nonzero(need)
                cand[mi, mj] = combine(xb[mi], y[:, mj].T).max(axis=1)
        else:
            return r
    for i in range(start, r, right.rows):
        xb = x[i:i + right.rows]
        buf = xb.T.repeat(c, axis=1)
        combine(buf, right.tile[:, :buf.shape[1]], out=buf)
        np.maximum.reduce(buf.reshape(t, len(xb), c), axis=0, out=out[i:i + len(xb)])
    return start


def _prepare(B, op, r):
    """B's side of X o B under op for X with r rows: a _Right per plane."""
    return tuple(_Right(y, r) for y in op.terms(B.pairs, 1.0 - op.lam))


def compose(A, B, op, *, _right=None):
    """Max-mean / min-mean product of two matrices under op.

    GeneralizedMean works in the s = x^p domain, where entry (i, j) is
    (reduce over t of lam*a_it^p + (1-lam)*b_tj^p)^(1/p): a scaled
    max-plus product for mu and min-plus for nu. s -> s^(1/p) is
    increasing for p > 0 and decreasing for p < 0 (zeros map to +inf
    and come back as 0), so reducing s first picks the same element as
    reducing the means, and the final power gives the same bits. With
    lam in {0, 1} the s domain is taken at p = 1 (see s_exponent).

    The kernel reduces by max only: the component that reduces by min
    (nu, or mu for GeneralizedMean with p < 0) runs on negated terms on
    both sides and is negated back, min(v) = -max(-v), with the min's
    bits. Negation is exact; +, weighting and halving round alike for x
    and -x, and min and max trade places, so the star on negated terms
    is nu's combine negated. Ifm stores +0.0, so every zero on the
    negated side is -0.0 and equal terms keep equal bits, as
    _reduce_rows' certificate needs. At p < 0 a zero gives +inf, or -inf
    negated; a component's two sides share one sign, so no inf - inf.

    B's side of the work (its s-domain terms, their tiles and candidate
    partitions; see _prepare) is done once per call, or once per fold
    when power or power_sequence passes A's prepared side as _right.
    Both families reduce a combine that is monotone in each argument (+
    in the s domain; min, + and non-negative scaling for ConvexCombo),
    which lets _reduce_rows prove most entries from a few candidate
    terms with the full reduction's bits; its docstring states the proof.
    """
    if A.cols != B.rows:
        raise DimensionMismatchError(
            f"cannot compose {A.rows}x{A.cols} with {B.rows}x{B.cols}"
        )
    right = _prepare(B, op, A.rows) if _right is None else _right
    pairs = np.empty((2, A.rows, B.cols))
    for out, x, side in zip(pairs, op.terms(A.pairs, op.lam), right):
        _reduce_rows(op.combine, x, side, out)
    # Every mean and star is >= 0, so abs negates back the plane that
    # reduced by min on negated terms (see above), and only it.
    np.abs(pairs, out=pairs)
    p = op.s_exponent
    if p != 1.0:
        pairs **= 1.0 / p
    # Guard against float spill just outside [0, 1]. No term is NaN, so
    # the fresh, clipped array is wrapped without Ifm's copy and check.
    return Ifm._wrap(pairs.clip(0.0, 1.0, out=pairs))


def power(A, k, op):
    """Left-fold power A^k = (A^(k-1)) o A; the operators are
    non-associative so the fold direction matters."""
    if not A.is_square():
        raise DimensionMismatchError("powers require a square matrix")
    if k < 1:
        raise ValueError(f"power exponent must be >= 1, got {k}")
    if k == 1:
        return A
    right = _prepare(A, op, A.rows)
    result = A
    for _ in range(k - 1):
        result = compose(result, A, op, _right=right)
    return result


def delta(A, B):
    """Max componentwise absolute difference over all entries."""
    if A.mu.shape != B.mu.shape:
        raise DimensionMismatchError(
            f"shape mismatch: {A.mu.shape} vs {B.mu.shape}"
        )
    return float(np.abs(A.pairs - B.pairs).max())


def row_uniformity(M):
    """Max per-column spread (max - min over rows, both components);
    0 means all rows are identical."""
    if not M.is_square():
        raise DimensionMismatchError("row uniformity is defined for square matrices")
    return float((M.pairs.max(axis=1) - M.pairs.min(axis=1)).max())


def is_universal(M, tol):
    """True iff every entry is within tol of <1, 0>."""
    return bool((M.mu >= 1.0 - tol).all() and (M.nu <= tol).all())


def step_bound(op, m):
    """op's theoretical Cauchy bound on delta(A^m, A^(m-1)), or None
    where no contraction argument applies (lam = 1, or p < 0)."""
    return op.bound(m)


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


def _check_sequence(A, eps, max_iter):
    """power_sequence's argument checks: A square, eps positive and
    finite, max_iter at least 1. The CLI runs them before it opens an
    output file, so bad arguments leave no file behind."""
    if not A.is_square():
        raise DimensionMismatchError("powers require a square matrix")
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")


def power_sequence(A, op, eps=1e-12, max_iter=100000):
    """Iterate A^m until the step difference drops to eps or max_iter
    compositions have run.

    deltas[i] is delta(A^(i+2), A^(i+1)); bound_trace carries the
    matching theoretical bound (None where no guarantee holds).
    An operator that oscillates, ConvexCombo(1.0) alone, does not
    contract, so exact repeats are detected instead and reported as an
    oscillation period: a power whose hash matches that of an earlier
    A^k is a repeat once A^k, folded again, equals it bit for bit. Every
    earlier k with that hash is tried, so a collision cannot hide a
    repeat. GeneralizedMean with lam in {0, 1} has A^3 = A^2 and stops
    at delta = 0 unhashed.
    """
    _check_sequence(A, eps, max_iter)
    seen = {hash(A): [1]} if op.oscillates else None

    report = ConvergenceReport(limit=A, iterations=0, converged=False)
    report.sum_violations = A.sum_violations()
    right = _prepare(A, op, A.rows)
    prev = A
    for m in range(2, max_iter + 2):
        cur = compose(prev, A, op, _right=right)
        d = delta(cur, prev)
        report.iterations = m - 1
        report.deltas.append(d)
        report.bound_trace.append(step_bound(op, m))
        report.sum_violations += cur.sum_violations()
        report.limit = cur
        if d <= eps:
            report.converged = True
            return report
        if seen is not None:
            ks = seen.setdefault(hash(cur), [])
            for k in ks:
                if power(A, k, op) == cur:
                    report.oscillation_period = m - k
                    return report
            ks.append(m)
        prev = cur
    return report
