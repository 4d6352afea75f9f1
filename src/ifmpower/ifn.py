"""Scalar algebra of intuitionistic fuzzy numbers (IFNs).

An IFN is a pair <mu, nu> of membership and non-membership degrees with
mu + nu <= 1. Differences and power means with p > 1 can leave that set,
so a relaxed ComponentPair (each component in [0, 1], no sum constraint)
carries such results. All operations are pure functions over immutable
values.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotDominatedError, OutOfRangeError, SumViolationError, ZeroPError

SUM_TOL = 1e-12


def check_components(mu, nu):
    """Raise OutOfRangeError unless both floats lie in [0, 1] (NaN fails)."""
    if not (0.0 <= mu <= 1.0) or not (0.0 <= nu <= 1.0):
        raise OutOfRangeError(f"components must lie in [0, 1], got <{mu}, {nu}>")


@dataclass(frozen=True)
class ComponentPair:
    """A <mu, nu> pair with each component in [0, 1]; no sum constraint."""

    mu: float
    nu: float

    def __post_init__(self):
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "nu", float(self.nu))
        check_components(self.mu, self.nu)


@dataclass(frozen=True)
class Ifn(ComponentPair):
    """A validated intuitionistic fuzzy number: mu + nu <= 1."""

    def __post_init__(self):
        super().__post_init__()
        if self.mu + self.nu > 1.0 + SUM_TOL:
            raise SumViolationError(
                f"mu + nu = {self.mu + self.nu} exceeds 1 for <{self.mu}, {self.nu}>"
            )


def dominance_leq(a, b):
    """True iff a is dominated by b: a.mu <= b.mu and a.nu >= b.nu.

    This is a partial order; incomparable pairs are False both ways.
    """
    return a.mu <= b.mu and a.nu >= b.nu


def gen_mean_scalar(x, y, lam, p):
    """Weighted power mean (lam*x^p + (1-lam)*y^p)^(1/p) on [0, 1].

    lam = 1 or 0 collapses to the corresponding argument. For p < 0 a
    zero argument forces the result to 0 (the limit convention that
    makes the harmonic case total on [0, 1]).
    """
    if p == 0:
        raise ZeroPError("p must be nonzero")
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


def gen_mean_fold(lam, p):
    """The GeneralizedMean(lam, p) fold on plain floats: (w_mu, w_nu,
    e_mu, e_nu) to the folded (mu, nu), range-checked as a ComponentPair
    is. A walk's weight is the left fold of its edges."""
    def fold(wm, wn, em, en):
        mu = gen_mean_scalar(wm, em, lam, p)
        nu = gen_mean_scalar(wn, en, lam, p)
        check_components(mu, nu)
        return mu, nu
    return fold


def star_fold(lam):
    """The ConvexCombo(lam) fold, as gen_mean_fold: min (mu) or max (nu)
    blended with the arithmetic mean by weight lam."""
    def fold(wm, wn, em, en):
        mu = lam * min(wm, em) + (1.0 - lam) * (wm + em) / 2.0
        nu = lam * max(wn, en) + (1.0 - lam) * (wn + en) / 2.0
        check_components(mu, nu)
        return mu, nu
    return fold


def gen_mean_pair(a, b, lam, p):
    """Componentwise weighted power mean of two pairs."""
    return ComponentPair(*gen_mean_fold(lam, p)(a.mu, a.nu, b.mu, b.nu))


def star_scalar(a, b, lam):
    """Convex combination of max-min and arithmetic mean, per component
    (star_fold on two pairs)."""
    return ComponentPair(*star_fold(lam)(a.mu, a.nu, b.mu, b.nu))


def scalar_mult(lam, a):
    """Scale an IFN: <lam * mu, (1 - lam) * nu>."""
    return Ifn(lam * a.mu, (1.0 - lam) * a.nu)


def ifn_diff(b, a):
    """Difference of a from b: <b.mu - a.mu, a.nu - b.nu>.

    Requires a to be dominated by b; the result need not satisfy the
    IFN sum constraint, hence a ComponentPair.
    """
    if not dominance_leq(a, b):
        raise NotDominatedError(
            f"<{a.mu}, {a.nu}> is not dominated by <{b.mu}, {b.nu}>"
        )
    return ComponentPair(b.mu - a.mu, a.nu - b.nu)
