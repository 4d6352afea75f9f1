"""Scalar algebra of intuitionistic fuzzy numbers (IFNs).

An IFN is a pair <mu, nu> of membership and non-membership degrees with
mu + nu <= 1. Differences, and the operators' power means with p > 1
(ifmpower.matrix), can leave that set, so a relaxed ComponentPair (each
component in [0, 1], no sum constraint) carries such results. All
operations are pure functions over immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotDominatedError, OutOfRangeError, SumViolationError

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
