"""Brute-force verifier for the power-as-walk-maximum identity.

Enumerates every walk between each vertex pair and takes the max of the
membership weights and the min of the non-membership weights. Walk
weights are left folds of the operator's scalar fold() (which graph's
path weights fold too), so the oracle shares no code with the matrix
engine's composition loop or with the closed-form weight formula. The
enumeration runs depth first over walk prefixes, so a prefix shared by
many walks is folded once; each walk still gets exactly the folds, in
the same order, that folding it on its own would give. Weights are plain
floats, and each fold is range-checked as a ComponentPair is.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List

import numpy as np

from .errors import BudgetExceededError, MismatchFoundError
from .matrix import ConvexCombo, GeneralizedMean, Ifm, delta, power

ENUMERATION_CAP = 10**7

# Largest engine-vs-oracle deviation differential_check accepts.
ORACLE_TOL = 1e-12

LAMBDA_CHOICES = (0.0, 0.25, 0.5, 0.75, 0.9)
P_CHOICES = (-1.0, 0.5, 1.0, 2.0)


@dataclass(frozen=True)
class OracleBudget:
    max_n: int = 4
    max_m: int = 5


def _check_budget(n, m, budget):
    """Raise BudgetExceededError unless m-walks on n vertices fit the
    budget and ENUMERATION_CAP."""
    if n > budget.max_n or m > budget.max_m:
        raise BudgetExceededError(
            f"n={n}, m={m} exceeds budget (max_n={budget.max_n}, max_m={budget.max_m})"
        )
    # n^(m+1) taken to at most ENUMERATION_CAP.bit_length() + 1 factors,
    # past the cap for any n >= 2, so that a huge m builds no integer of
    # millions of digits.
    walks = n ** min(m + 1, ENUMERATION_CAP.bit_length() + 1)
    if walks > ENUMERATION_CAP:
        raise BudgetExceededError(
            f"n={n}, m={m} exceeds ENUMERATION_CAP: n^(m+1) > {ENUMERATION_CAP}"
        )


def brute_force_power(A, m, op, budget=OracleBudget()):
    """Entry (i, j) of A^m as <max, min> of weights over all m-walks
    from i to j, with walk weights computed by explicit left-fold.

    Walks from i are enumerated depth first over their prefixes: the
    prefix i -> v1 -> ... -> vd carries its folded weight, and each
    extension by one edge costs one scalar fold, so walks that share a
    prefix share its folds (n * sum of n^d for d = 2..m folds in all,
    against (m - 1) * n^(m+1) when every walk is folded from scratch).
    Every walk still sees the same folds in the same order, and walks
    ending at j are visited in lexicographic order of their inner
    vertices, so ties in max and min resolve as they would walk by walk.
    """
    n = A.rows
    if m < 1:
        raise ValueError(f"power exponent must be >= 1, got {m}")
    _check_budget(n, m, budget)
    entries = [list(zip(row_mu, row_nu))
               for row_mu, row_nu in zip(A.mu.tolist(), A.nu.tolist())]
    fold = op.fold()

    def extend(wm, wn, v, d):
        # <wm, wn> is the left fold of a d-edge walk from the current
        # start vertex that ends at v.
        if d == m:
            best_mu[v] = max(best_mu[v], wm)
            best_nu[v] = min(best_nu[v], wn)
            return
        for u, (em, en) in enumerate(entries[v]):
            um, un = fold(wm, wn, em, en)
            extend(um, un, u, d + 1)

    mu = np.empty((n, n))
    nu = np.empty((n, n))
    for i in range(n):
        best_mu = [-1.0] * n
        best_nu = [2.0] * n
        for v, (em, en) in enumerate(entries[i]):
            extend(em, en, v, 1)
        mu[i] = best_mu
        nu[i] = best_nu
    return Ifm(mu, nu)


def random_ifm(rng, n):
    """A random valid matrix: mu = u, nu = v * (1 - u) keeps every entry
    inside the sum constraint without rejection."""
    mu = np.empty((n, n))
    nu = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            u = rng.random()
            v = rng.random()
            mu[i, j] = u
            nu[i, j] = v * (1.0 - u)
    return Ifm(mu, nu)


def random_operator(rng):
    lam = rng.choice(LAMBDA_CHOICES)
    if rng.random() < 0.5:
        return GeneralizedMean(lam, rng.choice(P_CHOICES))
    return ConvexCombo(lam)


@dataclass
class DifferentialReport:
    trials: int
    max_deviation: float = 0.0
    cases: List[tuple] = field(default_factory=list)


def differential_check(trials, budget=OracleBudget(), seed=0, power_fn=power):
    """Run `trials` random engine-vs-oracle comparisons; deterministic
    for a fixed seed. Raises MismatchFoundError with the counterexample
    on the first disagreement beyond ORACLE_TOL.

    power_fn exists so a deliberately broken engine can be swapped in to
    confirm the check has teeth.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    # Trials draw n and m from 2 up to the budget.
    for name, bound in (("max_n", budget.max_n), ("max_m", budget.max_m)):
        if bound < 2:
            raise ValueError(f"budget {name} must be >= 2, got {bound}")
    rng = random.Random(seed)
    report = DifferentialReport(trials=trials)
    for t in range(trials):
        n = rng.randint(2, budget.max_n)
        m = rng.randint(2, budget.max_m)
        # Before any work: a draw past ENUMERATION_CAP could also hold
        # a matrix too large to build.
        _check_budget(n, m, budget)
        A = random_ifm(rng, n)
        op = random_operator(rng)
        got = power_fn(A, m, op)
        want = brute_force_power(A, m, op, budget)
        dev = delta(got, want)
        report.max_deviation = max(report.max_deviation, dev)
        report.cases.append((n, m, op, dev))
        if dev > ORACLE_TOL:
            raise MismatchFoundError(
                f"trial {t}: engine and oracle disagree by {dev} "
                f"(n={n}, m={m}, op={op})",
                matrix=A,
                operator=op,
                exponent=m,
            )
    return report
