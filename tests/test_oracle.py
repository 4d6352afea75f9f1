import random
from itertools import product

import numpy as np
import pytest

from ifmpower import (
    BudgetExceededError,
    ConvexCombo,
    GeneralizedMean,
    Ifm,
    MismatchFoundError,
    OracleBudget,
    OutOfRangeError,
    brute_force_power,
    compose,
    delta,
    differential_check,
    gen_mean_pair,
    power,
    star_scalar,
)
from ifmpower import matrix, oracle
from ifmpower.oracle import random_ifm

A3 = Ifm.from_pairs([
    [(1, 0), (0.5, 0.4), (0, 1)],
    [(0, 1), (0.6, 0.3), (1, 0)],
    [(1, 0), (1, 0), (0, 1)],
])


def test_m_equals_one_is_identity():
    out = brute_force_power(A3, 1, GeneralizedMean(0.6, 1))
    assert out == A3


def test_example_entry_via_walk_enumeration():
    # max over t of 0.6*a_1t + 0.4*a_t1 is 1 at t=1; min side 0 at t=1
    out = brute_force_power(A3, 2, GeneralizedMean(0.6, 1))
    assert out.mu[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert out.nu[0, 0] == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("op", [
    GeneralizedMean(0.6, 1),
    GeneralizedMean(0.5, 2),
    GeneralizedMean(0.75, -1),
    ConvexCombo(0.4),
])
def test_matches_engine_on_fixed_instance(op):
    for m in (2, 3, 4):
        assert delta(power(A3, m, op), brute_force_power(A3, m, op)) <= 1e-12


def test_budget_enforced():
    with pytest.raises(BudgetExceededError):
        brute_force_power(A3, 9, GeneralizedMean(0.5, 1))
    big = Ifm.universal(5)
    with pytest.raises(BudgetExceededError):
        brute_force_power(big, 2, GeneralizedMean(0.5, 1))


def test_enumeration_cap_checked_before_any_work(monkeypatch):
    # Seed 3 draws n = 976, m = 2 under this budget: 976^3 walk folds
    # exceed ENUMERATION_CAP, so the trial stops before it builds its
    # matrix or runs the engine.
    def never(*args):
        raise AssertionError("the trial did work past the cap")

    monkeypatch.setattr(oracle, "random_ifm", never)
    with pytest.raises(BudgetExceededError, match="ENUMERATION_CAP"):
        differential_check(1, OracleBudget(max_n=3000, max_m=2), seed=3, power_fn=never)


@pytest.mark.parametrize("n", [1, 2, 3, 10, 3162, 3163])
def test_enumeration_cap_matches_the_power(n):
    # The cap is tested without building n^(m+1), and agrees with the
    # power: 3162^2 and 10^7 lie at or under ENUMERATION_CAP = 10^7,
    # 3163^2 and 10^8 above it.
    budget = OracleBudget(max_n=n, max_m=40)
    for m in range(1, 41):
        if n ** (m + 1) > oracle.ENUMERATION_CAP:
            with pytest.raises(BudgetExceededError, match=r"n\^\(m\+1\) > 10000000$"):
                oracle._check_budget(n, m, budget)
        else:
            oracle._check_budget(n, m, budget)


def test_enumeration_cap_checked_at_a_huge_m():
    # A 1x1 matrix's walks stay under the cap at any m.
    budget = OracleBudget(max_n=4, max_m=10**12)
    oracle._check_budget(1, 10**12, budget)
    with pytest.raises(BudgetExceededError, match=f"n=2, m={10**12} exceeds ENUMERATION_CAP"):
        oracle._check_budget(2, 10**12, budget)


def test_max_min_degenerates_to_first_edge():
    # lam=1 collapses the fold to the first edge, so A^m row i is the
    # row max/min of A itself
    op = GeneralizedMean(1.0, 1.0)
    for m in (2, 3):
        out = brute_force_power(A3, m, op)
        for i in range(3):
            assert out.mu[i].max() == out.mu[i].min() == A3.mu[i].max()
            assert out.nu[i].max() == out.nu[i].min() == A3.nu[i].min()


def test_trials_precondition():
    with pytest.raises(ValueError):
        differential_check(0, seed=1)


@pytest.mark.parametrize("budget, name", [
    (OracleBudget(max_n=1), "max_n"), (OracleBudget(max_m=1), "max_m"),
])
def test_budget_below_two_rejected(budget, name):
    # Trials draw n and m from 2 up to the budget.
    with pytest.raises(ValueError, match=f"{name} must be >= 2, got 1"):
        differential_check(5, budget, seed=1)


def test_differential_run_is_clean_and_deterministic():
    r1 = differential_check(25, seed=7)
    r2 = differential_check(25, seed=7)
    assert r1.max_deviation <= 1e-12
    assert r1.cases == r2.cases


def test_right_fold_mutation_is_caught():
    def right_fold_power(A, k, op):
        result = A
        for _ in range(k - 1):
            result = compose(A, result, op)
        return result

    with pytest.raises(MismatchFoundError) as exc:
        differential_check(50, seed=1, power_fn=right_fold_power)
    assert exc.value.matrix is not None
    assert exc.value.exponent >= 2


@pytest.mark.parametrize("p", [16.0, -16.0])
def test_matches_engine_at_large_abs_p(p):
    # x^p underflows to 0 (p = 16) or overflows to inf (p = -16) for the
    # tiny entries; both paths must make the same call on them.
    tiny = Ifm.from_pairs([[(0, 1), (1e-25, 0.5)], [(1e-300, 0), (0.3, 1e-20)]])
    rng = random.Random(16)
    for A in (tiny, A3, random_ifm(rng, 2), random_ifm(rng, 3)):
        for lam in (0.25, 0.5, 0.9):
            op = GeneralizedMean(lam, p)
            for m in (2, 3, 4):
                assert delta(power(A, m, op), brute_force_power(A, m, op)) <= 1e-12


def _pair_fold(op, a, b):
    if isinstance(op, GeneralizedMean):
        return gen_mean_pair(a, b, op.lam, op.p)
    return star_scalar(a, b, op.lam)


def _per_walk_power(A, m, op):
    """The enumeration as it was before prefix sharing: every m-walk
    folded from scratch, one validated ComponentPair per fold. The
    reference for the oracle's bits."""
    n = A.rows
    entries = [[A.entry(i, j) for j in range(n)] for i in range(n)]
    mu = np.empty((n, n))
    nu = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            best_mu = -1.0
            best_nu = 2.0
            for mids in product(range(n), repeat=m - 1):
                verts = (i, *mids, j)
                w = entries[verts[0]][verts[1]]
                for a, b in zip(verts[1:-1], verts[2:]):
                    w = _pair_fold(op, w, entries[a][b])
                best_mu = max(best_mu, w.mu)
                best_nu = min(best_nu, w.nu)
            mu[i, j] = best_mu
            nu[i, j] = best_nu
    return Ifm(mu, nu)


EDGE_OPERATORS = [
    *(GeneralizedMean(lam, p) for lam in (0.0, 0.25, 0.5, 0.9, 1.0)
      for p in (16.0, -16.0, -1.0, 0.5, 1.0, 2.0)),
    *(ConvexCombo(lam) for lam in (0.0, 0.5, 0.9, 1.0)),
]


def _edge_case(rng, n):
    """A random matrix with exact <1, 0> entries, +0.0 and -0.0
    components planted among uniform ones, and an operator drawn from
    the edges of its parameter range (lambda in {0, 1}, |p| = 16,
    ConvexCombo(1.0)). random_ifm and random_operator draw none of
    these."""
    A = random_ifm(rng, n)
    mu, nu = A.mu.copy(), A.nu.copy()
    for _ in range(rng.randint(1, n * n)):
        i, j = rng.randrange(n), rng.randrange(n)
        k = rng.random()
        if k < 0.3:
            mu[i, j], nu[i, j] = 1.0, 0.0
        elif k < 0.45:
            mu[i, j] = 0.0
        elif k < 0.6:
            mu[i, j] = -0.0
        elif k < 0.75:
            nu[i, j] = -0.0
        else:
            mu[i, j], nu[i, j] = -0.0, 1.0
    return Ifm(mu, nu), rng.choice(EDGE_OPERATORS)


def _same_bits(A, B):
    return A.mu.tobytes() == B.mu.tobytes() and A.nu.tobytes() == B.nu.tobytes()


def test_prefix_enumeration_matches_per_walk_bits():
    rng = random.Random(2024)
    for m in range(1, 6):
        for _ in range(30):
            A, op = _edge_case(rng, rng.randint(1, 4))
            assert _same_bits(brute_force_power(A, m, op), _per_walk_power(A, m, op)), (A, m, op)


@pytest.mark.parametrize("n, m", [(4, 4), (3, 5), (4, 1), (1, 5), (2, 2)])
def test_each_prefix_is_folded_once(monkeypatch, n, m):
    calls = []
    make_fold = GeneralizedMean.fold

    def counted_fold(op):
        fold = make_fold(op)

        def counted(*args):
            calls.append(args)
            return fold(*args)
        return counted

    monkeypatch.setattr(GeneralizedMean, "fold", counted_fold)
    brute_force_power(random_ifm(random.Random(n * m), n), m, GeneralizedMean(0.5, 2.0))
    # One fold per walk prefix of 2..m edges (1,344 at n = m = 4);
    # per-walk folding would make n^(m+1) * (m - 1), which is 3,072.
    assert len(calls) == n * sum(n ** d for d in range(2, m + 1))


def test_out_of_range_fold_is_caught(monkeypatch):
    # The first fold's mu reads 1.5. At lambda = 0 the next fold keeps
    # only its edge, so no finished walk is out of range: the check on
    # every fold is what raises.
    mean = GeneralizedMean.mean
    calls = []

    def out_of_range_once(op, x, y):
        calls.append(x)
        return 1.5 if len(calls) == 1 else mean(op, x, y)

    monkeypatch.setattr(GeneralizedMean, "mean", out_of_range_once)
    with pytest.raises(OutOfRangeError, match=r"components must lie in \[0, 1\], got <1.5, "):
        brute_force_power(A3, 3, GeneralizedMean(0.0, 1.0))


def test_engine_matches_oracle_on_edge_inputs():
    rng = random.Random(55)
    budget = OracleBudget(max_n=5, max_m=5)
    for _ in range(300):
        n = rng.randint(2, 5)
        m = rng.randint(2, 5)
        A, op = _edge_case(rng, n)
        assert delta(power(A, m, op), brute_force_power(A, m, op, budget)) <= 1e-12, (A, m, op)


def test_one_row_chunks_match_oracle_on_edge_inputs(monkeypatch):
    # At n <= 5 every reduction fits one chunk; a one-byte budget makes
    # each chunk hold one row of the left factor.
    monkeypatch.setattr(matrix, "CHUNK_BYTES", 1)
    assert matrix._Right(np.ones((5, 5)), 5).rows == 1
    rng = random.Random(57)
    budget = OracleBudget(max_n=5, max_m=5)
    for _ in range(300):
        n = rng.randint(2, 5)
        m = rng.randint(2, 5)
        A, op = _edge_case(rng, n)
        assert delta(power(A, m, op), brute_force_power(A, m, op, budget)) <= 1e-12, (A, m, op)


@pytest.mark.parametrize("chunk_bytes", [1, matrix.CHUNK_BYTES], ids=["one-byte", "default"])
def test_pruned_kernel_matches_oracle_on_edge_inputs(monkeypatch, kernel_log, chunk_bytes):
    # The oracle reaches n <= 5 only, far below PRUNE_MIN_T. With the
    # activation constants lowered, compose prunes at these sizes too.
    # A one-byte budget holds no one-by-one re-reduce grid, so a row
    # group with any miss declines to the full reduce; the default
    # budget holds every grid at n <= 5, so no group declines, and every
    # entry the bound cannot prove is recomputed one by one.
    monkeypatch.setattr(matrix, "PRUNE_K", 1)
    monkeypatch.setattr(matrix, "PRUNE_MIN_T", 2)
    monkeypatch.setattr(matrix, "CHUNK_BYTES", chunk_bytes)
    rng = random.Random(56)
    budget = OracleBudget(max_n=5, max_m=5)
    with kernel_log as log:
        for _ in range(300):
            n = rng.randint(2, 5)
            m = rng.randint(2, 5)
            A, op = _edge_case(rng, n)
            assert delta(power(A, m, op), brute_force_power(A, m, op, budget)) <= 1e-12, (A, m, op)
    assert len(log.tops) > 300
    # At t >= PRUNE_MIN_T every full reduce is a declined group.
    assert log.full_rows if chunk_bytes == 1 else not log.full_rows
