import random

import pytest

from ifmpower import (
    BudgetExceededError,
    ConvexCombo,
    GeneralizedMean,
    Ifm,
    MismatchFoundError,
    OracleBudget,
    brute_force_power,
    compose,
    delta,
    differential_check,
    power,
)
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
