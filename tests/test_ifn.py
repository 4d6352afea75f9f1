import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ifmpower import (
    ComponentPair,
    Ifn,
    NotDominatedError,
    OutOfRangeError,
    SumViolationError,
    ZeroPError,
    dominance_leq,
    gen_mean_pair,
    gen_mean_scalar,
    ifn_diff,
    scalar_mult,
    star_scalar,
)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
lam_st = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
p_st = st.floats(min_value=-4.0, max_value=4.0).filter(lambda p: abs(p) > 1e-3)


def ifn_st():
    return st.tuples(unit, unit).map(lambda t: Ifn(t[0], t[1] * (1.0 - t[0])))


class TestMakeIfn:
    """Constructing an Ifn validates the range and the sum constraint."""

    def test_boundary(self):
        a = Ifn(1, 0)
        assert (a.mu, a.nu) == (1.0, 0.0)

    def test_interior(self):
        a = Ifn(0.6, 0.3)
        assert (a.mu, a.nu) == (0.6, 0.3)

    def test_sum_violation(self):
        with pytest.raises(SumViolationError):
            Ifn(0.7, 0.7)

    def test_out_of_range(self):
        with pytest.raises(OutOfRangeError):
            Ifn(-0.1, 0.5)
        with pytest.raises(OutOfRangeError):
            Ifn(0.5, 1.2)

    def test_component_pair_allows_sum_above_one(self):
        p = ComponentPair(0.7, 0.7)
        assert p.mu + p.nu > 1.0


class TestDominance:
    def test_top_element(self):
        assert dominance_leq(Ifn(0.5, 0.4), Ifn(1, 0))

    def test_ordered_pair(self):
        assert dominance_leq(Ifn(0.7, 0.3), Ifn(0.8, 0.1))

    def test_incomparable_both_ways(self):
        a, b = Ifn(0.5, 0.1), Ifn(0.6, 0.3)
        assert not dominance_leq(a, b)
        assert not dominance_leq(b, a)


class TestGenMeanScalar:
    def test_arithmetic_case(self):
        assert gen_mean_scalar(0.6, 0.8, 0.5, 1) == pytest.approx(0.7, abs=1e-12)

    def test_equal_arguments_exact(self):
        assert gen_mean_scalar(0.5, 0.5, 0.37, 2.5) == 0.5

    def test_zero_argument_negative_p(self):
        assert gen_mean_scalar(0.0, 0.8, 0.5, -1) == 0.0

    def test_lambda_one_collapses(self):
        assert gen_mean_scalar(0.3, 0.9, 1.0, -2) == 0.3

    def test_zero_p_rejected(self):
        with pytest.raises(ZeroPError):
            gen_mean_scalar(0.5, 0.5, 0.5, 0)

    @given(x=unit, y=unit, lam=lam_st, p=p_st)
    def test_between_min_and_max(self, x, y, lam, p):
        m = gen_mean_scalar(x, y, lam, p)
        assert min(x, y) - 1e-12 <= m <= max(x, y) + 1e-12

    @given(x=unit, y=unit, lam=lam_st, p=p_st, q=p_st)
    def test_monotone_in_p(self, x, y, lam, p, q):
        # power-mean inequality
        if p > q:
            p, q = q, p
        assert gen_mean_scalar(x, y, lam, p) <= gen_mean_scalar(x, y, lam, q) + 1e-12

    @given(x=unit, y=unit, d=unit, lam=lam_st, p=p_st)
    def test_monotone_in_arguments(self, x, y, d, lam, p):
        x2 = min(1.0, x + d)
        assert gen_mean_scalar(x, y, lam, p) <= gen_mean_scalar(x2, y, lam, p) + 1e-12

    @given(x=unit, lam=lam_st, p=p_st)
    def test_idempotent(self, x, lam, p):
        assert gen_mean_scalar(x, x, lam, p) == pytest.approx(x, abs=1e-12)


class TestGenMeanPair:
    def test_equal_maximal(self):
        top = Ifn(1, 0)
        assert gen_mean_pair(top, top, 0.6, 1) == ComponentPair(1, 0)

    def test_arithmetic_components(self):
        r = gen_mean_pair(Ifn(0.6, 0.3), Ifn(0.8, 0.1), 0.5, 1)
        assert r.mu == pytest.approx(0.7, abs=1e-12)
        assert r.nu == pytest.approx(0.2, abs=1e-12)

    def test_weighted_convex(self):
        # 0.6*0.5 + 0.4*1 and 0.6*0.4 + 0.4*0, evaluated by hand
        r = gen_mean_pair(Ifn(0.5, 0.4), Ifn(1, 0), 0.6, 1)
        assert r.mu == pytest.approx(0.7, abs=1e-12)
        assert r.nu == pytest.approx(0.24, abs=1e-12)


class TestStarScalar:
    def test_worked_case_ac(self):
        r = star_scalar(Ifn(0.7, 0.3), Ifn(0.6, 0.3), 0.4)
        assert (r.mu, r.nu) == (pytest.approx(0.63, abs=1e-12),
                                pytest.approx(0.30, abs=1e-12))

    def test_worked_case_bc(self):
        r = star_scalar(Ifn(0.8, 0.1), Ifn(0.6, 0.3), 0.4)
        assert (r.mu, r.nu) == (pytest.approx(0.66, abs=1e-12),
                                pytest.approx(0.24, abs=1e-12))

    @given(a=ifn_st(), lam=lam_st)
    def test_idempotent(self, a, lam):
        r = star_scalar(a, a, lam)
        assert r.mu == pytest.approx(a.mu, abs=1e-12)
        assert r.nu == pytest.approx(a.nu, abs=1e-12)

    @given(a=ifn_st(), b=ifn_st(), lam=lam_st)
    def test_commutative(self, a, b, lam):
        r1, r2 = star_scalar(a, b, lam), star_scalar(b, a, lam)
        assert (r1.mu, r1.nu) == (r2.mu, r2.nu)

    @given(a=ifn_st(), b=ifn_st(), c=ifn_st(), lam=lam_st)
    def test_contraction_bound(self, a, b, c, lam):
        # |star(b,c) - star(a,c)| <= alpha * |b - a| per component,
        # alpha = (1 + lam) / 2, for dominance-ordered a <= b
        lo = Ifn(min(a.mu, b.mu), max(a.nu, b.nu))
        hi = Ifn(max(a.mu, b.mu), min(a.nu, b.nu))
        alpha = (1.0 + lam) / 2.0
        rb, ra = star_scalar(hi, c, lam), star_scalar(lo, c, lam)
        assert abs(rb.mu - ra.mu) <= alpha * (hi.mu - lo.mu) + 1e-12
        assert abs(rb.nu - ra.nu) <= alpha * (lo.nu - hi.nu) + 1e-12


class TestScalarMult:
    def test_worked_case(self):
        r = scalar_mult(0.7, Ifn(0.1, 0.2))
        assert (r.mu, r.nu) == (pytest.approx(0.07, abs=1e-12),
                                pytest.approx(0.06, abs=1e-12))

    @given(a=ifn_st())
    def test_lambda_one(self, a):
        assert scalar_mult(1.0, a) == Ifn(a.mu, 0.0)

    @given(a=ifn_st())
    def test_lambda_zero(self, a):
        assert scalar_mult(0.0, a) == Ifn(0.0, a.nu)


class TestIfnDiff:
    def test_worked_case(self):
        d = ifn_diff(Ifn(0.8, 0.1), Ifn(0.7, 0.3))
        assert (d.mu, d.nu) == (pytest.approx(0.1, abs=1e-12),
                                pytest.approx(0.2, abs=1e-12))

    def test_star_difference_case(self):
        d = ifn_diff(ComponentPair(0.66, 0.24), ComponentPair(0.63, 0.30))
        assert (d.mu, d.nu) == (pytest.approx(0.03, abs=1e-12),
                                pytest.approx(0.06, abs=1e-12))

    @given(a=ifn_st())
    def test_self_difference(self, a):
        assert ifn_diff(a, a) == ComponentPair(0.0, 0.0)

    def test_not_dominated_rejected(self):
        with pytest.raises(NotDominatedError):
            ifn_diff(Ifn(0.5, 0.1), Ifn(0.6, 0.3))

    @given(a=ifn_st(), b=ifn_st())
    def test_readdition_recovers(self, a, b):
        # float subtraction then re-addition lands within one ulp
        lo = Ifn(min(a.mu, b.mu), max(a.nu, b.nu))
        hi = Ifn(max(a.mu, b.mu), min(a.nu, b.nu))
        d = ifn_diff(hi, lo)
        assert abs(lo.mu + d.mu - hi.mu) <= math.ulp(1.0)
        assert abs(lo.nu - d.nu - hi.nu) <= math.ulp(1.0)


def test_harmonic_mean_matches_direct_formula():
    x, y = 0.4, 0.8
    expected = 2.0 / (1.0 / x + 1.0 / y)
    assert gen_mean_scalar(x, y, 0.5, -1) == pytest.approx(expected, abs=1e-12)


def test_root_power_matches_direct_formula():
    x, y = 0.4, 0.8
    expected = math.sqrt((x**2 + y**2) / 2.0)
    assert gen_mean_scalar(x, y, 0.5, 2) == pytest.approx(expected, abs=1e-12)
