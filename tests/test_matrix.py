import tracemalloc

import numpy as np
import pytest

from ifmpower import (
    ConvexCombo,
    DimensionMismatchError,
    DomainError,
    GeneralizedMean,
    Ifm,
    ZeroPError,
    arith_mean,
    compose,
    convex_mean,
    delta,
    harmonic,
    is_universal,
    power,
    power_sequence,
    root_power,
    row_uniformity,
    step_bound,
)
from ifmpower import matrix
from ifmpower.cli import parse_matrix
from ifmpower.matrix import CHUNK_BYTES, PRUNE_K, PRUNE_MIN_T
from ifmpower.oracle import OracleBudget, brute_force_power

# 3x3 instance whose powers converge to the universal matrix at
# lambda=0.6, p=1; every column holds an exact <1,0>.
A3 = Ifm.from_pairs([
    [(1, 0), (0.5, 0.4), (0, 1)],
    [(0, 1), (0.6, 0.3), (1, 0)],
    [(1, 0), (1, 0), (0, 1)],
])

# 3x3 instance for the convex-combination operator at lambda=0.5.
B3 = Ifm.from_pairs([
    [(0, 1), (1, 0), (0.5, 0.4)],
    [(1, 0), (0, 1), (1, 0)],
    [(0.6, 0.3), (1, 0), (0, 1)],
])

GM = GeneralizedMean(0.6, 1)


def test_presets():
    assert arith_mean() == GeneralizedMean(0.5, 1.0)
    assert root_power(2) == GeneralizedMean(0.5, 2.0)
    assert convex_mean(0.3) == GeneralizedMean(0.3, 1.0)
    assert harmonic() == GeneralizedMean(0.5, -1.0)
    assert ConvexCombo(0.5).alpha == 0.75


def test_operator_validation():
    with pytest.raises(ZeroPError):
        GeneralizedMean(0.5, 0)
    with pytest.raises(ValueError):
        GeneralizedMean(1.5, 1)
    with pytest.raises(ValueError):
        ConvexCombo(-0.2)
    with pytest.raises(ValueError) as raised:
        ConvexCombo(1.5)
    assert not isinstance(raised.value, DomainError)
    with pytest.raises(ValueError, match="root-power preset needs p > 0, got 0"):
        root_power(0)


@pytest.mark.parametrize("lam", [np.nan, np.inf, -np.inf])
def test_convex_combo_rejects_non_finite_lambda(lam):
    with pytest.raises(DomainError):
        ConvexCombo(lam)


@pytest.mark.parametrize("lam, p", [
    (0.5, np.inf), (0.5, -np.inf), (0.5, np.nan), (np.nan, 1.0), (np.inf, 1.0),
    # 1/p overflows to inf
    (0.5, 1e-320), (0.5, -5e-309),
])
def test_operator_rejects_non_finite_parameters(lam, p):
    with pytest.raises(DomainError):
        GeneralizedMean(lam, p)


def test_smallest_p_with_finite_reciprocal_accepted():
    GeneralizedMean(0.5, 6e-309)


@pytest.mark.parametrize("eps", [np.nan, np.inf, 0.0, -1.0])
def test_power_sequence_rejects_bad_eps(eps):
    with pytest.raises(ValueError, match="eps"):
        power_sequence(Ifm.universal(2), GeneralizedMean(0.5, 1.0), eps=eps)


@pytest.mark.parametrize("max_iter", [0, -3])
def test_power_sequence_rejects_max_iter_below_one(max_iter):
    with pytest.raises(ValueError, match="max_iter"):
        power_sequence(Ifm.universal(2), GeneralizedMean(0.5, 1.0), max_iter=max_iter)


def test_ifm_stores_a_private_copy_with_positive_zeros():
    mu, nu = np.array([[-0.0, 0.5]]), np.array([[0.5, -0.0]])
    M = Ifm(mu, nu)
    assert not np.signbit(M.mu).any() and not np.signbit(M.nu).any()
    assert mu.flags.writeable and nu.flags.writeable
    mu[0, 1] = nu[0, 0] = 0.25
    assert M.mu.tolist() == [[0.0, 0.5]] and M.nu.tolist() == [[0.5, 0.0]]
    assert not M.mu.flags.writeable and not M.nu.flags.writeable
    # Only another Ifm compares equal.
    assert not Ifm.universal(2) == "x" and Ifm.universal(2) != "x"


@pytest.mark.parametrize("make", [
    lambda: Ifm([[-0.0, 0.5]], [[0.5, -0.0]]),
    lambda: compose(A3, A3, GM),
    lambda: compose(B3, B3, ConvexCombo(0.5)),
    lambda: parse_matrix('{"rows": 1, "cols": 2, "entries": '
                         '[[{"mu": -0.0, "nu": 0.5}, {"mu": 0.5, "nu": -0.0}]]}'),
], ids=["init", "compose-gm", "compose-star", "parse"])
def test_ifm_components_are_planes_of_one_read_only_array(make):
    M = make()
    assert M.pairs.shape == (2, M.rows, M.cols)
    assert not np.signbit(M.pairs).any()
    assert M.mu.base is M.pairs and M.nu.base is M.pairs
    assert not M.pairs.flags.writeable
    assert not M.mu.flags.writeable and not M.nu.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        M.pairs[1, 0, 0] = 0.25


def test_from_pairs_ragged():
    with pytest.raises(DimensionMismatchError):
        Ifm.from_pairs([[(1, 0), (0, 1)], [(1, 0)]])


def test_from_pairs_empty():
    with pytest.raises(DimensionMismatchError, match="matrix must be non-empty"):
        Ifm.from_pairs([])


@pytest.mark.parametrize("mu, nu, message", [
    ([0.5, 0.2], [0.1, 0.2], "share a 2-D shape"),
    ([[0.5, 0.2]], [[0.1], [0.2]], "share a 2-D shape"),
    (np.empty((0, 2)), np.empty((0, 2)), "non-empty"),
], ids=["1-D", "mismatched", "empty"])
def test_ifm_rejects_bad_grids(mu, nu, message):
    with pytest.raises(DimensionMismatchError, match=message):
        Ifm(mu, nu)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -5e-324, np.nextafter(1, 2)])
def test_non_finite_components_rejected(bad):
    with pytest.raises(ValueError):
        Ifm([[0.5, bad]], [[0.1, 0.2]])
    with pytest.raises(ValueError):
        Ifm([[0.5, 0.2]], [[0.1, bad]])


def _star_reference(lam, extreme):
    """ConvexCombo's combine for mu (extreme = np.minimum) or for nu
    (np.maximum), written out as one expression."""
    return lambda x, y: lam * extreme(x, y) + (1.0 - lam) * (x + y) / 2.0


def _broadcast_compose(A, B, op):
    """Reference: the n^3 broadcast formula, with one power mean per
    (i, t, j) cell, that compose evaluated before the row-blocked
    s = x^p kernel; lam in (0, 1) for GeneralizedMean."""
    if isinstance(op, GeneralizedMean):
        lam, p = op.lam, op.p

        def grid(x, y):
            with np.errstate(divide="ignore"):
                xp, yp = x**p, y**p
                return (lam * xp[:, :, None] + (1.0 - lam) * yp[None, :, :]) ** (1.0 / p)

        mu = grid(A.mu, B.mu).max(axis=1)
        nu = grid(A.nu, B.nu).min(axis=1)
    else:
        mu = _star_reference(op.lam, np.minimum)(A.mu[:, :, None], B.mu[None]).max(axis=1)
        nu = _star_reference(op.lam, np.maximum)(A.nu[:, :, None], B.nu[None]).min(axis=1)
    return np.clip(mu, 0.0, 1.0), np.clip(nu, 0.0, 1.0)


def _random_ifm(n, seed):
    # Planted exact +-0 and <1, 0> entries exercise the p < 0 zero
    # convention, signed zeros and ties in the reductions.
    rng = np.random.default_rng(seed)
    u = rng.random((n, n))
    v = rng.random((n, n)) * (1 - u)
    for x in (u, v):
        x[rng.random((n, n)) < 0.05] = 0.0
        x[rng.random((n, n)) < 0.05] = -0.0
    one = rng.random((n, n)) < 0.02
    u[one], v[one] = 1.0, 0.0
    return Ifm(u, v)


class TestCompose:
    @pytest.mark.parametrize("op", [GM, ConvexCombo(0.5), GeneralizedMean(1.0, 1.0), harmonic()])
    def test_universal_fixed_point(self, op):
        U = Ifm.universal(3)
        assert compose(U, U, op) == U

    def test_example_entry_11(self):
        # max_t(0.6*a_1t + 0.4*a_t1) attains 1 at t=1, min side 0 at t=1
        sq = compose(A3, A3, GM)
        assert sq.mu[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert sq.nu[0, 0] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("op", [GM, ConvexCombo(0.3), root_power(2)])
    def test_one_by_one_idempotent(self, op):
        M = Ifm.from_pairs([[(0.4, 0.5)]])
        sq = compose(M, M, op)
        assert sq.mu[0, 0] == pytest.approx(0.4, abs=1e-12)
        assert sq.nu[0, 0] == pytest.approx(0.5, abs=1e-12)

    def test_dimension_mismatch(self):
        M = Ifm.from_pairs([[(0.4, 0.5), (0.2, 0.2)]])
        with pytest.raises(DimensionMismatchError):
            compose(M, M, GM)

    def test_closure_p_le_1(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            u = rng.random((4, 4))
            M = Ifm(u, rng.random((4, 4)) * (1 - u))
            for op in (GeneralizedMean(0.4, 1), GeneralizedMean(0.4, 0.5),
                       harmonic(), ConvexCombo(0.25)):
                assert compose(M, M, op).sum_violations() == 0

    def test_p_above_1_can_violate_sum(self):
        # off-diagonal entries mix 0.4 and 0.6 in both components; the
        # p=4 mean exceeds the arithmetic mean on each side, so
        # mu + nu > 1 appears and must be surfaced, not clamped
        M = Ifm.from_pairs([[(0.6, 0.4), (0.4, 0.6)], [(0.4, 0.6), (0.6, 0.4)]])
        out = compose(M, M, GeneralizedMean(0.5, 4))
        assert out.sum_violations() > 0
        assert out.mu[0, 1] + out.nu[0, 1] > 1.05

    @pytest.mark.parametrize("op", [GeneralizedMean(0.6, -1), GeneralizedMean(0.9, 0.5),
                                    GeneralizedMean(0.3, 2), ConvexCombo(0.5)])
    def test_bit_identical_to_broadcast_formula(self, op):
        n = 120
        assert CHUNK_BYTES // (8 * PRUNE_K * n) < n  # at least two row groups
        A, B = _random_ifm(n, 1), _random_ifm(n, 2)
        out = compose(A, B, op)
        mu, nu = _broadcast_compose(A, B, op)
        assert out.mu.tobytes() == mu.tobytes()
        assert out.nu.tobytes() == nu.tobytes()

    @pytest.mark.parametrize("p", [-1.0, -3.0])
    def test_negative_zero_is_zero(self, p):
        # (-0.0)^p is -inf for odd integer p < 0; a -0.0 entry must still
        # count as 0, alone and next to a +0.0 (where -inf + inf is NaN).
        op = GeneralizedMean(0.5, p)
        A = Ifm([[-0.0, 0.5], [0.5, 0.5]], [[0.5, -0.0], [0.0, 0.5]])
        assert compose(A, A, op).mu[0, 0] == 0.5
        for M in (A, _random_ifm(3, 4), _random_ifm(4, 5)):
            for m in (2, 3, 4):
                assert delta(power(M, m, op), brute_force_power(M, m, op)) <= 1e-12

    @pytest.mark.parametrize("op", [GeneralizedMean(0.6, 2), ConvexCombo(0.5)])
    def test_temporaries_bounded(self, op):
        # The broadcast formula peaked at 2 * n^3 * 8 bytes (128 MB).
        A = _random_ifm(200, 3)
        tracemalloc.start()
        try:
            compose(A, A, op)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestPower:
    def test_base_case(self):
        assert power(A3, 1, GM) == A3

    def test_universal_all_k(self):
        U = Ifm.universal(2)
        for k in (1, 2, 5):
            assert power(U, k, GM) == U

    def test_paper_b8_entry(self):
        b8 = power(B3, 8, ConvexCombo(0.5))
        assert b8.mu[0, 1] == pytest.approx(0.93326, abs=1e-3)
        assert b8.nu[0, 1] == pytest.approx(0.05339, abs=1e-3)

    def test_left_fold_differs_from_right_fold(self):
        op = ConvexCombo(0.5)
        left = power(B3, 3, op)
        right = compose(B3, compose(B3, B3, op), op)
        assert left != right

    @pytest.mark.parametrize("fn", [power, brute_force_power])
    def test_exponent_below_one_rejected(self, fn):
        with pytest.raises(ValueError, match="power exponent must be >= 1, got 0"):
            fn(A3, 0, GM)


class TestDelta:
    def test_self(self):
        assert delta(A3, A3) == 0.0

    def test_extreme_pair(self):
        zero = Ifm(np.zeros((3, 3)), np.ones((3, 3)))
        assert delta(Ifm.universal(3), zero) == 1.0

    def test_first_step_below_trivial_bound(self):
        assert delta(power(A3, 2, GM), A3) <= step_bound(GM, 2)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError, match=r"shape mismatch: \(3, 3\) vs \(2, 2\)"):
            delta(A3, Ifm.universal(2))


class TestRowUniformity:
    def test_universal(self):
        assert row_uniformity(Ifm.universal(3)) == 0.0

    def test_limit_rows_identical(self):
        rep = power_sequence(A3, GM, eps=1e-12)
        assert rep.converged
        assert row_uniformity(rep.limit) <= 1e-11

    def test_distinct_rows_positive(self):
        assert row_uniformity(A3) > 0


class TestIsUniversal:
    def test_exact(self):
        assert is_universal(Ifm.universal(2), 0.0)

    def test_a25(self):
        assert is_universal(power(A3, 25, GM), 1e-5)

    def test_a_itself(self):
        assert not is_universal(A3, 1e-5)


class TestPowerSequence:
    def test_example_converges_to_u_by_25(self):
        rep = power_sequence(A3, GM, eps=1e-12)
        assert rep.converged
        assert is_universal(rep.limit, 1e-5)
        assert is_universal(power(A3, 25, GM), 1e-5)

    def test_b_converges_to_u_by_28(self):
        rep = power_sequence(B3, ConvexCombo(0.5), eps=1e-12)
        assert rep.converged
        assert is_universal(power(B3, 28, ConvexCombo(0.5)), 1e-3)

    def test_universal_converges_immediately(self):
        rep = power_sequence(Ifm.universal(3), GM)
        assert rep.converged
        assert rep.iterations == 1
        assert rep.deltas == [0.0]
        assert rep.limit == Ifm.universal(3)

    def test_deltas_length_matches_iterations(self):
        rep = power_sequence(A3, GM, eps=1e-12)
        assert len(rep.deltas) == rep.iterations
        assert rep.deltas[-1] <= 1e-12

    def test_cauchy_bound_p_ge_1(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            u = rng.random((4, 4))
            M = Ifm(u, rng.random((4, 4)) * (1 - u))
            for op in (GeneralizedMean(0.7, 1), GeneralizedMean(0.7, 2)):
                rep = power_sequence(M, op, eps=1e-13, max_iter=150)
                for d, b in zip(rep.deltas, rep.bound_trace):
                    assert d <= b + 1e-12

    def test_step_bound_below_p_1(self):
        # at p = 0.5 the published lam^((m-2)/p) = 0.0625 is below the
        # real step delta(A^4, A^3) = 0.4375; (1/p) * lam^(m-2) = 0.5 holds
        M = Ifm.from_pairs([[(0, 0.8), (1, 0)], [(1, 0), (0, 0.8)]])
        op = GeneralizedMean(0.5, 0.5)
        d = delta(power(M, 4, op), power(M, 3, op))
        oracle = delta(brute_force_power(M, 4, op), brute_force_power(M, 3, op))
        assert d == pytest.approx(oracle, abs=1e-12)
        bound = step_bound(op, 4)
        assert bound == pytest.approx(0.5, abs=1e-12)
        assert d <= bound
        assert d > op.lam ** ((4 - 2) / op.p)  # the published form, 0.0625

    def test_convex_combo_bound(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            u = rng.random((4, 4))
            M = Ifm(u, rng.random((4, 4)) * (1 - u))
            rep = power_sequence(M, ConvexCombo(0.5), eps=1e-13, max_iter=150)
            for d, b in zip(rep.deltas, rep.bound_trace):
                assert d <= b + 1e-12

    def test_negative_p_bounds_not_applicable(self):
        rep = power_sequence(A3, harmonic(), eps=1e-12, max_iter=50)
        assert all(b is None for b in rep.bound_trace)

    def test_max_min_oscillation_detected(self):
        flip = Ifm.from_pairs([[(0, 1), (1, 0)], [(1, 0), (0, 1)]])
        rep = power_sequence(flip, ConvexCombo(1.0), eps=1e-12, max_iter=50)
        assert not rep.converged
        assert rep.oscillation_period == 2

    def test_long_oscillation_memory_bounded(self):
        # A permutation matrix with cycles of lengths 2, 3, 5, 7 and 11
        # repeats under max-min composition with period 2310; keeping
        # every power until then would hold 2310 * 28^2 * 16 bytes.
        perm, start = [], 0
        for length in (2, 3, 5, 7, 11):
            perm += [start + (i + 1) % length for i in range(length)]
            start += length
        n = len(perm)
        P = np.zeros((n, n))
        P[np.arange(n), perm] = 1.0
        A = Ifm(P, 1.0 - P)
        tracemalloc.start()
        try:
            rep = power_sequence(A, ConvexCombo(1.0), max_iter=3000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not rep.converged
        assert rep.oscillation_period == rep.iterations == 2310
        assert rep.limit == A
        assert peak < 4 * 2**20

    def test_oscillation_matches_kept_powers(self):
        # The hash-keyed detection reports the period and iteration
        # count of a search that keeps every power; these inputs repeat
        # after a preperiod, so each hit folds A^k again.
        op = ConvexCombo(1.0)
        for seed in range(8):
            A = _random_ifm(8, seed)
            kept, X = [A], A
            while X not in kept[:-1]:
                X = compose(X, A, op)
                kept.append(X)
            first = kept.index(X) + 1
            rep = power_sequence(A, op, max_iter=100)
            if first == len(kept) - 1:
                assert rep.converged, seed
            else:
                assert rep.oscillation_period == len(kept) - first, seed
            assert rep.iterations == len(kept) - 1, seed

    def test_digest_hit_needs_an_equal_power(self, monkeypatch):
        # Every power gets the same hash, so every step is a hit against
        # every earlier power. The flip matrix returns to A, and its
        # period is found; random inputs leave A behind, and their
        # repeats are still found against a later A^k with that hash.
        op = ConvexCombo(1.0)
        flip = Ifm.from_pairs([[(0, 1), (1, 0)], [(1, 0), (0, 1)]])
        inputs = [flip, *(_random_ifm(8, seed) for seed in range(8))]
        want = [power_sequence(A, op, max_iter=100) for A in inputs]
        monkeypatch.setattr(Ifm, "__hash__", lambda M: 0)
        for A, w in zip(inputs, want):
            rep = power_sequence(A, op, max_iter=100)
            assert (rep.iterations, rep.oscillation_period, rep.converged) == (
                w.iterations, w.oscillation_period, w.converged)
            assert rep.limit == w.limit
        assert want[0].oscillation_period == 2 and want[0].iterations == 2
        assert sum(w.oscillation_period is not None for w in want[1:]) >= 6

    def test_lambda_one_gen_mean_no_bound_claim(self):
        rep = power_sequence(A3, GeneralizedMean(1.0, 1.0), eps=1e-12, max_iter=50)
        assert all(b is None for b in rep.bound_trace)


class TestPMonotonicity:
    def test_componentwise_nondecreasing_in_p(self):
        rng = np.random.default_rng(21)
        ps = [-1.0, 0.5, 1.0, 2.0]
        for _ in range(10):
            u = rng.random((3, 3))
            M = Ifm(u, rng.random((3, 3)) * (1 - u))
            for k in (2, 3, 5):
                powers = [power(M, k, GeneralizedMean(0.5, p)) for p in ps]
                for lo, hi in zip(powers, powers[1:]):
                    assert (hi.mu - lo.mu).min() >= -1e-12
                    assert (hi.nu - lo.nu).min() >= -1e-12

    def test_mu_distance_to_one_nonincreasing_in_p(self):
        # with every column holding <1,0>, larger p closes the mu gap
        # to 1 at least as fast at each step
        for k in range(2, 12):
            lo = power(A3, k, GeneralizedMean(0.6, 0.5))
            hi = power(A3, k, GeneralizedMean(0.6, 2.0))
            assert ((1 - hi.mu) - (1 - lo.mu)).max() <= 1e-12


def test_membership_upper_bound_without_critical_tail():
    # column 2 holds no <1,0>, so every walk into it carries a zero edge
    # and its mu entries of A^n stay below (1 - lam^n)^(1/p); the bound
    # needs 1 - lam >= lam^2, hence lam <= 0.6 here
    M = Ifm.from_pairs([
        [(1, 0), (0, 1), (1, 0)],
        [(1, 0), (0, 1), (0, 1)],
        [(0, 1), (0, 1), (1, 0)],
    ])
    for lam, p in [(0.3, 1.0), (0.5, 2.0), (0.6, 1.0), (0.6, 2.0)]:
        for n in range(2, 10):
            An = power(M, n, GeneralizedMean(lam, p))
            assert An.mu[:, 1].max() <= (1 - lam**n) ** (1 / p) + 1e-12


# Bytes of (rows, t, c) terms per row block of _reference_reduce_rows.
REFERENCE_TERM_BYTES = 8 * 2**20


def _reference_reduce_rows(reduce, combine, x, y):
    """The kernel before pruning: every entry reduced over every t, in
    broadcast row blocks of about REFERENCE_TERM_BYTES."""
    r, t = x.shape
    c = y.shape[1]
    step = max(1, REFERENCE_TERM_BYTES // (8 * t * c))
    if step >= r:
        return reduce.reduce(combine(x[:, :, None], y), axis=1)
    out = np.empty((r, c))
    for i in range(0, r, step):
        reduce.reduce(combine(x[i:i + step, :, None], y), axis=1, out=out[i:i + step])
    return out


def _reference_on_right(combine, x, right, out):
    """_reference_reduce_rows by max, with the signature of _reduce_rows,
    whose right factor comes prepared."""
    out[...] = _reference_reduce_rows(np.maximum, combine, x, right.y)
    return out


def _reference(fn, *args, **kwargs):
    """fn(*args, **kwargs) with every reduction taken by
    _reference_on_right."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(matrix, "_reduce_rows", _reference_on_right)
        return fn(*args, **kwargs)


def _late_input(n, kind, seed):
    """A random matrix with the structure named by kind: planted +-0.0
    and <1, 0> entries, constant columns, or a coarse grid full of ties."""
    rng = np.random.default_rng(seed)
    u = rng.random((n, n))
    v = rng.random((n, n)) * (1 - u)
    if kind == "signed-zeros":
        for x in (u, v):
            x[rng.random((n, n)) < 0.05] = 0.0
            x[rng.random((n, n)) < 0.05] = -0.0
        one = rng.random((n, n)) < 0.02
        u[one], v[one] = 1.0, 0.0
    elif kind == "constant-columns":
        cols = rng.random(n) < 0.2
        u[:, cols] = rng.random(cols.sum())
        v[:, cols] = rng.random(cols.sum()) * (1 - u[:, cols])
    elif kind == "coarse-grid":
        u = np.floor(rng.random((n, n)) * 5) / 5
        v = np.floor(rng.random((n, n)) * 5) / 5 * (1 - u)
    return Ifm(u, v)


LATE_OPS = [*(GeneralizedMean(0.6, p) for p in (-2.0, -1.0, 0.5, 1.0, 2.0)),
            *(ConvexCombo(lam) for lam in (0.0, 0.5, 1.0))]
PLAIN_LATE_OPS = [*(GeneralizedMean(0.6, p) for p in (0.5, 1.0, 2.0)), ConvexCombo(0.5)]


class TestPrunedKernel:
    """_reduce_rows proves most entries from 2 * PRUNE_K candidate t;
    every output bit must match the kernel that reduces over all t."""

    @pytest.mark.parametrize("kind", ["signed-zeros", "constant-columns", "coarse-grid"])
    @pytest.mark.parametrize("n", [64, 100, 150])
    def test_late_iterates_bit_identical(self, n, kind):
        # The broadcast formula reduces mu and nu by max and min on the
        # terms as they are, where compose negates the min side.
        A = _late_input(n, kind, n)
        for op in LATE_OPS:
            X = power(A, 20, op)
            got = compose(X, A, op)
            want = _reference(compose, X, A, op)
            mu, nu = _broadcast_compose(X, A, op)
            assert got.mu.tobytes() == want.mu.tobytes() == mu.tobytes(), op
            assert got.nu.tobytes() == want.nu.tobytes() == nu.tobytes(), op

    def test_late_iterate_mostly_certified(self):
        # Every entry outside the candidates costs t combine terms, so
        # fewer than 10% * r * c * t terms beyond the candidate and bound
        # grids means at least 90% of the entries were certified.
        n = 150
        A = _late_input(n, "constant-columns", n)
        op = GeneralizedMean(0.6, 2.0)
        X = power(A, 20, op)
        x, y = op.lam * X.mu**op.p, (1 - op.lam) * A.mu**op.p
        terms = []

        def counted_add(a, b, out=None):
            out = np.add(a, b, out=out)
            terms.append(out.size)
            return out

        got = np.full((n, n), np.nan)
        matrix._reduce_rows(counted_add, x, matrix._Right(y, n), got)
        assert got.tobytes() == _reference_reduce_rows(np.maximum, np.add, x, y).tobytes()
        assert sum(terms) < n * n * (2 * PRUNE_K + 1) + 0.1 * n**3

    @pytest.mark.parametrize("op", PLAIN_LATE_OPS, ids=repr)
    def test_late_step_proven_from_right_candidates(self, kernel_log, op):
        # In a late step the left factor has contracted, and A's own
        # PRUNE_K largest terms per column prove every entry: no row
        # group partitions its rows of the left factor, and each entry
        # combines its PRUNE_K candidate terms and one bound term, and
        # nothing else. Two candidate lists would take 2 * PRUNE_K + 1.
        n = 150
        A = _late_input(n, "plain", n)
        X = power(A, 20, op)
        right = matrix._prepare(A, op, n)
        with kernel_log as log:
            got = compose(X, A, op, _right=right)
        assert log.tops == []
        assert log.terms <= 2 * n * n * (PRUNE_K + 1)  # mu and nu
        want = _reference(compose, X, A, op, _right=right)
        assert got.mu.tobytes() == want.mu.tobytes()
        assert got.nu.tobytes() == want.nu.tobytes()

    def test_row_candidates_prove_what_right_candidates_cannot(self, kernel_log):
        # The first row group's rows each hold PRUNE_K large entries
        # among small ones, as every column of y does. Where a row's
        # large t miss a column's, the column's candidates stay below
        # combine(row max, y'_j), so the group takes its own candidates,
        # which prove it. The second group's rows are nearly constant,
        # and the column candidates prove them alone.
        rng = np.random.default_rng(12)
        n = 100
        step = CHUNK_BYTES // (8 * PRUNE_K * n)
        x, y = rng.random((n, n)) * 0.1, rng.random((n, n)) * 0.1
        for k in range(n):
            x[k, rng.choice(n, PRUNE_K, replace=False)] = 0.9 + rng.random(PRUNE_K) * 0.1
            y[rng.choice(n, PRUNE_K, replace=False), k] = 0.9 + rng.random(PRUNE_K) * 0.1
        x[step:] = 0.5 + rng.random((n - step, n)) * 0.01
        right, got = matrix._Right(y, n), np.full((n, n), np.nan)
        with kernel_log as log:
            assert matrix._reduce_rows(np.add, x, right, got) == n
        assert got.tobytes() == _reference_on_right(np.add, x, right, np.empty((n, n))).tobytes()
        assert log.tops == [((step, n), False)]

    def test_every_path_bit_identical(self):
        # A min-plus reduction, run as the kernel's max-plus on negated
        # terms, where each row of x and column of y holds PRUNE_K small
        # entries among large ones, so most entries are certified.
        # Crossed rows meet crossed columns where every candidate term
        # lies above the bound, which the other t attain: two such rows,
        # one in the probe, are recomputed entry by entry, and the first
        # of the last two row groups, all crossed, ends pruning: both
        # are reduced in full, and _reduce_rows returns its start.
        # Rows and columns holding 0.0 at the same three t give zero
        # minima, which come back from -0.0 as +0.0.
        rng = np.random.default_rng(8)
        n = 200
        last = range(0, n, CHUNK_BYTES // (8 * PRUNE_K * n))[-2]  # start of the last two groups
        zt = np.array([5, 102, 199])
        zero_rows, zero_cols = [*range(30, 40), 50, 51], [0, 1, 2, *range(100, 110)]

        def dominant(zero_lines):
            v = rng.random((n, n)) * 0.1 + 0.9
            for k in range(n):
                small = rng.choice(np.setdiff1d(np.arange(n), zt), PRUNE_K, replace=False)
                v[k, small] = rng.random(PRUNE_K) * 0.01
                if k in zero_lines:
                    v[k, small[:3]] = 0.95
                    v[k, zt] = 0.0
            return v

        x, y = dominant(zero_rows), dominant(zero_cols).T.copy()
        # Entry (70, 180): two zeros and seven ties at the
        # (PRUNE_K + 1)-th value, so both candidate lists end in ties.
        ties = np.arange(60, 60 + PRUNE_K - 1)
        x[70] = y[:, 180] = 0.95
        x[70, ties] = y[ties, 180] = 0.005
        x[70, [0, 50]] = 0.0
        y[[0, 50], 180] = 0.0
        # A crossed row holds its PRUNE_K smallest entries at t_x and a
        # crossed column at t_y; each is 1.5 where the other is smallest.
        t_x, t_y = np.arange(110, 110 + PRUNE_K), np.arange(120, 120 + PRUNE_K)
        crossed = [20, 90, *range(last, n)]
        x[crossed] = 0.95
        x[np.ix_(crossed, t_x)] = 0.9
        x[np.ix_(crossed, t_y)] = 1.5
        y[:, 150:170] = 0.95
        y[t_y, 150:170] = 0.9
        y[t_x, 150:170] = 1.5
        combines = []

        def traced_add(a, b, out=None):
            combines.append((a.shape, b.shape, out))
            return np.add(a, b, out=out)

        got = np.full((n, n), np.nan)
        start = matrix._reduce_rows(traced_add, -x, matrix._Right(-y, n), got)
        got = -got
        want = _reference_reduce_rows(np.minimum, np.add, x, y)
        assert got.tobytes() == want.tobytes()
        zeros = got == 0
        assert zeros.sum() == len(zero_rows) * len(zero_cols) + 1
        assert start == last  # the crossed groups, in full
        # entry by entry, on fresh grids; the full kernel combines in place
        assert any(len(a) == 2 and a == b and out is None for a, b, out in combines)

    def test_failing_group_ends_pruning(self):
        # Each line holds PRUNE_K large entries among small ones, except
        # the rows of the third row group and 20 columns, which are
        # crossed: a crossed row is 0.5 but for 0.6 at t_x and 0.0 at t_y,
        # a crossed column the other way round, so where they meet every
        # candidate term is 0.6 and the bound is 1.0. The probe passes and
        # so would the groups after the crossed one, but the crossed
        # group's misses end pruning: it and every later row are reduced
        # in full, and _reduce_rows returns its start.
        rng = np.random.default_rng(11)
        n = 200
        step = CHUNK_BYTES // (8 * PRUNE_K * n)
        crossed = slice(2 * step, 3 * step)
        t_x, t_y = np.arange(110, 110 + PRUNE_K), np.arange(120, 120 + PRUNE_K)
        free = np.setdiff1d(np.arange(n), [*t_x, *t_y])
        x, y = rng.random((n, n)) * 0.1, rng.random((n, n)) * 0.1
        for k in range(n):
            x[k, rng.choice(free, PRUNE_K, replace=False)] = 0.9 + rng.random(PRUNE_K) * 0.1
            y[rng.choice(free, PRUNE_K, replace=False), k] = 0.9 + rng.random(PRUNE_K) * 0.1
        x[crossed] = 0.5
        x[crossed, t_x], x[crossed, t_y] = 0.6, 0.0
        y[:, 150:170] = 0.5
        y[t_y, 150:170], y[t_x, 150:170] = 0.6, 0.0
        right, got = matrix._Right(y, n), np.full((n, n), np.nan)
        assert matrix._reduce_rows(np.add, x, right, got) == crossed.start
        assert got.tobytes() == _reference_on_right(np.add, x, right, np.empty((n, n))).tobytes()

    def test_ties_at_the_bound_certified(self):
        # Each line holds PRUNE_K large entries among small ones, except
        # every third row of x and column of y, which hold 0.5. Those
        # meet in terms that all equal the bound; with no -0.0 or NaN
        # the candidate is then the full reduce, and nothing is
        # recomputed.
        rng = np.random.default_rng(10)
        n = 100
        x, y = rng.random((n, n)) * 0.1, rng.random((n, n)) * 0.1
        for k in range(n):
            x[k, rng.choice(n, PRUNE_K, replace=False)] = 0.9 + rng.random(PRUNE_K) * 0.1
            y[rng.choice(n, PRUNE_K, replace=False), k] = 0.9 + rng.random(PRUNE_K) * 0.1
        x[::3] = 0.5
        y[:, ::3] = 0.5
        combines = []

        def traced_add(a, b, out=None):
            combines.append((a.shape, b.shape))
            return np.add(a, b, out=out)

        got = np.full((n, n), np.nan)
        assert matrix._reduce_rows(traced_add, x, matrix._Right(y, n), got) == n
        assert got.tobytes() == _reference_reduce_rows(np.maximum, np.add, x, y).tobytes()
        assert (got == 1.0).sum() == ((n + 2) // 3) ** 2
        assert not any(len(a) == 2 and a == b for a, b in combines)

    @pytest.mark.parametrize("op", [GeneralizedMean(0.6, 1.0), ConvexCombo(0.5)])
    def test_first_step_declines(self, kernel_log, op):
        # A random A o A fails the probe and runs the full kernel once.
        A = _random_ifm(100, 6)
        with kernel_log as log:
            got = compose(A, A, op)
        assert log.full_rows == [100, 100]
        assert got == _reference(compose, A, A, op)

    @pytest.mark.parametrize("op", [GeneralizedMean(0.6, 1.0), GeneralizedMean(0.6, -1.0),
                                    ConvexCombo(0.5)], ids=repr)
    def test_coarse_grid_pruned_after_first_step(self, kernel_log, op):
        # A 5-level grid ties most lines at their (PRUNE_K + 1)-th value.
        # The candidates hold PRUNE_K of the tied terms, which reach the
        # bound, so only the first step A o A is reduced in full.
        n = 150
        A = _late_input(n, "coarse-grid", n)
        full_steps = []
        X = A
        for m in range(2, 11):
            with kernel_log as log:
                got = compose(X, A, op)
            if log.full_rows:
                full_steps.append(m)
            want = _reference(compose, X, A, op)
            assert got.mu.tobytes() == want.mu.tobytes(), m
            assert got.nu.tobytes() == want.nu.tobytes(), m
            X = got
        assert full_steps == [2]

    def test_pruned_compose_memory_bounded(self, kernel_log):
        # Pruning must not raise the peak above that of the kernel that
        # reduces over all t, at the size of the benchmark's power fold.
        n = 300
        A = _late_input(n, "constant-columns", 3)
        op = GeneralizedMean(0.6, 1.0)
        X = power(A, 12, op)

        def peak(fn, *args):
            tracemalloc.start()
            try:
                fn(*args)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        with kernel_log as log:
            pruned = peak(compose, X, A, op)
        assert log.full_rows == []
        assert pruned <= peak(_reference, compose, X, A, op)

    @pytest.mark.parametrize("op", [GeneralizedMean(0.6, 1.0), ConvexCombo(0.5)], ids=repr)
    def test_declining_compose_frees_its_candidates(self, op):
        # A first step A o A at n = 300 declines in its first group, after
        # both stages. No candidate grid may stay alive beside the full
        # kernel's chunks: the peak stays within one grid of the full
        # kernel's own, taken on the same sides without their partitions.
        n = 300
        A = _late_input(n, "plain", 3)
        right = matrix._prepare(A, op, n)
        grid_bytes = 8 * PRUNE_K * n * (CHUNK_BYTES // (8 * PRUNE_K * n))

        def peak():
            tracemalloc.start()
            try:
                compose(A, A, op, _right=right)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        pruned = peak()
        for side in right:
            side.top = None
        assert pruned < peak() + grid_bytes

    def test_fortran_ordered_factor_bit_identical(self, kernel_log):
        # A Fortran-ordered right factor is pruned like a C-ordered one
        # and keeps the full reduce's bits.
        rng = np.random.default_rng(1)
        n = int(rng.integers(64, 120))
        u = rng.random((n, n))
        v = rng.random((n, n)) * (1 - u)
        for x in (u, v):
            x[rng.random((n, n)) < 0.05] = 0.0
            x[rng.random((n, n)) < 0.05] = -0.0
        cols = rng.random(n) < 0.2
        u[:, cols] = rng.random(cols.sum())
        v[:, cols] = rng.random(cols.sum()) * (1 - u[:, cols])
        A = Ifm(np.asfortranarray(u), np.asfortranarray(v))
        op = ConvexCombo(0.5)
        assert A.mu.flags.f_contiguous and not A.mu.flags.c_contiguous
        X = _reference(power, A, 10, op)
        want = _reference(compose, X, A, op)
        with kernel_log as log:
            got = compose(X, A, op)
        # Both components are pruned. nu's rows and many columns of A.nu
        # hold more than PRUNE_K zeros, so the bound is 0, and candidate
        # lists made of those tied zeros reach it.
        assert log.full_rows == []
        assert got.mu.tobytes() == want.mu.tobytes()
        assert got.nu.tobytes() == want.nu.tobytes()

    @pytest.mark.parametrize("op", [GeneralizedMean(0.6, 1.0), GeneralizedMean(0.6, -1.0),
                                    ConvexCombo(0.5)], ids=repr)
    def test_late_step_pruned_at_n_300(self, kernel_log, op):
        # Reductions of every length from PRUNE_MIN_T up are pruned; at
        # n = 300 a late step proves enough entries that no row group is
        # reduced in full, and keeps the full reduce's bits.
        n = 300
        A = _late_input(n, "constant-columns", n)
        X = power(A, 10, op)
        with kernel_log as log:
            got = compose(X, A, op)
        assert log.full_rows == []
        want = _reference(compose, X, A, op)
        assert got.mu.tobytes() == want.mu.tobytes()
        assert got.nu.tobytes() == want.nu.tobytes()


def _kernel_terms(kind, r, t, c, seed):
    """x and y for one reduction, the kernel's combine, and the
    reference combines for a max and a min reduce: sums of [0, 1)
    terms, sums of p < 0 power terms where zeros give +inf, or
    ConvexCombo's combines."""
    rng = np.random.default_rng(seed)
    x, y = rng.random((r, t)), rng.random((t, c))
    x[rng.random((r, t)) < 0.1] = 0.0
    y[rng.random((t, c)) < 0.1] = 0.0
    if kind == "star":
        return x, y, ConvexCombo(0.3).combine, {np.maximum: _star_reference(0.3, np.minimum),
                                                np.minimum: _star_reference(0.3, np.maximum)}
    if kind == "negative-p":
        with np.errstate(divide="ignore"):
            x, y = 0.6 * x**-1.5, 0.4 * y**-1.5
    return x, y, np.add, {np.maximum: np.add, np.minimum: np.add}


class TestChunkedKernel:
    """_reduce_rows' full reduce takes chunks of rows laid out as
    contiguous (t, rows * c) buffers; every output bit must match the
    old-layout reference, which broadcasts (rows, t, c) blocks. A min
    reduce runs as the max of the negated terms, negated back."""

    @pytest.mark.parametrize("shapes", [
        [*((1, n, n) for n in range(1, 6)), *((n, n, n) for n in range(1, 6)), (1, 100, 100)],
        [(30, 100, 90), (100, PRUNE_MIN_T, PRUNE_MIN_T), (37, 300, 11)],
        [(23, PRUNE_MIN_T - 24, 70)],
    ], ids=["small", "t-pruned", "t-not-pruned"])
    def test_bit_identical_to_reference(self, shapes):
        for r, t, c in shapes:
            for kind in ("sums", "negative-p", "star"):
                x, y, combine, reference = _kernel_terms(kind, r, t, c, r * t * c)
                for reduce, sign in ((np.maximum, 1.0), (np.minimum, -1.0)):
                    right = matrix._Right(sign * y, r)
                    # Every case with several chunks ends in a partial one.
                    assert right.rows == r or r % right.rows
                    # Without a partition every row is reduced in full.
                    right.top, got = None, np.full((r, c), np.nan)
                    assert matrix._reduce_rows(combine, sign * x, right, got) == 0
                    got *= sign
                    want = _reference_reduce_rows(reduce, reference[reduce], x, y)
                    assert got.tobytes() == want.tobytes(), (r, t, c, reduce, kind)

    @pytest.mark.parametrize("op", [GeneralizedMean(0.6, 2.0), ConvexCombo(0.5)])
    def test_fold_prepares_right_factor_once(self, monkeypatch, kernel_log, op):
        # _Right builds a component's terms, tile and partition. The left
        # factor's row groups have 81 and 19 rows, so only the right
        # factor is partitioned as an (n, n) array.
        n = 100
        A = _late_input(n, "constant-columns", 4)
        prepared = []
        right = matrix._Right

        # nu's terms are negated, so each carries the sign bit.
        def right_spy(y, r):
            prepared.append(np.signbit(y).all())
            return right(y, r)

        monkeypatch.setattr(matrix, "_Right", right_spy)
        with kernel_log as log:
            power(A, 10, op)
        assert prepared == [False, True]  # mu, then nu
        assert [neg for shape, neg in log.tops if shape == (n, n)] == [False, True]
        prepared.clear()
        with kernel_log as log:
            assert power_sequence(A, op, max_iter=9).iterations == 9
        assert prepared == [False, True]
        assert [neg for shape, neg in log.tops if shape == (n, n)] == [False, True]

    @pytest.mark.parametrize("lam", [0.0, 0.5, 0.9])
    def test_star_subnormal_inputs_bit_identical(self, lam):
        # Halving (1 - lam) * (x + y) can round where the sum is
        # subnormal, so the combine keeps the order add, scale, halve.
        rng = np.random.default_rng(9)
        for n in (5, 80):
            u = rng.random((n, n)) * 0.5
            v = rng.random((n, n)) * 0.5
            for x in (u, v):
                x[rng.random((n, n)) < 0.3] = 5e-324
                x[rng.random((n, n)) < 0.3] = 1e-310
            A = Ifm(u, v)
            mu, nu = _broadcast_compose(A, A, ConvexCombo(lam))
            out = compose(A, A, ConvexCombo(lam))
            assert out.mu.tobytes() == mu.tobytes()
            assert out.nu.tobytes() == nu.tobytes()


def _subnormal_ifm(n, seed):
    """_random_ifm with subnormal entries planted too."""
    rng = np.random.default_rng(seed)
    A = _random_ifm(n, seed)
    u, v = A.mu.copy(), A.nu.copy()
    for x in (u, v):
        x[rng.random((n, n)) < 0.05] = 5e-324
        x[rng.random((n, n)) < 0.05] = 1e-310
    return Ifm(u, v)


class TestKernelOutput:
    """compose wraps its result without Ifm's copy and range check, so
    nothing that check would catch may ever leave the kernel."""

    @staticmethod
    def _check(M):
        for x in (M.mu, M.nu):
            assert not np.isnan(x).any() and not np.signbit(x).any()
            assert x.min() >= 0.0 and x.max() <= 1.0
            assert not x.flags.writeable
        checked = Ifm(M.mu, M.nu)
        assert checked.mu.tobytes() == M.mu.tobytes()
        assert checked.nu.tobytes() == M.nu.tobytes()

    @pytest.mark.parametrize("op", [
        *(GeneralizedMean(lam, p) for lam in (0.0, 0.6, 1.0) for p in (-3.0, -1.0, 0.5, 2.0)),
        *(ConvexCombo(lam) for lam in (0.0, 0.5, 1.0)),
    ], ids=repr)
    @pytest.mark.parametrize("n", [5, 70])
    def test_checked_by_construction(self, op, n):
        # n = 70 reductions run through the pruned kernel.
        A = _subnormal_ifm(n, n)
        self._check(compose(A, A, op))
        self._check(power(A, 4, op))
        self._check(power_sequence(A, op, max_iter=20).limit)


@pytest.mark.parametrize("op", [GM, GeneralizedMean(0.0, 2.0), GeneralizedMean(0.6, -1.0),
                                ConvexCombo(0.5), ConvexCombo(1.0)], ids=repr)
def test_every_fold_step_calls_module_compose(monkeypatch, op):
    # A tracer times the kernel by wrapping matrix.compose, so each fold
    # step must be one call of it, with the caller's own A as B.
    A = _random_ifm(6, 3)
    calls = []
    original = matrix.compose

    def spy(X, B, *args, **kwargs):
        calls.append(B)
        return original(X, B, *args, **kwargs)

    monkeypatch.setattr(matrix, "compose", spy)
    for k in (1, 2, 7):
        calls.clear()
        power(A, k, op)
        assert len(calls) == k - 1 and all(B is A for B in calls)
    calls.clear()
    rep = power_sequence(A, op, max_iter=30)
    assert len(calls) == rep.iterations and all(B is A for B in calls)


@pytest.mark.parametrize("lam", [0.0, 1.0])
@pytest.mark.parametrize("p", [-1.0, 0.5, 2.0])
def test_collapsed_gen_mean_stops_at_delta_zero_unhashed(monkeypatch, lam, p):
    # lam in {0, 1} gives A^3 = A^2, so the report stops at delta = 0
    # by m = 3 without hashing any power.
    def no_hash(M):
        raise AssertionError("a power was hashed")

    op = GeneralizedMean(lam, p)
    for seed in range(6):
        A = _random_ifm(6, seed)
        A2 = power(A, 2, op)
        with monkeypatch.context() as m:
            m.setattr(Ifm, "__hash__", no_hash)
            rep = power_sequence(A, op)
        assert rep.converged and rep.oscillation_period is None
        assert rep.iterations == (1 if A2 == A else 2)
        assert rep.deltas == [delta(A2, A), 0.0][:rep.iterations]
        assert rep.limit == A2


def test_only_max_min_hashes_powers(monkeypatch):
    # Of the bit-identity corpus's operators (OPS in test_bit_identity),
    # only ConvexCombo(1.0) need not contract, and only it hashes powers
    # to find a period; the others stop at eps or max_iter unhashed.
    def no_hash(M):
        raise AssertionError("a power was hashed")

    flip = Ifm.from_pairs([[(0, 1), (1, 0)], [(1, 0), (0, 1)]])
    inputs = [flip, *(_random_ifm(6, seed) for seed in range(3))]
    ops = [GeneralizedMean(lam, p) for lam in (0.0, 0.3, 0.6, 1.0) for p in (-1.0, 0.5, 1.0, 2.0)]
    ops += [ConvexCombo(lam) for lam in (0.0, 0.3, 0.5)]
    with monkeypatch.context() as m:
        m.setattr(Ifm, "__hash__", no_hash)
        for op in ops:
            for A in inputs:
                power_sequence(A, op, max_iter=200)
        with pytest.raises(AssertionError, match="hashed"):
            power_sequence(flip, ConvexCombo(1.0))
    assert power_sequence(flip, ConvexCombo(1.0)).oscillation_period == 2


def _one_argument_mean(A, B, op):
    """compose's own branch for GeneralizedMean with lam in {0, 1}
    before the s-domain kernel took it over: the mean keeps the left
    argument (lam = 1) or the right one (lam = 0) for every p."""
    if op.lam == 1.0:
        mu = np.repeat(A.mu.max(axis=1)[:, None], B.cols, axis=1)
        nu = np.repeat(A.nu.min(axis=1)[:, None], B.cols, axis=1)
    else:
        mu = np.repeat(B.mu.max(axis=0)[None, :], A.rows, axis=0)
        nu = np.repeat(B.nu.min(axis=0)[None, :], A.rows, axis=0)
    return Ifm(mu, nu)


@pytest.mark.parametrize("lam", [0.0, 1.0])
@pytest.mark.parametrize("p", [-16.0, -1.0, -5e-300, 0.5, 2.0, 16.0])
def test_one_argument_mean_is_exact(lam, p):
    # The kernel computes lam in {0, 1} at p = 1 whatever op.p is. At
    # op.p, a subnormal's power underflows or overflows, a zero meets a
    # weight of 0 as 0 * inf, and x^p^(1/p) need not give x back. n = 70
    # and 100 run the pruned kernel, as do the rectangular products
    # (7 x n) o (n x 3) there.
    op = GeneralizedMean(lam, p)
    for n in (5, 25, 70, 100):
        A, B = _subnormal_ifm(n, n), _late_input(n, "coarse-grid", n + 1)
        rect = Ifm(A.mu[:7], A.nu[:7]), Ifm(B.mu[:, :3], B.nu[:, :3])
        for X, Y in ((A, B), (B, A), (A, A), rect):
            got, want = compose(X, Y, op), _one_argument_mean(X, Y, op)
            assert got.mu.tobytes() == want.mu.tobytes(), (n, op)
            assert got.nu.tobytes() == want.nu.tobytes(), (n, op)
        # A^3 = A^2: the fold step reads A's prepared side.
        cube, square = power(A, 3, op), _one_argument_mean(A, A, op)
        assert cube.mu.tobytes() == square.mu.tobytes(), (n, op)
        assert cube.nu.tobytes() == square.nu.tobytes(), (n, op)
        if n <= 5:
            for m in (2, 3, 4):
                got, oracle = power(A, m, op), brute_force_power(A, m, op, OracleBudget(max_n=5))
                assert got.mu.tobytes() == oracle.mu.tobytes(), (m, op)
                assert got.nu.tobytes() == oracle.nu.tobytes(), (m, op)
