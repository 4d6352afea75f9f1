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
from ifmpower.matrix import BLOCK_BYTES, PRUNE_K, PRUNE_MAX_T, PRUNE_MIN_T, PRUNE_PROBE_ROWS
from ifmpower.oracle import brute_force_power

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


def test_ifm_stores_a_private_copy_with_positive_zeros():
    mu, nu = np.array([[-0.0, 0.5]]), np.array([[0.5, -0.0]])
    M = Ifm(mu, nu)
    assert not np.signbit(M.mu).any() and not np.signbit(M.nu).any()
    assert mu.flags.writeable and nu.flags.writeable
    mu[0, 1] = nu[0, 0] = 0.25
    assert M.mu.tolist() == [[0.0, 0.5]] and M.nu.tolist() == [[0.5, 0.0]]
    assert not M.mu.flags.writeable and not M.nu.flags.writeable


def test_from_pairs_ragged():
    with pytest.raises(DimensionMismatchError):
        Ifm.from_pairs([[(1, 0), (0, 1)], [(1, 0)]])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -5e-324, np.nextafter(1, 2)])
def test_non_finite_components_rejected(bad):
    with pytest.raises(ValueError):
        Ifm([[0.5, bad]], [[0.1, 0.2]])
    with pytest.raises(ValueError):
        Ifm([[0.5, 0.2]], [[0.1, bad]])


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
        lam = op.lam
        x, y = A.mu[:, :, None], B.mu[None, :, :]
        mu = (lam * np.minimum(x, y) + (1.0 - lam) * (x + y) / 2.0).max(axis=1)
        x, y = A.nu[:, :, None], B.nu[None, :, :]
        nu = (lam * np.maximum(x, y) + (1.0 - lam) * (x + y) / 2.0).min(axis=1)
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
        assert 8 * n**3 > BLOCK_BYTES  # at least two row blocks
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


class TestDelta:
    def test_self(self):
        assert delta(A3, A3) == 0.0

    def test_extreme_pair(self):
        zero = Ifm(np.zeros((3, 3)), np.ones((3, 3)))
        assert delta(Ifm.universal(3), zero) == 1.0

    def test_first_step_below_trivial_bound(self):
        assert delta(power(A3, 2, GM), A3) <= step_bound(GM, 2)


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


def _reference_reduce_rows(reduce, combine, x, y):
    """The kernel before pruning: every entry reduced over every t, in
    row blocks of about BLOCK_BYTES."""
    r, t = x.shape
    c = y.shape[1]
    step = max(1, BLOCK_BYTES // (8 * t * c))
    if step >= r:
        return reduce.reduce(combine(x[:, :, None], y), axis=1)
    out = np.empty((r, c))
    for i in range(0, r, step):
        reduce.reduce(combine(x[i:i + step, :, None], y), axis=1, out=out[i:i + step])
    return out


def _reference_on_right(reduce, combine, x, right):
    """_reference_reduce_rows with the signature of _reduce_rows, whose
    right factor comes prepared."""
    return _reference_reduce_rows(reduce, combine, x, right.y)


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


class TestPrunedKernel:
    """_reduce_rows proves most entries from 2 * PRUNE_K candidate t;
    every output bit must match the kernel that reduces over all t."""

    @pytest.mark.parametrize("kind", ["signed-zeros", "constant-columns", "coarse-grid"])
    @pytest.mark.parametrize("n", [64, 100, 150])
    def test_late_iterates_bit_identical(self, monkeypatch, n, kind):
        A = _late_input(n, kind, n)
        for op in LATE_OPS:
            X = power(A, 20, op)
            got = compose(X, A, op)
            with monkeypatch.context() as m:
                m.setattr(matrix, "_reduce_rows", _reference_on_right)
                want = compose(X, A, op)
            assert got.mu.tobytes() == want.mu.tobytes(), op
            assert got.nu.tobytes() == want.nu.tobytes(), op

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

        got = matrix._reduce_rows(np.maximum, counted_add, x, matrix._Right(y, n, np.maximum))
        assert got.tobytes() == _reference_reduce_rows(np.maximum, np.add, x, y).tobytes()
        assert sum(terms) < n * n * (2 * PRUNE_K + 1) + 0.1 * n**3

    def test_every_path_bit_identical(self, monkeypatch):
        # A min-plus reduction where each row of x and column of y holds
        # PRUNE_K small entries among large ones, so most entries are
        # certified. Crossed rows meet crossed columns where every
        # candidate term lies above the bound, which the other t attain:
        # two such rows after the probe are recomputed entry by entry,
        # and the last two row blocks, all crossed, are reduced in full.
        # Rows and columns holding 0.0 at the same three t give zero
        # minima.
        rng = np.random.default_rng(8)
        n = PRUNE_MAX_T
        step = BLOCK_BYTES // (8 * n * n)  # rows per block after the probe
        last = n - step - (n - PRUNE_PROBE_ROWS) % step  # start of the last two blocks
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
        # Entry (70, 180): ties at the (PRUNE_K + 1)-th value pad both
        # candidate lists with t = 0.
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
        combines, full_rows = [], []

        def traced_add(a, b, out=None):
            combines.append((a.shape, b.shape, out))
            return np.add(a, b, out=out)

        full = matrix._reduce_full

        def spy(reduce, combine, x, y, out=None):
            full_rows.append(x.shape[0])
            return full(reduce, combine, x, y, out)

        monkeypatch.setattr(matrix, "_reduce_full", spy)
        got = matrix._reduce_rows(np.minimum, traced_add, x, matrix._Right(y, n, np.minimum))
        want = _reference_reduce_rows(np.minimum, np.add, x, y)
        assert got.tobytes() == want.tobytes()
        zeros = got == 0
        assert zeros.sum() == len(zero_rows) * len(zero_cols) + 1
        assert full_rows == [step, n - last - step]  # the crossed blocks, in full
        # entry by entry, on fresh grids; the full kernel combines in place
        assert any(len(a) == 2 and a == b and out is None for a, b, out in combines)

    def test_ties_at_the_bound_certified(self, monkeypatch):
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
        combines, full_rows = [], []

        def traced_add(a, b, out=None):
            combines.append((a.shape, b.shape))
            return np.add(a, b, out=out)

        full = matrix._reduce_full

        def spy(reduce, combine, x, y, out=None):
            full_rows.append(x.shape[0])
            return full(reduce, combine, x, y, out)

        monkeypatch.setattr(matrix, "_reduce_full", spy)
        got = matrix._reduce_rows(np.maximum, traced_add, x, matrix._Right(y, n, np.maximum))
        assert got.tobytes() == _reference_reduce_rows(np.maximum, np.add, x, y).tobytes()
        assert (got == 1.0).sum() == ((n + 2) // 3) ** 2
        assert full_rows == []
        assert not any(len(a) == 2 and a == b for a, b in combines)

    @pytest.mark.parametrize("op", [GeneralizedMean(0.6, 1.0), ConvexCombo(0.5)])
    def test_first_step_declines(self, monkeypatch, op):
        # A random A o A fails the probe and runs the full kernel once.
        A = _random_ifm(100, 6)
        calls = []
        full = matrix._reduce_full

        def spy(reduce, combine, x, y, out=None):
            calls.append(x.shape[0])
            return full(reduce, combine, x, y, out)

        monkeypatch.setattr(matrix, "_reduce_full", spy)
        got = compose(A, A, op)
        assert calls == [100, 100]
        monkeypatch.setattr(matrix, "_reduce_rows", _reference_on_right)
        assert got == compose(A, A, op)

    def test_pruned_compose_memory_bounded(self, monkeypatch):
        # Pruning must not raise the peak above that of the kernel that
        # reduces over all t, at the largest size it prunes.
        n = PRUNE_MAX_T
        A = _late_input(n, "constant-columns", 3)
        op = GeneralizedMean(0.6, 1.0)
        X = power(A, 12, op)
        full_rows = []
        full = matrix._reduce_full

        def spy(reduce, combine, x, y, out=None):
            full_rows.append(x.shape[0])
            return full(reduce, combine, x, y, out)

        def peak():
            tracemalloc.start()
            try:
                compose(X, A, op)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        monkeypatch.setattr(matrix, "_reduce_full", spy)
        pruned = peak()
        assert full_rows == []
        monkeypatch.setattr(matrix, "_reduce_rows", _reference_on_right)
        assert pruned <= peak()

    def test_fortran_ordered_factor_bit_identical(self, monkeypatch):
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
        with monkeypatch.context() as m:
            m.setattr(matrix, "_reduce_rows", _reference_on_right)
            X = power(A, 10, op)
            want = compose(X, A, op)
        full_calls = []
        full = matrix._reduce_full

        def spy(reduce, combine, x, y, out=None):
            full_calls.append((reduce, x.shape[0]))
            return full(reduce, combine, x, y, out)

        monkeypatch.setattr(matrix, "_reduce_full", spy)
        got = compose(X, A, op)
        # mu is pruned. nu declines at the probe: its rows and many
        # columns of A.nu hold more than PRUNE_K zeros, so the bound is 0
        # and candidate lists padded past those ties seldom reach it.
        assert full_calls == [(np.minimum, n)]
        assert got.mu.tobytes() == want.mu.tobytes()
        assert got.nu.tobytes() == want.nu.tobytes()

    def test_longest_reductions_not_pruned(self, monkeypatch):
        calls = []
        monkeypatch.setattr(matrix, "_top", lambda *a: calls.append(a))
        A = _random_ifm(PRUNE_MAX_T + 1, 7)
        compose(A, A, GeneralizedMean(0.6, 1.0))
        assert calls == []


def _kernel_terms(kind, r, t, c, seed):
    """x, y and combine for one reduction: sums of [0, 1) terms, sums of
    p < 0 power terms where zeros give +inf, or ConvexCombo's combine."""
    rng = np.random.default_rng(seed)
    x, y = rng.random((r, t)), rng.random((t, c))
    x[rng.random((r, t)) < 0.1] = 0.0
    y[rng.random((t, c)) < 0.1] = 0.0
    if kind == "star":
        return x, y, matrix._star(0.3, np.minimum)
    if kind == "negative-p":
        with np.errstate(divide="ignore"):
            x, y = 0.6 * x**-1.5, 0.4 * y**-1.5
    return x, y, np.add


class TestChunkedKernel:
    """_reduce_full reduces chunks of rows laid out as contiguous
    (t, rows * c) buffers; every output bit must match the old-layout
    reference, which broadcasts (rows, t, c) blocks."""

    @pytest.mark.parametrize("shapes", [
        [*((1, n, n) for n in range(1, 6)), *((n, n, n) for n in range(1, 6)), (1, 100, 100)],
        [(30, 100, 90), (100, PRUNE_MIN_T, PRUNE_MIN_T)],
        [(37, PRUNE_MAX_T + 100, 11), (23, PRUNE_MIN_T - 24, 70)],
    ], ids=["small", "t-pruned", "t-not-pruned"])
    def test_bit_identical_to_reference(self, shapes):
        for r, t, c in shapes:
            for reduce in (np.maximum, np.minimum):
                for kind in ("sums", "negative-p", "star"):
                    x, y, combine = _kernel_terms(kind, r, t, c, r * t * c)
                    right = matrix._Right(y, r, reduce)
                    # Every case with several chunks ends in a partial one.
                    assert right.rows == r or r % right.rows
                    got = matrix._reduce_full(reduce, combine, x, right)
                    want = _reference_reduce_rows(reduce, combine, x, y)
                    assert got.tobytes() == want.tobytes(), (r, t, c, reduce, kind)

    @pytest.mark.parametrize("op", [GeneralizedMean(0.6, 2.0), ConvexCombo(0.5)])
    def test_fold_prepares_right_factor_once(self, monkeypatch, op):
        # _Right builds a component's terms, tile and partition. The left
        # factor's row groups have 8 and 92 rows, so only the right
        # factor is partitioned as an (n, n) array.
        n = 100
        A = _late_input(n, "constant-columns", 4)
        prepared, partitions = [], []
        right, top = matrix._Right, matrix._top

        def right_spy(y, r, reduce):
            prepared.append(reduce)
            return right(y, r, reduce)

        def top_spy(v, largest):
            if v.shape == (n, n):
                partitions.append(largest)
            return top(v, largest)

        monkeypatch.setattr(matrix, "_Right", right_spy)
        monkeypatch.setattr(matrix, "_top", top_spy)
        power(A, 10, op)
        assert prepared == [np.maximum, np.minimum]  # mu, then nu
        assert partitions == [True, False]
        prepared.clear()
        partitions.clear()
        assert power_sequence(A, op, max_iter=9).iterations == 9
        assert prepared == [np.maximum, np.minimum]
        assert partitions == [True, False]

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


@pytest.mark.parametrize("lam", [0.0, 1.0])
@pytest.mark.parametrize("p", [-1.0, 0.5, 2.0])
def test_collapsed_gen_mean_stops_at_delta_zero_unhashed(monkeypatch, lam, p):
    # lam in {0, 1} gives A^3 = A^2, so the report stops at delta = 0
    # by m = 3 without hashing any power.
    def no_hash(self):
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
