import random
import re

import numpy as np
import pytest

from ifmpower import (
    BadPathError,
    ComponentPair,
    CriticalStructure,
    DimensionMismatchError,
    GeneralizedMean,
    Ifm,
    Ifn,
    PathSpec,
    ZeroPError,
    critical_structure,
    export_dot,
    gen_mean_pair,
    is_universal,
    path_weight_gen,
    path_weight_star,
    power_sequence,
    predict_column_limits,
    predict_universal,
    row_uniformity,
)
from ifmpower import graph
from ifmpower.oracle import random_ifm

A3 = Ifm.from_pairs([
    [(1, 0), (0.5, 0.4), (0, 1)],
    [(0, 1), (0.6, 0.3), (1, 0)],
    [(1, 0), (1, 0), (0, 1)],
])

B3 = Ifm.from_pairs([
    [(0, 1), (1, 0), (0.5, 0.4)],
    [(1, 0), (0, 1), (1, 0)],
    [(0.6, 0.3), (1, 0), (0, 1)],
])


def test_pathspec_needs_an_edge():
    with pytest.raises(BadPathError):
        PathSpec((1,))


def test_pathspec_vertex_range_checked():
    with pytest.raises(BadPathError):
        path_weight_gen(A3, PathSpec((1, 4)), 0.5, 1)


@pytest.mark.parametrize("v", [1.7, "3", float("nan"), float("inf"), None])
def test_pathspec_rejects_non_integer_vertex(v):
    with pytest.raises(BadPathError, match="is not an integer"):
        PathSpec((v, 2))


def test_pathspec_accepts_integral_vertices():
    path = PathSpec((np.int64(2), 2.0, 1))
    assert path.vertices == (2, 2, 1)
    assert all(type(v) is int for v in path.vertices)


def test_one_edge_walk_is_the_entry():
    # <0.7, 0.6> breaks the sum constraint, so A.entry gives a
    # ComponentPair there and an Ifn elsewhere; longer walks are folds.
    M = Ifm([[0.7, 0.5], [0.2, 1.0]], [[0.6, 0.25], [0.5, 0.0]])
    for i in (1, 2):
        for j in (1, 2):
            path = PathSpec((i, j))
            want = M.entry(i - 1, j - 1)
            for w in (path_weight_gen(M, path, 0.5, -1.0), path_weight_star(M, path, 0.5)):
                assert type(w) is type(want) and w == want
    assert type(M.entry(0, 0)) is ComponentPair and type(M.entry(0, 1)) is Ifn
    assert type(path_weight_gen(M, PathSpec((1, 2, 2)), 0.5, 1.0)) is ComponentPair
    assert type(path_weight_star(M, PathSpec((1, 2, 2)), 0.5)) is ComponentPair


@pytest.mark.parametrize("verts", [(1, 2), (1, 2, 3), (2, 3, 2)], ids=str)
def test_path_weight_gen_rejects_p_zero(verts):
    # The walks used to fail three ways: a one-edge walk returned its
    # entry, distinct edge values divided by p and equal ones folded.
    with pytest.raises(ZeroPError):
        path_weight_gen(A3, PathSpec(verts), 0.5, 0.0)


@pytest.mark.parametrize("weight", [
    lambda path: path_weight_gen(A3, path, 1.5, 1.0),
    lambda path: path_weight_star(A3, path, 1.5),
], ids=["gen", "star"])
def test_path_weights_reject_lambda_out_of_range(weight):
    for verts in ((1, 2), (1, 2, 3)):
        with pytest.raises(ValueError, match=r"lambda must lie in \[0, 1\], got 1.5"):
            weight(PathSpec(verts))


@pytest.mark.parametrize("fn", [
    row_uniformity,
    predict_universal,
    export_dot,
    lambda A: path_weight_gen(A, PathSpec((1, 2)), 0.5, 1.0),
], ids=["row_uniformity", "predict_universal", "export_dot", "path_weight_gen"])
def test_non_square_rejected(fn):
    with pytest.raises(DimensionMismatchError, match="square"):
        fn(Ifm([[0.5, 0.2, 0.1]] * 2, [[0.1, 0.2, 0.3]] * 2))


def _planted_ifm(rng, n):
    """random_ifm with exact <1, 0> entries, zeros and subnormals planted."""
    A = random_ifm(rng, n)
    mu, nu = A.mu.copy(), A.nu.copy()
    for _ in range(rng.randint(1, n * n)):
        i, j = rng.randrange(n), rng.randrange(n)
        k = rng.random()
        if k < 0.3:
            mu[i, j], nu[i, j] = 1.0, 0.0
        elif k < 0.5:
            mu[i, j] = 0.0
        elif k < 0.7:
            nu[i, j] = 0.0
        elif k < 0.85:
            mu[i, j] = rng.choice([5e-324, 1e-310, 2.2e-308])
        else:
            nu[i, j] = rng.choice([5e-324, 1e-310, 2.2e-308])
    return Ifm(mu, nu)


class TestPathWeightGen:
    def test_all_critical_edges_exact(self):
        U = Ifm.universal(3)
        w = path_weight_gen(U, PathSpec((1, 2, 3, 1, 2)), 0.37, 2)
        assert (w.mu, w.nu) == (1.0, 0.0)

    def test_two_edge_arithmetic_mean(self):
        M = Ifm.from_pairs([
            [(0.6, 0.3), (0.6, 0.3)],
            [(0.8, 0.1), (0.8, 0.1)],
        ])
        w = path_weight_gen(M, PathSpec((1, 2, 1)), 0.5, 1)
        assert w.mu == pytest.approx(0.7, abs=1e-12)
        assert w.nu == pytest.approx(0.2, abs=1e-12)

    def test_example_path_123(self):
        # 0.6*0.5 + 0.4*1 and 0.6*0.4 + 0.4*0
        w = path_weight_gen(A3, PathSpec((1, 2, 3)), 0.6, 1)
        assert w.mu == pytest.approx(0.7, abs=1e-12)
        assert w.nu == pytest.approx(0.24, abs=1e-12)

    def test_fold_agrees_with_closed_form_on_random_walks(self):
        # The planted walks hold closed-form terms of weight 0 on zero
        # entries (lambda in {0, 1}) and subnormals at p < 0.
        rng = random.Random(5)
        for make, ps, walks in (
            (random_ifm, [-1.0, 0.5, 1.0, 2.0], 300),
            (_planted_ifm, [16.0, -16.0, -1.0, 0.5, 1.0, 2.0], 1000),
        ):
            for _ in range(walks):
                n = rng.randint(2, 5)
                A = make(rng, n)
                k = rng.randint(1, 6)
                verts = [rng.randint(1, n) for _ in range(k + 1)]
                lam = rng.choice([0.0, 0.1, 0.5, 0.9, 1.0])
                p = rng.choice(ps)
                path = PathSpec(tuple(verts))
                w = path_weight_gen(A, path, lam, p)  # raises if they disagree
                folded = A.entry(verts[0] - 1, verts[1] - 1)
                for a, b in zip(verts[1:-1], verts[2:]):
                    folded = gen_mean_pair(folded, A.entry(a - 1, b - 1), lam, p)
                assert (w.mu, w.nu) == (folded.mu, folded.nu)

    def test_closed_form_follows_gen_mean_conventions(self):
        # lambda = 1 keeps only the first edge and lambda = 0 only the
        # last, so the <0, 1> entry's 0 ** -1 weighs nothing.
        assert path_weight_gen(A3, PathSpec((1, 2, 1, 3)), 1.0, -1.0) == ComponentPair(0.5, 0.4)
        assert path_weight_gen(A3, PathSpec((2, 1, 1, 3)), 0.0, -1.0) == ComponentPair(0.0, 1.0)
        # A subnormal's power overflows at p = -1, and the mean is 0.
        M = Ifm([[5e-324, 0.5], [0.5, 0.5]], [[0.5, 0.5], [0.5, 0.5]])
        assert path_weight_gen(M, PathSpec((1, 1, 2)), 0.5, -1.0) == ComponentPair(0.0, 0.5)

    def test_closed_form_and_fold_disagreement_raises(self, monkeypatch):
        closed_form = graph._closed_form_component
        monkeypatch.setattr(graph, "_closed_form_component",
                            lambda *args: closed_form(*args) + 1e-9)
        with pytest.raises(ArithmeticError,
                           match=re.escape("disagree on PathSpec(vertices=(1, 2, 3))")):
            path_weight_gen(A3, PathSpec((1, 2, 3)), 0.6, 1)

    def test_coefficients_sum_to_one(self):
        import math
        for lam in [0.0, 0.2, 0.5, 0.8, 1.0]:
            for k in range(1, 30):
                coeffs = [lam ** (k - 1)] + [
                    lam ** (k - 1 - i) * (1 - lam) for i in range(1, k)
                ]
                assert math.fsum(coeffs) == pytest.approx(1.0, abs=1e-12)


class TestPathWeightStar:
    def test_all_critical(self):
        U = Ifm.universal(2)
        w = path_weight_star(U, PathSpec((1, 2, 1, 2)), 0.3)
        assert (w.mu, w.nu) == (1.0, 0.0)

    def test_single_edge(self):
        w = path_weight_star(B3, PathSpec((1, 3)), 0.5)
        assert (w.mu, w.nu) == (0.5, 0.4)

    def test_b_path_12_23(self):
        # both edges on the walk are <1,0> in B
        w = path_weight_star(B3, PathSpec((1, 2, 3)), 0.5)
        assert (w.mu, w.nu) == (1.0, 0.0)


class TestCriticalStructure:
    def test_example_a(self):
        s = critical_structure(A3)
        assert s.critical_vertices == {1, 2, 3}
        # self-loop at 1 plus the 2->3->2 circuit
        assert (1, 1) in s.critical_edges
        assert (2, 3) in s.critical_edges and (3, 2) in s.critical_edges

    def test_example_b(self):
        s = critical_structure(B3)
        assert s.critical_vertices == {1, 2, 3}

    def test_no_critical_entries(self):
        M = Ifm.from_pairs([[(0.9, 0.1), (0.5, 0.5)], [(0.2, 0.7), (0.99, 0.0)]])
        s = critical_structure(M)
        assert s.critical_edges == frozenset()
        assert s.critical_vertices == frozenset()
        assert s.reachable_columns == (False, False)

    def test_near_one_entry_is_not_critical(self):
        M = Ifm.from_pairs([[(1 - 1e-9, 0.0), (1, 0)], [(1, 0), (0, 1)]])
        s = critical_structure(M)
        assert (1, 1) not in s.critical_edges
        assert s.critical_vertices == {1, 2}

    def test_chain_without_cycle_has_no_critical_vertex(self):
        # 1 -> 2 critical but no cycle anywhere
        M = Ifm.from_pairs([[(0, 1), (1, 0)], [(0, 1), (0, 1)]])
        s = critical_structure(M)
        assert s.critical_edges == {(1, 2)}
        assert s.critical_vertices == frozenset()
        assert s.reachable_columns == (False, False)

    @pytest.mark.parametrize("frac", [0.0, 0.02, 0.1, 0.5, 1.0])
    def test_matches_per_vertex_dfs(self, frac):
        rng = np.random.default_rng(int(frac * 100))
        for t in range(70):
            n = 1 + t % 30
            u = rng.random((n, n))
            v = rng.random((n, n)) * (1 - u)
            one = rng.random((n, n)) < frac
            u[one], v[one] = 1.0, 0.0
            M = Ifm(u, v)
            s = critical_structure(M)
            assert s == _dfs_critical_structure(M)
            assert all(type(x) is int for e in s.critical_edges for x in e)
            assert all(type(x) is int for x in s.critical_vertices)
            assert all(type(x) is bool for x in s.reachable_columns)


def _dfs_critical_structure(A):
    """Reference: a depth-first search from every vertex over the
    exact-<1,0> edges."""
    n = A.rows
    adj = {
        i: [j for j in range(1, n + 1) if A.mu[i - 1, j - 1] == 1.0 and A.nu[i - 1, j - 1] == 0.0]
        for i in range(1, n + 1)
    }

    def reachable_from(start):
        seen = set()
        stack = list(adj[start])
        while stack:
            v = stack.pop()
            if v not in seen:
                seen.add(v)
                stack.extend(adj[v])
        return seen

    reach = {v: reachable_from(v) for v in range(1, n + 1)}
    edges = frozenset((i, j) for i, out in adj.items() for j in out)
    vertices = frozenset(v for v in range(1, n + 1) if v in reach[v])
    columns = tuple(any(j in reach[v] for v in vertices) for j in range(1, n + 1))
    return CriticalStructure(edges, vertices, columns)


class TestPredictions:
    def test_example_a_all_columns(self):
        assert predict_column_limits(A3) == (True, True, True)
        assert predict_universal(A3)

    def test_example_b(self):
        assert predict_column_limits(B3) == (True, True, True)
        assert predict_universal(B3)

    def test_all_zero_matrix(self):
        import numpy as np
        M = Ifm(np.zeros((3, 3)), np.ones((3, 3)))
        assert predict_column_limits(M) == (False, False, False)
        assert not predict_universal(M)

    def test_universal_prediction_agrees_with_column_limits(self):
        # Every column holds an exact <1, 0> iff every column is reached
        # from a critical cycle: walking exact entries backwards from any
        # column never stops, so it enters a cycle. A near miss, mu = 1
        # and nu = 1e-300, is no critical edge.
        rng = np.random.default_rng(11)
        universal = 0
        for t in range(600):
            n = 1 + t % 30
            u = rng.random((n, n))
            v = rng.random((n, n)) * (1 - u)
            one = rng.random((n, n)) < rng.random()
            u[one], v[one] = 1.0, 0.0
            near = rng.random((n, n)) < rng.random() * 0.5
            u[near], v[near] = 1.0, 1e-300
            M = Ifm(u, v)
            assert predict_universal(M) == all(predict_column_limits(M))
            universal += predict_universal(M)
        assert 100 < universal < 500

    def test_identity_pattern(self):
        M = Ifm.from_pairs([[(1, 0), (0, 1)], [(0, 1), (1, 0)]])
        assert predict_universal(M)

    def test_weakened_self_loop_recomputed_and_matches_limit(self):
        # drop the (1,1) self-loop below critical; the 2<->3 circuit
        # still reaches every column via (3,1)... it does not: critical
        # edges are (2,3),(3,2) only, so column 1 is unreachable
        M = Ifm.from_pairs([
            [(0.9, 0), (0.5, 0.4), (0, 1)],
            [(0, 1), (0.6, 0.3), (1, 0)],
            [(1, 0), (1, 0), (0, 1)],
        ])
        s = critical_structure(M)
        assert s.critical_vertices == {2, 3}
        pred = predict_column_limits(M)
        assert pred == (True, True, True)  # (3,1) and (2,3),(3,2) are critical
        rep = power_sequence(M, GeneralizedMean(0.6, 1), eps=1e-12)
        for j, flag in enumerate(pred):
            col_ok = bool(
                (rep.limit.mu[:, j] >= 1 - 1e-6).all()
                and (rep.limit.nu[:, j] <= 1e-6).all()
            )
            assert col_ok == flag

    def test_prediction_matches_limit_when_column_unreachable(self):
        M = Ifm.from_pairs([
            [(1, 0), (0.5, 0.4), (0, 1)],
            [(1, 0), (0.6, 0.3), (0.3, 0.6)],
            [(1, 0), (0.9, 0), (0, 1)],
        ])
        pred = predict_column_limits(M)
        assert pred == (True, False, False)
        assert not predict_universal(M)
        rep = power_sequence(M, GeneralizedMean(0.5, 1), eps=1e-12)
        assert rep.converged
        assert (rep.limit.mu[:, 0] >= 1 - 1e-6).all()
        assert rep.limit.mu[:, 1].max() <= 1 - 1e-4
        assert rep.limit.mu[:, 2].max() <= 1 - 1e-4
        assert predict_universal(M) == is_universal(rep.limit, 1e-5)


class TestExportDot:
    def test_example_a_shape(self):
        dot = export_dot(A3)
        assert dot.startswith("digraph G {")
        assert dot.count("doublecircle") == 3
        # the printed matrix holds four exact <1,0> edges, each bold:
        # (1,1), (2,3), (3,1), (3,2)
        assert dot.count("style=bold") == 4
        # absent edges (<0,1>) are not drawn
        assert "1 -> 3" not in dot

    def test_no_bold_without_critical_edges(self):
        M = Ifm.from_pairs([[(0.5, 0.3), (0.2, 0.6)], [(0.4, 0.4), (0.7, 0.2)]])
        dot = export_dot(M)
        assert "style=bold" not in dot
        assert "doublecircle" not in dot

    def test_universal_two(self):
        dot = export_dot(Ifm.universal(2))
        assert dot.count("style=bold") == 4
        assert dot.count("doublecircle") == 2

    def test_label_precision(self):
        dot = export_dot(A3)
        assert "⟨0.50000,0.40000⟩" in dot

    def test_golden_text(self):
        # -0.0 is stored, and labelled, as 0.0; <0, 1> entries are not drawn;
        # only vertex 1 lies on a critical cycle.
        M = Ifm(
            [[1.0, -0.0, 0.0], [0.0, 0.25, 1.0], [1.0, 0.5, 0.0]],
            [[0.0, 0.5, 1.0], [1.0, 0.75, 0.0], [0.0, -0.0, 1.0]],
        )
        assert export_dot(M) == (
            "digraph G {\n"
            '  1 [label="v1", shape=doublecircle];\n'
            '  2 [label="v2", shape=circle];\n'
            '  3 [label="v3", shape=circle];\n'
            '  1 -> 1 [label="⟨1.00000,0.00000⟩", style=bold, penwidth=2];\n'
            '  1 -> 2 [label="⟨0.00000,0.50000⟩"];\n'
            '  2 -> 2 [label="⟨0.25000,0.75000⟩"];\n'
            '  2 -> 3 [label="⟨1.00000,0.00000⟩", style=bold, penwidth=2];\n'
            '  3 -> 1 [label="⟨1.00000,0.00000⟩", style=bold, penwidth=2];\n'
            '  3 -> 2 [label="⟨0.50000,0.00000⟩"];\n'
            "}\n"
        )
