import random

import numpy as np
import pytest

from ifmpower import (
    BadPathError,
    CriticalStructure,
    GeneralizedMean,
    Ifm,
    PathSpec,
    critical_structure,
    export_dot,
    gen_mean_pair,
    is_universal,
    path_weight_gen,
    path_weight_star,
    power_sequence,
    predict_column_limits,
    predict_universal,
)
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
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(2, 5)
            A = random_ifm(rng, n)
            k = rng.randint(1, 6)
            verts = [rng.randint(1, n) for _ in range(k + 1)]
            lam = rng.choice([0.0, 0.1, 0.5, 0.9, 1.0])
            p = rng.choice([-1.0, 0.5, 1.0, 2.0])
            path = PathSpec(tuple(verts))
            w = path_weight_gen(A, path, lam, p)  # raises if they disagree
            folded = A.entry(verts[0] - 1, verts[1] - 1)
            for a, b in zip(verts[1:-1], verts[2:]):
                folded = gen_mean_pair(folded, A.entry(a - 1, b - 1), lam, p)
            assert (w.mu, w.nu) == (folded.mu, folded.nu)

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
        # -0.0 keeps its sign in labels; <0, 1> entries are not drawn;
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
            '  1 -> 2 [label="⟨-0.00000,0.50000⟩"];\n'
            '  2 -> 2 [label="⟨0.25000,0.75000⟩"];\n'
            '  2 -> 3 [label="⟨1.00000,0.00000⟩", style=bold, penwidth=2];\n'
            '  3 -> 1 [label="⟨1.00000,0.00000⟩", style=bold, penwidth=2];\n'
            '  3 -> 2 [label="⟨0.50000,-0.00000⟩"];\n'
            "}\n"
        )
