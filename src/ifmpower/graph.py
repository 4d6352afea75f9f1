"""Directed-graph view of a square matrix: walk weights, critical
structure, column-limit prediction, and DOT export.

Vertices are numbered 1..n to match the usual graph presentation; walks
may repeat vertices. A critical edge is an entry exactly equal to
<1, 0>; a critical vertex lies on a cycle of such edges. Columns
reachable from a critical vertex through critical edges saturate to
<1, 0> in the power limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple

import numpy as np

from .errors import BadPathError, DimensionMismatchError
from .ifn import ComponentPair
from .matrix import ConvexCombo, GeneralizedMean


def _vertex(v):
    """v as an int; BadPathError unless int(v) == v."""
    try:
        if int(v) == v:
            return int(v)
    except (TypeError, ValueError, OverflowError):
        pass
    raise BadPathError(f"vertex {v!r} is not an integer")


@dataclass(frozen=True)
class PathSpec:
    """A walk given as 1-based vertex indices; repeats allowed."""

    vertices: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(_vertex(v) for v in self.vertices))
        if len(self.vertices) < 2:
            raise BadPathError("a walk needs at least one edge (two vertices)")

    def edges(self):
        v = self.vertices
        return list(zip(v[:-1], v[1:]))


@dataclass(frozen=True)
class CriticalStructure:
    """Exact-<1,0> subgraph, its cycle vertices, and column reachability."""

    critical_edges: FrozenSet[Tuple[int, int]]
    critical_vertices: FrozenSet[int]
    reachable_columns: Tuple[bool, ...]


def _edge_values(A, path):
    """The walk's edge components as two lists of floats, mu and nu."""
    if not A.is_square():
        raise DimensionMismatchError("walk weights are defined on square matrices")
    n = A.rows
    for v in path.vertices:
        if not 1 <= v <= n:
            raise BadPathError(f"vertex {v} outside [1, {n}]")
    v = np.array(path.vertices) - 1
    return A.mu[v[:-1], v[1:]].tolist(), A.nu[v[:-1], v[1:]].tolist()


def _left_fold(A, path, mus, nus, fold):
    """A's entry for a one-edge walk, else the left fold of its edges."""
    if len(mus) == 1:
        return A.entry(path.vertices[0] - 1, path.vertices[1] - 1)
    w = mus[0], nus[0]
    for e in zip(mus[1:], nus[1:]):
        w = fold(*w, *e)
    return ComponentPair(*w)


def _closed_form_component(values, coeffs, p):
    """(sum of c * a^p) ^ (1/p) over the terms of nonzero weight c, apart
    from GeneralizedMean.mean but with its conventions: equal values give
    that value, and for p < 0 a zero value or an overflow gives 0."""
    terms = [(a, c) for a, c in zip(values, coeffs) if c != 0.0]
    if len({a for a, _ in terms}) == 1:
        return terms[0][0]
    if p < 0 and any(a == 0.0 for a, _ in terms):
        return 0.0
    try:
        # An overflowed sum is inf, and inf ** (1/p) is 0.0 for p < 0.
        return sum(c * a**p for a, c in terms) ** (1.0 / p)
    except OverflowError:  # a**p for subnormal a and p < 0
        return 0.0


def path_weight_gen(A, path, lam, p):
    """Weight of a walk under the power-mean operator.

    Computed two ways: the closed form with geometric coefficients
    lam^(k-1), lam^(k-2)(1-lam), ..., (1-lam), and the left fold of
    GeneralizedMean(lam, p).fold(), built, and so checked, first. The
    two are algebraically identical; they must agree to 1e-12 or the
    call fails.
    """
    fold = GeneralizedMean(lam, p).fold()
    mus, nus = _edge_values(A, path)
    k = len(mus)
    coeffs = [lam ** (k - 1)] + [
        lam ** (k - 1 - i) * (1.0 - lam) for i in range(1, k)
    ]

    closed = ComponentPair(
        _closed_form_component(mus, coeffs, p),
        _closed_form_component(nus, coeffs, p),
    )
    folded = _left_fold(A, path, mus, nus, fold)
    if max(abs(closed.mu - folded.mu), abs(closed.nu - folded.nu)) > 1e-12:
        raise ArithmeticError(
            f"closed form {closed} and fold {folded} disagree on {path}"
        )
    return folded


def path_weight_star(A, path, lam):
    """Weight of a walk under the convex-combination operator: the left
    fold of ConvexCombo(lam).fold(), built, and so checked, first."""
    fold = ConvexCombo(lam).fold()
    return _left_fold(A, path, *_edge_values(A, path), fold)


def critical_structure(A):
    """Critical edges, vertices on critical cycles, and per-column
    reachability from a critical vertex.

    One Warshall closure (Warshall, "A theorem on Boolean matrices",
    JACM 1962) of the critical adjacency C. Invariant after step k
    (0-based): R[i, j] holds iff a critical walk of at least one edge
    leads from i to j through inner vertices <= k. At the end R is
    reachability by walks of at least one edge, so i is critical iff
    R[i, i], and column j saturates iff R[i, j] for a critical i.
    """
    if not A.is_square():
        raise DimensionMismatchError("critical structure needs a square matrix")
    C = (A.mu == 1.0) & (A.nu == 0.0)
    R = C.copy()
    for k in range(A.rows):
        R[R[:, k]] |= R[k]
    on_cycle = R.diagonal()
    # tolist() gives Python ints and bools, whose reprs analyze prints.
    tails, heads = np.nonzero(C)
    edges = frozenset(zip((tails + 1).tolist(), (heads + 1).tolist()))
    vertices = frozenset((np.flatnonzero(on_cycle) + 1).tolist())
    columns = tuple(R[on_cycle].any(axis=0).tolist())
    return CriticalStructure(edges, vertices, columns)


def predict_column_limits(A):
    """Per-column prediction: True where the limit column saturates to
    <1, 0> (a critical-edge walk from a critical vertex reaches it)."""
    return critical_structure(A).reachable_columns


def predict_universal(A):
    """True iff every column holds an exact <1, 0> entry, the criterion
    for the power limit to be the universal matrix."""
    if not A.is_square():
        raise DimensionMismatchError("prediction needs a square matrix")
    on = (A.mu == 1.0) & (A.nu == 0.0)
    return bool(on.any(axis=0).all())


def export_dot(A, struct=None):
    """Render the matrix as Graphviz digraph G.

    Edges with mu > 0 or nu < 1 are drawn, labeled <mu,nu> rounded to
    5 decimals; critical edges are bold, critical vertices
    double-circled. `struct` is A's critical structure when the caller
    has already computed it; otherwise it is computed here.
    """
    if not A.is_square():
        raise DimensionMismatchError("DOT export needs a square matrix")
    n = A.rows
    if struct is None:
        struct = critical_structure(A)
    lines = ["digraph G {"]
    for v in range(1, n + 1):
        shape = "doublecircle" if v in struct.critical_vertices else "circle"
        lines.append(f'  {v} [label="v{v}", shape={shape}];')
    for i, (mu_row, nu_row) in enumerate(zip(A.mu, A.nu), start=1):
        for j, (mu, nu) in enumerate(zip(mu_row.tolist(), nu_row.tolist()), start=1):
            if mu > 0.0 or nu < 1.0:
                label = f"⟨{mu:.5f},{nu:.5f}⟩"
                style = ', style=bold, penwidth=2' if (i, j) in struct.critical_edges else ""
                lines.append(f'  {i} -> {j} [label="{label}"{style}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
