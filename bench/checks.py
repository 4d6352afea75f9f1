"""Independent checks of CLI output.

Nothing here calls into ifmpower. Powers are recomputed for one sampled
row by a row-vector left fold written from the operator definitions:
row i of X o A depends only on row i of X, so A^k restricted to row i
costs O(k n^2). Graph answers are recomputed with scipy.sparse.csgraph.
Each check raises CheckFailed with a reason; the runner counts it.
"""

from __future__ import annotations

import ast
import csv
import io
import json

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components

TOL = 1e-9
EPS = 1e-12  # the CLI's default --eps


class CheckFailed(Exception):
    pass


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


def _mean(x, y, lam, p):
    """Weighted power mean of column vector x against matrix y, with the
    package's conventions: lam in {0, 1} picks one argument, equal
    arguments are returned unchanged, and for p < 0 a zero gives 0."""
    if lam == 1.0:
        return np.broadcast_to(x, y.shape)
    if lam == 0.0:
        return y
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        m = (lam * x**p + (1.0 - lam) * y**p) ** (1.0 / p)
    if p < 0:
        m = np.where((x == 0.0) | (y == 0.0), 0.0, m)
    return np.where(x == y, x, m)


def fold_step(row_mu, row_nu, A_mu, A_nu, op):
    """Row i of X o A from row i of X."""
    x_mu, x_nu = row_mu[:, None], row_nu[:, None]
    if op[0] == "gm":
        _, lam, p = op
        mu = _mean(x_mu, A_mu, lam, p).max(axis=0)
        nu = _mean(x_nu, A_nu, lam, p).min(axis=0)
    else:
        lam = op[1]
        mu = (lam * np.minimum(x_mu, A_mu) + (1.0 - lam) * (x_mu + A_mu) / 2.0).max(axis=0)
        nu = (lam * np.maximum(x_nu, A_nu) + (1.0 - lam) * (x_nu + A_nu) / 2.0).min(axis=0)
    return np.clip(mu, 0.0, 1.0), np.clip(nu, 0.0, 1.0)


def power_rows(m, i, k, op):
    """Row i of A^(k-1) and of A^k (left fold); A^0 is taken as A^1."""
    cur = prev = (m.mu[i], m.nu[i])
    for _ in range(k - 1):
        prev, cur = cur, fold_step(cur[0], cur[1], m.mu, m.nu, op)
    return prev, cur


def _dist(a, b):
    return float(max(np.abs(a[0] - b[0]).max(), np.abs(a[1] - b[1]).max()))


def parse_doc(text):
    doc = json.loads(text)
    mu = np.array([[c["mu"] for c in row] for row in doc["entries"]], dtype=np.float64)
    nu = np.array([[c["nu"] for c in row] for row in doc["entries"]], dtype=np.float64)
    expect(mu.shape == (doc["rows"], doc["cols"]), "document shape disagrees with rows/cols")
    return mu, nu


def converge(m, op, i):
    def check(out, _dot):
        head, sep, body = out.partition("limit:\n")
        expect(sep, "no limit section")
        fields = dict(line.split(": ", 1) for line in head.splitlines())
        expect(fields.get("converged") == "True", f"converged: {fields.get('converged')}")
        k = int(fields["iterations"]) + 1
        expect(float(fields["final_delta"]) <= EPS, "final_delta above eps")
        mu, nu = parse_doc(body)
        expect(mu.shape == m.mu.shape, "limit has the wrong shape")
        prev, cur = power_rows(m, i, k, op)
        expect(_dist(cur, (mu[i], nu[i])) <= TOL, f"row {i} of A^{k} disagrees with the fold")
        expect(_dist(cur, prev) <= TOL, f"row {i} still moves at step {k}")
        spread = max((mu.max(0) - mu.min(0)).max(), (nu.max(0) - nu.min(0)).max())
        claimed = float(fields["row_uniformity"])
        expect(abs(spread - claimed) <= EPS, "row_uniformity misreported")
        expect(claimed <= TOL, f"limit rows differ by {claimed}")
        universal = bool((mu >= 1.0 - 1e-5).all() and (nu <= 1e-5).all())
        expect(fields["universal"] == str(universal), "universal flag misreported")

    return check


def power(m, op, steps, i):
    def check(out, _dot):
        mu, nu = parse_doc(out)
        expect(mu.shape == m.mu.shape, "power has the wrong shape")
        _, cur = power_rows(m, i, steps, op)
        expect(_dist(cur, (mu[i], nu[i])) <= TOL, f"row {i} of A^{steps} disagrees with the fold")

    return check


def round_trip(m):
    """power --steps 1 composes nothing: the output must equal the
    input bit for bit after a full-precision format and parse."""

    def check(out, _dot):
        mu, nu = parse_doc(out)
        expect(np.array_equal(mu, m.mu) and np.array_equal(nu, m.nu),
               "round trip changed the matrix")

    return check


def sweep(m, family, lams, ps, i):
    seen_no_guarantee = {}

    def check(out, _dot):
        rows = list(csv.reader(io.StringIO(out)))
        expect(rows[0] == ["lambda", "p", "converged", "iterations", "final_delta",
                           "mu_distance_to_U", "note"], "unexpected CSV header")
        grid = [(lam, p) for lam in sorted(lams) for p in sorted(ps, key=lambda x: (x is None, x))]
        expect(len(rows) - 1 == len(grid), "grid size differs")
        for (lam, p), row in zip(grid, rows[1:]):
            lam_s, p_s, conv, iters, final_delta, mu_dist, note = row
            expect(float(lam_s) == lam and (p_s == "" if p is None else float(p_s) == p),
                   f"grid point {row[:2]} out of order")
            expect(note == ("no-guarantee" if lam == 1.0 else ""), f"note {note!r} at lambda {lam}")
            delta = float(final_delta)
            expect(conv == str(delta <= EPS), f"converged {conv} with final_delta {delta}")
            op = ("gm", lam, p) if family == "gm" else ("star", lam)
            prev, cur = power_rows(m, i, int(iters) + 1, op)
            expect(_dist(cur, prev) <= delta + TOL, f"row {i} moves more than final_delta at {row[:2]}")
            row_dist = float((1.0 - cur[0]).max())
            if conv == "True" and lam < 1.0:
                # Below lambda = 1 the fold contracts, so a converged limit
                # is row-uniform and one row gives the max. Max-min
                # (star at lambda = 1) can settle on a non-uniform limit.
                expect(abs(float(mu_dist) - row_dist) <= TOL, f"mu_distance_to_U wrong at {row[:2]}")
            else:
                expect(float(mu_dist) >= row_dist - TOL, f"mu_distance_to_U too small at {row[:2]}")
            if lam == 1.0:
                first = seen_no_guarantee.setdefault((lam, p), row)
                expect(first == row, f"lambda = 1 result changed between passes: {first} -> {row}")

    return check


def _critical_reference(m):
    """Critical vertices (on a cycle of exact <1,0> edges), the edge set,
    and the columns reachable from a critical vertex, all 1-based."""
    n = m.mu.shape[0]
    on = (m.mu == 1.0) & (m.nu == 0.0)
    rows, cols = np.nonzero(on)
    graph = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    _, labels = connected_components(graph, directed=True, connection="strong")
    sizes = np.bincount(labels)
    critical = {int(v) + 1 for v in range(n) if sizes[labels[v]] > 1 or on[v, v]}
    # One BFS from a super-source wired to every critical vertex; each
    # critical vertex lies on a cycle, so it counts as reachable itself.
    src = np.full(len(critical), n)
    dst = np.array(sorted(critical), dtype=np.int64) - 1
    wide = csr_matrix(
        (np.ones(len(rows) + len(dst)), (np.concatenate([rows, src]), np.concatenate([cols, dst]))),
        shape=(n + 1, n + 1),
    )
    reached = breadth_first_order(wide, n, directed=True, return_predecessors=False)
    columns = {int(v) + 1 for v in reached if v != n}
    edges = {(int(a) + 1, int(b) + 1) for a, b in zip(rows, cols)}
    universal = bool(on.any(axis=0).all())
    return critical, edges, columns, universal


def analyze(m):
    def check(out, dot):
        critical, edges, columns, universal = _critical_reference(m)
        n = m.mu.shape[0]
        lines = out.splitlines()
        expect(lines[0].startswith("critical_vertices: "), "no critical_vertices line")
        got = lines[0].split(": ", 1)[1].strip("{}")
        expect({int(v) for v in got.split(",") if v.strip()} == critical, "critical vertices differ")
        expect(set(ast.literal_eval(lines[1].split(": ", 1)[1])) == edges, "critical edges differ")
        for j in range(1, n + 1):
            want = f"column {j} limit <1,0>: {'yes' if j in columns else 'no'}"
            expect(lines[1 + j] == want, f"column {j} flag differs")
        expect(lines[n + 2] == f"predict_universal: {'yes' if universal else 'no'}",
               "predict_universal differs")
        expect(dot is not None and dot.count("shape=doublecircle") == len(critical),
               "DOT critical vertices differ")
        expect(dot.count("style=bold") == len(edges), "DOT critical edges differ")

    return check


def oracle(cases):
    def check(out, _dot):
        lines = out.splitlines()
        expect(f"trials: {cases}" in lines, "wrong trial count")
        expect("all trials agree" in lines, "oracle did not agree")

    return check
