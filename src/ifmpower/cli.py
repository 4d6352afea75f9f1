"""Command-line front end.

Subcommands: power, converge, analyze, sweep, oracle-check. Matrices
travel as JSON documents:

    {"rows": 3, "cols": 3,
     "entries": [[{"mu": 1.0, "nu": 0.0}, ...], ...]}

Exit codes: 0 ok, 2 input error, 3 math-domain error, 4 non-convergence,
5 oracle mismatch.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

import numpy as np

from . import graph, oracle
from .errors import (
    DimensionMismatchError,
    DomainError,
    IfmError,
    MismatchFoundError,
    ParseError,
    ValidationError,
    ZeroPError,
)
from .ifn import SUM_TOL, Ifn
from .matrix import (
    ConvexCombo,
    GeneralizedMean,
    Ifm,
    is_universal,
    power,
    power_sequence,
    row_uniformity,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_MATH = 3
EXIT_NO_CONVERGENCE = 4
EXIT_MISMATCH = 5


def _bulk_components(entries, rows, cols):
    """Read the mu and nu grids of `entries` with one numpy conversion
    each, or return None to leave the document to the per-entry loop.

    None is returned when a row is not a list of objects with mu and nu,
    the grid is ragged or of the wrong shape, a value is not a JSON
    number or boolean, or a value fails the comparisons Ifn makes. The
    loop then reports the first bad entry in row-major order, or accepts
    the odd but valid cells this path declines, such as numeric strings.
    """
    try:
        mu = np.array([[cell["mu"] for cell in row] for row in entries])
        nu = np.array([[cell["nu"] for cell in row] for row in entries])
    except (TypeError, KeyError, ValueError, IndexError):
        return None
    if not (mu.dtype.kind in "biuf" and nu.dtype.kind in "biuf"
            and mu.shape == nu.shape == (rows, cols)):
        return None
    # In float64, as Ifn compares: booleans would add as logical or.
    mu, nu = mu.astype(np.float64, copy=False), nu.astype(np.float64, copy=False)
    # Written so that NaN fails the range test.
    if not (((mu >= 0) & (mu <= 1) & (nu >= 0) & (nu <= 1)).all()
            and (mu + nu <= 1.0 + SUM_TOL).all()):
        return None
    return mu, nu


def parse_matrix(text):
    """Parse and validate a JSON matrix document into an Ifm."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not {"rows", "cols", "entries"} <= doc.keys():
        raise ParseError("document must carry rows, cols and entries")
    rows, cols, entries = doc["rows"], doc["cols"], doc["entries"]
    if not (isinstance(rows, int) and isinstance(cols, int) and rows > 0 and cols > 0):
        raise ParseError("rows and cols must be positive integers")
    if not isinstance(entries, list):
        raise ParseError("entries must be a list of rows")
    if len(entries) != rows:
        raise ParseError(f"expected {rows} entry rows, got {len(entries)}")
    grids = _bulk_components(entries, rows, cols)
    if grids is not None:
        return Ifm(*grids)
    mu = np.empty((rows, cols))
    nu = np.empty((rows, cols))
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != cols:
            raise ParseError(f"row {i} is ragged: expected {cols} entries")
        for j, cell in enumerate(row):
            if not isinstance(cell, dict) or {"mu", "nu"} - cell.keys():
                raise ParseError(f"entry ({i}, {j}) must be an object with mu and nu")
            try:
                e = Ifn(cell["mu"], cell["nu"])
            except (ValueError, TypeError, OverflowError) as exc:
                raise ValidationError(f"entry ({i}, {j}): {exc}") from exc
            mu[i, j] = e.mu
            nu[i, j] = e.nu
    return Ifm(mu, nu)


def format_matrix(M, display=None):
    """Serialize an Ifm as a JSON document; full round-trip precision by
    default, `display` decimals for paper-style rounding.

    The text is byte for byte what ``json.dumps(doc, indent=1)`` writes
    for {"rows", "cols", "entries": [[{"mu", "nu"}, ...], ...]}, the
    layout the CLI has always printed. It is built here because, before
    Python 3.13, json drops to its pure-Python encoder whenever `indent`
    is set. Each value is written with float.__repr__, as json writes
    floats: the shortest text that reads back as the same float64. Ifm
    holds finite values only, so json's NaN and Infinity spellings
    cannot arise.
    """
    mu, nu = M.mu.tolist(), M.nu.tolist()
    if display is not None:
        mu = [[round(x, display) for x in row] for row in mu]
        nu = [[round(x, display) for x in row] for row in nu]
    rows = [
        "  [\n" + ",\n".join(
            f'   {{\n    "mu": {m!r},\n    "nu": {v!r}\n   }}'
            for m, v in zip(mu_row, nu_row)
        ) + "\n  ]"
        for mu_row, nu_row in zip(mu, nu)
    ]
    # The value lists are not needed while the document is joined.
    del mu, nu
    # Head and tail ride on the first and last rows, so the document
    # text is assembled by one join, not copied again by concatenation.
    rows[0] = f'{{\n "rows": {M.rows},\n "cols": {M.cols},\n "entries": [\n' + rows[0]
    rows[-1] += "\n ]\n}"
    return ",\n".join(rows)


def _load_matrix(path):
    with open(path, encoding="utf-8") as fh:
        return parse_matrix(fh.read())


def _operator_from_args(args):
    if args.op == "gen-mean":
        if args.p is None:
            # A missing flag is bad input, not a domain error.
            raise ValueError("--p is required for the gen-mean operator")
        return GeneralizedMean(args.lam, args.p)
    return ConvexCombo(args.lam)


# Most points a start:stop:step grid may hold; each point is a whole
# power sequence, and the list itself is built before any work.
GRID_MAX_POINTS = 10**6


def parse_grid(text):
    """Grid flag: either 'start:stop:step' (inclusive endpoints within
    1e-12, at most GRID_MAX_POINTS points) or a comma-separated value
    list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid must be start:stop:step, got {text!r}")
        start, stop, step = (float(x) for x in parts)
        if not all(math.isfinite(v) for v in (start, stop, step)):
            raise ValueError(f"grid bounds and step must be finite, got {text!r}")
        if step <= 0:
            raise ValueError("grid step must be positive")
        # The grid holds floor(q) + 1 points; they are counted before
        # the list is built, so a tiny step costs nothing.
        if (stop + 1e-12 - start) / step >= GRID_MAX_POINTS:
            raise ValueError(f"grid {text!r} has more than {GRID_MAX_POINTS} points")
        values = []
        k = 0
        while True:
            v = start + k * step
            if v > stop + 1e-12:
                break
            values.append(min(v, stop))
            k += 1
        return values
    return [float(x) for x in text.split(",") if x.strip()]


def _add_common(sub, with_p=True):
    sub.add_argument("--input", required=True, help="matrix document (JSON)")
    sub.add_argument("--op", choices=["gen-mean", "star"], default="gen-mean")
    sub.add_argument("--lambda", dest="lam", type=float, default=0.5)
    if with_p:
        sub.add_argument("--p", type=float, default=None,
                         help="power-mean exponent (gen-mean only)")
    sub.add_argument("--display", type=int, default=None,
                     help="round output to N decimals")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ifmpower",
        description="Intuitionistic fuzzy matrix powers, convergence and "
                    "critical-path analysis.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sp = subs.add_parser("power", help="print A^k")
    _add_common(sp)
    sp.add_argument("--steps", type=int, required=True)

    sc = subs.add_parser("converge", help="iterate powers to the limit")
    _add_common(sc)
    sc.add_argument("--eps", type=float, default=1e-12)
    sc.add_argument("--max-iter", type=int, default=100000)
    sc.add_argument("--trace", help="write per-step CSV (m,delta,bound)")

    sa = subs.add_parser("analyze", help="critical structure and predictions")
    sa.add_argument("--input", required=True)
    sa.add_argument("--dot", help="write a Graphviz DOT file")

    sw = subs.add_parser("sweep", help="run a (lambda, p) parameter sweep")
    sw.add_argument("--input", required=True)
    sw.add_argument("--op", choices=["gen-mean", "star"], default="gen-mean")
    sw.add_argument("--lambda-grid", dest="lambda_grid", required=True)
    sw.add_argument("--p-grid", dest="p_grid", default="1")
    sw.add_argument("--eps", type=float, default=1e-12)
    sw.add_argument("--max-iter", type=int, default=100000)
    sw.add_argument("--output", help="CSV file (default stdout)")

    so = subs.add_parser("oracle-check",
                         help="differential test engine vs brute-force oracle")
    so.add_argument("--cases", type=int, default=100)
    so.add_argument("--seed", type=int, default=42)
    so.add_argument("--max-n", type=int, default=4)
    so.add_argument("--max-m", type=int, default=5)

    return parser


def cmd_power(args):
    A = _load_matrix(args.input)
    result = power(A, args.steps, _operator_from_args(args))
    print(format_matrix(result, args.display))
    return EXIT_OK


def cmd_converge(args):
    A = _load_matrix(args.input)
    op = _operator_from_args(args)
    report = power_sequence(A, op, eps=args.eps, max_iter=args.max_iter)
    if args.trace:
        with open(args.trace, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["m", "delta", "bound"])
            for i, (d, b) in enumerate(zip(report.deltas, report.bound_trace)):
                writer.writerow([i + 2, f"{d:.17g}",
                                 "n/a" if b is None else f"{b:.17g}"])
    print(f"converged: {report.converged}")
    print(f"iterations: {report.iterations}")
    if report.oscillation_period is not None:
        print(f"oscillation_period: {report.oscillation_period}")
    print(f"final_delta: {report.deltas[-1]:.17g}" if report.deltas
          else "final_delta: n/a")
    print(f"row_uniformity: {row_uniformity(report.limit):.17g}")
    print(f"universal: {is_universal(report.limit, 1e-5)}")
    print(f"sum_violations: {report.sum_violations}")
    print("limit:")
    print(format_matrix(report.limit, args.display))
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def cmd_analyze(args):
    A = _load_matrix(args.input)
    struct = graph.critical_structure(A)
    verts = ", ".join(str(v) for v in sorted(struct.critical_vertices))
    print(f"critical_vertices: {{{verts}}}")
    print(f"critical_edges: {sorted(struct.critical_edges)}")
    for j, flag in enumerate(struct.reachable_columns, start=1):
        print(f"column {j} limit <1,0>: {'yes' if flag else 'no'}")
    print(f"predict_universal: {'yes' if graph.predict_universal(A) else 'no'}")
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(graph.export_dot(A, struct=struct))
        print(f"dot written: {args.dot}")
    return EXIT_OK


def cmd_sweep(args):
    A = _load_matrix(args.input)
    lambdas = parse_grid(args.lambda_grid)
    ps = parse_grid(args.p_grid) if args.op == "gen-mean" else [None]
    if not lambdas or not ps:
        raise ParseError("parameter grids must be non-empty")
    rows = []
    for lam in sorted(lambdas):
        for p in sorted(ps, key=lambda x: (x is None, x)):
            if args.op == "gen-mean":
                if p == 0:
                    raise ZeroPError("p must be nonzero")
                op = GeneralizedMean(lam, p)
            else:
                op = ConvexCombo(lam)
            report = power_sequence(A, op, eps=args.eps, max_iter=args.max_iter)
            mu_dist = float((1.0 - report.limit.mu).max())
            rows.append([
                lam,
                "" if p is None else p,
                report.converged,
                report.iterations,
                f"{report.deltas[-1]:.17g}" if report.deltas else "",
                f"{mu_dist:.17g}",
                "no-guarantee" if lam == 1.0 else "",
            ])
    out = (open(args.output, "w", newline="", encoding="utf-8") if args.output
           else sys.stdout)
    try:
        writer = csv.writer(out)
        writer.writerow(["lambda", "p", "converged", "iterations",
                         "final_delta", "mu_distance_to_U", "note"])
        writer.writerows(rows)
    finally:
        if args.output:
            out.close()
    return EXIT_OK


def cmd_oracle_check(args):
    if args.cases < 1:
        print("error: --cases must be >= 1", file=sys.stderr)
        return EXIT_INPUT
    budget = oracle.OracleBudget(max_n=args.max_n, max_m=args.max_m)
    try:
        report = oracle.differential_check(args.cases, budget, seed=args.seed)
    except MismatchFoundError as exc:
        print(f"mismatch: {exc}", file=sys.stderr)
        if exc.matrix is not None:
            print("counterexample matrix:", file=sys.stderr)
            print(format_matrix(exc.matrix), file=sys.stderr)
            print(f"operator: {exc.operator}, m: {exc.exponent}", file=sys.stderr)
        return EXIT_MISMATCH
    print(f"trials: {report.trials}")
    print(f"max_deviation: {report.max_deviation:.3g}")
    print("all trials agree")
    return EXIT_OK


COMMANDS = {
    "power": cmd_power,
    "converge": cmd_converge,
    "analyze": cmd_analyze,
    "sweep": cmd_sweep,
    "oracle-check": cmd_oracle_check,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_INPUT
    try:
        return COMMANDS[args.command](args)
    except (DomainError, DimensionMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MATH
    except (OSError, IfmError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
