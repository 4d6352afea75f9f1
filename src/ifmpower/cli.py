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
import contextlib
import csv
import decimal
import fractions
import json
import math
import os
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
)
from .ifn import SUM_TOL, Ifn
from .matrix import (
    ConvexCombo,
    GeneralizedMean,
    Ifm,
    _check_sequence,
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
# Largest matrix file read: a parse takes up to 15x the file size in RSS.
MAX_INPUT_BYTES = 128 * 2**20


def parse_matrix(text):
    """Parse and validate a JSON matrix document into an Ifm.

    Each row is read whole, through float() as Ifn reads, and checked as
    Ifn checks, range and sum. Only a row that fails is read again one Ifn
    per entry, which raises at the first bad entry and names it. One scan
    finds the first row that is not a list of cols entries; the rows
    before it fill one array, so its size is bounded by what json.loads
    has built, and are checked before that row is reported ragged.
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not {"rows", "cols", "entries"} <= doc.keys():
        raise ParseError("document must carry rows, cols and entries")
    rows, cols, entries = doc["rows"], doc["cols"], doc["entries"]
    # bool is an int subclass, and true is not a size.
    if not all(type(x) is int and x > 0 for x in (rows, cols)):
        raise ParseError("rows and cols must be positive integers")
    if not isinstance(entries, list):
        raise ParseError("entries must be a list of rows")
    if len(entries) != rows:
        raise ParseError(f"expected {rows} entry rows, got {len(entries)}")
    full = next((i for i, row in enumerate(entries)
                 if not isinstance(row, list) or len(row) != cols), rows)
    pairs = np.empty((2, full, cols))
    for i, row in enumerate(entries[:full]):
        try:
            pair = np.array([[float(cell["mu"]) for cell in row],
                             [float(cell["nu"]) for cell in row]])
            # min and max propagate NaN, so NaN fails the range test.
            valid = (pair.min() >= 0 and pair.max() <= 1
                     and (pair[0] + pair[1] <= 1.0 + SUM_TOL).all())
        except (TypeError, KeyError, ValueError, OverflowError):
            valid = False
        if not valid:
            for j, cell in enumerate(row):
                if not isinstance(cell, dict) or {"mu", "nu"} - cell.keys():
                    raise ParseError(f"entry ({i}, {j}) must be an object with mu and nu")
                try:
                    Ifn(cell["mu"], cell["nu"])
                except (ValueError, TypeError, OverflowError) as exc:
                    raise ValidationError(f"entry ({i}, {j}): {exc}") from exc
        pairs[:, i] = pair
    if full < rows:
        raise ParseError(f"row {full} is ragged: expected {cols} entries")
    return Ifm._wrap(pairs)


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
        if os.fstat(fh.fileno()).st_size > MAX_INPUT_BYTES:
            raise ParseError(f"input file exceeds the {MAX_INPUT_BYTES}-byte limit")
        return parse_matrix(fh.read())


def _open_output(path):
    """`path` opened for CSV writing, or a context holding None without a
    path. Commands open it after their checks and before the first fold."""
    if not path:
        return contextlib.nullcontext()
    return open(path, "w", newline="", encoding="utf-8")


def _operator_from_args(args):
    if args.op == "gen-mean":
        if args.p is None:
            # A missing flag is bad input, not a domain error.
            raise ValueError("--p is required for the gen-mean operator")
        return GeneralizedMean(args.lam, args.p)
    return ConvexCombo(args.lam)


# Most points a start:stop:step grid, or a sweep's lambda x p product,
# may hold; each point is a power sequence, listed before any work.
GRID_MAX_POINTS = 10**6


def parse_grid(text):
    """Grid flag: either 'start:stop:step', every start + k * step up to
    stop in exact steps (at most GRID_MAX_POINTS points), or a
    comma-separated value list."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid must be start:stop:step, got {text!r}")
        if not all(math.isfinite(float(x)) for x in parts):
            raise ValueError(f"grid bounds and step must be finite, got {text!r}")
        # Any text float() reads as finite is a valid Decimal, and a
        # Decimal is an exact Fraction, so 0.1:0.9:0.2 steps to 0.3, not
        # 0.30000000000000004, and no step is rounded into an extra
        # point. Decimal also reads underscores where Fraction may not.
        start, stop, step = (decimal.Decimal(x) for x in parts)
        if step <= 0:
            raise ValueError("grid step must be positive")
        # Exact arithmetic pays for every decimal place, and 1e-999999999
        # has a billion of them; a part that underflows to 0.0 as a float
        # means nothing to the grid anyway.
        if any(x and not float(x) for x in (start, stop, step)):
            raise ValueError(f"grid bounds and step must be 0 or not underflow "
                             f"to 0.0, got {text!r}")
        start, stop, step = (fractions.Fraction(x) for x in (start, stop, step))
        # Points are counted before any is built, so a tiny step costs
        # nothing; floor keeps a stop below start empty.
        count = math.floor((stop - start) / step) + 1
        if count > GRID_MAX_POINTS:
            raise ValueError(f"grid {text!r} has more than {GRID_MAX_POINTS} points")
        # Point k is (a + k * b) / den over the common denominator; int
        # division rounds correctly, as float(Fraction) does.
        den = math.lcm(start.denominator, step.denominator)
        a, b = int(start * den), int(step * den)
        return [(a + k * b) / den for k in range(count)]
    return [float(x) for x in text.split(",") if x.strip()]


def _decimals(text):
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a number of decimals >= 0, got {text!r}")
    return value


def _add_common(sub):
    sub.add_argument("--input", required=True, help="matrix document (JSON)")
    sub.add_argument("--op", choices=["gen-mean", "star"], default="gen-mean")
    sub.add_argument("--lambda", dest="lam", type=float, default=0.5)
    sub.add_argument("--p", type=float, default=None,
                     help="power-mean exponent (gen-mean only)")
    sub.add_argument("--display", type=_decimals, default=None,
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
    so.add_argument("--max-n", type=int, default=oracle.OracleBudget.max_n)
    so.add_argument("--max-m", type=int, default=oracle.OracleBudget.max_m)

    return parser


def cmd_power(args):
    A = _load_matrix(args.input)
    result = power(A, args.steps, _operator_from_args(args))
    print(format_matrix(result, args.display))
    return EXIT_OK


def cmd_converge(args):
    A = _load_matrix(args.input)
    op = _operator_from_args(args)
    _check_sequence(A, args.eps, args.max_iter)
    with _open_output(args.trace) as fh:
        report = power_sequence(A, op, eps=args.eps, max_iter=args.max_iter)
        if args.trace:
            writer = csv.writer(fh)
            writer.writerow(["m", "delta", "bound"])
            for i, (d, b) in enumerate(zip(report.deltas, report.bound_trace)):
                writer.writerow([i + 2, f"{d:.17g}",
                                 "n/a" if b is None else f"{b:.17g}"])
    print(f"converged: {report.converged}")
    print(f"iterations: {report.iterations}")
    if report.oscillation_period is not None:
        print(f"oscillation_period: {report.oscillation_period}")
    print(f"final_delta: {report.deltas[-1]:.17g}")
    print(f"row_uniformity: {row_uniformity(report.limit):.17g}")
    print(f"universal: {is_universal(report.limit, 1e-5)}")
    print(f"sum_violations: {report.sum_violations}")
    print("limit:")
    print(format_matrix(report.limit, args.display))
    return EXIT_OK if report.converged else EXIT_NO_CONVERGENCE


def cmd_analyze(args):
    A = _load_matrix(args.input)
    struct = graph.critical_structure(A)
    # The file is written before any output, so a bad path prints nothing.
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(graph.export_dot(A, struct=struct))
    verts = ", ".join(str(v) for v in sorted(struct.critical_vertices))
    print(f"critical_vertices: {{{verts}}}")
    print(f"critical_edges: {sorted(struct.critical_edges)}")
    for j, flag in enumerate(struct.reachable_columns, start=1):
        print(f"column {j} limit <1,0>: {'yes' if flag else 'no'}")
    print(f"predict_universal: {'yes' if graph.predict_universal(A) else 'no'}")
    if args.dot:
        print(f"dot written: {args.dot}")
    return EXIT_OK


def cmd_sweep(args):
    A = _load_matrix(args.input)
    lambdas = sorted(parse_grid(args.lambda_grid))
    # Every operator is built, and so checked, before the first fold.
    if args.op == "gen-mean":
        ps = sorted(parse_grid(args.p_grid))
        if len(lambdas) * len(ps) > GRID_MAX_POINTS:
            raise ValueError(f"sweep has more than {GRID_MAX_POINTS} (lambda, p) points")
        ops = [GeneralizedMean(lam, p) for lam in lambdas for p in ps]
    else:
        ops = [ConvexCombo(lam) for lam in lambdas]
    if not ops:
        raise ParseError("parameter grids must be non-empty")
    _check_sequence(A, args.eps, args.max_iter)
    with _open_output(args.output) as fh:
        rows = []
        for op in ops:
            report = power_sequence(A, op, eps=args.eps, max_iter=args.max_iter)
            mu_dist = float((1.0 - report.limit.mu).max())
            rows.append([
                op.lam,
                getattr(op, "p", ""),
                report.converged,
                report.iterations,
                f"{report.deltas[-1]:.17g}",
                f"{mu_dist:.17g}",
                "no-guarantee" if op.lam == 1.0 else "",
            ])
        writer = csv.writer(fh or sys.stdout)
        writer.writerow(["lambda", "p", "converged", "iterations",
                         "final_delta", "mu_distance_to_U", "note"])
        writer.writerows(rows)
    return EXIT_OK


def cmd_oracle_check(args):
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
