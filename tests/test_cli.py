import csv
import io
import json
import os
import random
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ifmpower import (
    GeneralizedMean,
    Ifm,
    Ifn,
    MismatchFoundError,
    ParseError,
    ValidationError,
    cli,
    delta,
    matrix,
    oracle,
)
from ifmpower.cli import build_parser, format_matrix, main, parse_grid, parse_matrix

A_DOC = json.dumps({
    "rows": 3, "cols": 3,
    "entries": [
        [{"mu": 1, "nu": 0}, {"mu": 0.5, "nu": 0.4}, {"mu": 0, "nu": 1}],
        [{"mu": 0, "nu": 1}, {"mu": 0.6, "nu": 0.3}, {"mu": 1, "nu": 0}],
        [{"mu": 1, "nu": 0}, {"mu": 1, "nu": 0}, {"mu": 0, "nu": 1}],
    ],
})

B_DOC = json.dumps({
    "rows": 3, "cols": 3,
    "entries": [
        [{"mu": 0, "nu": 1}, {"mu": 1, "nu": 0}, {"mu": 0.5, "nu": 0.4}],
        [{"mu": 1, "nu": 0}, {"mu": 0, "nu": 1}, {"mu": 1, "nu": 0}],
        [{"mu": 0.6, "nu": 0.3}, {"mu": 1, "nu": 0}, {"mu": 0, "nu": 1}],
    ],
})


@pytest.fixture
def a_file(tmp_path):
    f = tmp_path / "A.json"
    f.write_text(A_DOC)
    return str(f)


@pytest.fixture
def b_file(tmp_path):
    f = tmp_path / "B.json"
    f.write_text(B_DOC)
    return str(f)


def _json_format(M, display=None):
    """The writer as it was when it called json.dumps: the reference
    for the document bytes."""
    mu, nu = M.mu.tolist(), M.nu.tolist()
    if display is not None:
        mu = [[round(x, display) for x in row] for row in mu]
        nu = [[round(x, display) for x in row] for row in nu]
    doc = {
        "rows": M.rows,
        "cols": M.cols,
        "entries": [
            [{"mu": m, "nu": v} for m, v in zip(mu_row, nu_row)]
            for mu_row, nu_row in zip(mu, nu)
        ],
    }
    return json.dumps(doc, indent=1)


def _per_entry_parse(text):
    """The reader as it was before its bulk path, one Ifn per entry, with
    a clean ParseError for non-list entries and OverflowError caught as a
    ValidationError. The reference for values, error classes and
    messages."""
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


def _edge_ifm(rng, rows, cols):
    """A valid random Ifm with -0.0, exact 0 and 1, 1e-300 and
    subnormal components planted among uniform ones."""
    mu = rng.random((rows, cols))
    nu = rng.random((rows, cols)) * (1 - mu)
    pick = rng.random((rows, cols))
    mu[pick < 0.05] = -0.0
    nu[pick > 0.95] = -0.0
    ones = (pick >= 0.05) & (pick < 0.1)
    mu[ones], nu[ones] = 1.0, 0.0
    zeros = (pick >= 0.1) & (pick < 0.15)
    mu[zeros], nu[zeros] = 0.0, 1.0
    mu[(pick >= 0.15) & (pick < 0.2)] = 1e-300
    nu[(pick >= 0.2) & (pick < 0.25)] = 5e-324
    nu[(pick >= 0.25) & (pick < 0.3)] = 2.2250738585072014e-308 / 3
    return Ifm(mu, nu)


def _same_bits(A, B):
    return A.mu.tobytes() == B.mu.tobytes() and A.nu.tobytes() == B.nu.tobytes()


def _doc(entries):
    return json.dumps({"rows": len(entries), "cols": 2, "entries": entries})


class TestFormatMatrix:
    @pytest.mark.parametrize("display", [None, 0, 3, 5, 17])
    def test_bytes_match_json_dumps(self, display):
        rng = np.random.default_rng(11)
        shapes = [(1, 1), (1, 17), (17, 1), (1, 40), (40, 1)]
        shapes += [tuple(int(x) for x in rng.integers(1, 41, size=2)) for _ in range(200)]
        for rows, cols in shapes:
            M = _edge_ifm(rng, rows, cols)
            text = format_matrix(M, display)
            assert text == _json_format(M, display)
            if display is None:
                assert _same_bits(parse_matrix(text), M)

    def test_memory_bounded(self):
        # json.dumps(indent=1) held about 70 MB of chunks for this 6 MB text.
        M = _edge_ifm(np.random.default_rng(5), 300, 300)
        tracemalloc.start()
        try:
            format_matrix(M)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 35 * 2**20


MALFORMED = {
    "missing-keys": '{"rows": 1, "cols": 1}',
    "not-an-object": "[1, 1]",
    "wrong-row-count": json.dumps({"rows": 3, "cols": 2,
                                   "entries": [[{"mu": 0, "nu": 0}] * 2] * 2}),
    "entries-not-a-list": '{"rows": 1, "cols": 1, "entries": 5}',
    "ragged-row": _doc([[{"mu": 0, "nu": 0}] * 2, [{"mu": 0, "nu": 0}]]),
    "short-rows": json.dumps({"rows": 2, "cols": 3,
                              "entries": [[{"mu": 0, "nu": 0}] * 2] * 2}),
    "row-not-a-list": _doc([[{"mu": 0, "nu": 0}] * 2, {"mu": 0, "nu": 0}]),
    "row-a-string": _doc([[{"mu": 0, "nu": 0}] * 2, "ab"]),
    "cell-not-an-object": _doc([[{"mu": 0, "nu": 0}, [0.1, 0.2]]]),
    "missing-nu": _doc([[{"mu": 0, "nu": 0}, {"mu": 0.5}]]),
    "null": _doc([[{"mu": 0, "nu": 0}, {"mu": None, "nu": 0}]]),
    "list-value": _doc([[{"mu": 0, "nu": 0}, {"mu": [0.5], "nu": 0}]]),
    "list-values": _doc([[{"mu": [0.5], "nu": [0.1]}] * 2]),
    "object-value": _doc([[{"mu": {"x": 1}, "nu": 0}] * 2]),
    "word": _doc([[{"mu": "half", "nu": 0}] * 2]),
    "NaN": '{"rows": 1, "cols": 2, "entries": [[{"mu": 0, "nu": 0}, {"mu": NaN, "nu": 0}]]}',
    "1e400": '{"rows": 1, "cols": 2, "entries": [[{"mu": 0, "nu": 1e400}, {"mu": 0, "nu": 0}]]}',
    "negative": _doc([[{"mu": 0, "nu": 0}, {"mu": -0.1, "nu": 0}]]),
    "above-one": _doc([[{"mu": 0, "nu": 1.5}, {"mu": 0, "nu": 0}]]),
    "sum-violation": _doc([[{"mu": 0, "nu": 0}, {"mu": 0.6, "nu": 0.5}]]),
    "true-and-true": _doc([[{"mu": True, "nu": True}] * 2]),
    "huge-int": '{"rows": 1, "cols": 2, "entries": [[{"mu": 0, "nu": 0}, {"mu": 1'
                + "0" * 400 + ', "nu": 0}]]}',
    "bad-cell-before-ragged-row": _doc([[{"mu": 0, "nu": 0}, {"mu": 2, "nu": 0}],
                                        [{"mu": 0, "nu": 0}]]),
    "ragged-row-before-bad-cell": _doc([[{"mu": 0, "nu": 0}],
                                        [{"mu": 0, "nu": 0}, {"mu": 2, "nu": 0}]]),
    "bad-value-after-clean-row": _doc([[{"mu": 0, "nu": 0}] * 2,
                                       [{"mu": 0, "nu": 0}, {"mu": 0.6, "nu": 0.5}]]),
    "non-object-after-bad-value": _doc([[{"mu": 2, "nu": 0}, [0.1, 0.2]]]),
    "bad-value-after-non-object": _doc([[[0.1, 0.2], {"mu": 2, "nu": 0}]]),
}

ODD_BUT_VALID = {
    "numeric-strings": _doc([[{"mu": "0.5", "nu": "0.25"}, {"mu": 0.1, "nu": " 0.2 "}]]),
    "booleans": _doc([[{"mu": True, "nu": False}, {"mu": False, "nu": True}]]),
    "booleans-and-floats": _doc([[{"mu": True, "nu": 0.0}, {"mu": 0.3, "nu": False}]]),
    "ints": _doc([[{"mu": 1, "nu": 0}, {"mu": 0, "nu": 1}], [{"mu": 0, "nu": 0}] * 2]),
    "extra-keys": _doc([[{"mu": 0.5, "nu": 0.25, "note": "x"}, {"mu": 0, "nu": 1, "w": [1]}]]),
    "negative-zero": _doc([[{"mu": -0.0, "nu": 0.5}, {"mu": 0.5, "nu": -0.0}]]),
    "sum-within-tolerance": _doc([[{"mu": 0.7, "nu": 0.3 + 1e-13}, {"mu": 0, "nu": 0}]]),
}


class TestParseMatrix:
    @pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED.keys())
    def test_malformed_errors_match_per_entry_reader(self, text):
        with pytest.raises(Exception) as ref:
            _per_entry_parse(text)
        with pytest.raises(Exception) as got:
            parse_matrix(text)
        assert type(got.value) is type(ref.value)
        assert str(got.value) == str(ref.value)

    @pytest.mark.parametrize("text", ODD_BUT_VALID.values(), ids=ODD_BUT_VALID.keys())
    def test_odd_cells_match_per_entry_reader(self, text):
        assert _same_bits(parse_matrix(text), _per_entry_parse(text))

    def test_clean_document_skips_per_entry_objects(self, monkeypatch):
        M = _edge_ifm(np.random.default_rng(7), 300, 300)
        text = format_matrix(M)
        odd = {name: _per_entry_parse(doc) for name, doc in ODD_BUT_VALID.items()}

        def no_ifn(*args):
            raise AssertionError("per-entry path taken")

        monkeypatch.setattr(cli, "Ifn", no_ifn)
        assert _same_bits(parse_matrix(text), M)
        for name, doc in ODD_BUT_VALID.items():
            assert _same_bits(parse_matrix(doc), odd[name]), name

    def test_fuzz_matches_per_entry_reader(self):
        # Small documents, 70% of them with bad rows, cells or values.
        values = [None, [0.5], {"x": 1}, "half", "0.5", " 0.25 ", "nan", "inf", True, False,
                  0, 1, 2, -1, 10**400, float("nan"), float("inf"), -0.0, 1.5, -0.1,
                  5e-324, 0.3 + 1e-13, 0.7]
        rng = random.Random(16)

        def cell(bad):
            if bad and rng.random() < 0.05:
                return rng.choice([[0.1, 0.2], "ab", 3, None, {"mu": 0.1}, {"nu": 0.1}])
            mu, nu = (rng.choice(values) if bad and rng.random() < 0.3
                      else rng.random() * 0.5 for _ in range(2))
            return {"mu": mu, "nu": nu, **({"note": 1} if rng.random() < 0.05 else {})}

        def row(cols, bad):
            if bad and rng.random() < 0.03:
                return rng.choice(["ab", None, {"mu": 0, "nu": 0}])
            if bad and rng.random() < 0.05:
                cols = rng.randint(0, cols + 1)
            return [cell(bad) for _ in range(cols)]

        outcomes = set()
        for _ in range(3000):
            rows, cols, bad = rng.randint(1, 4), rng.randint(1, 4), rng.random() < 0.7
            text = json.dumps({"rows": rows, "cols": cols,
                               "entries": [row(cols, bad) for _ in range(rows)]})
            try:
                want = _per_entry_parse(text)
            except (ParseError, ValidationError) as exc:
                with pytest.raises(type(exc)) as got:
                    parse_matrix(text)
                assert str(got.value) == str(exc), text
                outcomes.add(type(exc))
            else:
                assert _same_bits(parse_matrix(text), want), text
                outcomes.add(Ifm)
        assert outcomes == {Ifm, ParseError, ValidationError}

    def test_huge_declared_width_allocates_nothing(self):
        # No (2, rows, cols) array is asked for until every row has passed
        # its length check: not for a huge declared width, and not for a
        # valid row 0 followed by empty rows, whose array would be 34 MiB.
        cell = {"mu": 0.5, "nu": 0.25}
        for doc, message in [
            ({"rows": 1, "cols": 10**7, "entries": [[cell]]},
             "row 0 is ragged: expected 10000000 entries"),
            ({"rows": 1500, "cols": 1500, "entries": [[cell] * 1500] + [[]] * 1499},
             "row 1 is ragged: expected 1500 entries"),
        ]:
            text = json.dumps(doc)
            tracemalloc.start()
            try:
                with pytest.raises(ParseError, match=message):
                    parse_matrix(text)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2**20

    def test_example_document(self):
        A = parse_matrix(A_DOC)
        assert (A.rows, A.cols) == (3, 3)
        assert A.entry(0, 1).mu == 0.5 and A.entry(0, 1).nu == 0.4

    def test_constraint_violation_reports_coordinates(self):
        doc = json.dumps({"rows": 1, "cols": 1,
                          "entries": [[{"mu": 0.7, "nu": 0.7}]]})
        with pytest.raises(ValidationError, match=r"\(0, 0\)"):
            parse_matrix(doc)

    def test_ragged_rows(self):
        doc = json.dumps({"rows": 2, "cols": 2,
                          "entries": [[{"mu": 0, "nu": 0}],
                                      [{"mu": 0, "nu": 0}, {"mu": 0, "nu": 0}]]})
        with pytest.raises(ParseError):
            parse_matrix(doc)

    def test_not_json(self):
        with pytest.raises(ParseError):
            parse_matrix("not json {")

    def test_round_trip_full_precision(self):
        import random
        from ifmpower.oracle import random_ifm
        M = random_ifm(random.Random(3), 4)
        assert parse_matrix(format_matrix(M)) == M


@pytest.mark.parametrize("rows, cols", [(True, True), (1, True), (True, 1)])
def test_boolean_sizes_rejected(rows, cols, tmp_path, capsys):
    text = json.dumps({"rows": rows, "cols": cols, "entries": [[{"mu": 0.2, "nu": 0.3}]]})
    with pytest.raises(ParseError, match="rows and cols must be positive integers"):
        parse_matrix(text)
    f = tmp_path / "B.json"
    f.write_text(text)
    assert main(["power", "--input", str(f), "--steps", "2"]) == 2
    assert capsys.readouterr().out == ""


def test_parse_grid_colon_inclusive():
    grid = parse_grid("0:1:0.1")
    assert len(grid) == 11
    assert grid[0] == 0.0 and grid[-1] == pytest.approx(1.0, abs=1e-12)


def test_parse_grid_steps_in_exact_decimals():
    assert parse_grid("0.1:0.9:0.2") == [0.1, 0.3, 0.5, 0.7, 0.9]
    assert parse_grid("0:0.9:0.3") == [0.0, 0.3, 0.6, 0.9]
    assert parse_grid("1:0.95:0.1") == []
    assert parse_grid("0.5:0.5:0.1") == [0.5]
    # 3 * step exceeds 1 by 2e-34, which a 28-digit quotient rounds away.
    assert parse_grid("0:1:0.3333333333333333333333333333334") == [0.0, 1 / 3, 2 / 3]


@pytest.mark.parametrize("text", ["0:1:abc", "0:1:0x1", "0:1:0", "0:1:-0.1", "0:1", "0:1:2:3"])
def test_parse_grid_rejects_malformed_grids(text):
    with pytest.raises(ValueError):
        parse_grid(text)


def test_parse_grid_commas():
    assert parse_grid("0.5,1,2") == [0.5, 1.0, 2.0]


def test_parse_grid_counts_points_before_building():
    assert len(parse_grid(f"0:1:{1 / (cli.GRID_MAX_POINTS - 1)}")) == cli.GRID_MAX_POINTS
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="points"):
            parse_grid("0:1:1e-12")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("text", ["0:1:nan", "0:inf:1", "nan:1:0.1", "0:1:inf", "-1e308:1e308:1e-308",
                                  "0:1e-999999999:1e-999999999"])
def test_parse_grid_rejects_unbounded_grids(text):
    # "0:1:nan" and "0:inf:1" used to loop forever, and exact counting
    # would spell out the billion places of 1e-999999999.
    with pytest.raises(ValueError):
        parse_grid(text)


def test_sweep_bounds_its_lambda_p_product_before_building_operators(a_file, capsys, monkeypatch):
    # Each grid holds 1,001 points, under GRID_MAX_POINTS; the sweep
    # would hold 1,002,001 operators.
    built = []
    monkeypatch.setattr(cli, "GeneralizedMean", lambda *args: built.append(args))
    argv = ["sweep", "--input", a_file, "--lambda-grid", "0:1:0.001", "--p-grid=1:2:0.001"]
    assert main(argv) == 2
    assert built == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: sweep has more than {cli.GRID_MAX_POINTS} (lambda, p) points\n"


class TestUnreadableInput:
    def test_directory_exits_2(self, tmp_path, capsys):
        code = main(["converge", "--input", str(tmp_path), "--p", "1"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        f = tmp_path / "A.json"
        f.write_bytes(A_DOC.encode().replace(b"0.5", b"0.\xff5"))
        code = main(["power", "--input", str(f), "--p", "1", "--steps", "2"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["power", "--p", "1", "--steps", "2"],
    ["converge", "--p", "1"],
    ["analyze"],
    ["sweep", "--lambda-grid", "0.5", "--p-grid", "1"],
], ids=lambda argv: argv[0])
def test_non_square_input_exits_3(tmp_path, capsys, argv):
    f = tmp_path / "rect.json"
    f.write_text(json.dumps({"rows": 2, "cols": 3,
                             "entries": [[{"mu": 0.5, "nu": 0.2}] * 3] * 2}))
    assert main([*argv, "--input", str(f)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "square matrix" in captured.err


OUTPUT_FLAGS = {
    "converge-trace": ["converge", "--p", "1", "--trace"],
    "sweep-output": ["sweep", "--lambda-grid", "0.1:0.9:0.1", "--p-grid", "0.5,1,2", "--output"],
}


@pytest.mark.parametrize("argv", OUTPUT_FLAGS.values(), ids=OUTPUT_FLAGS.keys())
def test_unwritable_output_exits_before_any_fold(a_file, tmp_path, capsys, monkeypatch, argv):
    calls = []
    compose = matrix.compose

    def counted(*args, **kwargs):
        calls.append(args)
        return compose(*args, **kwargs)

    monkeypatch.setattr(matrix, "compose", counted)
    assert main([*argv, str(tmp_path / "no" / "out.csv"), "--input", a_file]) == 2
    captured = capsys.readouterr()
    assert calls == []
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("bad, message", [("--eps=inf", "eps"), ("--max-iter=0", "max_iter")])
@pytest.mark.parametrize("argv", OUTPUT_FLAGS.values(), ids=OUTPUT_FLAGS.keys())
def test_bad_sequence_argument_leaves_no_file(a_file, tmp_path, capsys, argv, bad, message):
    out = tmp_path / "out.csv"
    assert main([*argv, str(out), "--input", a_file, bad]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err
    assert not out.exists()


def test_readme_command_lines_parse(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = re.findall(r"^ifmpower .*$", readme, flags=re.MULTILINE)
    parser = build_parser()
    commands = set()
    # Each line also runs, on the quick-start matrix as A.json.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "A.json").write_text(A_DOC)
    for line in lines:
        # Bracketed flags are optional; parse them too.
        argv = shlex.split(line.replace("[", "").replace("]", ""))[1:]
        commands.add(parser.parse_args(argv).command)
        assert main(argv) == 0, (line, capsys.readouterr().err)
    assert commands == {"power", "converge", "analyze", "sweep", "oracle-check"}


def test_readme_quick_start_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    # print(rep.converged, rep.iterations, rep.limit)
    assert capsys.readouterr().out.startswith("True ")


def test_cli_import_leaves_scipy_out():
    # Import time is a benchmarked metric, and scipy alone costs more
    # than the whole package. The child sees this process's sys.path, and
    # lists the top-level modules the import loads outside the standard
    # library, numpy and ifmpower, so the test bites on a host without scipy.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    code = ("import sys; before = set(sys.modules); import ifmpower.cli; "
            "print('scipy' in sys.modules); "
            "print(sorted({m.partition('.')[0] for m in set(sys.modules) - before}"
            " - set(sys.stdlib_module_names) - {'numpy', 'ifmpower'}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.split() == ["False", "[]"]


class TestPowerCommand:
    def test_b8_display(self, b_file, capsys):
        code = main(["power", "--input", b_file, "--op", "star",
                     "--lambda", "0.5", "--steps", "8", "--display", "5"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["entries"][0][1] == {"mu": 0.93326, "nu": 0.05339}

    @pytest.mark.parametrize("command", ["power", "converge"])
    @pytest.mark.parametrize("display", ["-1", "-5", "x"])
    def test_bad_display_exits_2(self, a_file, capsys, command, display):
        argv = [command, "--input", a_file, "--p", "1", f"--display={display}"]
        code = main(argv + ["--steps", "2"] if command == "power" else argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "--display" in captured.err

    def test_steps_one_echoes(self, a_file, capsys):
        code = main(["power", "--input", a_file, "--op", "gen-mean",
                     "--lambda", "0.6", "--p", "1", "--steps", "1"])
        assert code == 0
        assert delta(parse_matrix(capsys.readouterr().out),
                     parse_matrix(A_DOC)) == 0

    def test_zero_p_exits_3(self, a_file, capsys):
        code = main(["power", "--input", a_file, "--op", "gen-mean",
                     "--lambda", "0.6", "--p", "0", "--steps", "2"])
        assert code == 3
        assert "nonzero" in capsys.readouterr().err

    def test_negative_zero_prints_as_zero(self, tmp_path, capsys):
        f = tmp_path / "z.json"
        f.write_text(_doc([[{"mu": -0.0, "nu": 0.5}, {"mu": 0.5, "nu": -0.0}],
                           [{"mu": 1, "nu": 0}, {"mu": 0, "nu": 1}]]))
        code = main(["power", "--input", str(f), "--op", "star",
                     "--lambda", "0.5", "--steps", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "-0.0" not in out
        assert json.loads(out)["entries"][0] == [{"mu": 0.0, "nu": 0.5},
                                                 {"mu": 0.5, "nu": 0.0}]

    @pytest.mark.parametrize("lam, want", [("1.5", 2), ("0.5", 3)])
    def test_zero_p_exit_code_agrees(self, a_file, capsys, lam, want):
        # lambda is checked before p: lambda = 1.5 is bad input whatever
        # p is, and p = 0 alone is a domain error.
        for argv in (["power", "--lambda", lam, "--p", "0", "--steps", "2"],
                     ["converge", "--lambda", lam, "--p", "0"],
                     ["sweep", "--lambda-grid", lam, "--p-grid", "0"]):
            assert main([*argv, "--input", a_file]) == want, argv[0]
            assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("command", [["power", "--steps", "2"], ["converge"]])
    def test_missing_p_exits_2(self, a_file, capsys, command):
        code = main([command[0], "--input", a_file, *command[1:]])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--p is required" in captured.err

    def test_bad_document_exits_2(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text("{")
        code = main(["power", "--input", str(f), "--op", "star",
                     "--lambda", "0.5", "--steps", "2"])
        assert code == 2

    @pytest.mark.parametrize("text", [
        '{"rows": 1, "cols": 1000000000000, "entries": [[{"mu": 0.5, "nu": 0.25}]]}',
        "[" * 200_000,
        '{"rows": 1, "cols": 1, "entries": ' + "[" * 200_000,
    ], ids=["cols-1e12", "nested", "nested-entries"])
    def test_oversized_document_exits_2(self, tmp_path, capsys, text):
        f = tmp_path / "bad.json"
        f.write_text(text)
        assert main(["power", "--input", str(f), "--p", "1", "--steps", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(("error: row 0 is ragged", "error: invalid JSON"))

    def test_file_over_the_byte_cap_exits_2_unread(self, tmp_path, capsys, monkeypatch):
        f = tmp_path / "sparse.json"
        with open(f, "wb") as fh:
            fh.truncate(cli.MAX_INPUT_BYTES + 1)
        monkeypatch.setattr(cli, "parse_matrix", lambda text: pytest.fail("file read past the cap"))
        assert main(["power", "--input", str(f), "--p", "1", "--steps", "2"]) == 2
        limit = f"error: input file exceeds the {cli.MAX_INPUT_BYTES}-byte limit\n"
        assert capsys.readouterr().err == limit

    @pytest.mark.parametrize("slack, code", [(0, 0), (-1, 2)])
    def test_byte_cap_admits_a_file_of_its_size(self, a_file, capsys, monkeypatch, slack, code):
        monkeypatch.setattr(cli, "MAX_INPUT_BYTES", os.path.getsize(a_file) + slack)
        assert main(["power", "--input", a_file, "--p", "1", "--steps", "2"]) == code

    @pytest.mark.parametrize("name", ["entries-not-a-list", "huge-int"])
    def test_malformed_entries_exit_2(self, tmp_path, capsys, name):
        f = tmp_path / "bad.json"
        f.write_text(MALFORMED[name])
        code = main(["power", "--input", str(f), "--op", "star",
                     "--lambda", "0.5", "--steps", "2"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("lam, p", [
        ("0.5", "inf"), ("0.5", "-inf"), ("0.5", "nan"),
        ("0.5", "1e-320"), ("nan", "1"), ("inf", "1"),
    ])
    def test_non_finite_parameters_exit_3(self, a_file, capsys, lam, p):
        code = main(["power", "--input", a_file, "--op", "gen-mean",
                     "--lambda", lam, f"--p={p}", "--steps", "2"])
        assert code == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err


class TestConvergeCommand:
    def test_example_a(self, a_file, capsys):
        code = main(["converge", "--input", a_file, "--op", "gen-mean",
                     "--lambda", "0.6", "--p", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "converged: True" in out
        assert "universal: True" in out
        # lambda^(m-2) <= 1e-12 at lambda=0.6 gives m <= 56
        iters = int(out.split("iterations: ")[1].split()[0])
        assert iters <= 56

    def test_universal_converges_at_one(self, tmp_path, capsys):
        f = tmp_path / "U.json"
        f.write_text(format_matrix(Ifm.universal(2)))
        code = main(["converge", "--input", str(f), "--op", "gen-mean",
                     "--lambda", "0.5", "--p", "1"])
        assert code == 0
        assert "iterations: 1" in capsys.readouterr().out

    def test_oscillation_exits_4(self, tmp_path, capsys):
        f = tmp_path / "flip.json"
        f.write_text(format_matrix(Ifm.from_pairs(
            [[(0, 1), (1, 0)], [(1, 0), (0, 1)]])))
        code = main(["converge", "--input", str(f), "--op", "star",
                     "--lambda", "1", "--max-iter", "50"])
        assert code == 4
        assert "oscillation_period: 2" in capsys.readouterr().out

    @pytest.mark.parametrize("lam", ["nan", "inf", "-inf"])
    def test_star_non_finite_lambda_exits_3(self, a_file, capsys, lam):
        code = main(["converge", "--input", a_file, "--op", "star", f"--lambda={lam}"])
        assert code == 3
        assert "finite" in capsys.readouterr().err

    def test_star_lambda_out_of_range_exits_2(self, a_file):
        assert main(["converge", "--input", a_file, "--op", "star", "--lambda", "1.5"]) == 2

    @pytest.mark.parametrize("eps", ["nan", "inf"])
    def test_non_finite_eps_exits_2(self, a_file, capsys, eps):
        code = main(["converge", "--input", a_file, "--op", "gen-mean",
                     "--lambda", "0.5", "--p", "1", "--eps", eps,
                     "--max-iter", "50"])
        assert code == 2
        assert "eps" in capsys.readouterr().err

    @pytest.mark.parametrize("max_iter", ["0", "-3"])
    def test_max_iter_below_one_exits_2(self, a_file, capsys, max_iter):
        code = main(["converge", "--input", a_file, "--p", "1",
                     f"--max-iter={max_iter}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "max_iter" in captured.err

    def test_trace_csv(self, a_file, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        code = main(["converge", "--input", a_file, "--op", "gen-mean",
                     "--lambda", "0.6", "--p", "1", "--trace", str(trace)])
        assert code == 0
        with open(trace) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["m", "delta", "bound"]
        assert rows[1][0] == "2"
        assert float(rows[1][2]) == 1.0  # lambda^((2-2)/p)


class TestAnalyzeCommand:
    def test_example_a(self, a_file, capsys):
        code = main(["analyze", "--input", a_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "critical_vertices: {1, 2, 3}" in out
        assert "predict_universal: yes" in out

    def test_exact_report(self, tmp_path, capsys):
        # Critical edges all end in vertex 1, whose self-loop is the only
        # critical cycle, so only column 1 saturates.
        f = tmp_path / "M.json"
        f.write_text(format_matrix(Ifm.from_pairs([
            [(1, 0), (0.5, 0.4), (0, 1)],
            [(1, 0), (0.6, 0.3), (0.3, 0.6)],
            [(1, 0), (0.9, 0), (0, 1)],
        ])))
        code = main(["analyze", "--input", str(f)])
        assert code == 0
        assert capsys.readouterr().out == (
            "critical_vertices: {1}\n"
            "critical_edges: [(1, 1), (2, 1), (3, 1)]\n"
            "column 1 limit <1,0>: yes\n"
            "column 2 limit <1,0>: no\n"
            "column 3 limit <1,0>: no\n"
            "predict_universal: no\n"
        )

    def test_empty_critical_set(self, tmp_path, capsys):
        f = tmp_path / "Z.json"
        import numpy as np
        f.write_text(format_matrix(Ifm(np.zeros((2, 2)), np.ones((2, 2)))))
        code = main(["analyze", "--input", str(f)])
        out = capsys.readouterr().out
        assert code == 0
        assert "critical_vertices: {}" in out
        assert "predict_universal: no" in out

    def test_dot_file(self, a_file, tmp_path, capsys):
        dot = tmp_path / "g.dot"
        code = main(["analyze", "--input", a_file, "--dot", str(dot)])
        assert code == 0
        text = dot.read_text()
        assert text.startswith("digraph")
        assert text.rstrip().endswith("}")
        # crude grammar check: every edge line is well-formed
        for line in text.splitlines():
            if "->" in line:
                assert line.strip().endswith("];")

    def test_unwritable_dot_prints_nothing(self, a_file, tmp_path, capsys):
        code = main(["analyze", "--input", a_file, "--dot", str(tmp_path / "no" / "g.dot")])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_dot_file_computes_one_closure(self, a_file, tmp_path, monkeypatch):
        calls = []
        closure = cli.graph.critical_structure

        def counted(A):
            calls.append(A)
            return closure(A)

        monkeypatch.setattr(cli.graph, "critical_structure", counted)
        dot = tmp_path / "g.dot"
        assert main(["analyze", "--input", a_file, "--dot", str(dot)]) == 0
        assert len(calls) == 1
        monkeypatch.undo()
        assert dot.read_text(encoding="utf-8") == cli.graph.export_dot(parse_matrix(A_DOC))

    def test_dot_file_is_utf8_under_ascii_locale(self, a_file, tmp_path):
        # Node labels hold the angle brackets of <mu, nu>, which the C
        # locale's ASCII encoding cannot write.
        dot = tmp_path / "g.dot"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), LC_ALL="C",
                   PYTHONUTF8="0", PYTHONCOERCECLOCALE="0")
        env.pop("PYTHONIOENCODING", None)
        out = subprocess.run(
            [sys.executable, "-m", "ifmpower.cli", "analyze", "--input", a_file,
             "--dot", str(dot)],
            env=env, capture_output=True, timeout=60)
        assert out.returncode == 0, out.stderr
        assert "\u27e8" in dot.read_bytes().decode("utf-8")


class TestSweepCommand:
    def test_mu_distance_nonincreasing_in_p(self, a_file, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--input", a_file, "--op", "gen-mean",
                     "--lambda-grid", "0.6", "--p-grid", "0.5,1,2",
                     "--max-iter", "60", "--output", str(out)])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["p"] for r in rows] == ["0.5", "1.0", "2.0"]
        dists = [float(r["mu_distance_to_U"]) for r in rows]
        assert dists[0] >= dists[1] >= dists[2] - 1e-12

    def test_non_finite_eps_exits_2(self, a_file, capsys):
        assert main(["sweep", "--input", a_file, "--lambda-grid", "0.5",
                     "--eps", "inf"]) == 2
        assert "eps" in capsys.readouterr().err

    @pytest.mark.parametrize("max_iter", ["0", "-3"])
    def test_max_iter_below_one_exits_2(self, a_file, capsys, max_iter):
        code = main(["sweep", "--input", a_file, "--lambda-grid", "0.5",
                     f"--max-iter={max_iter}"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "max_iter" in captured.err

    def test_oversized_grid_exits_2(self, a_file, capsys):
        tracemalloc.start()
        try:
            code = main(["sweep", "--input", a_file, "--lambda-grid", "0:1:1e-12"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert "points" in capsys.readouterr().err
        assert peak < 2**20

    def test_malformed_grid_exits_2(self, a_file, capsys):
        assert main(["sweep", "--input", a_file, "--lambda-grid", "0:1:abc"]) == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_colon_grid_lambdas_exact(self, a_file, capsys):
        code = main(["sweep", "--input", a_file, "--op", "star",
                     "--lambda-grid", "0.1:0.9:0.2", "--max-iter", "5"])
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert code == 0
        assert [r["lambda"] for r in rows] == ["0.1", "0.3", "0.5", "0.7", "0.9"]

    def test_bad_point_exits_before_any_fold(self, a_file, capsys, monkeypatch):
        # lambda = 2 is rejected before lambda = 0.9 is folded.
        def never(*args, **kwargs):
            raise AssertionError("a power sequence ran")

        monkeypatch.setattr(cli, "power_sequence", never)
        assert main(["sweep", "--input", a_file, "--lambda-grid", "0.9,2",
                     "--p-grid=2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: lambda must lie in [0, 1], got 2.0\n"

    def test_empty_grid_exits_2(self, a_file):
        assert main(["sweep", "--input", a_file,
                     "--lambda-grid", ",", "--p-grid", "1"]) == 2

    def test_lambda_one_flagged(self, a_file, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--input", a_file, "--op", "star",
                     "--lambda-grid", "0.5,1", "--max-iter", "80",
                     "--output", str(out)])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        notes = {r["lambda"]: r["note"] for r in rows}
        assert notes["0.5"] == ""
        assert notes["1.0"] == "no-guarantee"

    def test_sweep_deterministic(self, a_file, tmp_path):
        o1, o2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        args = ["sweep", "--input", a_file, "--lambda-grid", "0.2:0.8:0.3",
                "--p-grid", "1,2", "--max-iter", "100"]
        assert main(args + ["--output", str(o1)]) == 0
        assert main(args + ["--output", str(o2)]) == 0
        assert o1.read_text() == o2.read_text()


class TestOracleCheckCommand:
    def test_small_clean_run(self, capsys):
        code = main(["oracle-check", "--cases", "20", "--seed", "42"])
        assert code == 0
        assert "all trials agree" in capsys.readouterr().out

    def test_zero_cases_exits_2(self, capsys):
        assert main(["oracle-check", "--cases", "0"]) == 2
        assert capsys.readouterr().err.startswith("error: trials must be >= 1")

    def test_huge_max_m_exits_2(self, capsys):
        # The draw's n^(m+1) has tens of thousands of digits; it is
        # compared with the cap without being built or printed.
        assert main(["oracle-check", "--cases", "2", "--max-m", "100000"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(r"error: n=\d, m=\d+ exceeds ENUMERATION_CAP: "
                            r"n\^\(m\+1\) > 10000000\n", captured.err)

    @pytest.mark.parametrize("with_matrix", [True, False], ids=["matrix", "no-matrix"])
    def test_mismatch_exits_5(self, monkeypatch, capsys, with_matrix):
        M = _edge_ifm(np.random.default_rng(5), 3, 3)
        op = GeneralizedMean(0.25, -1.0)
        message = f"trial 7: engine and oracle disagree by 0.5 (n=3, m=4, op={op})"

        def mismatch(*args, **kwargs):
            raise MismatchFoundError(message, matrix=M if with_matrix else None,
                                     operator=op, exponent=4)

        monkeypatch.setattr(oracle, "differential_check", mismatch)
        assert main(["oracle-check", "--cases", "3"]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert lines[0] == f"mismatch: {message}"
        if not with_matrix:
            assert len(lines) == 1
            return
        assert lines[1] == "counterexample matrix:"
        assert lines[-1] == f"operator: {op}, m: 4"
        assert _same_bits(parse_matrix("\n".join(lines[2:-1])), M)
