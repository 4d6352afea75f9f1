import csv
import json
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from ifmpower import Ifm, Ifn, ParseError, ValidationError, cli, delta
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

        def no_ifn(*args):
            raise AssertionError("per-entry path taken")

        monkeypatch.setattr(cli, "Ifn", no_ifn)
        assert _same_bits(parse_matrix(text), M)

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


def test_parse_grid_colon_inclusive():
    grid = parse_grid("0:1:0.1")
    assert len(grid) == 11
    assert grid[0] == 0.0 and grid[-1] == pytest.approx(1.0, abs=1e-12)


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


@pytest.mark.parametrize("text", ["0:1:nan", "0:inf:1", "nan:1:0.1", "0:1:inf", "-1e308:1e308:1e-308"])
def test_parse_grid_rejects_unbounded_grids(text):
    # "0:1:nan" and "0:inf:1" used to loop forever.
    with pytest.raises(ValueError):
        parse_grid(text)


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


def test_readme_command_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lines = re.findall(r"^ifmpower .*$", readme, flags=re.MULTILINE)
    parser = build_parser()
    commands = set()
    for line in lines:
        # Bracketed flags are optional; parse them too.
        argv = shlex.split(line.replace("[", "").replace("]", ""))[1:]
        commands.add(parser.parse_args(argv).command)
    assert commands == {"power", "converge", "analyze", "sweep", "oracle-check"}


def test_cli_import_leaves_scipy_out():
    # Import time is a benchmarked metric, and scipy alone costs more
    # than the whole package. The child sees this process's sys.path.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    code = "import sys, ifmpower.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "False"


class TestPowerCommand:
    def test_b8_display(self, b_file, capsys):
        code = main(["power", "--input", b_file, "--op", "star",
                     "--lambda", "0.5", "--steps", "8", "--display", "5"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["entries"][0][1] == {"mu": 0.93326, "nu": 0.05339}

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
