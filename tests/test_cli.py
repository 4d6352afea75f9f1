import csv
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from ifmpower import Ifm, ParseError, ValidationError, delta
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


class TestParseMatrix:
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

    def test_bad_document_exits_2(self, tmp_path):
        f = tmp_path / "bad.json"
        f.write_text("{")
        code = main(["power", "--input", str(f), "--op", "star",
                     "--lambda", "0.5", "--steps", "2"])
        assert code == 2


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
