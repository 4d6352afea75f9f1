"""Seeded benchmark of the ifmpower command line.

    python3 bench/run.py --workload fold-dense --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --quick

It calls `ifmpower.cli.main(argv)` in this process, one call at a time
(a closed loop with one caller), over a workload's fixed call list, pass
after pass until --seconds is used up. Every call's output is checked by
independent code (checks.py). --trace 0 prints the end-to-end metrics;
--trace 1 alternates untraced and traced passes and prints the per-layer
metrics (tracing.py) and writes the spans to bench/out/. The last line
of stdout is one JSON object: correct, attempted, failed, metrics.

--quick runs every workload at n <= 10 for one pass, untraced and
traced, and asserts that every metric is printed with its unit and that
no call failed.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

if not os.path.isfile(os.path.join(SRC, "ifmpower", "cli.py")):
    sys.exit(f"error: no ifmpower sources under {SRC}")
sys.path.insert(0, SRC)

from ifmpower import cli  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
SETUP_REPEATS = 7

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import ifmpower, ifmpower.cli; "
    "print(time.perf_counter() - t, ifmpower.__file__)"
)


def measure_setup(repeats):
    """Median wall time of `import ifmpower, ifmpower.cli` in a fresh
    interpreter, after one untimed import that fills the bytecode cache.

    OpenBLAS is held to one thread: the package makes no BLAS calls, and
    starting numpy's default thread pool took 0.08 s or 0.15 s depending
    on the load other tenants put on the host, which swamped the import
    time of the package itself."""
    env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
    times = []
    for k in range(repeats + 1):
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        seconds, path = done.stdout.split(maxsplit=1)
        if not path.strip().startswith(SRC):
            raise RuntimeError(f"imported ifmpower from {path.strip()}, not {SRC}")
        if k:
            times.append(float(seconds))
    return statistics.median(times), len(times)


def invoke(argv):
    """One in-process CLI call: (seconds, exit code or escaped exception, stdout)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(list(argv))
    except Exception as exc:  # a traceback out of main is a failed call
        rc = exc
    return time.perf_counter() - start, rc, out.getvalue()


class Runner:
    """Runs passes over a call list and checks each call. The first
    output of every call is checked in full; later identical outputs
    reuse that verdict, and any differing output is checked again."""

    def __init__(self, calls):
        self.calls = calls
        self.verdicts = {}  # call index -> (output, failure reason or None)
        self.attempted = 0
        self.failures = []
        self.walls = []
        self.latency = {}  # metric -> per-pass mean latency of that command

    def run_pass(self):
        wall = 0.0
        per_command = {}
        for idx, call in enumerate(self.calls):
            seconds, rc, out = invoke(call.argv)
            wall += seconds
            per_command.setdefault(workloads.COMMAND_METRIC[call.command], []).append(seconds)
            self.attempted += 1
            reason = self._verdict(idx, call, rc, out)
            if reason is not None:
                self.failures.append(f"{' '.join(call.argv)}: {reason}")
        for metric, values in per_command.items():
            self.latency.setdefault(metric, []).append(statistics.fmean(values))
        return wall

    def _verdict(self, idx, call, rc, out):
        if rc != 0:
            return f"exit {rc!r}"
        dot = None
        if call.dot_path is not None:
            with open(call.dot_path) as fh:
                dot = fh.read()
        output = (out, dot)
        known = self.verdicts.get(idx)
        if known is not None and known[0] == output:
            return known[1]
        try:
            call.check(out, dot)
            reason = None
        except Exception as exc:  # malformed output fails its check, not the run
            reason = f"check failed: {exc!r}"
        if known is None:
            self.verdicts[idx] = (output, reason)
        return reason


def run_workload(name, seed, seconds, trace, quick=False):
    """Measure one workload; returns (metrics, lines, runner) where
    metrics maps name -> (value, unit) and lines are human-readable."""
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        calls = workloads.build(name, seed, workdir, quick)
        runner = Runner(calls)
        if trace:
            return _traced(name, seed, seconds, runner, quick)
        return _untraced(seconds, runner, quick)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _loop(seconds, step):
    """Call step() at least once, then again while another call of the
    same length still fits in `seconds`."""
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        step()
        now = time.perf_counter()
        if now - start + (now - t) > seconds:
            return


def _untraced(seconds, runner, quick):
    """End-to-end metrics. wall_s is the mean pass time, not the median:
    on a shared host whose speed switches between a fast and a slow
    state for tens of seconds at a time, the median of a handful of
    passes jumps to whichever state held most passes, while the mean
    moves only in proportion to the time spent in each (NOTES.md)."""
    setup, setup_n = measure_setup(1 if quick else SETUP_REPEATS)
    _loop(seconds, lambda: runner.walls.append(runner.run_pass()))
    passes = len(runner.walls)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (setup, "s"),
        "wall_s": (statistics.fmean(runner.walls), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    samples = {"setup_s": setup_n, "wall_s": passes, "peak_rss_mb": 1}
    for metric, values in sorted(runner.latency.items()):
        metrics[metric] = (statistics.median(values), "s")
        samples[metric] = len(values)
    metrics["fail_frac"] = (len(runner.failures) / runner.attempted, "ratio")
    samples["fail_frac"] = runner.attempted
    lines = [f"{k:<16} {v:.6g} {u}  (n={samples[k]})" for k, (v, u) in metrics.items()]
    lines.append(f"note: command latencies are medians over passes of the pass's mean "
                 f"latency per call; {len(runner.calls)} calls per pass")
    return metrics, lines, runner


def _traced(name, seed, seconds, runner, quick):
    untraced, traced, per_pass = [], [], []
    spans = []

    def step():
        # Alternate so both kinds of pass see the same machine state.
        if len(untraced) <= len(traced):
            untraced.append(runner.run_pass())
            return
        tracer = tracing.Tracer()
        tracer.install()
        try:
            wall = runner.run_pass()
        finally:
            tracer.restore()
        traced.append(wall)
        per_pass.append(tracer.metrics(wall))
        spans.append(tracer.spans)

    _loop(seconds, step)
    if not traced:
        step()
    keys = per_pass[0][0].keys()
    metrics = {k: (statistics.median(m[k] for m, _ in per_pass), tracing.PER_LAYER[k][0])
               for k in keys}
    base = statistics.median(untraced)
    metrics["trace.untraced_wall_s"] = (base, "s")
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"][0] - base, "s")

    path = os.path.join(OUT, f"spans-{name}-seed{seed}{'-quick' if quick else ''}.jsonl")
    with open(path, "w") as fh:
        for k, pass_spans in enumerate(spans):
            for sid, parent, call, span, start, end in pass_spans:
                fh.write(json.dumps({"pass": k, "id": sid, "parent": parent, "call": call,
                                     "name": span, "start": start, "end": end}) + "\n")
    top = sorted(per_pass[-1][1].items(), key=lambda kv: -kv[1])[:6]
    lines = [f"{k:<32} {v:.6g} {u}" for k, (v, u) in metrics.items()]
    lines.append(f"traced passes: {len(traced)}, untraced passes: {len(untraced)}; "
                 f"spans written to {os.path.relpath(path, ROOT)}")
    lines.append("largest self times (last traced pass): "
                 + ", ".join(f"{k} {v:.4g} s" for k, v in top))
    return metrics, lines, runner


def result_line(metrics, names, runner):
    return json.dumps({
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in names},
    })


def quick():
    """Tiny sizes, one pass per mode; asserts every metric and no failure."""
    problems = []
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            metrics, lines, runner = run_workload(name, 1, 0, trace, quick=True)
            print(f"== {name} trace={trace}")
            print("\n".join(lines))
            if trace:
                want = {k: unit for k, (unit, _) in tracing.PER_LAYER.items()}
                ratio = metrics["trace.self_sum_ratio"][0]
                if abs(ratio - 1.0) > 0.05:
                    problems.append(f"{name}: layer self times sum to {ratio:.3f} of wall_s")
            else:
                want = {**END_TO_END, "fail_frac": "ratio",
                        **{workloads.COMMAND_METRIC[c.command]: "s" for c in runner.calls}}
            for k, unit in want.items():
                if k not in metrics or metrics[k][1] != unit:
                    problems.append(f"{name} trace={trace}: {k} missing or not in {unit}")
            problems += [f"{name} trace={trace}: {f}" for f in runner.failures]
    for p in problems:
        print("FAIL", p)
    print("quick: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args(argv)
    if args.quick:
        return quick()
    if args.workload is None:
        ap.error("--workload is required unless --quick is given")
    metrics, lines, runner = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("\n".join(lines))
    for failure in runner.failures[:10]:
        print("FAILED", failure)
    names = tracing.PER_LAYER if args.trace else END_TO_END
    print(result_line(metrics, names, runner))
    return 0


if __name__ == "__main__":
    sys.exit(main())
