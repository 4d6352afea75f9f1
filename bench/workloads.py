"""Seeded inputs and call lists for the three benchmark workloads.

Every matrix is generated here with numpy from the workload seed:
mu = u, nu = v * (1 - u) with u, v uniform on [0, 1), plus an optional
planted fraction of exact <1, 0> entries. The program under test only
sees the JSON files written from these arrays.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

import checks

WORKLOADS = ("fold-dense", "sweep-small", "ingest-verify")

# Command name in argv -> end-to-end latency metric it feeds.
COMMAND_METRIC = {
    "converge": "converge_s",
    "sweep": "sweep_s",
    "power": "power_s",
    "analyze": "analyze_s",
    "oracle-check": "oracle_check_s",
}


@dataclass(frozen=True)
class Matrix:
    path: str
    mu: np.ndarray
    nu: np.ndarray


@dataclass
class Call:
    """One CLI invocation and the independent check of its output."""

    argv: Tuple[str, ...]
    check: Callable[[str, Optional[str]], None]
    dot_path: Optional[str] = None  # file the call writes, checked with stdout

    @property
    def command(self):
        return self.argv[0]


def random_matrix(rng, n, planted=0.0):
    u = rng.random((n, n))
    v = rng.random((n, n))
    mu = u.copy()
    nu = v * (1.0 - u)
    if planted:
        hit = rng.random((n, n)) < planted
        mu[hit] = 1.0
        nu[hit] = 0.0
    return mu, nu


def write_matrix(path, mu, nu):
    entries = [
        [{"mu": m, "nu": v} for m, v in zip(mrow, nrow)]
        for mrow, nrow in zip(mu.tolist(), nu.tolist())
    ]
    with open(path, "w") as fh:
        json.dump({"rows": mu.shape[0], "cols": mu.shape[1], "entries": entries}, fh)


def build(name, seed, workdir, quick=False):
    """The fixed call list of workload `name` for `seed`, with inputs
    written under `workdir`. `quick` shrinks every matrix to n <= 10."""
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    counter = itertools.count()

    def matrix(n, planted=0.0):
        mu, nu = random_matrix(rng, n, planted)
        path = os.path.join(workdir, f"m{next(counter)}.json")
        write_matrix(path, mu, nu)
        return Matrix(path, mu, nu)

    def sample_row(m):
        return int(rng.integers(m.mu.shape[0]))

    calls = []
    if name == "fold-dense":
        # Large-n GeneralizedMean folds: compose dominates, the n=300
        # temporaries set peak memory.
        for n, lam, p in ((8 if quick else 100, 0.9, 2.0), (8 if quick else 100, 0.6, 0.5)):
            m = matrix(n)
            calls.append(Call(
                ("converge", "--input", m.path, "--lambda", str(lam), "--p", str(p)),
                checks.converge(m, ("gm", lam, p), sample_row(m)),
            ))
        m = matrix(10 if quick else 300)
        calls.append(Call(
            ("power", "--input", m.path, "--lambda", "0.6", "--p", "1", "--steps", "8"),
            checks.power(m, ("gm", 0.6, 1.0), 8, sample_row(m)),
        ))
    elif name == "sweep-small":
        # Thousands of short compositions: per-call fixed cost, the p < 0
        # branch, star, and lambda = 1 cycle hashing.
        gm_lams, gm_ps = (0.6, 0.9), (-1.0, 0.5, 1.0, 2.0)
        star_lams = (0.1, 0.5, 0.9, 1.0)
        for k in range(2 if quick else 7):
            m = matrix(6 if quick else 25, 0.04 if k == 0 else 0.0)
            calls.append(Call(
                ("sweep", "--input", m.path, "--lambda-grid", ",".join(map(str, gm_lams)),
                 "--p-grid=" + ",".join(map(str, gm_ps))),
                checks.sweep(m, "gm", gm_lams, gm_ps, sample_row(m)),
            ))
            calls.append(Call(
                ("sweep", "--input", m.path, "--op", "star",
                 "--lambda-grid", ",".join(map(str, star_lams))),
                checks.sweep(m, "star", star_lams, (None,), sample_row(m)),
            ))
    elif name == "ingest-verify":
        # Python-loop layers: parse, format, graph, oracle and ifn; numpy
        # compose only appears at n <= 4 inside the oracle.
        n = 10 if quick else 300
        for k, planted in enumerate((0.01, 0.10)):
            m = matrix(n, planted)
            dot = os.path.join(workdir, f"g{k}.dot")
            calls.append(Call(("analyze", "--input", m.path, "--dot", dot),
                              checks.analyze(m), dot_path=dot))
        m = matrix(n)
        calls.append(Call(
            ("power", "--input", m.path, "--op", "star", "--lambda", "0.5", "--steps", "1"),
            checks.round_trip(m),
        ))
        cases = 20 if quick else 1500
        calls.append(Call(
            ("oracle-check", "--cases", str(cases), "--max-m", "4", "--seed", str(seed)),
            checks.oracle(cases),
        ))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return calls
