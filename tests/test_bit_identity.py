"""Bit identity of compose, power and power_sequence, pinned by digests.

Each case draws its matrix from random.Random(seed), whose stream is the
same on every Python version, and hashes what the engine returns: the
limit or product bytes (mu.tobytes() then nu.tobytes()) and, for a
power_sequence report, iterations, converged, oscillation_period,
deltas, bound_trace and sum_violations. GeneralizedMean is taken at
p in {-1, 0.5, 1, 2} only, where x ** p and s ** (1/p) are a
reciprocal, square root, identity or square, each correctly rounded;
other p go through the platform's pow.

A change that is meant to move output bits shows as an edit of
bit_identity.sha256. Rewrite that file, and only then, with

    PYTHONPATH=src python tests/test_bit_identity.py --write
"""

import functools
import hashlib
import pathlib
import random
import sys

import pytest

from ifmpower import ConvexCombo, GeneralizedMean, Ifm, compose, power, power_sequence

DIGESTS = pathlib.Path(__file__).with_name("bit_identity.sha256")

GM_OPS = [GeneralizedMean(lam, p) for lam in (0.0, 0.3, 0.6, 1.0) for p in (-1.0, 0.5, 1.0, 2.0)]
# 1 - lam = 0.7 is no power of two, so only at lam = 0.3 does halving
# it first round a subnormal mean differently.
CC_OPS = [ConvexCombo(lam) for lam in (0.0, 0.3, 0.5, 1.0)]
OPS = GM_OPS + CC_OPS
# One of each family past PRUNE_MIN_T, a ConvexCombo(1.0) cycle and a p < 0.
FEW_OPS = [GeneralizedMean(0.6, 2.0), GeneralizedMean(0.3, -1.0), ConvexCombo(0.5), ConvexCombo(1.0)]


def _plain(rng, rows, cols):
    """mu = u, nu = v * (1 - u): valid entries with no rejection."""
    mu, nu = [], []
    for _ in range(rows):
        us = [rng.random() for _ in range(cols)]
        mu.append(us)
        nu.append([rng.random() * (1.0 - u) for u in us])
    return mu, nu


def _planted(rng, rows, cols):
    """5% of entries set to <1, 0>."""
    mu, nu = _plain(rng, rows, cols)
    for i in range(rows):
        for j in range(cols):
            if rng.random() < 0.05:
                mu[i][j], nu[i][j] = 1.0, 0.0
    return mu, nu


def _coarse(rng, rows, cols):
    """mu and nu on the grid {0, 1/4, ..., 1}, so terms tie often."""
    mu, nu = [], []
    for _ in range(rows):
        ks = [rng.randrange(5) for _ in range(cols)]
        mu.append([k / 4 for k in ks])
        nu.append([rng.randrange(5 - k) / 4 for k in ks])
    return mu, nu


def _zeros(rng, rows, cols):
    """10% of mu entries and 10% of nu entries set to 0."""
    mu, nu = _plain(rng, rows, cols)
    for i in range(rows):
        for j in range(cols):
            if rng.random() < 0.1:
                mu[i][j] = 0.0
            if rng.random() < 0.1:
                nu[i][j] = 0.0
    return mu, nu


def _constant_columns(rng, rows, cols):
    """Every third column holds one pair in all its rows."""
    mu, nu = _plain(rng, rows, cols)
    for j in range(0, cols, 3):
        for i in range(rows):
            mu[i][j], nu[i][j] = mu[0][j], nu[0][j]
    return mu, nu


def _subnormal(rng, rows, cols):
    """20% of entries scaled into the subnormal range."""
    mu, nu = _plain(rng, rows, cols)
    for i in range(rows):
        for j in range(cols):
            if rng.random() < 0.2:
                mu[i][j] *= 2.0 ** -1060
                nu[i][j] *= 2.0 ** -1050
    return mu, nu


KINDS = {
    "plain": _plain,
    "planted": _planted,
    "coarse": _coarse,
    "zeros": _zeros,
    "constcol": _constant_columns,
    "subnormal": _subnormal,
}


@functools.lru_cache(maxsize=4)
def _matrix(kind, n, seed, cols=None):
    """Built on first use, so collecting the cases draws nothing; the
    cases that share a matrix run one after another."""
    return Ifm(*KINDS[kind](random.Random(seed), n, n if cols is None else cols))


def _op_name(op):
    if isinstance(op, GeneralizedMean):
        return f"gm({op.lam:g},{op.p:g})"
    return f"cc({op.lam:g})"


def _hash_matrix(h, M):
    h.update(repr(M.mu.shape).encode())
    h.update(M.mu.tobytes())
    h.update(M.nu.tobytes())


def _digest_matrix(M):
    h = hashlib.sha256()
    _hash_matrix(h, M)
    return h.hexdigest()


def _digest_report(rep):
    h = hashlib.sha256()
    _hash_matrix(h, rep.limit)
    fields = (
        rep.iterations,
        rep.converged,
        rep.oscillation_period,
        [d.hex() for d in rep.deltas],
        [None if b is None else b.hex() for b in rep.bound_trace],
        rep.sum_violations,
    )
    h.update(repr(fields).encode())
    return h.hexdigest()


def _groups():
    """(group, [(case id, thunk)]) for every case; each thunk returns a
    digest. Seeds differ per kind and n, so no two cases share a matrix
    by accident."""
    groups = []
    for ki, kind in enumerate(KINDS):
        # n = 3: every operator, a power to m = 20 and a report.
        A = (kind, 3, 100 + ki)
        cases = []
        for op in OPS:
            name = f"{kind}/n3/{_op_name(op)}"
            cases.append((f"{name}/power20", lambda A=A, op=op: _digest_matrix(
                power(_matrix(*A), 20, op))))
            cases.append((f"{name}/seq", lambda A=A, op=op: _digest_report(
                power_sequence(_matrix(*A), op, max_iter=19))))
        groups.append((f"{kind}-n3", cases))
        # Around PRUNE_MIN_T = 64 terms: one compose (of every operator
        # at n = 64) and a power deep enough for late, candidate-proven
        # steps.
        cases = []
        for n in (63, 64, 65):
            A = (kind, n, 1000 * n + ki)
            for op in OPS if n == 64 else FEW_OPS:
                name = f"{kind}/n{n}/{_op_name(op)}"
                cases.append((f"{name}/compose", lambda A=A, op=op: _digest_matrix(
                    compose(_matrix(*A), _matrix(*A), op))))
            for op in FEW_OPS:
                name = f"{kind}/n{n}/{_op_name(op)}"
                cases.append((f"{name}/power8", lambda A=A, op=op: _digest_matrix(
                    power(_matrix(*A), 8, op))))
        groups.append((f"{kind}-n63-65", cases))
        # n = 100 and 150: reports of a few operators, ConvexCombo at
        # n = 100 only.
        cases = []
        for n, ops, steps in ((100, FEW_OPS[:3], 19), (150, FEW_OPS[:2], 8)):
            A = (kind, n, 1000 * n + ki)
            for op in ops:
                name = f"{kind}/n{n}/{_op_name(op)}"
                cases.append((f"{name}/seq", lambda A=A, op=op, steps=steps: _digest_report(
                    power_sequence(_matrix(*A), op, max_iter=steps))))
        groups.append((f"{kind}-n100-150", cases))
    # n = 300: one first step per family, where row groups decline.
    cases = []
    A = ("planted", 300, 300_000)
    for op in (GeneralizedMean(0.6, 1.0), ConvexCombo(0.5)):
        cases.append((f"planted/n300/{_op_name(op)}/compose", lambda A=A, op=op: _digest_matrix(
            compose(_matrix(*A), _matrix(*A), op))))
    # One rectangular product, 65 x 100 by 100 x 63.
    A, B = ("plain", 65, 7, 100), ("planted", 100, 8, 63)
    for op in (GeneralizedMean(0.3, 0.5), ConvexCombo(0.5)):
        cases.append((f"rect/65x100x63/{_op_name(op)}/compose", lambda A=A, B=B, op=op: _digest_matrix(
            compose(_matrix(*A), _matrix(*B), op))))
    groups.append(("n300-rect", cases))
    return groups


GROUPS = _groups()


def _read_digests():
    digests = {}
    for line in DIGESTS.read_text(encoding="utf-8").splitlines():
        digest, case = line.split()
        digests[case] = digest
    return digests


def test_digest_file_lists_every_case():
    ids = [case for _, cases in GROUPS for case, _ in cases]
    assert len(set(ids)) == len(ids)
    assert sorted(_read_digests()) == sorted(ids)


@pytest.mark.parametrize("cases", [cases for _, cases in GROUPS], ids=[g for g, _ in GROUPS])
def test_outputs_match_digests(cases):
    want = _read_digests()
    changed = [case for case, run in cases if run() != want.get(case)]
    assert not changed, f"{len(changed)} of {len(cases)} outputs changed: {changed[:10]}"


def _write():
    lines = [f"{run()}  {case}\n" for _, cases in GROUPS for case, run in cases]
    DIGESTS.write_text("".join(lines), encoding="utf-8")
    print(f"wrote {len(lines)} digests to {DIGESTS}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write  (rewrites {DIGESTS.name})")
    _write()
