"""The benchmark's workloads: inputs from a seed, one op, and its checks.

An op is one or more in-process ``cli.main([...])`` calls with stdout and
stderr captured and ``--out`` pointing into the op's own temporary
directory, plus, for ``family-n4``, direct calls into ``blocks`` and
``block_bounds``.  ``run`` does the program's work and is what the
harness times; ``check`` compares what it produced with the references
below and returns one message per problem.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from hardcore_entropy import block_bounds, blocks, cli

# ------------------------------------------------------------ references

# block-n3: the paper's 3x3 block bound, 47 classes (46 free variables)
BLOCK_N3_VALUE = 0.40140196484
BLOCK_N3_TOL = 1e-9
BLOCK_N3_CLASSES = 47

# family-n4: class counts and SHA-256 of the little-endian int32 class_of
# arrays of the weak-site and dihedral n=4 families
FAMILY_N4 = {
    "weak": (992, "d103783b98228d6a39784c69ebe3762b8e50a930f3b6d7329e813aae23508650"),
    "d4": (8548, "a2630dec5720add86c7e68970ceb1d122c48c8f7a28ebd6955b302df95fcbfda"),
}
VG_POINTS = 256

# tables-oracles: the printed rows of the acceptance suite
# (TABLE_CLOSED, TABLE_THREE_HEX and criterion 7 in tests/test_acceptance.py)
TABLE_TOL = 5e-4
TABLE_VALUES = {
    "closed": {"square": 0.3924, "honeycomb": 0.4279, "triangular": 0.3253,
               "kagome": 0.3826, "square_moore": 0.2858},
    "equalized": {"square": 0.3921, "honeycomb": 0.427875},
    "three-hex": {"honeycomb": 0.4304, "triangular": 0.3265},
}
VERIFY_CHECKS = 10
STRIP_MAX_WIDTH = 14
STRIP_CLOSED_FORMS = {  # free-boundary widths with a closed form
    1: math.log((1.0 + math.sqrt(5.0)) / 2.0),
    2: 0.5 * math.log(1.0 + math.sqrt(2.0)),
}
# 480 is even, divisible by 3 and by 8, as the sampler's tori need
SAMPLE_DIMS = "480x480"
SAMPLE_STAGES = {"square": 1, "honeycomb": 1, "triangular": 2, "kagome": 2,
                 "square_moore": 3}


# ------------------------------------------------------------ helpers

@dataclass
class CliCall:
    argv: list
    code: int
    stdout: str
    stderr: str
    out: Path | None = None


def call_cli(argv: list, out: Path | None = None) -> CliCall:
    """Run ``hce`` in-process; ``out`` becomes its ``--out`` file."""
    argv = [str(a) for a in argv] + (["--out", str(out)] if out else [])
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    return CliCall(argv, code, stdout.getvalue(), stderr.getvalue(), out)


def _bundle(call: CliCall) -> dict:
    with open(call.out, encoding="utf-8") as fh:
        return json.load(fh)


def _exit_problems(calls) -> list[str]:
    return [f"{' '.join(c.argv[:3])}: exit {c.code}: {c.stderr.strip()[-200:]}"
            for c in calls if c.code != 0]


def _digest(class_of: np.ndarray) -> str:
    return hashlib.sha256(
        np.ascontiguousarray(class_of, dtype="<i4").tobytes()).hexdigest()


def _op_seeds(rng: np.random.Generator, count: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2 ** 31 - 1, size=count)]


@dataclass(frozen=True)
class Workload:
    name: str
    nominal_op_s: float   # op time at the baseline; sets the op count
    make_inputs: Callable  # (seed, count) -> list of per-op inputs
    run: Callable          # (input, tmp dir) -> outcome
    check: Callable        # outcome -> list of problems

    def op_count(self, seconds: int) -> int:
        """Timed ops in a run: as many as take ``seconds`` at the baseline."""
        return max(1, round(seconds / self.nominal_op_s))


# ------------------------------------------------------------ block-n3

def _block_inputs(seed: int, count: int) -> list:
    return _op_seeds(np.random.default_rng(seed), count)


def _block_run(op_seed: int, tmp: Path) -> CliCall:
    # no --cache-dir: the family is reduced on every op
    return call_cli(["bound", "--scheme", "block", "--n", 3,
                     "--seed", op_seed], tmp / "bound.json")


def _block_check(call: CliCall) -> list[str]:
    problems = _exit_problems([call])
    if problems:
        return problems
    rep = _bundle(call)["reports"][0]
    value = rep["value_nats"]
    if not abs(value - BLOCK_N3_VALUE) <= BLOCK_N3_TOL:
        problems.append(f"block n=3 value {value!r} != {BLOCK_N3_VALUE} "
                        f"+- {BLOCK_N3_TOL}")
    if rep["optimizer"]["converged"] is not True:
        problems.append("block n=3 optimizer reports converged: false")
    classes = len(rep["params"]["class_probabilities"])
    if classes != BLOCK_N3_CLASSES:
        problems.append(f"block n=3 has {classes} classes, "
                        f"not {BLOCK_N3_CLASSES}")
    return problems


# ------------------------------------------------------------ family-n4

def _family_inputs(seed: int, count: int) -> list:
    # one set of random points on the weak family's probability simplex,
    # shared by every op; each op divides by the class multiplicities
    rng = np.random.default_rng(seed)
    points = rng.dirichlet(np.ones(FAMILY_N4["weak"][0]), size=VG_POINTS)
    return [points] * count


@dataclass
class FamilyOutcome:
    miss: CliCall
    hit: CliCall
    weak: blocks.BlockFamily
    d4: blocks.BlockFamily
    probs: np.ndarray
    values: list
    gradients: list


def _family_run(points: np.ndarray, tmp: Path) -> FamilyOutcome:
    cache = tmp / "cache"
    argv = ["reduce", "--n", 4, "--cache-dir", cache]
    miss = call_cli(argv, tmp / "miss.json")
    hit = call_cli(argv, tmp / "hit.json")
    weak = blocks.load_or_build_family(4, True, cache)
    d4 = blocks.load_or_build_family(4, False, cache)
    probs = points / weak.multiplicities
    values, gradients = [], []
    for p in probs:
        v, g = block_bounds.value_and_gradient(weak, p)
        values.append(v)
        gradients.append(g)
    return FamilyOutcome(miss, hit, weak, d4, probs, values, gradients)


def _family_check(out: FamilyOutcome) -> list[str]:
    problems = _exit_problems([out.miss, out.hit])
    if problems:
        return problems
    for label, call in (("miss", out.miss), ("hit", out.hit)):
        rep = _bundle(call)["reports"][0]
        for tag in ("weak", "d4"):
            got, want = rep[f"{tag}_classes"], FAMILY_N4[tag][0]
            if got != want:
                problems.append(f"reduce n=4 ({label}) {tag}: {got} classes, "
                                f"not {want}")
    for tag, fam in (("weak", out.weak), ("d4", out.d4)):
        if _digest(fam.class_of) != FAMILY_N4[tag][1]:
            problems.append(f"reloaded n=4 {tag} class_of differs from the "
                            f"built reference")
    if not all(math.isfinite(v) for v in out.values):
        problems.append("value_and_gradient returned a non-finite value")
    if not all(np.isfinite(g).all() for g in out.gradients):
        problems.append("value_and_gradient returned a non-finite gradient")
    ref = block_bounds.bound_value(
        block_bounds.BlockDistribution(out.weak, out.probs[0]))
    if not abs(out.values[0] - ref) <= 1e-12:
        problems.append(f"value_and_gradient {out.values[0]!r} != bound_value "
                        f"{ref!r} at the first point")
    return problems


# ------------------------------------------------------------ tables-oracles

def _tables_inputs(seed: int, count: int) -> list:
    rng = np.random.default_rng(seed)
    out = []
    for op_seed in _op_seeds(rng, count):
        params = {lat: ",".join(f"{p:.6f}" for p in rng.uniform(0.05, 0.45, k))
                  for lat, k in SAMPLE_STAGES.items()}
        out.append((op_seed, params))
    return out


def _tables_run(inp, tmp: Path) -> dict:
    op_seed, params = inp
    calls = {}
    for scheme in TABLE_VALUES:
        calls[scheme] = call_cli(["bound", "--lattice", "all", "--scheme", scheme,
                                  "--seed", op_seed], tmp / f"{scheme}.json")
    calls["verify"] = call_cli(["verify", "--seed", op_seed],
                               tmp / "verify.json")
    calls["strip"] = call_cli(["strip", "--max-width", STRIP_MAX_WIDTH,
                               "--boundary", "both"], tmp / "strip.csv")
    for lat, p in params.items():
        calls[f"sample {lat}"] = call_cli(
            ["sample", "--lattice", lat, "--params", p, "--dims", SAMPLE_DIMS,
             "--seed", op_seed], tmp / f"sample_{lat}.json")
    return calls


def _tables_check(calls: dict) -> list[str]:
    problems = _exit_problems(calls.values())
    if problems:
        return problems
    for scheme, table in TABLE_VALUES.items():
        reports = {r["lattice"]: r for r in _bundle(calls[scheme])["reports"]}
        if set(reports) != set(table):
            problems.append(f"{scheme}: lattices {sorted(reports)}")
            continue
        for lat, want in table.items():
            got = reports[lat]["value_nats"]
            if not abs(got - want) <= TABLE_TOL:
                problems.append(f"{scheme} {lat}: {got:.6f} != {want} "
                                f"+- {TABLE_TOL}")
            if reports[lat]["optimizer"]["converged"] is not True:
                problems.append(f"{scheme} {lat}: converged: false")
    checks = _bundle(calls["verify"])["reports"]
    passed = sum(c["passed"] is True for c in checks)
    if (len(checks), passed) != (VERIFY_CHECKS, VERIFY_CHECKS):
        problems.append(f"verify: {passed}/{len(checks)} checks passed, "
                        f"need {VERIFY_CHECKS}/{VERIFY_CHECKS}")
    with open(calls["strip"].out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 2 * STRIP_MAX_WIDTH:
        problems.append(f"strip: {len(rows)} rows, not {2 * STRIP_MAX_WIDTH}")
    free = {int(r["width"]): float(r["entropy"])
            for r in rows if r["boundary"] == "free"}
    for width, want in STRIP_CLOSED_FORMS.items():
        if not abs(free.get(width, math.nan) - want) <= 1e-12:
            problems.append(f"strip width {width}: {free.get(width)} != "
                            f"{want:.12f}")
    for lat in SAMPLE_STAGES:
        if _bundle(calls[f"sample {lat}"]).get("hard_core_valid") is not True:
            problems.append(f"sample {lat}: hard-core constraint violated")
    return problems


WORKLOADS = {
    "block-n3": Workload("block-n3", 0.4, _block_inputs, _block_run,
                         _block_check),
    "family-n4": Workload("family-n4", 1.4, _family_inputs, _family_run,
                          _family_check),
    "tables-oracles": Workload("tables-oracles", 0.6, _tables_inputs,
                               _tables_run, _tables_check),
}
