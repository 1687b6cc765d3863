"""End-to-end tests of the command-line front end (in-process)."""
import argparse
import ast
import contextlib
import csv
import hashlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import hardcore_entropy
from hardcore_entropy import (block_bounds, bounds, cli, lattices, optimize,
                              oracles)
from hardcore_entropy.lattices import LATTICES, build_lattice


def run(argv):
    return cli.main(argv)


def read_bundle(path, drop_out=True):
    with open(path, encoding="utf-8") as fh:
        bundle = json.load(fh)
    bundle.pop("timing_seconds", None)
    if drop_out:
        bundle["config"].pop("out", None)
    return bundle


# ----------------------------------------------------------------- bound

def test_bound_closed_single_lattice(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert run(["bound", "--scheme", "closed", "--lattice", "square",
                "--out", str(out)]) == 0
    table = capsys.readouterr().out
    assert "square" in table and "0.3924" in table
    bundle = read_bundle(out)
    assert bundle["schema_version"] == 8
    assert bundle["command"] == "bound"
    (rep,) = bundle["reports"]
    assert rep["value_nats"] == pytest.approx(0.392421, abs=5e-4)
    assert rep["densities"] == pytest.approx((0.1702, 0.2370), abs=5e-3)


def test_bound_all_lattices_five_rows(capsys):
    assert run(["bound", "--scheme", "closed", "--lattice", "all"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6  # header + five lattices
    for name in ("square", "honeycomb", "triangular", "kagome",
                 "square_moore"):
        assert any(line.startswith(name) for line in lines)


_HEADER = "lattice       scheme      n  value_nats  densities\n"
PRINTED_TABLES = {
    "closed": _HEADER
    + "square        closed      -    0.392421  0.1702, 0.2370\n"
    "honeycomb     closed      -    0.427921  0.2202, 0.2371\n"
    "triangular    closed      -    0.325329  0.1457, 0.1559, 0.1517\n"
    "kagome        closed      -    0.382557  0.1944, 0.1948, 0.1866\n"
    "square_moore  closed      -    0.285782  "
    "0.1186, 0.1266, 0.1301, 0.1259\n",
    "equalized": _HEADER
    + "square        equalized   -    0.392125  0.2015, 0.2015\n"
    "honeycomb     equalized   -    0.427875  0.2284, 0.2284\n",
    "three-hex": _HEADER
    + "honeycomb     three-hex   -    0.430361  0.2276, 0.2376\n"
    "triangular    three-hex   -    0.326453  0.1526, 0.1542, 0.1505\n",
    "block": _HEADER
    + "square        block       3    0.401402  0.2085, 0.2245\n",
}


@pytest.mark.parametrize("scheme", PRINTED_TABLES)
def test_bound_printed_table_pinned(capsys, scheme):
    # the published tables, byte for byte, at default flags
    args = ["--n", "3"] if scheme == "block" else ["--lattice", "all"]
    assert run(["bound", "--scheme", scheme] + args) == 0
    assert capsys.readouterr().out == PRINTED_TABLES[scheme]


def test_bound_block_scheme(tmp_path, capsys):
    out = tmp_path / "block.json"
    assert run(["bound", "--scheme", "block", "--n", "2",
                "--out", str(out)]) == 0
    (rep,) = read_bundle(out)["reports"]
    assert rep["n"] == 2
    assert rep["value_nats"] == pytest.approx(0.39877, abs=2e-4)
    assert rep["optimizer"]["converged"] is True


def test_bound_block_reports_monotonicity(tmp_path, capsys):
    out = tmp_path / "block3.json"
    assert run(["bound", "--scheme", "block", "--n", "3",
                "--out", str(out)]) == 0
    (rep,) = read_bundle(out)["reports"]
    assert rep["optimizer"]["converged"] is True
    assert rep["optimizer"]["monotonicity_violations"] == 0


def test_bound_block_n4(tmp_path, capsys):
    out = tmp_path / "block4.json"
    assert run(["bound", "--scheme", "block", "--n", "4",
                "--out", str(out)]) == 0
    (rep,) = read_bundle(out)["reports"]
    assert rep["optimizer"]["converged"] is True
    assert rep["value_nats"] >= 0.40282


def test_bound_not_converged_exits_one(tmp_path, capsys):
    out = tmp_path / "short.json"
    assert run(["bound", "--scheme", "block", "--n", "3", "--max-iter", "3",
                "--out", str(out)]) == 1
    assert "optimizer did not converge" in capsys.readouterr().err
    bundle = read_bundle(out)
    (rep,) = bundle["reports"]
    assert rep["optimizer"]["converged"] is False
    assert rep["optimizer"]["iterations"] == 3
    assert rep["optimizer"]["stationarity"] > bundle["config"]["tol"]


def test_bound_max_iter_reaches_closed_form(tmp_path, capsys):
    out = tmp_path / "short.json"
    assert run(["bound", "--scheme", "closed", "--lattice", "square",
                "--max-iter", "1", "--out", str(out)]) == 1
    assert "optimizer did not converge" in capsys.readouterr().err
    (rep,) = read_bundle(out)["reports"]
    assert rep["optimizer"]["converged"] is False


def test_bound_tol_near_rounding_converges(tmp_path, capsys):
    # only the gradient test ends a converged solve, so a tolerance of
    # 1e-14, near the rounding of the gradient, is met on every lattice
    out = tmp_path / "tight.json"
    assert run(["bound", "--scheme", "closed", "--lattice", "all",
                "--tol", "1e-14", "--out", str(out)]) == 0
    reports = read_bundle(out)["reports"]
    assert len(reports) == 5
    assert all(r["optimizer"]["converged"] is True
               and r["optimizer"]["stationarity"] <= 1e-14 for r in reports)


def test_bound_tol_below_rounding_stops_short(tmp_path, capsys, monkeypatch):
    # a solve that cannot meet 1e-20 stops once a halved step no longer
    # moves t, far short of the 2000 steps --max-iter allows
    maps = []
    to_interior = optimize.Domain.to_interior

    def counted(self, t):
        maps.append(len(t))
        return to_interior(self, t)

    monkeypatch.setattr(optimize.Domain, "to_interior", counted)
    out = tmp_path / "tiny.json"
    assert run(["bound", "--scheme", "closed", "--lattice", "all",
                "--tol", "1e-20", "--out", str(out)]) == 1
    assert "optimizer did not converge" in capsys.readouterr().err
    reports = read_bundle(out)["reports"]
    assert any(r["optimizer"]["converged"] is False for r in reports)
    assert len(maps) <= 200


def test_bound_scheme_lattice_mismatch(capsys):
    assert run(["bound", "--scheme", "equalized", "--lattice",
                "triangular"]) == 2
    assert run(["bound", "--scheme", "three-hex", "--lattice",
                "square"]) == 2


def test_bound_non_finite_objective_exits_one(monkeypatch, capsys):
    # a numerical failure, not a configuration error
    monkeypatch.setattr(bounds, "_staged_value",
                        lambda unforced, entropies: entropies[0] * math.nan)
    assert run(["bound", "--scheme", "closed", "--lattice", "square"]) == 1
    assert "non-finite" in capsys.readouterr().err


def test_bound_reports_do_not_depend_on_seed(tmp_path, capsys):
    # the optimizer draws nothing: at this seed the honeycomb three-hex
    # solve once ended with none of its random starts converged (exit 1)
    for scheme in ("closed", "equalized", "three-hex"):
        bundles = []
        for seed in ("0", "1698599719"):
            out = tmp_path / f"{scheme}-{seed}.json"
            assert run(["bound", "--scheme", scheme, "--lattice", "all",
                        "--seed", seed, "--out", str(out)]) == 0
            bundles.append(read_bundle(out)["reports"])
        assert bundles[0] == bundles[1]


def test_bound_non_finite_tol_exits_two(tmp_path, capsys):
    # an infinite tol would pass any point as converged after 0 steps
    ini = tmp_path / "inf.ini"
    ini.write_text("[bound]\ntol = inf\n", encoding="utf-8")
    for args in (["--scheme", "closed", "--lattice", "square", "--tol", "inf"],
                 ["--scheme", "block", "--n", "2", "--tol", "inf"],
                 ["--scheme", "closed", "--lattice", "square", "--tol", "nan"],
                 ["--scheme", "block", "--n", "2", "--config", str(ini)]):
        assert run(["bound"] + args) == 2
        assert "tol" in capsys.readouterr().err


def test_bound_equalized_densities_agree(tmp_path, capsys):
    out = tmp_path / "eq.json"
    assert run(["bound", "--scheme", "equalized", "--lattice", "square",
                "--out", str(out)]) == 0
    (rep,) = read_bundle(out)["reports"]
    d = rep["densities"]
    assert d[0] == pytest.approx(d[1], abs=1e-9)
    assert rep["value_nats"] == pytest.approx(0.3921, abs=5e-4)


# ---------------------------------------------------------------- reduce

def test_reduce_census_output(capsys):
    assert run(["reduce", "--n", "3"]) == 0
    text = capsys.readouterr().out
    assert "512 masks" in text
    assert "102 (101 free)" in text
    assert "47 (46 free)" in text


def test_reduce_cache_round_trip(tmp_path, capsys):
    cache = tmp_path / "cache"
    cold = tmp_path / "cold.json"
    warm = tmp_path / "warm.json"
    assert run(["reduce", "--n", "2", "--cache-dir", str(cache),
                "--out", str(cold)]) == 0
    files = sorted(p.name for p in cache.iterdir())
    assert files == ["blocks_n2_d4_v2.npy", "blocks_n2_weak_v2.npy"]
    assert run(["reduce", "--n", "2", "--cache-dir", str(cache),
                "--out", str(warm)]) == 0
    assert read_bundle(cold) == read_bundle(warm)


def test_reduce_corrupt_cache_rebuilds(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert run(["reduce", "--n", "2", "--cache-dir", str(cache)]) == 0
    victim = cache / "blocks_n2_weak_v2.npy"
    victim.write_bytes(b"not a cache file")
    with pytest.warns(UserWarning, match="rebuilding"):
        assert run(["reduce", "--n", "2", "--cache-dir", str(cache)]) == 0
    assert "6 (5 free)" in capsys.readouterr().out


def test_v1_cache_ignored(tmp_path, recwarn, capsys):
    # a v1 .npz is neither read nor deleted; the v2 file is built beside it
    cache = tmp_path / "cache"
    cache.mkdir()
    old = cache / "blocks_n2_weak_v1.npz"
    old.write_bytes(b"any bytes")
    assert run(["reduce", "--n", "2", "--cache-dir", str(cache)]) == 0
    assert not recwarn.list and capsys.readouterr().err == ""
    assert (cache / "blocks_n2_weak_v2.npy").exists()
    assert old.read_bytes() == b"any bytes"


def test_reduce_unusable_cache_dir_exits_two(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    assert run(["reduce", "--n", "2", "--cache-dir",
                str(blocker / "sub")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("scheme", ["closed", "equalized", "three-hex"])
def test_non_block_scheme_rejects_block_options(tmp_path, capsys, scheme):
    # only the block scheme reads n, given as a flag or as a [bound] key;
    # no scheme reads cache_dir, which reduce alone keeps; a [common] key
    # stays a silent default for both
    cache = tmp_path / "cache"
    ini = tmp_path / "bound.ini"
    base = ["bound", "--scheme", scheme, "--lattice", "honeycomb"]
    assert run(base + ["--n", "4"]) == 2
    assert (f"bound --scheme {scheme} does not read n"
            in capsys.readouterr().err)
    ini.write_text("[bound]\nn = 4\n", encoding="utf-8")
    assert run(base + ["--config", str(ini)]) == 2
    assert "does not read" in capsys.readouterr().err
    for argv in (base, ["bound", "--scheme", "block", "--n", "1"]):
        assert run(argv + ["--cache-dir", str(cache)]) == 2
        assert ("unrecognized arguments: --cache-dir"
                in capsys.readouterr().err)
        ini.write_text(f"[bound]\ncache-dir = {cache}\n", encoding="utf-8")
        assert run(argv + ["--config", str(ini)]) == 2
        assert ("bound does not read config key 'cache-dir'"
                in capsys.readouterr().err)
        ini.write_text(f"[common]\nn = 4\ncache-dir = {cache}\n",
                       encoding="utf-8")
        assert run(argv + ["--config", str(ini)]) == 0
    assert not cache.exists()
    # the scheme may come from the config file too
    ini.write_text("[bound]\nscheme = block\n", encoding="utf-8")
    assert run(["bound", "--config", str(ini), "--n", "1"]) == 0


# ---------------------------------------------------------------- verify

def test_verify_default_green(tmp_path, capsys):
    out = tmp_path / "verify.json"
    assert run(["verify", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "[FAIL]" not in text
    assert "density_interval_nonempty" in text
    assert "(0.21367, 0.25806)" in text
    bundle = read_bundle(out)
    assert all(rep["passed"] for rep in bundle["reports"])


_VERIFY_HEAD = (
    "[PASS] one_dimensional_entropy: 0.481211825060, "
    "log golden ratio 0.481211825060\n"
    "[PASS] strip_width_2_closed_form: 0.440686793510\n"
    "[PASS] strip_width_12_periodic_vs_reference: 0.4074964 vs 0.4075\n"
    "[PASS] blocking_constant_lower_exact: 15/8 = 1.8750\n"
    "[PASS] density_upper_exact: 8/31\n"
    "[PASS] density_interval_nonempty: (0.21367, 0.25806) "
    "at c_max=2.6800, href=0.4075\n"
    "[PASS] window_probabilities_vs_closed_forms: max |diff| <= 1e-12\n"
    "[PASS] block_family_census: n=1: 2/2, n=2: 6/6, n=3: 102/47\n"
    "[PASS] unit_block_equals_closed_form: max |diff| <= 1e-12\n")
PRINTED_VERIFY = {
    seed: _VERIFY_HEAD
    + f"[PASS] sampler_consistency: max |z| = {z} on a 64x64 torus\n"
    "10/10 checks passed\n"
    for seed, z in ((0, "1.36"), (11, "1.49"))
}


@pytest.mark.parametrize("seed", PRINTED_VERIFY)
def test_verify_printed_pinned(capsys, seed):
    # every figure printed to its check's resolution, byte for byte
    assert run(["verify", "--seed", str(seed)]) == 0
    assert capsys.readouterr().out == PRINTED_VERIFY[seed]


def test_verify_href_can_empty_the_interval(capsys):
    # a reference entropy of 0.55 nats pushes the density lower limit
    # above 8/31, so the interval check must fail honestly
    assert run(["verify", "--href", "0.55"]) == 1
    text = capsys.readouterr().out
    assert "[FAIL] density_interval_nonempty" in text


def test_verify_low_href_widens_the_bisection(capsys):
    # below h_ref ~ 0.1246 the blocking constant c_max exceeds 20
    assert run(["verify", "--href", "0.12"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len([ln for ln in lines if ln.startswith("[PASS]")]) == 10
    assert "c_max=20.8963, href=0.12" in lines[5]


def test_verify_href_out_of_range_is_config_error(capsys):
    assert run(["verify", "--href", "0.8"]) == 2
    assert run(["verify", "--href", "-0.1"]) == 2


# --------------------------------------------------------------- profile

def test_profile_three_generators(tmp_path, capsys):
    out = tmp_path / "profile.csv"
    assert run(["profile", "--n", "3", "--generators", "1,2,3",
                "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 30  # 3 curves, k = 0..9
    for g in ("1", "2", "3"):
        curve = [float(r["probability"]) for r in rows
                 if r["generator"] == g]
        assert len(curve) == 10
        # ten values, each rounded to 7 decimals
        assert sum(curve) == pytest.approx(1.0, abs=10 * 5e-8)
    err = capsys.readouterr().err
    assert "variance order: 1 < 2 < 3" in err
    assert "between k=3 and k=4" in err


# the default `profile --n 3` curves, k = 0..9, as printed
PRINTED_PROFILE = {
    "1": "0.1319555 0.2997063 0.3025393 0.1781495 0.0674375 0.0170188 "
         "0.0028633 0.0003097 0.0000195 0.0000005",
    "2": "0.1784426 0.2849412 0.2595686 0.1640309 0.0772574 0.0272503 "
         "0.0070680 0.0012842 0.0001484 0.0000084",
    "3": "0.2350652 0.2433919 0.2049630 0.1499679 0.0932646 0.0477245 "
         "0.0189919 0.0055017 0.0010323 0.0000969",
}


def test_profile_default_csv_pinned(capsys):
    assert run(["profile", "--n", "3"]) == 0
    printed = capsys.readouterr().out
    assert printed == "k,probability,generator\r\n" + "".join(
        f"{k},{p},{g}\r\n" for g, curve in PRINTED_PROFILE.items()
        for k, p in enumerate(curve.split()))


def test_profile_n4_all_generators_pinned(tmp_path):
    # the aligned m=4 window and every cut of a 4x4 window by 1x1, 2x2 and
    # 3x3 tilings
    out = tmp_path / "profile.csv"
    assert run(["profile", "--n", "4", "--generators", "1,2,3,4",
                "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "3093d2cd52f89402dcf5d40a780af136dc6445d94a44eb8169105a76a077da55")


@pytest.mark.parametrize("args", [
    ["--n", "3", "--generators", "1,3", "--max-iter", "3"],
    ["--n", "2", "--generators", "1", "--max-iter", "1"]])
def test_profile_not_converged_exits_one(tmp_path, capsys, args):
    # as bound does: the output is still written, then the exit is 1
    out = tmp_path / "profile.csv"
    assert run(["profile", *args, "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[-1] == "optimizer did not converge"
    assert any(line.startswith("# variance order: ") for line in err)
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(args[3].split(",")) * (int(args[1]) ** 2 + 1)


def test_profile_digits_hold_at_default_tol(tmp_path, monkeypatch):
    # 7 decimals, what a solve to the default --tol pins: each printed
    # probability is within 1e-7 of the profile solved to 1e-12
    out = tmp_path / "profile.csv"
    assert run(["profile", "--n", "3", "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        printed = [r["probability"] for r in csv.DictReader(fh)]
    assert all(len(v.split(".")[1]) == 7 for v in printed)
    tight = []
    real = block_bounds.density_profile

    def recording(n, generator):
        tight.append(real(n, generator))
        return tight[-1]

    monkeypatch.setattr(block_bounds, "density_profile", recording)
    assert run(["profile", "--n", "3", "--tol", "1e-12",
                "--out", str(tmp_path / "tight.csv")]) == 0
    expected = np.concatenate([prof.occupancy_probs for prof in tight])
    np.testing.assert_allclose([float(v) for v in printed], expected,
                               rtol=0, atol=1e-7)


def test_profile_unit_generator_honours_starts_and_tol(monkeypatch,
                                                      capsys):
    seen = []
    real = bounds.optimize_bound

    def recording(scheme, lattice, **kwargs):
        seen.append(kwargs)
        return real(scheme, lattice, **kwargs)

    monkeypatch.setattr(block_bounds, "optimize_bound", recording)
    assert run(["profile", "--n", "2", "--generators", "1",
                "--tol", "1e-8", "--max-iter", "500"]) == 0
    assert seen == [{"tol": 1e-8, "max_iter": 500}]


def test_profile_generator_larger_than_window(capsys):
    assert run(["profile", "--n", "2", "--generators", "3"]) == 2


def test_profile_bad_generator_list(capsys):
    assert run(["profile", "--n", "3", "--generators", "a,b"]) == 2


# ---------------------------------------------------------------- sample

def test_sample_square(tmp_path, capsys):
    out = tmp_path / "sample.json"
    assert run(["sample", "--lattice", "square", "--params", "0.1702",
                "--dims", "64x64", "--seed", "11", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "hard-core constraint satisfied" in text
    bundle = read_bundle(out)
    assert bundle["hard_core_valid"] is True
    metrics = {(r["stage"], r["metric"]) for r in bundle["reports"]}
    assert metrics == {("circle", "unforced"), ("circle", "density"),
                       ("dot", "unforced"), ("dot", "density")}


@pytest.mark.parametrize("lattice,params", [("square", "0.2"),
                                             ("square", "0.02"),
                                             ("kagome", "0.19,0.30")])
def test_sample_one_tile_torus_has_finite_stderr(tmp_path, capsys, lattice,
                                                 params):
    # an 8x8 torus is a single 8x8 tile: no spread of tile means exists;
    # an 8x16 torus has two, whose means can agree by chance; at p = 0.02
    # the 32 circle sites of the 8x8 torus all draw 0
    def reject(token):
        raise ValueError(f"bundle holds {token}")

    for dims in ("8x8", "8x16"):
        out = tmp_path / f"s{dims}.json"
        assert run(["sample", "--lattice", lattice, "--params", params,
                    "--dims", dims, "--out", str(out)]) == 0
        rows = json.loads(out.read_text(encoding="utf-8"),
                          parse_constant=reject)["reports"]
        assert all(math.isfinite(row["stderr"]) for row in rows)
        assert all(row["stderr"] > 0 for row in rows
                   if row["metric"] == "density"
                   or row["empirical"] != row["analytic"]), dims
        assert all(row["stderr"] > 0 for row in rows
                   if 0 < row["analytic"] < 1), dims


def test_sample_requires_params(capsys):
    assert run(["sample", "--lattice", "square"]) == 2
    assert "--params" in capsys.readouterr().err


def test_sample_rejects_bad_dims(capsys):
    assert run(["sample", "--lattice", "square", "--params", "0.2",
                "--dims", "64"]) == 2
    for dims in ("0x4", "-4x4"):
        assert run(["sample", "--lattice", "square", "--params", "0.2",
                    "--dims", dims]) == 2
    assert run(["sample", "--lattice", "triangular", "--params",
                "0.1,0.2", "--dims", "64x64"]) == 2  # needs %3 == 0


@pytest.mark.parametrize("lattice, params, dims, code", [
    ("square", "0.2", "2x2", 2),
    ("triangular", "0.1,0.2", "3x3", 2),
    ("square_moore", "0.1,0.15,0.2", "4x4", 2),
    ("square_moore", "0.1,0.15,0.2", "6x6", 2),
    ("square", "0.2", "4x4", 0),
    ("square_moore", "0.1,0.15,0.2", "8x8", 0),
])
def test_sample_rejects_torus_smaller_than_a_window(tmp_path, capsys,
                                                    lattice, params, dims,
                                                    code):
    # the analytic U_s is the torus law only when each stage's influence
    # window and its target land on distinct torus sites: on square 2x2
    # the four neighbors of a site are two sites, and the z-test would
    # compare against the wrong law; nothing is sampled or written
    out = tmp_path / "sample.json"
    assert run(["sample", "--lattice", lattice, "--params", params,
                "--dims", dims, "--out", str(out)]) == code
    err = capsys.readouterr().err
    assert ("too small" in err) == bool(code)
    assert out.exists() != bool(code)


def test_sample_out_of_memory_exits_two(tmp_path, capsys, monkeypatch):
    # a torus that does not fit in memory is a configuration error, not
    # a traceback; the stand-in sampler fails before allocating anything
    def no_memory(*args):
        raise MemoryError("Unable to allocate 1.00 GiB")

    monkeypatch.setattr(oracles, "fill_in_sample", no_memory)
    out = tmp_path / "sample.json"
    assert run(["sample", "--lattice", "square", "--params", "0.2",
                "--dims", "32768x32768", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: a 32768x32768 torus does not fit in memory\n")
    assert not out.exists()


def test_sample_deterministic_per_seed(tmp_path):
    a, b, c = (tmp_path / name for name in ("a.json", "b.json", "c.json"))
    args = ["sample", "--lattice", "kagome", "--params", "0.19,0.30",
            "--dims", "32x32"]
    assert run(args + ["--seed", "5", "--out", str(a)]) == 0
    assert run(args + ["--seed", "5", "--out", str(b)]) == 0
    assert run(args + ["--seed", "6", "--out", str(c)]) == 0
    assert read_bundle(a) == read_bundle(b)
    assert read_bundle(a)["reports"] != read_bundle(c)["reports"]


# `sample` at each lattice's default dims and seed 1: its params, stdout,
# and the sha256 of its bundle's JSON text without timing_seconds,
# config.out and versions
PRINTED_SAMPLE = {
    "square": ("0.1702", (
        "square torus 128x128, seed 1, hard-core constraint satisfied\n"
        "stage      metric          p   analytic  empirical    stderr      z\n"
        "circle     unforced   0.1702   1.000000   1.000000  0.000000   0.00\n"
        "circle     density    0.1702   0.170200   0.170532  0.004264   0.08\n"
        "dot        unforced   0.5000   0.474126   0.470581  0.009466  -0.37\n"
        "dot        density    0.5000   0.237063   0.234009  0.006135  -0.50\n"
    ), "855e072962ca5b4954f0530df1fc977a03311af93298ce5603bf9a12f270ec5d"),
    "honeycomb": ("0.22", (
        "honeycomb torus 96x96, seed 1, hard-core constraint satisfied\n"
        "stage      metric          p   analytic  empirical    stderr      z\n"
        "circle     unforced   0.2200   1.000000   1.000000  0.000000   0.00\n"
        "circle     density    0.2200   0.220000   0.225477  0.004523   1.21\n"
        "dot        unforced   0.5000   0.474552   0.464735  0.008144  -1.21\n"
        "dot        density    0.5000   0.237276   0.224175  0.005257  -2.49\n"
    ), "c0a4a695d43031c6be2c665a26279fcee83dc466f648bba628a57b9962dcd7e5"),
    "triangular": ("0.15,0.18", (
        "triangular torus 96x96, seed 1, hard-core constraint satisfied\n"
        "stage      metric          p   analytic  empirical    stderr      z\n"
        "circle     unforced   0.1500   1.000000   1.000000  0.000000   0.00\n"
        "circle     density    0.1500   0.150000   0.161458  0.006299   1.82\n"
        "dot        unforced   0.1800   0.614125   0.590820  0.011981  -1.95\n"
        "dot        density    0.1800   0.110542   0.101888  0.006018  -1.44\n"
        "triangle   unforced   0.5000   0.373170   0.369792  0.012142  -0.28\n"
        "triangle   density    0.5000   0.186585   0.187826  0.007742   0.16\n"
    ), "e766f00443f890a4e2f6169cd11c3a02c7a9830d266db7be1c387a68fb89958d"),
    "kagome": ("0.19,0.30", (
        "kagome torus 96x96, seed 1, hard-core constraint satisfied\n"
        "stage      metric          p   analytic  empirical    stderr      z\n"
        "circle     unforced   0.1900   1.000000   1.000000  0.000000   0.00\n"
        "circle     density    0.1900   0.190000   0.188260  0.003767  -0.46\n"
        "dot        unforced   0.3000   0.656100   0.660482  0.006338   0.69\n"
        "dot        density    0.3000   0.196830   0.193142  0.004283  -0.86\n"
        "triangle   unforced   0.5000   0.375977   0.383247  0.005825   1.25\n"
        "triangle   density    0.5000   0.187989   0.191406  0.004499   0.76\n"
    ), "4dce38050c47257ba6745a8993317445bddc39711d817299812dcca8f0a3982e"),
    "square_moore": ("0.12,0.14,0.16", (
        "square_moore torus 128x128, seed 1, hard-core constraint satisfied\n"
        "stage      metric          p   analytic  empirical    stderr      z\n"
        "circle     unforced   0.1200   1.000000   1.000000  0.000000   0.00\n"
        "circle     density    0.1200   0.120000   0.119629  0.004978  -0.07\n"
        "dot        unforced   0.1400   0.774400   0.776123  0.008475   0.20\n"
        "dot        density    0.1400   0.108416   0.102051  0.004625  -1.38\n"
        "triangle   unforced   0.1600   0.457686   0.475830  0.011297   1.61\n"
        "triangle   density    0.1600   0.073230   0.076416  0.004643   0.69\n"
        "diamond    unforced   0.5000   0.341132   0.346436  0.009422   0.56\n"
        "diamond    density    0.5000   0.170566   0.178711  0.006862   1.19\n"
    ), "908b8f427a7f86b06deafe4ae425cbbe1961caaf3ba93bf28c2533373ed2caec"),
}


@pytest.mark.parametrize("lattice", PRINTED_SAMPLE)
def test_sample_printed_and_bundle_pinned(tmp_path, capsys, lattice):
    params, printed, digest = PRINTED_SAMPLE[lattice]
    out = tmp_path / "sample.json"
    assert run(["sample", "--lattice", lattice, "--params", params,
                "--seed", "1", "--out", str(out)]) == 0
    assert capsys.readouterr().out == printed
    bundle = read_bundle(out)
    del bundle["versions"]
    # the text, not the parsed values: an n_sites of 8192.0 == 8192
    text = json.dumps(bundle, indent=2, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ["sample", "--lattice", "square", "--params", "0.2,,0.3"],
    ["sample", "--lattice", "square", "--params", "0.2", "--dims", "64x"],
    ["sample", "--lattice", "square", "--params", "0.2", "--dims", "8x8x8"],
    ["profile", "--generators", "1,two"],
    ["profile", "--generators", ""]])
def test_bad_list_option_names_flag_and_value(capsys, argv):
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert f"{argv[-2]} " in err and repr(argv[-1]) in err


# ----------------------------------------------------------------- strip

def test_strip_table(tmp_path):
    out = tmp_path / "strip.csv"
    assert run(["strip", "--max-width", "4", "--boundary", "both",
                "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 8
    w2 = [r for r in rows if r["width"] == "2" and r["boundary"] == "free"]
    assert float(w2[0]["entropy"]) == pytest.approx(0.4406867935, abs=1e-9)


# `hce strip --max-width 14 --boundary both`, every width and boundary to
# the 12 printed decimals; csv ends each row with "\r\n"
PRINTED_STRIP = (
    "width,boundary,entropy\r\n"
    "1,free,0.481211825060\r\n"
    "1,periodic,0.481211825060\r\n"
    "2,free,0.440686793510\r\n"
    "2,periodic,0.440686793510\r\n"
    "3,free,0.429871029469\r\n"
    "3,periodic,0.398254405762\r\n"
    "4,free,0.424257111069\r\n"
    "4,periodic,0.410056037581\r\n"
    "5,free,0.420906307591\r\n"
    "5,periodic,0.406614574981\r\n"
    "6,free,0.418670960740\r\n"
    "6,periodic,0.407805573399\r\n"
    "7,free,0.417074421385\r\n"
    "7,periodic,0.407377738577\r\n"
    "8,free,0.415877005130\r\n"
    "8,periodic,0.407540536131\r\n"
    "9,free,0.414945682570\r\n"
    "9,periodic,0.407476963681\r\n"
    "10,free,0.414200624426\r\n"
    "10,periodic,0.407502471475\r\n"
    "11,free,0.413591031412\r\n"
    "11,periodic,0.407492054222\r\n"
    "12,free,0.413083037232\r\n"
    "12,periodic,0.407496377100\r\n"
    "13,free,0.412653196004\r\n"
    "13,periodic,0.407494560965\r\n"
    "14,free,0.412284760665\r\n"
    "14,periodic,0.407495332196\r\n"
)


def test_strip_printed_pinned(capsys):
    assert run(["strip", "--max-width", "14", "--boundary", "both"]) == 0
    assert capsys.readouterr().out == PRINTED_STRIP


def test_strip_single_width(capsys):
    assert run(["strip", "--width", "12", "--boundary", "periodic"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "width,boundary,entropy"
    assert out[1].startswith("12,periodic,0.40749")


def test_strip_unconverged_power_iteration_exits_one(monkeypatch, capsys):
    # a numerical failure: no eigenvalue is printed from an unfinished loop
    monkeypatch.setattr(oracles, "_POWER_MAX_ITER", 1)
    assert run(["strip", "--width", "14"]) == 1
    captured = capsys.readouterr()
    assert "did not reach" in captured.err
    assert "14,free" not in captured.out


def test_strip_width_out_of_range(capsys):
    assert run(["strip", "--width", "15"]) == 2


def test_strip_width_and_max_width_exit_two(tmp_path, capsys):
    # one table or one width: neither may silently win, whether each
    # comes from a flag or from the config file
    ini = tmp_path / "strip.ini"
    ini.write_text("[strip]\nmax-width = 5\n", encoding="utf-8")
    for argv in (["--width", "2", "--max-width", "5"],
                 ["--width", "2", "--config", str(ini)]):
        assert run(["strip"] + argv) == 2
        captured = capsys.readouterr()
        assert "--width or --max-width" in captured.err
        assert captured.out == ""


def test_strip_unusable_out_path_exits_two(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    assert run(["strip", "--max-width", "3",
                "--out", str(blocker / "x.csv")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# ----------------------------------------------------- config file merge

def test_config_file_sections_and_flag_priority(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[common]\nseed = 3\nmax-iter = 70\n"
                   "[bound]\nscheme = equalized\nlattice = square\n",
                   encoding="utf-8")
    out = tmp_path / "r.json"
    assert run(["bound", "--config", str(ini), "--out", str(out)]) == 0
    cfg = read_bundle(out)["config"]
    assert cfg["seed"] == 3
    assert cfg["max_iter"] == 70
    assert cfg["scheme"] == "equalized"
    # the optimizer has no starts to set
    stale = tmp_path / "stale.ini"
    stale.write_text("[common]\nstarts = 7\n", encoding="utf-8")
    assert run(["bound", "--config", str(stale)]) == 2
    assert "starts" in capsys.readouterr().err
    # explicit flags win over the file
    out2 = tmp_path / "r2.json"
    assert run(["bound", "--config", str(ini), "--seed", "9",
                "--out", str(out2)]) == 0
    assert read_bundle(out2)["config"]["seed"] == 9


def _cfg_reads(fn):
    """Attributes of ``cfg`` that `fn` reads, following calls that pass
    ``cfg`` on to another function of the cli module."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    reads = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "cfg"):
            reads.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and inspect.isfunction(getattr(cli, node.func.id, None))
              and any(isinstance(a, ast.Name) and a.id == "cfg"
                      for a in node.args)):
            reads |= _cfg_reads(getattr(cli, node.func.id))
    return reads


def test_flags_config_keys_and_run_config_agree(tmp_path):
    # per subcommand, its flags, the keys its config section accepts, its
    # config and what its handler reads are the readers in cli.OPTIONS
    assert all(opt.readers and set(opt.readers) <= set(cli.COMMANDS)
               for opt in cli.OPTIONS.values())
    (subparsers,) = [a for a in cli._build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    ini = tmp_path / "one.ini"
    for command, parser in subparsers.choices.items():
        readers = {name for name, opt in cli.OPTIONS.items()
                   if command in opt.readers}
        dests = {a.dest for a in parser._actions
                 if a.dest not in ("help", "config")}
        keys = set()
        for name in cli.OPTIONS:
            # "1" parses as every option type
            ini.write_text(f"[{command}]\n{name} = 1\n", encoding="utf-8")
            try:
                keys |= set(cli.load_config_file(str(ini), command)[1])
            except cli.ConfigError:
                pass
        cfg = cli.build_run_config(cli._build_parser().parse_args([command]))
        reads = _cfg_reads(cli._HANDLERS[command])
        if command == "bound":
            reads.add("seed")  # accepted and unused; see cli.OPTIONS
        assert dests == keys == set(vars(cfg)) == reads == readers, command


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_unread_option_exits_two(tmp_path, capsys, command):
    # an option the subcommand does not read is an error, not a no-op
    unread = [name for name, opt in cli.OPTIONS.items()
              if command not in opt.readers]
    assert unread
    ini = tmp_path / "unread.ini"
    for name in unread:
        assert run([command, "--" + name.replace("_", "-"), "1"]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        ini.write_text(f"[{command}]\n{name.replace('_', '-')} = 1\n",
                       encoding="utf-8")
        assert run([command, "--config", str(ini)]) == 2
        assert f"{command} does not read" in capsys.readouterr().err


def test_common_key_applies_only_to_its_readers(tmp_path, capsys):
    ini = tmp_path / "common.ini"
    ini.write_text("[common]\nseed = 7\nn = 2\ntol = 1e-8\n"
                   "href = 5\nmax-width = 3\n", encoding="utf-8")
    # strip reads none of seed, n, tol and href, so href = 5 is not range
    # checked for it
    assert run(["strip", "--config", str(ini)]) == 0
    assert len(capsys.readouterr().out.strip().splitlines()) == 4
    # verify reads href, and 5 is outside (0, ln 2)
    assert run(["verify", "--config", str(ini)]) == 2
    assert "href" in capsys.readouterr().err
    out = tmp_path / "reduce.json"
    assert run(["reduce", "--config", str(ini), "--out", str(out)]) == 0
    assert read_bundle(out)["config"] == {"n": 2, "cache_dir": None}


def test_common_value_must_parse_for_every_command(tmp_path, capsys):
    # strip does not read seed, but a malformed value is still an error
    ini = tmp_path / "bad.ini"
    ini.write_text("[common]\nseed = abc\n", encoding="utf-8")
    assert run(["strip", "--config", str(ini)]) == 2
    assert "bad value for config key 'seed'" in capsys.readouterr().err


def test_enumerated_values_rejected(tmp_path, capsys):
    ini = tmp_path / "enum.ini"
    for argv in (["bound", "--lattice", "cubic"],
                 ["bound", "--scheme", "open"],
                 ["sample", "--lattice", "cubic", "--params", "0.2"],
                 ["strip", "--boundary", "open"]):
        assert run(argv) == 2
        assert f"not {argv[2]!r}" in capsys.readouterr().err
        ini.write_text(f"[{argv[0]}]\n{argv[1][2:]} = {argv[2]}\n",
                       encoding="utf-8")
        assert run([argv[0], "--config", str(ini)] + argv[3:]) == 2
        assert f"not {argv[2]!r}" in capsys.readouterr().err


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text("[common]\nsede = 3\n", encoding="utf-8")
    assert run(["bound", "--config", str(ini)]) == 2
    assert "sede" in capsys.readouterr().err


def test_config_file_unknown_section_rejected(tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text("[bonud]\nseed = 3\n", encoding="utf-8")
    assert run(["bound", "--config", str(ini)]) == 2


def test_config_file_default_section_rejected(tmp_path, capsys):
    # configparser would hand [DEFAULT] keys to every section unchecked
    ini = tmp_path / "bad.ini"
    ini.write_text("[DEFAULT]\nseed = 3\nbogus = 1\n", encoding="utf-8")
    assert run(["reduce", "--n", "1", "--config", str(ini)]) == 2
    assert "[DEFAULT]" in capsys.readouterr().err


def test_config_file_missing(tmp_path, capsys):
    assert run(["bound", "--config", str(tmp_path / "absent.ini")]) == 2


def test_config_file_other_command_section_ignored(tmp_path, capsys):
    ini = tmp_path / "run.ini"
    ini.write_text("[strip]\nmax-width = 3\n[sample]\ndims = 32x32\n",
                   encoding="utf-8")
    assert run(["strip", "--config", str(ini)]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert len(rows) == 4  # header + widths 1..3


def test_main_calls_share_no_state(tmp_path, capsys):
    # one parser serves every call in a process; a flag given to one call
    # must not carry over to the next
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    args = ["sample", "--lattice", "square", "--params", "0.2",
            "--dims", "8x8"]
    assert run(args + ["--seed", "5", "--out", str(first)]) == 0
    assert run(args + ["--out", str(second)]) == 0
    assert read_bundle(first)["config"]["seed"] == 5
    assert read_bundle(second)["config"]["seed"] == 0


# ------------------------------------------------------------ exit codes

def test_unknown_flag_exits_two(capsys):
    assert run(["bound", "--no-such-flag"]) == 2
    # the optimizer has one start, and no flag to set more
    assert run(["bound", "--scheme", "closed", "--starts", "8"]) == 2


@pytest.mark.parametrize("argv", [
    ["verify"], ["sample", "--lattice", "square", "--params", "0.2"],
    ["bound", "--lattice", "square"],
])
def test_negative_seed_exits_two(capsys, argv):
    # every reader of --seed rejects it as configuration, before any work
    assert run(argv + ["--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: seed must be non-negative, not -1\n"
    assert captured.out == ""


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0


def _option_values(tmp_path):
    """Per option, a strategy for flag arguments that keep its rule and
    one for arguments that break it or do not parse; every path lies
    under `tmp_path`.  The valid stage probabilities and torus sides suit
    the lattice drawn for --lattice, or some lattice where there is none
    to suit."""
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    lattice = st.shared(st.sampled_from([*LATTICES, "all"]), key="lattice")

    def ints(lo, hi):
        return st.integers(lo, hi).map(str)

    def params(name):
        k = build_lattice(name).partite_count if name in LATTICES else 2
        return st.lists(st.floats(0.0, 1.0).map(repr), min_size=k - 1,
                        max_size=k).map(",".join)

    def side(period):
        # small tori, where windows wrap, as often as the others
        return (st.integers(1, 3) | st.integers(1, 32 // period)).map(
            lambda m: m * period)

    def dims(name):
        px, py = build_lattice(name).period if name in LATTICES else (1, 1)
        return st.tuples(side(px), side(py)).map("{0[0]}x{0[1]}".format)

    valid = {
        "lattice": lattice,
        "scheme": st.sampled_from([*bounds.SCHEMES, "block"]),
        "n": ints(1, 3),
        "seed": ints(0, 2**32),
        "tol": st.floats(1e-12, 1.0).map(repr),
        "max_iter": ints(1, 100),
        "out": st.just(str(tmp_path / "out")),
        "cache_dir": st.just(str(tmp_path / "cache")),
        "href": st.floats(0.01, 0.69).map(repr),
        "params": lattice.flatmap(params),
        "dims": lattice.flatmap(dims),
        "generators": st.lists(ints(1, 3), min_size=1,
                               max_size=3).map(",".join),
        "width": ints(1, 10),
        "max_width": ints(1, 10),
        "boundary": st.sampled_from(["free", "periodic", "both"]),
    }
    broken = {name: st.sampled_from(values) for name, values in {
        "lattice": ["hexagonal", ""],
        "scheme": ["open", "Block"],
        "n": ["0", "5", "2.5", "x"],
        "seed": ["-1", "1e3"],
        "tol": ["0", "-1e-9", "inf", "nan", "x"],
        "max_iter": ["0", "-3", "1.5"],
        "out": [str(tmp_path / "missing" / "out")],
        "cache_dir": [str(blocker / "cache")],
        "href": ["0", "0.7", "nan"],
        "params": ["", "x", "0.2,y", "1.5", "-0.1", "nan",
                   "0.1,0.1,0.1,0.1,0.1"],
        "dims": ["0x4", "8", "8x8x8", "ax8", "-4x8"],
        "generators": ["", "x", "0", "1,-2"],
        "width": ["0", "15", "x"],
        "max_width": ["0", "15"],
        "boundary": ["open", "FREE"],
    }.items()}
    return valid, broken


def _documented_exit_two(command, given):
    """Whether `command` exits 2 on flags that each keep their option's
    rule, by a combination the README documents."""
    def value(name):
        return given.get(name, cli.OPTIONS[name].default)

    if command == "bound":
        scheme, lattice = value("scheme"), value("lattice")
        return ((lattice != "all"
                 and lattice not in cli._SCHEME_LATTICES[scheme])
                or (scheme != "block" and "n" in given))
    if command == "profile":
        return max(map(int, value("generators").split(","))) > int(value("n"))
    if command == "strip":
        return {"width", "max_width"} <= given.keys()
    if command != "sample":
        return False
    if value("lattice") == "all" or "params" not in given:
        return True
    if "dims" not in given:
        return False
    # a torus too small for a stage: its influence window and its target
    # do not land on distinct torus sites
    w, h = map(int, given["dims"].split("x"))
    for stage in range(1, build_lattice(given["lattice"]).partite_count):
        target, window = lattices.influence_window(given["lattice"], stage)
        if len({(x % w, y % h, t) for x, y, t in (target, *window)}) \
                <= len(window):
            return True
    return False


@pytest.mark.parametrize("command", cli.COMMANDS)
@settings(derandomize=True, deadline=None, max_examples=40,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_exit_codes_over_the_option_table(tmp_path, command, data):
    # a command with some of its options, one perhaps breaking its rule,
    # and perhaps a flag it does not read: the exit code keeps the
    # contract, exit 2 says why, and options that all keep their rules
    # exit 2 exactly where the README says they do
    valid, broken = _option_values(tmp_path)
    names = [name for name, opt in cli.OPTIONS.items()
             if command in opt.readers]
    bad = (data.draw(st.sampled_from(names))
           if data.draw(st.integers(0, 2)) == 0 else None)
    # each option in two runs of three, and the broken one in every run
    given = {name: data.draw((broken if name == bad else valid)[name])
             for name in names if name == bad or data.draw(st.integers(0, 2))}
    argv = [command]
    for name, arg in given.items():
        argv += ["--" + name.replace("_", "-"), arg]
    others = [name for name in cli.OPTIONS if name not in names]
    unknown = (data.draw(st.sampled_from(["no_such_flag", *others]))
               if data.draw(st.integers(0, 3)) == 0 else None)
    if unknown:
        argv += ["--" + unknown.replace("_", "-"), "1"]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
    if code == 2:
        assert "error:" in err.getvalue(), argv
    if bad or unknown:
        assert code == 2, argv
    else:
        assert (code == 2) == _documented_exit_two(command, given), argv


# modules no command needs, and the argument of the runs that may load one
UNNEEDED_MODULES = {
    # scipy is a test oracle only
    "scipy": None,
    # the bundles' package version is hardcore_entropy.__version__
    "importlib.metadata": None,
    # INI parsing serves --config alone
    "configparser": "--config",
    # exact rationals serve verify's blocking-constant checks alone
    "fractions": "verify",
}


def _modules_loaded(runs):
    # a fresh interpreter, since the test process itself imports scipy:
    # after the import and after each run, the modules of the table in
    # sys.modules, but for those the table allows the run's arguments
    script = textwrap.dedent("""
        import contextlib, io, json, sys
        from hardcore_entropy import cli

        def loaded(argv):
            return sorted(m for m in sys.modules
                          for name, allowed in %r.items()
                          if (m == name or m.startswith(name + "."))
                          and allowed not in argv)

        seen = {"import": loaded([])}
        for argv in %r:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            seen[" ".join(argv)] = loaded(argv) if code == 0 else f"exit {code}"
        print(json.dumps(seen))
        """ % (UNNEEDED_MODULES, runs))
    # the package under test, wherever it was imported from
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_no_command_loads_unneeded_modules(tmp_path):
    # neither the import nor any command loads a module of the table, but
    # a run whose arguments hold the word the table allows it for; verify
    # runs alone, so that no run after it inherits fractions, and the
    # --config run comes last, so that no run inherits configparser
    ini = tmp_path / "strip.ini"
    ini.write_text("[strip]\nboundary = free\n", encoding="utf-8")
    for runs in ([["verify"]],
                 [["bound", "--scheme", "block", "--n", "2"],
                  ["bound", "--scheme", "closed"],
                  ["bound", "--scheme", "equalized"],
                  ["bound", "--scheme", "three-hex"],
                  ["profile", "--n", "2", "--generators", "1"],
                  ["strip", "--width", "2"],
                  ["strip", "--width", "2", "--config", str(ini)]]):
        seen = _modules_loaded(runs)
        assert len(seen) == 1 + len(runs)
        assert all(mods == [] for mods in seen.values()), seen


def test_unforced_forms_built_on_first_use_once():
    # a fresh interpreter: the import, the block bound, reduce and strip
    # enumerate no influence window; the staged commands build each
    # lattice's U_s forms once, however often they evaluate them
    script = textwrap.dedent("""
        import contextlib, io, json
        from hardcore_entropy import bounds, cli

        built = bounds._unforced_forms.cache_info
        seen = {"import": built().misses}
        for argv in (["bound", "--scheme", "block", "--n", "2"],
                     ["reduce", "--n", "2"], ["strip", "--max-width", "4"],
                     ["bound", "--scheme", "closed"],
                     ["bound", "--scheme", "equalized"], ["verify"]):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            seen[" ".join(argv)] = built().misses if code == 0 else -code
        print(json.dumps([seen, built().hits, built().currsize]))
        """)
    # the package under test, wherever it was imported from
    src = Path(hardcore_entropy.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    seen, hits, size = json.loads(proc.stdout.splitlines()[-1])
    assert list(seen.values()) == [0, 0, 0, 0, 5, 5, 5]
    assert size == 5 and hits > 50


def test_bound_json_deterministic(tmp_path, capsys):
    # every bundle-writing command, bound first
    for argv in (["bound", "--scheme", "closed", "--lattice", "honeycomb"],
                 ["reduce", "--n", "2"],
                 ["verify", "--seed", "3"],
                 ["sample", "--lattice", "honeycomb", "--params", "0.22",
                  "--dims", "24x24", "--seed", "3"]):
        a = tmp_path / f"{argv[0]}-a.json"
        b = tmp_path / f"{argv[0]}-b.json"
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert read_bundle(a) == read_bundle(b)
        # the version of the code that ran, also in a source checkout
        assert read_bundle(a)["versions"]["package"] == \
            hardcore_entropy.__version__
        # the config holds exactly what the command reads; no top-level seed
        assert "seed" not in read_bundle(a)
        assert set(read_bundle(a, drop_out=False)["config"]) == {
            name for name, opt in cli.OPTIONS.items()
            if argv[0] in opt.readers}
