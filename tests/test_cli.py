"""End-to-end tests of the command-line front end (in-process)."""
import argparse
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hardcore_entropy import block_bounds, bounds, cli, oracles


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
    assert bundle["schema_version"] == 5
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


def test_bound_scheme_lattice_mismatch(capsys):
    assert run(["bound", "--scheme", "equalized", "--lattice",
                "triangular"]) == 2
    assert run(["bound", "--scheme", "three-hex", "--lattice",
                "square"]) == 2


def test_bound_non_finite_objective_exits_one(monkeypatch, capsys):
    # a numerical failure, not a configuration error
    monkeypatch.setattr(bounds, "_staged_value",
                        lambda lattice, probs: probs[0] * math.nan)
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
    assert files == ["blocks_n2_d4_v1.npz", "blocks_n2_weak_v1.npz"]
    assert run(["reduce", "--n", "2", "--cache-dir", str(cache),
                "--out", str(warm)]) == 0
    assert read_bundle(cold) == read_bundle(warm)


def test_reduce_corrupt_cache_rebuilds(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert run(["reduce", "--n", "2", "--cache-dir", str(cache)]) == 0
    victim = cache / "blocks_n2_weak_v1.npz"
    victim.write_bytes(b"not a cache file")
    with pytest.warns(UserWarning, match="rebuilding"):
        assert run(["reduce", "--n", "2", "--cache-dir", str(cache)]) == 0
    assert "6 (5 free)" in capsys.readouterr().out


def test_reduce_unusable_cache_dir_exits_two(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("", encoding="utf-8")
    assert run(["reduce", "--n", "2", "--cache-dir",
                str(blocker / "sub")]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cache_dir_from_environment(tmp_path, monkeypatch, capsys):
    cache = tmp_path / "envcache"
    monkeypatch.setenv("HC_CACHE_DIR", str(cache))
    assert run(["reduce", "--n", "1"]) == 0
    assert (cache / "blocks_n1_weak_v1.npz").exists()


def test_warm_cache_transparent_for_bound(tmp_path, capsys):
    cache = tmp_path / "cache"
    cold = tmp_path / "cold.json"
    warm = tmp_path / "warm.json"
    args = ["bound", "--scheme", "block", "--n", "2",
            "--cache-dir", str(cache)]
    assert run(args + ["--out", str(cold)]) == 0
    assert run(args + ["--out", str(warm)]) == 0
    assert read_bundle(cold)["reports"] == read_bundle(warm)["reports"]


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


def test_verify_href_can_empty_the_interval(capsys):
    # a reference entropy of 0.55 nats pushes the density lower limit
    # above 8/31, so the interval check must fail honestly
    assert run(["verify", "--href", "0.55"]) == 1
    text = capsys.readouterr().out
    assert "[FAIL] density_interval_nonempty" in text


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
    real = bounds.optimize_equalized

    def recording(lattice, **kwargs):
        seen.append(kwargs)
        return real(lattice, **kwargs)

    monkeypatch.setattr(block_bounds, "optimize_equalized", recording)
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
    assert run(["sample", "--lattice", "triangular", "--params",
                "0.1,0.2", "--dims", "64x64"]) == 2  # needs %3 == 0


def test_sample_deterministic_per_seed(tmp_path):
    a, b, c = (tmp_path / name for name in ("a.json", "b.json", "c.json"))
    args = ["sample", "--lattice", "kagome", "--params", "0.19,0.30",
            "--dims", "32x32"]
    assert run(args + ["--seed", "5", "--out", str(a)]) == 0
    assert run(args + ["--seed", "5", "--out", str(b)]) == 0
    assert run(args + ["--seed", "6", "--out", str(c)]) == 0
    assert read_bundle(a) == read_bundle(b)
    assert read_bundle(a)["reports"] != read_bundle(c)["reports"]


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


def test_flags_config_keys_and_run_config_agree():
    # a setting lives in three places: RunConfig, the config-file parsers
    # and the subcommands' flags; none may keep one the others dropped
    fields = {f.name for f in dataclasses.fields(cli.RunConfig)} - {"command"}
    (subparsers,) = [a for a in cli._build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    dests = {a.dest for p in subparsers.choices.values() for a in p._actions
             if a.dest not in ("help", "config")}
    assert fields == set(cli._CONFIG_PARSERS) == dests


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
    assert run(["reduce", "--n", "1", "--seed", "5",
                "--out", str(first)]) == 0
    assert run(["reduce", "--n", "1", "--out", str(second)]) == 0
    assert read_bundle(first)["seed"] == 5
    assert read_bundle(second)["seed"] == 0


# ------------------------------------------------------------ exit codes

def test_unknown_flag_exits_two(capsys):
    assert run(["bound", "--no-such-flag"]) == 2
    # the optimizer has one start, and no flag to set more
    assert run(["bound", "--scheme", "closed", "--starts", "8"]) == 2


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0


def test_import_does_not_load_scipy_stats():
    # a fresh interpreter: the test process itself may import scipy.stats
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", "import hardcore_entropy.cli, sys; "
         "sys.exit('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()


def test_bound_json_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["bound", "--scheme", "closed", "--lattice", "honeycomb"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert read_bundle(a) == read_bundle(b)
