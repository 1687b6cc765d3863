"""Command-line front end.

Six subcommands: ``bound`` runs the optimizers, ``reduce`` manages the
block-family cache, ``verify`` executes the oracle cross-checks,
``profile`` emits occupancy profiles as CSV, ``sample`` draws fill-in
configurations, and ``strip`` tabulates transfer-matrix strip entropies.

Exit codes: 0 all checks pass, 1 numerical failure, 2 bad configuration
or path.  Reports are JSON (schema versioned, deterministic for a fixed
config and seed apart from the timing field); profiles and strip tables
are CSV.  A flat INI config file can preload any flag: values from the
``[common]`` section apply to every command, a section named after the
subcommand applies to it alone, and explicit flags win over both.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import dataclasses
import functools
import json
import math
import os
import sys
import time
from fractions import Fraction

import numpy as np
import scipy

from . import block_bounds, blocks, bounds, optimize, oracles
from .lattices import LATTICES, build_lattice, verify_hard_core

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2

SCHEMA_VERSION = 5

SCHEMES = ("closed", "equalized", "three-hex", "block")

_SCHEME_LATTICES = {
    "closed": tuple(bounds.STAGE_UNFORCED),
    "equalized": tuple(bounds.EQUALIZED_CAPS),
    "three-hex": tuple(bounds.THREE_HEX_SCHEMES),
    "block": ("square",),
}

# sampler torus sizes chosen even, divisible by 3 (triangular stacking)
# and by 8 (tile-based standard errors)
_DEFAULT_SAMPLE_DIMS = {
    "square": (128, 128),
    "honeycomb": (96, 96),
    "triangular": (96, 96),
    "kagome": (96, 96),
    "square_moore": (128, 128),
}

_SAMPLE_Z_LIMIT = 5.0


class ConfigError(Exception):
    """Invalid run configuration; maps to exit code 2."""


@dataclasses.dataclass
class RunConfig:
    """Validated settings for one CLI invocation."""

    command: str
    lattice: str = "all"
    scheme: str = "closed"
    n: int = 3
    seed: int = 0
    tol: float = optimize.TOL
    max_iter: int = optimize.MAX_ITER
    out: str | None = None
    cache_dir: str | None = None
    href: float = oracles.PLANE_ENTROPY
    params: str | None = None
    dims: str | None = None
    generators: str = "1,2,3"
    width: int | None = None
    max_width: int = 12
    boundary: str = "free"

    def validate(self) -> None:
        if self.lattice != "all" and self.lattice not in LATTICES:
            raise ConfigError(f"unknown lattice {self.lattice!r}")
        if self.scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {self.scheme!r}")
        if not 1 <= self.n <= 4:
            raise ConfigError("block size n must be in 1..4")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be positive")
        if not 0 < self.tol < math.inf:
            raise ConfigError("tol must be positive and finite")
        if not 0.0 < self.href < math.log(2.0):
            raise ConfigError("href must lie in (0, ln 2)")
        if self.boundary not in ("free", "periodic", "both"):
            raise ConfigError(f"unknown boundary {self.boundary!r}")
        for name, w in (("width", self.width), ("max-width", self.max_width)):
            if w is not None and not 1 <= w <= oracles.MAX_STRIP_WIDTH:
                raise ConfigError(
                    f"{name} must be in 1..{oracles.MAX_STRIP_WIDTH}")
        if self.command == "bound":
            allowed = _SCHEME_LATTICES[self.scheme]
            if self.lattice != "all" and self.lattice not in allowed:
                raise ConfigError(
                    f"scheme {self.scheme!r} supports lattices "
                    f"{', '.join(allowed)}")


_CONFIG_PARSERS = {
    "lattice": str, "scheme": str, "n": int, "seed": int, "tol": float,
    "max_iter": int, "out": str, "cache_dir": str,
    "href": float, "params": str, "dims": str, "generators": str,
    "width": int, "max_width": int, "boundary": str,
}

COMMANDS = ("bound", "reduce", "verify", "profile", "sample", "strip")


def load_config_file(path: str, command: str) -> dict:
    """Read an INI config file; returns {field: parsed value}.

    Unknown keys and unknown sections are rejected rather than ignored so
    that a typo cannot silently fall back to a default.
    """
    parser = configparser.ConfigParser()
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"malformed config file: {exc}") from exc
    for section in parser.sections():
        if section != "common" and section not in COMMANDS:
            raise ConfigError(f"unknown config section [{section}]")
    # configparser would merge [DEFAULT] into every section unseen
    if parser.defaults():
        raise ConfigError(f"unknown config section [{parser.default_section}]")
    values = {}
    for section in ("common", command):
        if not parser.has_section(section):
            continue
        for key, raw in parser.items(section):
            name = key.replace("-", "_")
            if name not in _CONFIG_PARSERS:
                raise ConfigError(f"unknown config key {key!r} in [{section}]")
            try:
                values[name] = _CONFIG_PARSERS[name](raw)
            except ValueError:
                raise ConfigError(
                    f"bad value for config key {key!r}: {raw!r}") from None
    return values


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hce",
        description="entropy lower bounds for the hard-core model "
                    "on two-dimensional lattices")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="INI config file; flags win")
        p.add_argument("--seed", type=int,
                       help="random seed of verify and sample")
        p.add_argument("--tol", type=float,
                       help="log-space stationarity that stops the optimizer "
                            f"and defines converged (default {optimize.TOL:g})")
        p.add_argument("--max-iter", type=int, dest="max_iter",
                       help="L-BFGS steps, or iterations of the block scheme")
        p.add_argument("--out", help="write the JSON or CSV payload here")
        p.add_argument("--cache-dir", dest="cache_dir",
                       help="block-family cache (default: $HC_CACHE_DIR)")

    p = sub.add_parser("bound", help="optimize an entropy lower bound")
    common(p)
    p.add_argument("--lattice", choices=LATTICES + ("all",))
    p.add_argument("--scheme", choices=SCHEMES)
    p.add_argument("--n", type=int, help="block side for --scheme block")

    p = sub.add_parser("reduce", help="build or load a block family")
    common(p)
    p.add_argument("--n", type=int)

    p = sub.add_parser("verify", help="run the oracle cross-checks")
    common(p)
    p.add_argument("--href", type=float,
                   help="reference entropy for the density interval")

    p = sub.add_parser("profile", help="occupancy profiles as CSV")
    common(p)
    p.add_argument("--n", type=int, help="window side")
    p.add_argument("--generators",
                   help="comma list of generator block sides, e.g. 1,2,3")

    p = sub.add_parser("sample", help="draw one fill-in configuration")
    common(p)
    p.add_argument("--lattice", choices=LATTICES)
    p.add_argument("--params", help="comma list of stage probabilities")
    p.add_argument("--dims", help="torus dimensions, e.g. 128x128")

    p = sub.add_parser("strip", help="strip entropies as CSV")
    common(p)
    p.add_argument("--width", type=int, help="single strip width")
    p.add_argument("--max-width", type=int, dest="max_width",
                   help="tabulate widths 1..max")
    p.add_argument("--boundary", choices=("free", "periodic", "both"))

    return parser


def build_run_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file, environment and flags (flags win)."""
    values = {}
    if getattr(args, "config", None):
        values.update(load_config_file(args.config, args.command))
    for key, val in vars(args).items():
        if key in ("command", "config") or val is None:
            continue
        values[key] = val
    if values.get("cache_dir") is None and os.environ.get("HC_CACHE_DIR"):
        values["cache_dir"] = os.environ["HC_CACHE_DIR"]
    cfg = RunConfig(command=args.command, **values)
    cfg.validate()
    return cfg


# ------------------------------------------------------------ reporting

def _versions() -> dict:
    from importlib import metadata

    try:
        pkg = metadata.version("hardcore-entropy")
    except metadata.PackageNotFoundError:
        pkg = "unknown"
    return {"package": pkg, "cache_format": blocks.CACHE_VERSION,
            "numpy": np.__version__, "scipy": scipy.__version__}


def _write_bundle(cfg: RunConfig, reports: list, started: float,
                  extra: dict | None = None) -> dict:
    bundle = {
        "schema_version": SCHEMA_VERSION,
        "command": cfg.command,
        "seed": cfg.seed,
        "config": dataclasses.asdict(cfg),
        "versions": _versions(),
        "reports": reports,
    }
    if extra:
        bundle.update(extra)
    bundle["timing_seconds"] = round(time.perf_counter() - started, 6)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as fh:
            json.dump(bundle, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return bundle


def _write_csv(out: str | None, header: list, rows: list) -> None:
    if out:
        with open(out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(rows)


def _print_bound_table(reports) -> None:
    print(f"{'lattice':<13} {'scheme':<10} {'n':>2} {'value_nats':>11} "
          f" densities")
    for rep in reports:
        dens = ", ".join(f"{d:.4f}" for d in rep.densities)
        n = "-" if rep.n is None else str(rep.n)
        print(f"{rep.lattice:<13} {rep.scheme:<10} {n:>2} "
              f"{rep.value:>11.6f}  {dens}")


# ------------------------------------------------------------- commands

def cmd_bound(cfg: RunConfig) -> int:
    started = time.perf_counter()
    if cfg.lattice == "all":
        targets = _SCHEME_LATTICES[cfg.scheme]
    else:
        targets = (cfg.lattice,)
    reports = []
    settings = {"tol": cfg.tol, "max_iter": cfg.max_iter}
    for lat in targets:
        if cfg.scheme == "closed":
            rep = bounds.optimize_closed_form(lat, **settings)
        elif cfg.scheme == "equalized":
            rep = bounds.optimize_equalized(lat, **settings)
        elif cfg.scheme == "three-hex":
            rep = bounds.optimize_three_hex(lat, **settings)
        else:
            family = blocks.load_or_build_family(cfg.n, True, cfg.cache_dir)
            _, rep = block_bounds.optimize_block_bound(
                family, tol=cfg.tol, max_iter=cfg.max_iter)
        reports.append(rep)
    _print_bound_table(reports)
    _write_bundle(cfg, [r.as_dict() for r in reports], started)
    if any(not r.meta.get("converged", True) for r in reports):
        print("optimizer did not converge", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_reduce(cfg: RunConfig) -> int:
    started = time.perf_counter()
    weak = blocks.load_or_build_family(cfg.n, True, cfg.cache_dir)
    d4 = blocks.load_or_build_family(cfg.n, False, cfg.cache_dir)
    total = 1 << (cfg.n * cfg.n)
    print(f"n={cfg.n}: {total} masks")
    print(f"  dihedral classes:  {d4.class_count} "
          f"({d4.free_variables} free)")
    print(f"  weak-site classes: {weak.class_count} "
          f"({weak.free_variables} free)")
    if cfg.cache_dir:
        print(f"  cache: {cfg.cache_dir}")
    report = {"n": cfg.n, "masks": total,
              "d4_classes": d4.class_count, "d4_free": d4.free_variables,
              "weak_classes": weak.class_count,
              "weak_free": weak.free_variables}
    _write_bundle(cfg, [report], started)
    return EXIT_OK


def _verify_checks(cfg: RunConfig) -> list[tuple[str, bool, str]]:
    checks = []

    value = oracles.entropy_1d()
    golden = math.log((1.0 + math.sqrt(5.0)) / 2.0)
    checks.append(("one_dimensional_entropy",
                   abs(value - golden) <= 1e-12,
                   f"{value:.14f}, log golden ratio {golden:.14f}"))

    w2 = oracles.strip_entropy(2)
    ref2 = 0.5 * math.log(1.0 + math.sqrt(2.0))
    checks.append(("strip_width_2_closed_form",
                   abs(w2 - ref2) <= 1e-12, f"{w2:.14f}"))

    ref = oracles.PLANE_ENTROPY
    w12 = oracles.strip_entropy(12, boundary="periodic")
    checks.append(("strip_width_12_periodic_vs_reference",
                   abs(w12 - ref) <= 3e-3,
                   f"{w12:.7f} vs {ref:.4f}"))

    c_lo = oracles.blocking_constant_lower()
    checks.append(("blocking_constant_lower_exact",
                   c_lo == Fraction(15, 8), f"{c_lo} = {float(c_lo):.4f}"))

    rho_hi = oracles.density_upper_from_blocking()
    checks.append(("density_upper_exact",
                   rho_hi == Fraction(8, 31), str(rho_hi)))

    c_max, rho_min = oracles.blocking_constant_upper(cfg.href)
    checks.append(("density_interval_nonempty",
                   rho_min < float(rho_hi),
                   f"({rho_min:.5f}, {float(rho_hi):.5f}) "
                   f"at c_max={c_max:.4f}, href={cfg.href}"))

    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    for lattice in LATTICES:
        arity = build_lattice(lattice).partite_count - 1
        for _ in range(2):
            params = tuple(rng.uniform(0.05, 0.45, size=max(arity, 1)))
            analytic = bounds.stage_unforced(lattice, params)
            for stage in range(1, len(analytic)):
                exhaustive = oracles.window_probability_exhaustive(
                    lattice, params, stage)
                worst = max(worst, abs(exhaustive - analytic[stage]))
    checks.append(("window_probabilities_vs_closed_forms",
                   worst <= 1e-12, f"max |diff| = {worst:.2e}"))

    expected = {1: (2, 2), 2: (6, 6), 3: (102, 47)}
    census_ok, details = True, []
    for n, (n_d4, n_weak) in expected.items():
        d4 = blocks.reduce_family(n, use_weak=False)
        weak = blocks.reduce_family(n, use_weak=True)
        census_ok &= (d4.class_count == n_d4 and weak.class_count == n_weak)
        details.append(f"n={n}: {d4.class_count}/{weak.class_count}")
    checks.append(("block_family_census", census_ok, ", ".join(details)))

    fam1 = blocks.reduce_family(1)
    worst = 0.0
    for p in (0.05, 0.15, 0.1702, 0.25, 0.45):
        dist = block_bounds.BlockDistribution(fam1, np.array([1.0 - p, p]))
        worst = max(worst, abs(block_bounds.bound_value(dist)
                               - bounds.staged_bound("square", (p,)).value))
    checks.append(("unit_block_equals_closed_form",
                   worst <= 1e-12, f"max |diff| = {worst:.2e}"))

    config, stats = oracles.fill_in_sample(
        "square", (0.1702,), (64, 64), cfg.seed)
    z_max = 0.0
    for st in stats:
        for row in st.rows():
            if row["stderr"] > 0:
                z_max = max(z_max, abs(row["empirical"] - row["analytic"])
                            / row["stderr"])
    sample_ok = verify_hard_core(config) and z_max <= _SAMPLE_Z_LIMIT
    checks.append(("sampler_consistency",
                   sample_ok, f"max |z| = {z_max:.2f} on a 64x64 torus"))

    return checks


def cmd_verify(cfg: RunConfig) -> int:
    started = time.perf_counter()
    checks = _verify_checks(cfg)
    for name, ok, detail in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    failed = sum(not ok for _, ok, _ in checks)
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    reports = [{"check": name, "passed": ok, "detail": detail}
               for name, ok, detail in checks]
    _write_bundle(cfg, reports, started)
    return EXIT_OK if failed == 0 else EXIT_NUMERICAL


def _parse_generators(raw: str) -> list[int]:
    try:
        sizes = [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"bad generator list {raw!r}") from None
    if not sizes:
        raise ConfigError("empty generator list")
    return sizes


def cmd_profile(cfg: RunConfig) -> int:
    sizes = _parse_generators(cfg.generators)
    if any(not 1 <= g <= cfg.n for g in sizes):
        raise ConfigError(f"generator sides must lie in 1..{cfg.n}")

    generators = {}
    for g in sorted(set(sizes)):
        family = blocks.load_or_build_family(g, True, cfg.cache_dir)
        if g == 1:
            # flat reference: the density-equalized single-site scheme,
            # comparable with the block optima whose densities agree
            generators[g] = block_bounds.equalized_unit_generator(
                family, tol=cfg.tol, max_iter=cfg.max_iter)
        else:
            generators[g], _ = block_bounds.optimize_block_bound(
                family, tol=cfg.tol, max_iter=cfg.max_iter)
    profiles = {g: block_bounds.density_profile(cfg.n, generators[g])
                for g in sorted(set(sizes))}

    rows = [(k, f"{p:.7f}", g)
            for g in sorted(set(sizes))
            for k, p in enumerate(profiles[g].occupancy_probs)]
    _write_csv(cfg.out, ["k", "probability", "generator"], rows)

    cells = cfg.n * cfg.n
    note = sys.stderr
    densities = {}
    for g, prof in sorted(profiles.items()):
        densities[g] = prof.mean() / cells
        print(f"# generator {g}: mean {prof.mean():.5f} "
              f"(density {densities[g]:.5f}), variance {prof.variance():.5f}",
              file=note)
    spread = max(densities.values()) - min(densities.values())
    print(f"# flatness: max density spread {spread:.5f}", file=note)
    order = sorted(profiles, key=lambda g: profiles[g].variance())
    print("# variance order: "
          + " < ".join(str(g) for g in order), file=note)
    if len(profiles) >= 2:
        small, big = min(profiles), max(profiles)
        diff = (np.asarray(profiles[big].occupancy_probs)
                - np.asarray(profiles[small].occupancy_probs))
        crossing = None
        for k in range(len(diff) - 1):
            if diff[k] < 0.0 <= diff[k + 1]:
                frac = abs(diff[k]) / (abs(diff[k]) + abs(diff[k + 1]))
                crossing = (k, k + 1, k + frac)
        if crossing:
            print(f"# crossing of generators {big} and {small}: between "
                  f"k={crossing[0]} and k={crossing[1]} "
                  f"(interpolated {crossing[2]:.2f})", file=note)
        else:
            print(f"# no upward crossing of generators {big} and {small}",
                  file=note)
    return EXIT_OK


def _parse_params(raw: str | None) -> tuple[float, ...]:
    if not raw:
        raise ConfigError("sample needs --params, e.g. --params 0.17,0.25")
    try:
        return tuple(float(tok) for tok in raw.split(",") if tok.strip())
    except ValueError:
        raise ConfigError(f"bad probability list {raw!r}") from None


def _parse_dims(raw: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(tok) for tok in raw.lower().split("x"))
    except ValueError:
        raise ConfigError(f"bad dimensions {raw!r}") from None
    if len(dims) != 2:
        raise ConfigError("dims must look like WIDTHxHEIGHT")
    return dims


def cmd_sample(cfg: RunConfig) -> int:
    started = time.perf_counter()
    if cfg.lattice == "all":
        raise ConfigError("sample needs one --lattice")
    params = _parse_params(cfg.params)
    dims = (_parse_dims(cfg.dims) if cfg.dims
            else _DEFAULT_SAMPLE_DIMS[cfg.lattice])
    try:
        config, stats = oracles.fill_in_sample(cfg.lattice, params, dims,
                                               cfg.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    valid = verify_hard_core(config)
    print(f"{cfg.lattice} torus {dims[0]}x{dims[1]}, seed {cfg.seed}, "
          f"hard-core constraint {'satisfied' if valid else 'VIOLATED'}")
    print(f"{'stage':<10} {'metric':<9} {'p':>7} {'analytic':>10} "
          f"{'empirical':>10} {'stderr':>9} {'z':>6}")
    z_max = 0.0
    rows = []
    for st in stats:
        for row in st.rows():
            z = ((row["empirical"] - row["analytic"]) / row["stderr"]
                 if row["stderr"] > 0 else 0.0)
            z_max = max(z_max, abs(z))
            rows.append(row)
            print(f"{row['stage']:<10} {row['metric']:<9} "
                  f"{row['probability']:>7.4f} {row['analytic']:>10.6f} "
                  f"{row['empirical']:>10.6f} {row['stderr']:>9.6f} "
                  f"{z:>6.2f}")
    _write_bundle(cfg, rows, started,
                  extra={"hard_core_valid": valid,
                         "dims": list(dims), "stage_probabilities":
                         [st.probability for st in stats]})
    if not valid or z_max > _SAMPLE_Z_LIMIT:
        print(f"sampler statistics outside {_SAMPLE_Z_LIMIT} standard errors",
              file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_strip(cfg: RunConfig) -> int:
    widths = ([cfg.width] if cfg.width is not None
              else list(range(1, cfg.max_width + 1)))
    boundaries = (("free", "periodic") if cfg.boundary == "both"
                  else (cfg.boundary,))
    rows = [(w, b, f"{oracles.strip_entropy(w, boundary=b):.12f}")
            for w in widths for b in boundaries]
    _write_csv(cfg.out, ["width", "boundary", "entropy"], rows)
    return EXIT_OK


_HANDLERS = {
    "bound": cmd_bound,
    "reduce": cmd_reduce,
    "verify": cmd_verify,
    "profile": cmd_profile,
    "sample": cmd_sample,
    "strip": cmd_strip,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad flags and 0 on --help, matching the
        # exit-code contract; normalize to a return value for callers
        return int(exc.code or 0)
    try:
        cfg = build_run_config(args)
        return _HANDLERS[cfg.command](cfg)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        # configuration problems arrive as ConfigError; anything else is
        # a numerical failure such as a non-finite objective
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
