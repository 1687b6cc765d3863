"""Command-line front end.

Six subcommands: ``bound`` runs the optimizers, ``reduce`` manages the
block-family cache, ``verify`` executes the oracle cross-checks,
``profile`` emits occupancy profiles as CSV, ``sample`` draws fill-in
configurations, and ``strip`` tabulates transfer-matrix strip entropies.

Exit codes: 0 all checks pass, 1 numerical failure, 2 bad configuration
or path.  Reports are JSON (schema versioned, deterministic for a fixed
config apart from the timing field); profiles and strip tables are CSV.

``OPTIONS`` gives each setting's type, default, help, valid values and
the subcommands that read it.  A subcommand's flags, its config-file keys
and its config (a namespace of exactly the options it reads) come from
that table, so an option it does not read exits 2.  A flat INI config
file can preload flags: a section named after the subcommand applies to
it alone, ``[common]`` values apply to the subcommands that read them,
and explicit flags win over both.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

from . import (__version__, block_bounds, blocks, bounds, lattices, optimize,
               oracles)
from .lattices import LATTICES, build_lattice, verify_hard_core

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_CONFIG = 2

SCHEMA_VERSION = 8

_SCHEME_LATTICES = {**bounds.SCHEMES, "block": ("square",)}

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

COMMANDS = {
    "bound": "optimize an entropy lower bound",
    "reduce": "build or load a block family",
    "verify": "run the oracle cross-checks",
    "profile": "occupancy profiles as CSV",
    "sample": "draw one fill-in configuration",
    "strip": "strip entropies as CSV",
}


class ConfigError(Exception):
    """Invalid run configuration; maps to exit code 2."""


class Option(NamedTuple):
    """One setting: a flag ``--name`` and a config key ``name``."""

    type: type
    default: object
    readers: tuple[str, ...]
    help: str
    valid: Callable[[object], bool] | None = None
    rule: str = ""


def _one_of(*values: str) -> tuple:
    return (lambda v: v in values), "one of " + ", ".join(values)


_WIDTHS = ((lambda w: 1 <= w <= oracles.MAX_STRIP_WIDTH),
           f"in 1..{oracles.MAX_STRIP_WIDTH}")


OPTIONS = {
    "lattice": Option(str, "all", ("bound", "sample"),
                      "lattice; all (bound only) runs every lattice of "
                      "the scheme", *_one_of(*LATTICES, "all")),
    "scheme": Option(str, "closed", ("bound",), "fill-in scheme",
                     *_one_of(*_SCHEME_LATTICES)),
    "n": Option(int, 3, ("bound", "reduce", "profile"),
                "block side (bound --scheme block, reduce) or window side "
                "(profile)", lambda n: 1 <= n <= blocks.MAX_N,
                f"in 1..{blocks.MAX_N}"),
    # bound draws nothing; it accepts --seed only because the benchmark
    # workloads in perfbench/workloads.py pass it (ROADMAP direction 1)
    "seed": Option(int, 0, ("bound", "verify", "sample"), "random seed",
                   lambda s: s >= 0, "non-negative"),
    "tol": Option(float, optimize.TOL, ("bound", "profile"),
                  "log-space stationarity that stops the optimizer and "
                  "defines converged", lambda t: 0 < t < math.inf,
                  "positive and finite"),
    "max_iter": Option(int, optimize.MAX_ITER, ("bound", "profile"),
                       "BFGS steps, or iterations of the block scheme",
                       lambda m: m >= 1, "positive"),
    "out": Option(str, None, tuple(COMMANDS),
                  "write the JSON or CSV payload here"),
    # reduce keeps the cache only because the benchmark workload in
    # perfbench/workloads.py passes it (ROADMAP direction 1, then 3)
    "cache_dir": Option(str, None, ("reduce",), "block-family cache"),
    "href": Option(float, oracles.PLANE_ENTROPY, ("verify",),
                   "reference entropy for the density interval",
                   lambda h: 0.0 < h < math.log(2.0), "in (0, ln 2)"),
    "params": Option(str, None, ("sample",),
                     "comma list of stage probabilities"),
    "dims": Option(str, None, ("sample",),
                   "torus dimensions, e.g. 128x128"),
    "generators": Option(str, "1,2,3", ("profile",),
                         "comma list of generator block sides"),
    "width": Option(int, None, ("strip",), "single strip width",
                    *_WIDTHS),
    "max_width": Option(int, 12, ("strip",), "tabulate widths 1..max",
                        *_WIDTHS),
    "boundary": Option(str, "free", ("strip",), "strip boundary",
                       *_one_of("free", "periodic", "both")),
}


def load_config_file(path: str, command: str) -> tuple[dict, dict]:
    """Read an INI config file; returns {option: parsed value} for the
    options ``command`` reads, from ``[common]`` and from its own section.

    Unknown keys and sections, and keys in the command's own section that
    it does not read, are rejected rather than ignored so that a typo
    cannot silently fall back to a default.
    """
    import configparser  # loaded only when --config is given

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
    values = {"common": {}, command: {}}
    for section in values:
        if not parser.has_section(section):
            continue
        for key, raw in parser.items(section):
            name = key.replace("-", "_")
            opt = OPTIONS.get(name)
            if opt is None:
                raise ConfigError(f"unknown config key {key!r} in [{section}]")
            reads = command in opt.readers
            if section == command and not reads:
                raise ConfigError(f"{command} does not read config key "
                                  f"{key!r}")
            try:
                value = opt.type(raw)
            except ValueError:
                raise ConfigError(
                    f"bad value for config key {key!r}: {raw!r}") from None
            if reads:
                values[section][name] = value
    return values["common"], values[command]


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hce",
        description="entropy lower bounds for the hard-core model "
                    "on two-dimensional lattices")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, text in COMMANDS.items():
        # a flag left out is absent from the namespace, not None
        p = sub.add_parser(command, help=text,
                           argument_default=argparse.SUPPRESS)
        p.add_argument("--config", help="INI config file; flags win")
        for name, opt in OPTIONS.items():
            if command in opt.readers:
                default = ("" if opt.default is None
                           else f" (default {opt.default})")
                rule = f"; {opt.rule}" if opt.rule else ""
                p.add_argument("--" + name.replace("_", "-"), type=opt.type,
                               help=opt.help + rule + default)
    return parser


def build_run_config(args: argparse.Namespace) -> argparse.Namespace:
    """Merge defaults, config file and flags (flags win) into a namespace
    of exactly the options ``args.command`` reads."""
    flags = dict(vars(args))
    command, path = flags.pop("command"), flags.pop("config", None)
    common, own = load_config_file(path, command) if path else ({}, {})
    explicit = {**own, **flags}
    given = {**common, **explicit}
    if "width" in given and "max_width" in given:
        raise ConfigError("give --width or --max-width, not both")
    for name, value in given.items():
        opt = OPTIONS[name]
        if opt.valid and not opt.valid(value):
            raise ConfigError(f"{name.replace('_', '-')} must be "
                              f"{opt.rule}, not {value!r}")
    # of bound's options only the block scheme reads n; a [common] key
    # stays a silent default for the others
    scheme = given.get("scheme", OPTIONS["scheme"].default)
    if command == "bound" and scheme != "block" and "n" in explicit:
        raise ConfigError(f"bound --scheme {scheme} does not read n")
    return argparse.Namespace(**{
        name: given.get(name, opt.default) for name, opt in OPTIONS.items()
        if command in opt.readers})


# ------------------------------------------------------------ reporting

def _write_bundle(command: str, cfg: argparse.Namespace, reports: list,
                  started: float, extra: dict | None = None) -> dict:
    bundle = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": vars(cfg),
        "versions": {"package": __version__,
                     "cache_format": blocks.CACHE_VERSION,
                     "numpy": np.__version__},
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
            csv.writer(fh).writerows([header, *rows])
    else:
        csv.writer(sys.stdout).writerows([header, *rows])


def _print_bound_table(reports) -> None:
    print(f"{'lattice':<13} {'scheme':<10} {'n':>2} {'value_nats':>11} "
          f" densities")
    for rep in reports:
        dens = ", ".join(f"{d:.4f}" for d in rep.densities)
        n = "-" if rep.n is None else str(rep.n)
        print(f"{rep.lattice:<13} {rep.scheme:<10} {n:>2} "
              f"{rep.value:>11.6f}  {dens}")


def _convergence_exit(reports) -> int:
    """EXIT_NUMERICAL, with a message, if any solve did not converge."""
    if all(r.meta["converged"] for r in reports):
        return EXIT_OK
    print("optimizer did not converge", file=sys.stderr)
    return EXIT_NUMERICAL


# ------------------------------------------------------------- commands

def cmd_bound(cfg: argparse.Namespace) -> int:
    started = time.perf_counter()
    allowed = _SCHEME_LATTICES[cfg.scheme]
    if cfg.lattice != "all" and cfg.lattice not in allowed:
        raise ConfigError(f"scheme {cfg.scheme!r} supports lattices "
                          f"{', '.join(allowed)}")
    targets = allowed if cfg.lattice == "all" else (cfg.lattice,)
    if cfg.scheme == "block":
        _, rep = block_bounds.optimize_block_bound(
            blocks.reduce_family(cfg.n), tol=cfg.tol, max_iter=cfg.max_iter)
        reports = [rep]
    else:
        reports = [bounds.optimize_bound(cfg.scheme, lat, tol=cfg.tol,
                                         max_iter=cfg.max_iter)
                   for lat in targets]
    _print_bound_table(reports)
    _write_bundle("bound", cfg, [r.as_dict() for r in reports], started)
    return _convergence_exit(reports)


def cmd_reduce(cfg: argparse.Namespace) -> int:
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
    _write_bundle("reduce", cfg, [report], started)
    return EXIT_OK


def _max_diff(worst: float) -> str:
    """As its 1e-12 tolerance while it passes: no arithmetic order moves it."""
    return "max |diff| " + ("<= 1e-12" if worst <= 1e-12 else f"= {worst:.2e}")


def _z(row: dict) -> float:
    """A sampler row's empirical minus analytic value in standard errors,
    0 where the standard error is 0."""
    return ((row["empirical"] - row["analytic"]) / row["stderr"]
            if row["stderr"] > 0 else 0.0)


def _verify_checks(cfg: argparse.Namespace) -> list[tuple[str, bool, str]]:
    checks = []

    value = oracles.strip_entropy("square", 1)
    golden = math.log((1.0 + math.sqrt(5.0)) / 2.0)
    checks.append(("one_dimensional_entropy",
                   abs(value - golden) <= 1e-12,
                   f"{value:.12f}, log golden ratio {golden:.12f}"))

    w2 = oracles.strip_entropy("square", 2)
    ref2 = 0.5 * math.log(1.0 + math.sqrt(2.0))
    checks.append(("strip_width_2_closed_form",
                   abs(w2 - ref2) <= 1e-12, f"{w2:.12f}"))

    ref = oracles.PLANE_ENTROPY
    w12 = oracles.strip_entropy("square", 12, boundary="periodic")
    checks.append(("strip_width_12_periodic_vs_reference",
                   abs(w12 - ref) <= 3e-3,
                   f"{w12:.7f} vs {ref:.4f}"))

    c_lo = oracles.blocking_constant_lower()
    checks.append(("blocking_constant_lower_exact",
                   c_lo.as_integer_ratio() == (15, 8),
                   f"{c_lo} = {float(c_lo):.4f}"))

    rho_hi = oracles.density_upper_from_blocking()
    checks.append(("density_upper_exact",
                   rho_hi.as_integer_ratio() == (8, 31), str(rho_hi)))

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
                   worst <= 1e-12, _max_diff(worst)))

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
                   worst <= 1e-12, _max_diff(worst)))

    config, rows = oracles.fill_in_sample(
        "square", (0.1702,), (64, 64), cfg.seed)
    z_max = max(abs(_z(row)) for row in rows)
    sample_ok = verify_hard_core(config) and z_max <= _SAMPLE_Z_LIMIT
    checks.append(("sampler_consistency",
                   sample_ok, f"max |z| = {z_max:.2f} on a 64x64 torus"))

    return checks


def cmd_verify(cfg: argparse.Namespace) -> int:
    started = time.perf_counter()
    checks = _verify_checks(cfg)
    for name, ok, detail in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    failed = sum(not ok for _, ok, _ in checks)
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    reports = [{"check": name, "passed": ok, "detail": detail}
               for name, ok, detail in checks]
    _write_bundle("verify", cfg, reports, started)
    return EXIT_OK if failed == 0 else EXIT_NUMERICAL


def _parse_list(name: str, raw: str, kind: type, sep: str = ",") -> tuple:
    """Option `name`'s value `raw` as a tuple of `kind`, split at `sep`."""
    try:
        return tuple(kind(tok) for tok in raw.lower().split(sep))
    except ValueError:
        raise ConfigError(f"--{name} must be {kind.__name__}s separated by "
                          f"{sep!r}, not {raw!r}") from None


def cmd_profile(cfg: argparse.Namespace) -> int:
    sizes = _parse_list("generators", cfg.generators, int)
    if any(not 1 <= g <= cfg.n for g in sizes):
        raise ConfigError(f"generator sides must lie in 1..{cfg.n}")

    profiles, reports = {}, []
    for g in sorted(set(sizes)):
        if g == 1:
            # flat reference: the density-equalized single-site scheme,
            # comparable with the block optima whose densities agree
            dist, rep = block_bounds.equalized_unit_generator(
                tol=cfg.tol, max_iter=cfg.max_iter)
        else:
            dist, rep = block_bounds.optimize_block_bound(
                blocks.reduce_family(g), tol=cfg.tol, max_iter=cfg.max_iter)
        profiles[g] = block_bounds.density_profile(cfg.n, dist)
        reports.append(rep)

    rows = [(k, f"{p:.7f}", g) for g, prof in profiles.items()
            for k, p in enumerate(prof.occupancy_probs)]
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
    return _convergence_exit(reports)


def cmd_sample(cfg: argparse.Namespace) -> int:
    started = time.perf_counter()
    if cfg.lattice == "all":
        raise ConfigError("sample needs one --lattice")
    if not cfg.params:
        raise ConfigError("sample needs --params, e.g. --params 0.17,0.25")
    params = _parse_list("params", cfg.params, float)
    dims = (_parse_list("dims", cfg.dims, int, "x") if cfg.dims
            else _DEFAULT_SAMPLE_DIMS[cfg.lattice])
    if len(dims) != 2 or min(dims) < 1:
        raise ConfigError(f"--dims needs two positive sides, not {cfg.dims!r}")
    # the analytic U_s is the torus law only where each stage's influence
    # window and its target land on distinct torus sites
    w, h = dims
    for stage in range(1, build_lattice(cfg.lattice).partite_count):
        target, window = lattices.influence_window(cfg.lattice, stage)
        sites = (target, *window)
        if len({(x % w, y % h, t) for x, y, t in sites}) < len(sites):
            raise ConfigError(
                f"a {w}x{h} {cfg.lattice} torus is too small: the stage "
                f"{stage} influence window meets itself around it")
    try:
        config, rows = oracles.fill_in_sample(cfg.lattice, params, dims,
                                              cfg.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    except MemoryError:
        raise ConfigError(f"a {w}x{h} torus does not fit in memory") from None

    valid = verify_hard_core(config)
    print(f"{cfg.lattice} torus {dims[0]}x{dims[1]}, seed {cfg.seed}, "
          f"hard-core constraint {'satisfied' if valid else 'VIOLATED'}")
    print(f"{'stage':<10} {'metric':<9} {'p':>7} {'analytic':>10} "
          f"{'empirical':>10} {'stderr':>9} {'z':>6}")
    for row in rows:
        print(f"{row['stage']:<10} {row['metric']:<9} "
              f"{row['probability']:>7.4f} {row['analytic']:>10.6f} "
              f"{row['empirical']:>10.6f} {row['stderr']:>9.6f} "
              f"{_z(row):>6.2f}")
    z_max = max(abs(_z(row)) for row in rows)
    _write_bundle("sample", cfg, rows, started,
                  extra={"hard_core_valid": valid,
                         "dims": list(dims), "stage_probabilities":
                         [row["probability"] for row in rows
                          if row["metric"] == "unforced"]})
    if not valid or z_max > _SAMPLE_Z_LIMIT:
        print(f"sampler statistics outside {_SAMPLE_Z_LIMIT} standard errors",
              file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_strip(cfg: argparse.Namespace) -> int:
    widths = ([cfg.width] if cfg.width is not None
              else list(range(1, cfg.max_width + 1)))
    boundaries = (("free", "periodic") if cfg.boundary == "both"
                  else (cfg.boundary,))
    rows = [(w, b, f"{oracles.strip_entropy('square', w, boundary=b):.12f}")
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
        return _HANDLERS[args.command](build_run_config(args))
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
