"""Benchmark harness for hardcore-entropy.

Run from the repository root:

    python3 perfbench/run.py --workload block-n3 --seed 1 --seconds 15 --trace 0

One invocation runs one workload (see ``workloads.py``) in this process,
importing the package from ``src/``:

1. Set-up: import ``hardcore_entropy.cli``, make the inputs from
   ``--seed``, run one untimed warm-up op.  ``setup_s`` is the median over
   this process and ``SETUP_PROBES`` fresh interpreters that repeat the
   same set-up (``--setup-probe``), one at a time, before the timed phase.
2. Timed phase: a fixed number of ops, as many as take ``--seconds`` at
   the baseline op cost, so a faster program finishes sooner and
   ``run_s`` shows it.  Every op's outputs are checked against references;
   an op fails on a non-zero exit, ``converged: false`` or a value outside
   its tolerance.
3. Report: one line per metric (name, value, unit), then, as the last line,
   a JSON object with ``correct``, ``attempted``, ``failed`` and
   ``metrics``.  ``--trace 0`` reports the end-to-end metrics: ``setup_s``,
   ``run_s`` (the ops' summed time), ``op_s_p50`` (their median) and
   ``peak_rss_mb``.  ``--trace 1`` alternates traced and untraced ops and
   reports the per-layer metrics of the traced ones (see ``tracing.py``),
   with the tracing overhead.  ``fail_ratio`` is printed on its own line.
   A record with the environment, the raw wall-clock samples and every op
   time goes to ``.perfbench_work/runs/``.

Every time metric is a wall time rescaled to the host's nominal speed (see
``calibrate``): on a shared host the raw times of identical runs differ
by up to half, which would hide any regression smaller than that.

The exit code is 0 when every check passed, 1 when one failed and 2 when
the package cannot be found or the arguments are wrong.
"""
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 150
CAL_REPEATS = 5
CAL_NOMINAL_S = 0.0028  # calibrate() on the 2-vCPU host of the baseline
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up, print the set-up time as JSON and exit")
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def _import_package():
    """Import the package from this checkout's src/, or None."""
    if not (SRC / "hardcore_entropy" / "cli.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import hardcore_entropy
    if Path(hardcore_entropy.__file__).resolve().parent.parent != SRC:
        return None
    return hardcore_entropy


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
            "git_commit": _git_commit(), "seed": seed}


def _timed_op(workload, inp, tracer=None):
    """Run one op in a fresh directory and check it.

    Returns (seconds, problems); seconds is None when the op raised.
    """
    tmp = Path(tempfile.mkdtemp(dir=WORK / "tmp"))
    elapsed = None
    try:
        try:
            if tracer is not None:
                tracer.install()
            started = time.perf_counter()
            outcome = workload.run(inp, tmp)
            elapsed = time.perf_counter() - started
        finally:
            if tracer is not None:
                tracer.uninstall()
        return elapsed, workload.check(outcome)
    except Exception:  # an op that raises is a failed op, not a crash
        return elapsed, [traceback.format_exc(limit=4)]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _median(samples) -> float:
    return statistics.median(samples) if samples else float("nan")


def _probe_setup(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-probe"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-500:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def calibrate() -> float:
    """Time of a fixed kernel: Python integer arithmetic and small NumPy
    matrix-vector products, the two kinds of work the ops do.

    The host is shared, and its speed drifts by tens of percent over
    seconds to minutes.  The kernel slows down with it, so an op's wall
    time times CAL_NOMINAL_S / (the kernel's time around the op) estimates
    the op's time on the host at its nominal speed.  The kernel runs
    CAL_REPEATS times and the fastest run counts, so that a pause of a few
    milliseconds does not pass for a slow host.
    """
    import numpy as np
    a = np.linspace(0.0, 1.0, 4096).reshape(64, 64)
    best = math.inf
    for _ in range(CAL_REPEATS):
        v = np.ones(64)
        started = time.perf_counter()
        acc = 0
        for i in range(30_000):
            acc += i * i
        for _ in range(450):
            v = a @ v
            v /= v[0]
        best = min(best, time.perf_counter() - started)
    return best


def _tail_percentile(samples):
    """(p, value): the highest whole percentile with >= 10 samples above
    it, or None with fewer than 11 samples."""
    if len(samples) < 11:
        return None
    p = int(100 * (len(samples) - 10) // len(samples))
    ordered = sorted(samples)
    return p, ordered[max(0, -(-p * len(ordered) // 100) - 1)]


def main(argv=None) -> int:
    args = _parse(argv)
    if _import_package() is None:
        print(f"error: no hardcore_entropy package under {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    from tracing import Tracer

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    ops = workload.op_count(args.seconds)
    if args.trace:
        ops = max(ops, 2)   # at least one traced and one untraced op
    inputs = workload.make_inputs(args.seed, ops + 1)
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)

    first_op_s, problems = _timed_op(workload, inputs[0])
    setup_wall = [time.perf_counter() - _T0]
    if args.setup_probe:
        if problems:
            print("\n".join(problems), file=sys.stderr)
            return 1
        print(json.dumps({"setup_s": setup_wall[0]}))
        return 0
    failures = [(0, p) for p in problems]
    cal = [calibrate()]
    setup = [setup_wall[0] * CAL_NOMINAL_S / cal[0]]
    try:
        for _ in range(SETUP_PROBES):
            setup_wall.append(_probe_setup(args))
            cal.append(calibrate())
            setup.append(setup_wall[-1] * 2 * CAL_NOMINAL_S
                         / (cal[-2] + cal[-1]))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        failures.append((0, f"set-up probe: {exc}"))

    tracer = Tracer() if args.trace else None
    wall = {False: [], True: []}     # keyed by "traced"
    scaled = {False: [], True: []}
    started = time.perf_counter()
    for i in range(1, ops + 1):
        traced = tracer is not None and i % 2 == 1
        elapsed, problems = _timed_op(workload, inputs[i],
                                      tracer if traced else None)
        cal.append(calibrate())
        scale = 2 * CAL_NOMINAL_S / (cal[-2] + cal[-1])
        if traced:
            tracer.end_op(scale)
        if elapsed is not None:
            wall[traced].append(elapsed)
            scaled[traced].append(elapsed * scale)
        failures += [(i, p) for p in problems]
    phase_wall_s = time.perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    attempted = ops + 1   # the warm-up op is checked too
    failed = len({i for i, _ in failures})

    env = environment(args.seed)
    print(f"# workload {args.workload}, seed {args.seed}, {ops} timed ops "
          f"after 1 warm-up op, trace {args.trace}")
    print(f"# environment {json.dumps(env, sort_keys=True)}")
    print(f"# wall clock: set-up samples {setup_wall} s, first op "
          f"{first_op_s} s, op p50 {_median(wall[False] + wall[True])} s, "
          f"timed phase {phase_wall_s} s; host speed "
          f"{CAL_NOMINAL_S / _median(cal)} of nominal")
    for i, problem in failures:
        print(f"FAIL op {i}: {problem}", file=sys.stderr)

    if tracer is None:
        times = scaled[False]
        metrics = {"setup_s": (statistics.median(setup), "s"),
                   "run_s": (sum(times), "s"),
                   "op_s_p50": (_median(times), "s"),
                   "peak_rss_mb": (peak_rss_mb, "MB")}
        tail = _tail_percentile(times)
        if tail:
            print(f"# op_s_p{tail[0]} {tail[1]!r} s over {len(times)} ops")
    else:
        for name in tracer.skipped:
            print(f"# trace: {name} not found; its metrics read 0")
        metrics = tracer.metrics(len(scaled[True]))
        traced_p50 = _median(scaled[True])
        untraced_p50 = _median(scaled[False])
        metrics["trace.op_s_p50"] = (traced_p50, "s")
        metrics["trace.untraced_op_s_p50"] = (untraced_p50, "s")
        metrics["trace.overhead_ratio"] = (traced_p50 / untraced_p50 - 1.0,
                                           "ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(f"fail_ratio {failed / attempted!r} ratio ({failed}/{attempted})")

    record = {"workload": args.workload, "trace": args.trace,
              "seconds": args.seconds, "environment": env,
              "cal_nominal_s": CAL_NOMINAL_S, "calibration_s": cal,
              "setup_wall_s": setup_wall, "setup_s": setup,
              "first_op_s": first_op_s,
              "op_wall_s": wall[False], "traced_op_wall_s": wall[True],
              "op_s": scaled[False], "traced_op_s": scaled[True],
              "attempted": attempted, "failed": failed,
              "failures": [{"op": i, "problem": p} for i, p in failures],
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    runs = WORK / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (runs / name).write_text(json.dumps(record, indent=1) + "\n")

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": record["metrics"]}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
