"""Fast self-test of the benchmark, kept out of the tier-1 test suite.

Run from the repository root (under two minutes on 2 CPUs):

    python3 perfbench/selftest.py

It runs every workload of BENCHMARK.json at minimal length, untraced and
traced, and checks that each run passes and emits every named metric with
its unit.  It runs each traced workload a second time with the same seed
and checks that the work counts repeat exactly.  Finally it perturbs one
reference value and checks that the run then reports a failed op and exits
non-zero.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
SEED = 7
REPEATED_COUNTS = ("optimize.lbfgs_nit", "optimize.nm_nit",
                   "block_bounds.vg_calls", "blocks.classes",
                   "blocks.cache_bytes", "oracles.strip_states",
                   "oracles.window_assignments")

# run.main with the block-n3 reference value moved far outside its tolerance
WRONG_REFERENCE = f"""
import sys
sys.path.insert(0, {str(RUN.parent)!r})
import run
sys.path.insert(0, str(run.SRC))
import workloads
workloads.BLOCK_N3_VALUE += 1e-3
sys.exit(run.main(sys.argv[1:]))
"""


def _run(argv, workload, trace):
    args = ["--workload", workload, "--seed", str(SEED), "--seconds", "1",
            "--trace", str(trace)]
    proc = subprocess.run([sys.executable, *argv, *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=600)
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for wl in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            code, res = _run([str(RUN)], wl, trace)
            label = f"{wl} --trace {trace}"
            if code != 0 or not res["correct"] or res["failed"] != 0:
                problems.append(f"{label}: exit {code}, {res['failed']} of "
                                f"{res['attempted']} ops failed")
            units = {k: v["unit"] for k, v in res["metrics"].items()}
            if units != expected[trace]:
                problems.append(f"{label}: metrics/units {units} != "
                                f"{expected[trace]}")
            if trace:
                _, again = _run([str(RUN)], wl, trace)
                for name in REPEATED_COUNTS:
                    a = res["metrics"][name]["value"]
                    b = again["metrics"][name]["value"]
                    if a != b:
                        problems.append(f"{label}: {name} {a} then {b}")
            print(f"{label}: exit {code}, {res['attempted']} ops", flush=True)

    code, res = _run(["-c", WRONG_REFERENCE], "block-n3", 0)
    if code == 0 or res["correct"] or not res["failed"] > 0:
        problems.append(f"wrong reference: exit {code}, "
                        f"{res['failed']}/{res['attempted']} failed")
    print(f"wrong reference: exit {code}, fail_ratio "
          f"{res['failed']}/{res['attempted']}")

    for p in problems:
        print(f"FAIL {p}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
