"""Mutation checks: wrong programs the tests must reject.

Run from anywhere (about a minute on 2 CPUs):

    python tests/mutants.py

Each entry of MUTANTS is one exact edit of a file under src/ and the tests
expected to kill it.  For each, the script copies src/ to a temporary
directory, checks that the old text occurs exactly once, applies the edit
and runs those tests with PYTHONPATH on the copy.  A mutant is killed when
the tests fail.  The last entry is a harmless edit that must survive: if
it is killed, the tests fail on the unmutated program and no kill above
means anything.  Exits 1 naming every mutant that ends otherwise than
expected.  The working tree is never edited.  A claim that "the tests
catch X" belongs in this table.  pytest does not collect this file.
"""
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, file under src/hardcore_entropy, old text, new text, tests,
#  whether the tests should kill it)
MUTANTS = [
    ("strip ignores the periodic wrap", "oracles.py",
     'y2 = (y + dy) % width if boundary == "periodic" else y + dy',
     "y2 = y + dy",
     ["tests/test_oracles.py::TestStrips"], True),
    ("strip drops the dx = +1 offsets", "oracles.py",
     "if ox == dx and 0 <= y2 < width",
     "if ox == dx == 0 and 0 <= y2 < width",
     ["tests/test_oracles.py::TestStrips"], True),
    ("earlier_neighbors drops its last offset", "lattices.py",
     "for dx, dy, t2 in spec.neighbors[t]\n",
     "for dx, dy, t2 in spec.neighbors[t][:-1]\n",
     ["tests/test_lattices.py"], True),
    ("influence_window drops its last site", "lattices.py",
     "return target, tuple(window)",
     "return target, tuple(window[:-1])",
     ["tests/test_lattices.py"], True),
    ("verify_hard_core drops the first offset of each site", "lattices.py",
     "for dx, dy, t2 in offsets if",
     "for dx, dy, t2 in offsets[1:] if",
     ["tests/test_lattices.py"], True),
    ("on_simplex without the division", "optimize.py",
     "    p /= total\n",
     "",
     ["tests/test_block_bounds.py", "tests/test_bounds.py"], True),
    ("strip gathers at its own half-columns, not the forbidden ones",
     "oracles.py",
     "take = fa * len(d_lo) + fb",
     "take = ia * len(d_lo) + ib",
     ["tests/test_oracles.py::TestStrips"], True),
    ("sampler overwrites its band rows (= for &=)", "oracles.py",
     "values[y0:y0 + len(kept)] &= kept",
     "values[y0:y0 + len(kept)] = kept",
     ["tests/test_oracles.py::TestSampler"], True),
    ("sampler placement drops the other stages' mask", "oracles.py",
     "            kept |= others[:len(kept)]\n",
     "",
     ["tests/test_oracles.py::TestSampler::"
      "test_statistics_match_reference_sampler"], True),
    ("sampler draws into a torus-sized buffer", "oracles.py",
     "band = np.empty((min(h, max(1, _BAND_BYTES // (8 * w * c * py)) * py),"
     "\n                     w, c))",
     "band = np.empty((h, w, c))",
     ["tests/test_oracles.py::TestSampler::test_peak_memory_per_site"],
     True),
    ("_tile_sites ignores the row offset", "oracles.py",
     "np.arange(oy, h, py) // _TILE",
     "np.arange(0, h, py) // _TILE",
     ["tests/test_oracles.py::TestSampler"], True),
    ("three-hex: the compact third term", "bounds.py",
     "a * (p[1] + p[0] * (1.0 - q)) * (1.0 - a * q) ** 2",
     "(p[1] + p[0] * (1.0 - q)) * a ** 3 * (2.0 - q) ** 2",
     ["tests/test_bounds.py::test_three_hex_triangular_reference_point",
      "tests/test_bounds.py::test_three_hex_optimum_recovers_table"], True),
    ("weak closure ignores the second half of the odd sites", "blocks.py",
     "        np.bitwise_or(closure, hi.take(top), out=closure)\n",
     "",
     ["tests/test_blocks.py"], True),
    ("weak classes labelled by key, not by smallest member", "blocks.py",
     "orbit = label.take(key)",
     "orbit = key",
     ["tests/test_blocks.py"], True),
    ("weak key skips the D4 orbit of the closure", "blocks.py",
     "key = orbit.take(closure)",
     "key = closure",
     ["tests/test_blocks.py"], True),
    ("classes numbered in reverse order of their representatives",
     "blocks.py",
     "number[reps] = ",
     "number[reps[::-1]] = ",
     ["tests/test_blocks.py::TestReduceFamily::test_n4_class_index_pinned"],
     True),
    ("the block entropy summed elementwise, not by dot", "block_bounds.py",
     "h = 2.0 * float(p.dot(gradient))",
     "h = 2.0 * float((p * gradient).sum())",
     ["tests/test_block_bounds.py::test_evaluation_bits_pinned"], True),
    ("a count-form exponent one too small", "bounds.py",
     "    exps, counts = (np.concatenate(f) for f in zip(*forms))\n",
     "    exps, counts = (np.concatenate(f) for f in zip(*forms))\n"
     "    exps[0, k - 1] -= 1\n",
     ["tests/test_bounds.py"], True),
    ("the bundle writer imports importlib.metadata again", "cli.py",
     "    bundle = {\n",
     "    import importlib.metadata\n    bundle = {\n",
     ["tests/test_cli.py::test_no_command_loads_unneeded_modules"], True),
    ("count forms treat every window site as free", "bounds.py",
     "free = ones & mask == 0",
     "free = ones >= 0",
     ["tests/test_bounds.py"], True),
    ("the window oracle ignores forcing", "oracles.py",
     "& mask != 0",
     "& 0 != 0",
     ["tests/test_bounds.py", "tests/test_oracles.py"], True),
    ("the sampler's density row drops the stage probability", "oracles.py",
     "probs[s] * analytic[s]",
     "analytic[s]",
     ["tests/test_oracles.py::TestSampler"], True),
    ("torus sides truncated again", "lattices.py",
     "operator.index",
     "int",
     ["tests/test_lattices.py"], True),
    ("the cli imports fractions at module level again", "cli.py",
     "import time\n",
     "import time\nfrom fractions import Fraction\n",
     ["tests/test_cli.py::test_no_command_loads_unneeded_modules"], True),
    ("verify loads configparser", "cli.py",
     "    checks = _verify_checks(cfg)\n",
     "    import configparser\n    checks = _verify_checks(cfg)\n",
     ["tests/test_cli.py::test_no_command_loads_unneeded_modules"], True),
    ("the sampler's n_sites becomes a float", "oracles.py",
     "len(mine) * (h // py)",
     "len(mine) * (h / py)",
     ["tests/test_cli.py::test_sample_printed_and_bundle_pinned"], True),
    ("sampler bands shrink to one coloring period", "oracles.py",
     "_BAND_BYTES = 1 << 18",
     "_BAND_BYTES = 1 >> 18",
     ["tests/test_oracles.py::TestSampler::test_draws_in_few_bands"], True),
    ("a bound value may be negative by 1e-9", "bounds.py",
     "self.value < -1e-12",
     "self.value < -1e-9",
     ["tests/test_bounds.py::test_report_rounding_gates"], True),
    ("a density may exceed 1 by 1e-9", "bounds.py",
     "d <= 1 + 1e-12",
     "d <= 1 + 1e-9",
     ["tests/test_bounds.py::test_report_rounding_gates"], True),
    ("a dims field back on TorusConfiguration", "lattices.py",
     "    values: np.ndarray = field(repr=False)\n",
     "    values: np.ndarray = field(repr=False)\n    dims: tuple = ()\n",
     ["tests/test_api_surface.py::"
      "test_no_shared_class_member_is_test_only"], True),
    ("a value field back on OptimizationResult", "optimize.py",
     "    stationarity: float\n",
     "    stationarity: float\n    value: float = 0.0\n",
     ["tests/test_api_surface.py::"
      "test_no_shared_class_member_is_test_only"], True),
    ("the unforced forms are rebuilt on every use", "bounds.py",
     "@cache\ndef _unforced_forms(",
     "def _unforced_forms(",
     ["tests/test_cli.py::test_unforced_forms_built_on_first_use_once"],
     True),
    ("the family cache loads another version, n or use_weak", "blocks.py",
     "        if found != (CACHE_VERSION, n, use_weak):\n"
     "            raise ValueError(\"holds version=%d, n=%d, use_weak=%s\""
     " % found)\n",
     "",
     ["tests/test_blocks.py::TestCache"], True),
    ("the family cache skips its representative check", "blocks.py",
     "        if (fam.class_of[fam.representatives]\n"
     "                != np.arange(fam.class_count)).any():\n"
     "            raise ValueError(\"index mismatch\")\n",
     "",
     ["tests/test_blocks.py::TestCache"], True),
    ("the family cache is written straight to its final path", "blocks.py",
     'tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")',
     "tmp = path",
     ["tests/test_blocks.py::TestCache"], True),
    ("bound reads the family cache again", "cli.py",
     '"cache_dir": Option(str, None, ("reduce",),',
     '"cache_dir": Option(str, None, ("bound", "reduce"),',
     ["tests/test_cli.py::test_non_block_scheme_rejects_block_options"],
     True),
    ("the unit generator builds the 2x2 family", "block_bounds.py",
     "BlockDistribution(reduce_family(1), ",
     "BlockDistribution(reduce_family(2), ",
     ["tests/test_block_bounds.py::test_equalized_unit_generator"], True),
    ("self-test: a docstring edit", "oracles.py",
     '"""Entropy per site of an infinite strip',
     '"""The entropy per site of an infinite strip',
     ["tests/test_oracles.py::TestStrips"], False),
]


def _run(name, path, old, new, tests, scratch):
    """Whether the tests pass on src/ with the one edit applied, and
    pytest's summary line.  Exit code 1 is a failed test; any other
    failure (a collection error, no test found) stops the script."""
    copy = Path(scratch) / "src"
    shutil.rmtree(copy, ignore_errors=True)
    shutil.copytree(ROOT / "src", copy,
                    ignore=shutil.ignore_patterns("__pycache__"))
    target = copy / "hardcore_entropy" / path
    text = target.read_text(encoding="utf-8")
    if text.count(old) != 1:
        raise SystemExit(f"{name}: the old text occurs {text.count(old)} "
                         f"times in {path}, not once")
    target.write_text(text.replace(old, new), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(copy), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
         *(str(ROOT / t) for t in tests)],
        cwd=scratch, env=env, capture_output=True, text=True, timeout=300)
    if proc.returncode not in (0, 1):
        raise SystemExit(f"{name}: pytest exited {proc.returncode}\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    return proc.returncode == 0, proc.stdout.strip().splitlines()[-1]


def main() -> int:
    wrong = []
    with tempfile.TemporaryDirectory() as scratch:
        for name, path, old, new, tests, killable in MUTANTS:
            started = time.perf_counter()
            survived, summary = _run(name, path, old, new, tests, scratch)
            verdict = "survived" if survived else "killed"
            print(f"{verdict:<9}{time.perf_counter() - started:5.1f} s  "
                  f"{name}: {summary}")
            if survived == killable:
                wrong.append(name)
    for name in wrong:
        print(f"unexpected: {name}", file=sys.stderr)
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
