"""The README's CLI block, option table and library block say what the
package does.

Each ``hce`` line of the block under "## CLI" goes through ``cli.main`` in
a temporary working directory with ``HOME`` there too, so its ``--out``
files and any ``~`` path land in the test's own folder.  Every line must
exit 0, and a trailing ``# comment`` is a claim about the line's output
that must hold.  The option table has one row per entry of
``cli.OPTIONS``, with its default and readers.  The python block under
"## Library entry points" runs line by line, and each trailing comment
is the value of its line.  The numbers of the README's prose in `PROSE`
are what the calls beside them give, at their printed format.
"""
import ast
import math
import os
import re
import shlex
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from hardcore_entropy import block_bounds, blocks, bounds, cli, oracles
from hardcore_entropy.lattices import LATTICES, build_lattice

README = Path(__file__).resolve().parents[1] / "README.md"


def _block(heading):
    """The lines of the first fenced block under ``heading``."""
    text = README.read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1]
    block = section.split("```", 2)[1].split("\n", 1)[1]
    return [line for line in block.splitlines() if line.strip()]


def _check_claim(comment, out):
    if comment == "the five first-bound rows":
        rows = [line.split() for line in out.splitlines()[1:]]
        assert [row[:2] for row in rows] == [[lat, "closed"]
                                             for lat in LATTICES]
    elif m := re.fullmatch(r"(\d+) masks -> (\d+)/(\d+) classes", comment):
        masks, d4, weak = m.groups()
        assert f": {masks} masks\n" in out
        assert re.search(rf"dihedral classes: +{d4} ", out)
        assert re.search(rf"weak-site classes: +{weak} ", out)
    elif comment == "oracle cross-checks, exit 0":
        assert "[FAIL]" not in out
    else:
        raise AssertionError(f"no check for the README comment {comment!r}")


def test_cli_block_runs_as_written(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("HOME", str(tmp_path))
    lines = _block("CLI")
    assert len(lines) == 8
    commands = set()
    for line in lines:
        argv = [os.path.expanduser(tok)
                for tok in shlex.split(line, comments=True)]
        assert argv[0] == "hce", line
        commands.add(argv[1])
        assert cli.main(argv[1:]) == 0, line
        out = capsys.readouterr().out
        if "#" in line:
            _check_claim(line.split("#", 1)[1].strip(), out)
    assert commands == set(cli.COMMANDS)


def _option_rows():
    """{option name: (default cell, readers cell)} from the README table."""
    row = re.compile(r"\| `--([a-z-]+)` \| ([^|]*) \| [^|]* \| ([^|]*) \|")
    rows = {}
    for line in README.read_text(encoding="utf-8").splitlines():
        if m := row.fullmatch(line):
            flag, default, readers = m.groups()
            name = flag.replace("-", "_")
            assert name not in rows, f"two rows for --{flag}"
            rows[name] = (default, readers)
    return rows


def test_option_table_matches_options():
    rows = _option_rows()
    assert rows.keys() == cli.OPTIONS.keys()
    for name, (default, readers) in rows.items():
        opt = cli.OPTIONS[name]
        named = (set(cli.COMMANDS) if readers == "every subcommand"
                 else set(re.findall(r"[a-z]+", readers)) & set(cli.COMMANDS))
        assert named == set(opt.readers), name
        # a number or a `literal` is the default itself; prose ("none",
        # "required", "per lattice") stands for an option with none
        plain = re.fullmatch(r"`([^`]*)`|([-+.e\d]+)", default)
        if plain:
            assert opt.type(plain[1] or plain[2]) == opt.default, name
        else:
            assert opt.default is None, name


def _same(node, value, text):
    """Whether ``value`` is what the comment expression ``node`` (parsed
    from ``text``) writes: a float to its printed decimals, a tuple or a
    list entry by entry, anything else to equality."""
    if isinstance(node, ast.Constant) and isinstance(node.value, float):
        printed = ast.get_source_segment(text, node)
        decimals = len(printed.split(".")[1])
        return f"{value:.{decimals}f}" == printed
    if isinstance(node, (ast.Tuple, ast.List)):
        kind = tuple if isinstance(node, ast.Tuple) else list
        return (type(value) is kind and len(value) == len(node.elts)
                and all(_same(n, v, text) for n, v in zip(node.elts, value)))
    expr = ast.Expression(node)
    return eval(compile(expr, "<README>", "eval"), {"Fraction": Fraction}) \
        == value


def test_library_block_runs_as_written():
    namespace = {}
    claims = 0
    for line in _block("Library entry points"):
        code, _, comment = line.partition("#")
        stmt = ast.parse(code).body[0]
        if isinstance(stmt, ast.Expr):
            value = eval(code, namespace)
        else:
            exec(code, namespace)
            if comment:
                assert isinstance(stmt, ast.Assign), line
                value = eval(ast.unparse(stmt.targets[0]), namespace)
        if not comment:
            continue
        comment = comment.strip()
        if m := re.fullmatch(r"(\d+) classes", comment):
            assert value.class_count == int(m[1]), line
        else:
            try:
                node = ast.parse(comment, mode="eval").body
            except SyntaxError:
                raise AssertionError(
                    f"no check for the README comment {comment!r}") from None
            assert _same(node, value, comment), (line, value)
        claims += 1
    assert claims == 11


def _terms_per_stage():
    """The number of count-form terms of each U_s, s >= 1, per lattice."""
    for lattice in LATTICES:
        counts, _, starts = bounds._unforced_forms(lattice)
        yield from np.diff([*starts, len(counts)])


def _block_optimum(n):
    family = blocks.reduce_family(n)
    return family, block_bounds.optimize_block_bound(family)[1]


def _criterion_8():
    """ln(lambda_12/lambda_11) and s_12 of the free square strip."""
    s11, s12 = (oracles.strip_entropy("square", w) for w in (11, 12))
    return 12 * s12 - 11 * s11, s12


def _surface_excess():
    ratio, s12 = _criterion_8()
    excess = 12 * (s12 - ratio)
    return excess, math.ceil(excess / 0.003)


def _iterations():
    return [bounds.optimize_bound(scheme, lattice).meta["iterations"]
            for scheme, table in bounds.SCHEMES.items() for lattice in table]


def _value(scheme):
    return bounds.optimize_bound(scheme, "square").value


# (README text with {} for each number, the call that gives the numbers,
#  their printed format).  Timings and traced-memory figures are not
#  here: they depend on the host and on warm-up.  The first 480x480
#  square sample in a fresh process traces 7.0 bytes per site, 3.7
#  once numpy.random is loaded.
PROSE = [
    ("| `closed` | one Bernoulli parameter per stage | {} |",
     lambda: [_value("closed")], ".4f"),
    ("both sublattice densities agree | {} |",
     lambda: [_value("equalized")], ".4f"),
    ("symmetry-reduced | {} (n=3), {} (n=4) |",
     lambda: [_block_optimum(n)[1].value for n in (3, 4)], ".4f"),
    ("gives up about {}e-4 nats of `closed`",
     lambda: [1e4 * (_value("closed") - _value("equalized"))], ".0f"),
    ("from {} raw 3×3 blocks to {} classes ({} free variables)",
     lambda: [(f := blocks.reduce_family(3)).class_of.size, f.class_count,
              f.free_variables], "d"),
    ("ln(λ₁₂/λ₁₁) = {}, which must lie within 0.003 of it, and requires "
     "the free strip, {}, to lie",
     _criterion_8, ".6f"),
    ("surface excess of {}/width", lambda: _surface_excess()[:1], ".4f"),
    ("would need width ≥ {},", lambda: _surface_excess()[1:], "d"),
    ("periodic strip ({})",
     lambda: [oracles.strip_entropy("square", 12, "periodic")], ".6f"),
    ("caps each lattice's entropy: {} (square), {} (honeycomb), {} "
     "(triangular), {} (kagome) and {} (square_moore)",
     lambda: [oracles.strip_entropy(
         lattice, oracles.MAX_STRIP_WIDTH // build_lattice(lattice)
         .sites_per_cell) for lattice in LATTICES], ".6f"),
    ("({} to {} terms per stage)",
     lambda: [min(_terms_per_stage()), max(_terms_per_stage())], "d"),
    ("converges each of them in {}–{} steps",
     lambda: [min(_iterations()), max(_iterations())], "d"),
    ("`bound --scheme block --n 4` ({} free variables) converges in {} "
     "iterations",
     lambda: [(r := _block_optimum(4))[0].free_variables,
              r[1].meta["iterations"]], "d"),
    # one period of torus rows fits the band up to this width on every
    # lattice
    ("at most {} KB on tori up to {} cells wide",
     lambda: [oracles._BAND_BYTES / 1024, oracles._BAND_BYTES // max(
         8 * build_lattice(lattice).sites_per_cell
         * build_lattice(lattice).period[1] for lattice in LATTICES)],
     ",g"),
]


@pytest.mark.parametrize("text,numbers,spec", PROSE, ids=[
    "_".join(re.findall(r"[A-Za-z0-9]+", row[0])) for row in PROSE])
def test_prose_numbers_hold(text, numbers, spec):
    """The README states ``text`` with the numbers the call gives, at the
    printed format."""
    prose = " ".join(README.read_text(encoding="utf-8").split())
    pattern = r"([-\d.,]+)".join(map(re.escape, text.split("{}")))
    found = re.search(pattern, prose)
    assert found, f"the README no longer says {text!r}"
    assert list(found.groups()) == [format(v, spec) for v in numbers()]
