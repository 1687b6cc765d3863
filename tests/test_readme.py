"""The README's CLI block, option table and library block say what the
package does.

Each ``hce`` line of the block under "## CLI" goes through ``cli.main`` in
a temporary working directory with ``HOME`` there too, so its ``--out``
files and any ``~`` path land in the test's own folder.  Every line must
exit 0, and a trailing ``# comment`` is a claim about the line's output
that must hold.  The option table has one row per entry of
``cli.OPTIONS``, with its default and readers.  The python block under
"## Library entry points" runs line by line, and each trailing comment
is the value of its line.
"""
import ast
import os
import re
import shlex
from fractions import Fraction
from pathlib import Path

from hardcore_entropy import cli
from hardcore_entropy.lattices import LATTICES

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
