"""The README's CLI block runs as written.

Each ``hce`` line of the block under "## CLI" goes through ``cli.main`` in
a temporary working directory with ``HOME`` there too, so its ``--out``
files and any ``~`` path land in the test's own folder.  Every line must
exit 0, and a trailing ``# comment`` is a claim about the line's output
that must hold.
"""
import os
import re
import shlex
from pathlib import Path

from hardcore_entropy import cli
from hardcore_entropy.lattices import LATTICES

README = Path(__file__).resolve().parents[1] / "README.md"


def _cli_lines():
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = section.split("```\n", 2)[1]
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
    lines = _cli_lines()
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
