"""Every row of `tests/mutants.py` still applies to the program.

The mutation script takes about a minute and stops at the first stale
row; these checks take a moment.  A row's old text must occur exactly
once in its file under src/, its new text must differ, and each ``::``
part of its tests must name a def or class in that test file.
"""
import ast

import pytest

import mutants


def _defined_names(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


@pytest.mark.parametrize("row", mutants.MUTANTS,
                         ids=[row[0] for row in mutants.MUTANTS])
def test_mutant_row_applies(row):
    _, path, old, new, tests, _ = row
    source = mutants.ROOT / "src" / "hardcore_entropy" / path
    assert source.read_text(encoding="utf-8").count(old) == 1
    assert new != old
    for test in tests:
        file, *parts = test.split("::")
        assert set(parts) <= _defined_names(mutants.ROOT / file), test
