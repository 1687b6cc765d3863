"""Every public module-level function or class has a caller outside tests.

A name defined in ``src/hardcore_entropy`` counts as used when the program
refers to it: an identifier or attribute anywhere in ``src/`` outside the
name's own definition, or an identifier, attribute or string (perfbench
hooks functions by name) in ``demos/`` or ``perfbench/``.  Imports alone do
not count.  The allowlist holds the scalar references that the vectorized
block reduction is tested against.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hardcore_entropy"

# scalar references for `blocks.reduce_family`, used by tests only
TEST_REFERENCES = {"d4_canonical", "forced_odd_sites", "weak_sites"}


def _identifiers(tree, skip=None, strings=False):
    """Names and attribute names in `tree`, leaving out the `skip` subtree;
    with strings=True also every string constant."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif strings and isinstance(node, ast.Constant) \
                and isinstance(node.value, str):
            out.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _public_definitions():
    trees = {p: ast.parse(p.read_text(encoding="utf-8"))
             for p in sorted(PACKAGE.glob("*.py"))}
    for path, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield path, node, trees


def _outside_uses():
    names = set()
    for folder in ("demos", "perfbench"):
        for path in sorted((ROOT / folder).glob("*.py")):
            names |= _identifiers(ast.parse(path.read_text(encoding="utf-8")),
                                  strings=True)
    return names


def test_no_public_name_is_test_only():
    outside = _outside_uses()
    unused = []
    for path, node, trees in _public_definitions():
        if node.name in TEST_REFERENCES or node.name in outside:
            continue
        used = any(node.name in _identifiers(tree, skip=node)
                   for tree in trees.values())
        if not used:
            unused.append(f"{path.stem}.{node.name}")
    assert unused == [], f"public names only tests use: {unused}"


def test_allowlist_is_current():
    defined = {node.name for _, node, _ in _public_definitions()}
    assert TEST_REFERENCES <= defined
