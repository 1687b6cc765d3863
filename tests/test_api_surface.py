"""The package carries no API that only tests use.

Three checks walk the AST of ``src/hardcore_entropy``:

* every public module-level function or class is referred to by the
  program: an identifier or attribute anywhere in ``src/`` outside the
  name's own definition, or an identifier, attribute or string (perfbench
  hooks functions by name) in ``demos/`` or ``perfbench/``.  Imports alone
  do not count;
* every defaulted parameter of a function in ``src/`` is passed by some
  call in ``src/``, ``demos/`` or ``perfbench/``, by keyword or by position;
  a call with ``*args`` or ``**kwargs`` counts as passing everything;
* every non-dunder class member (method, property or dataclass field) is
  read as an attribute in ``src/`` outside its own definition, or named as
  an attribute or string in ``demos/`` or ``perfbench/``.

Callees and members are matched by name alone, so a name shared by two
definitions can hide one of them; the checks never flag code in use.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "hardcore_entropy"

# public names exempt from the first check; test-only references live in
# tests/ instead, so this stays empty
TEST_REFERENCES = set()


def _identifiers(tree, skip=None, strings=False, names=True):
    """Attribute names in `tree`, leaving out the `skip` subtree; with
    names=True also identifiers, with strings=True also every string
    constant."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if names and isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif strings and isinstance(node, ast.Constant) \
                and isinstance(node.value, str):
            out.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return out


def _parse(paths):
    return {p: ast.parse(p.read_text(encoding="utf-8")) for p in paths}


def _package_trees():
    return _parse(sorted(PACKAGE.glob("*.py")))


def _outside_trees():
    return _parse(sorted(p for folder in ("demos", "perfbench")
                         for p in (ROOT / folder).glob("*.py")))


def _public_definitions():
    trees = _package_trees()
    for path, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                yield path, node, trees


def _outside_uses(names=True):
    out = set()
    for tree in _outside_trees().values():
        out |= _identifiers(tree, strings=True, names=names)
    return out


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


def _functions(tree):
    """(function, is_method) for every def in `tree`, nested ones too."""
    methods = {id(f) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for f in cls.body if isinstance(f, ast.FunctionDef)
               and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                           for d in f.decorator_list)}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            yield node, id(node) in methods


def _defaulted(fn, is_method):
    """(name, position) of each defaulted parameter; position counts the
    arguments a call writes, so it skips `self`, and is None for
    keyword-only parameters."""
    positional = fn.args.posonlyargs + fn.args.args
    skip = 1 if is_method else 0
    first = len(positional) - len(fn.args.defaults)
    for i in range(first, len(positional)):
        yield positional[i].arg, i - skip
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _passes(call, name, position):
    if any(k.arg is None or k.arg == name for k in call.keywords):
        return True
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    return position is not None and len(call.args) > position


def _calls():
    """Every call in src/, demos/ and perfbench/, keyed by callee name."""
    out = {}
    trees = {**_package_trees(), **_outside_trees()}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                callee = f.id if isinstance(f, ast.Name) else \
                    f.attr if isinstance(f, ast.Attribute) else None
                out.setdefault(callee, []).append(node)
    return out


def test_no_defaulted_parameter_is_test_only():
    calls = _calls()
    unused = []
    for path, tree in _package_trees().items():
        for fn, is_method in _functions(tree):
            for name, position in _defaulted(fn, is_method):
                if not any(_passes(c, name, position)
                           for c in calls.get(fn.name, ())):
                    unused.append(f"{path.stem}.{fn.name}({name})")
    assert unused == [], f"defaulted parameters only tests pass: {unused}"


def _members(cls):
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Name):
            yield node.target.id, node


def test_no_class_member_is_test_only():
    trees = _package_trees()
    outside = _outside_uses(names=False)
    unused = []
    for path, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for name, node in _members(cls):
                if name.startswith("__") and name.endswith("__") \
                        or name in outside:
                    continue
                used = any(name in _identifiers(t, skip=node, names=False)
                           for t in trees.values())
                if not used:
                    unused.append(f"{path.stem}.{cls.name}.{name}")
    assert unused == [], f"class members only tests use: {unused}"
