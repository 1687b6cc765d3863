"""The package carries no API that only tests use.

Three checks walk the AST of the imported package, so a mutated copy on
``PYTHONPATH`` is checked too:

* every public module-level function or class is referred to by the
  program: an identifier or attribute anywhere in ``src/`` outside the
  name's own definition, or an identifier, attribute or string (perfbench
  hooks functions by name) in ``demos/`` or ``perfbench/``.  Imports alone
  do not count;
* every defaulted parameter of a function in ``src/`` is passed by some
  call in ``src/``, ``demos/`` or ``perfbench/``, by keyword or by position;
  a call with ``*args`` or ``**kwargs`` counts as passing everything;
* every non-dunder class member (method, property or dataclass field) whose
  name is not shared is read as an attribute in ``src/`` outside its own
  definition, or named as an attribute or string in ``demos/`` or
  ``perfbench/``.

Callees are matched by name alone, so a callee name shared by two
definitions can hide one of them.  A member name is shared when two
classes define it or it is a ``cli.OPTIONS`` key, which the commands read
off their config namespace (``cfg.dims``); matched by name, one such read
would hide every member of that name.  A fourth check judges each shared
member by the reads that happen: it must be read on an instance, by code
in ``src/``, while five commands run in process.  Names in ``demos/`` and
``perfbench/`` do not excuse a shared member, since a demo's ``rep.value``
does not say which class it reads.
"""
import ast
import importlib
import os
import sys
from pathlib import Path

import hardcore_entropy
from hardcore_entropy import cli

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(hardcore_entropy.__file__).parent

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


def _class_members():
    """(module stem, class node, member name, member node) of every
    non-dunder member of a class in the package."""
    for path, tree in _package_trees().items():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                for name, node in _members(cls):
                    if not (name.startswith("__") and name.endswith("__")):
                        yield path.stem, cls, name, node


def _shared_names():
    """Member names two classes define, and the cli.OPTIONS keys."""
    owners = {}
    for _, cls, name, _ in _class_members():
        owners.setdefault(name, set()).add(cls.name)
    return {name for name, classes in owners.items() if len(classes) > 1} \
        | set(cli.OPTIONS)


def test_no_class_member_is_test_only():
    trees = _package_trees()
    outside = _outside_uses(names=False)
    shared = _shared_names()
    unused = []
    for stem, cls, name, node in _class_members():
        if name in shared or name in outside:
            continue
        used = any(name in _identifiers(t, skip=node, names=False)
                   for t in trees.values())
        if not used:
            unused.append(f"{stem}.{cls.name}.{name}")
    assert unused == [], f"class members only tests use: {unused}"


# commands that between them reach every shared member the program reads
RUNS = (
    ["bound", "--scheme", "closed", "--lattice", "square"],
    ["bound", "--scheme", "three-hex", "--lattice", "honeycomb"],
    ["bound", "--scheme", "block", "--n", "2"],
    ["profile", "--n", "2", "--generators", "2"],
    ["sample", "--lattice", "square", "--params", "0.2", "--dims", "16x16"],
)


def test_no_shared_class_member_is_test_only(monkeypatch):
    """Every member with a shared name is read from src/ at run time."""
    shared = _shared_names()
    members = {(getattr(importlib.import_module(f"hardcore_entropy.{stem}"),
                        cls.name), name)
               for stem, cls, name, _ in _class_members() if name in shared}
    reads = set()

    def spy(cls):
        get = cls.__getattribute__

        def __getattribute__(self, name):
            caller = sys._getframe(1).f_code.co_filename
            if os.path.dirname(caller) == str(PACKAGE):
                reads.add((cls, name))
            return get(self, name)
        return __getattribute__

    for cls in {cls for cls, _ in members}:
        monkeypatch.setattr(cls, "__getattribute__", spy(cls))
    # a cached result hides the reads that built it in an earlier test
    for name, module in list(sys.modules.items()):
        if name.startswith("hardcore_entropy."):
            for obj in vars(module).values():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
    monkeypatch.delenv("HC_CACHE_DIR", raising=False)
    for argv in RUNS:
        assert cli.main(argv) == 0, argv
    unused = sorted(f"{cls.__module__.removeprefix('hardcore_entropy.')}."
                    f"{cls.__name__}.{name}"
                    for cls, name in members - reads)
    assert unused == [], f"shared class members only tests use: {unused}"
