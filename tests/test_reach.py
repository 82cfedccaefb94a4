"""The library holds no code that only its own tests reach: every public
function, class and method of ``fermap`` is named outside the tests, by the
library itself, the scripts or the benchmark harness, and every parameter of
a public function or method is passed there."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Reached by tests only, on purpose: the dense references that the other
#: modules' tests compare against.
TEST_REFERENCES = {
    "fermion_dense": "the Fock matrix of the integrals' spin sum; checks classification and JW",
    "classified_dense": "the Fock matrix of classified terms; checks classify_spatial",
}


def parsed(paths):
    return {p: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(paths)}


LIBRARY = parsed(p for p in (ROOT / "src" / "fermap").glob("*.py") if p.name != "__init__.py")
CALLERS = parsed(
    [*(ROOT / "scripts").glob("*.py")]
    + [p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")]
)


def public(node):
    return (
        isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    )


def definitions():
    """(qualified name, definition) of every public function, class and
    method of the library."""
    for tree in LIBRARY.values():
        for node in filter(public, tree.body):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for method in filter(public, node.body):
                    yield f"{node.name}.{method.name}", method


def test_every_public_definition_is_reached_outside_the_tests():
    named = set()
    for tree in [*LIBRARY.values(), *CALLERS.values()]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    unreached = {name for name, _ in definitions() if name.rpartition(".")[2] not in named}
    assert sorted(unreached) == sorted(TEST_REFERENCES)


def passed_parameters():
    """Per function name, the parameter names and positions that a call
    outside the tests passes; ``None`` when some use passes them all: a call
    with ``*args`` or ``**kwargs``, or the function named without a call, as
    a callback.  Import aliases resolve to the imported name."""
    passed = {}

    def mark(name, keys):
        if passed.get(name, set()) is not None:
            passed[name] = None if keys is None else passed.get(name, set()) | keys

    for tree in [*LIBRARY.values(), *CALLERS.values()]:
        aliases = {
            a.asname: a.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom)
            for a in node.names
            if a.asname
        }
        called = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                called.add(id(node.func))
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                name = aliases.get(name, name)
                spread = any(isinstance(a, ast.Starred) for a in node.args) or any(
                    k.arg is None for k in node.keywords
                )
                keys = None if spread else {*range(len(node.args)), *(k.arg for k in node.keywords)}
                mark(name, keys)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in called:
                name = node.id if isinstance(node, ast.Name) else node.attr
                mark(aliases.get(name, name), None)
    return passed


def test_every_public_parameter_is_passed_outside_the_tests():
    passed = passed_parameters()
    unpassed = set()
    for name, node in definitions():
        if not isinstance(node, ast.FunctionDef) or name in TEST_REFERENCES:
            continue
        params = [*node.args.posonlyargs, *node.args.args]
        positional = params[1:] if "." in name else params  # a method's self or cls is bound
        keys = passed.get(name.rpartition(".")[2], set())
        for position, param in enumerate(positional):
            if keys is not None and position not in keys and param.arg not in keys:
                unpassed.add(f"{name}({param.arg})")
        for param in node.args.kwonlyargs:
            if keys is not None and param.arg not in keys:
                unpassed.add(f"{name}({param.arg})")
    assert sorted(unpassed) == []
