"""The library holds no code that only its own tests reach: every public
function, class and method of ``fermap`` is named outside the tests, by the
library itself, the scripts or the benchmark harness."""

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


def test_every_public_definition_is_reached_outside_the_tests():
    library = parsed(p for p in (ROOT / "src" / "fermap").glob("*.py") if p.name != "__init__.py")
    callers = parsed(
        [*(ROOT / "scripts").glob("*.py")]
        + [p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")]
    )
    named = set()
    for tree in [*library.values(), *callers.values()]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)

    def public(node):
        return isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")

    unreached = set()
    for path, tree in library.items():
        for node in filter(public, tree.body):
            methods = filter(public, node.body) if isinstance(node, ast.ClassDef) else []
            for name in [node.name, *(f"{node.name}.{m.name}" for m in methods)]:
                if name.rpartition(".")[2] not in named:
                    unreached.add(name)
    assert sorted(unreached) == sorted(TEST_REFERENCES)
