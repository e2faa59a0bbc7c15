"""The library and scripts define only what they use.

Every function, class and method defined in `src/ipslearn/*.py` and
`scripts/*.py` (dunders aside) must be referenced somewhere in those files:
as a name, an attribute, an imported name or a string constant (the batch
looks its update rules up by name with `getattr`).  Code that only tests
call belongs under `tests/` (reference computations in `tests/oracles.py`).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PROGRAM_FILES = sorted([*(ROOT / "src" / "ipslearn").glob("*.py"), *(ROOT / "scripts").glob("*.py")])


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions_and_references(trees):
    defined, referenced = set(), set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name.rsplit(".", 1)[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                referenced.add(node.value)
    return {name for name in defined if not _is_dunder(name)}, referenced


def test_every_program_definition_is_referenced():
    assert len(PROGRAM_FILES) > 10
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in PROGRAM_FILES]
    defined, referenced = _definitions_and_references(trees)
    unused = sorted(defined - referenced)
    assert not unused, f"defined but never referenced: {unused}"


def test_an_unreferenced_definition_is_flagged():
    tree = ast.parse(
        "RULES = {'a': 'rule_a'}\n"
        "def rule_a(): pass\n"
        "def orphan(): pass\n"
        "class Used:\n"
        "    def method(self): pass\n"
        "    def __len__(self): return 0\n"
        "Used().method()\n"
    )
    defined, referenced = _definitions_and_references([tree])
    assert defined - referenced == {"orphan"}
