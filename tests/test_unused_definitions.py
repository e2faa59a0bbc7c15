"""The library and scripts define only what they use.

Every function, class and method defined in `src/ipslearn/*.py` and
`scripts/*.py` (dunders aside) must be referenced somewhere in those files:
as a name, an attribute, an imported name or a string constant (the batch
looks its update rules up by name with `getattr`).  Code that only tests
call belongs under `tests/` (reference computations in `tests/oracles.py`).

Likewise every defaulted parameter of a program function or method
(constructors aside) must be passed by some call in those files, matched by
the function's name; a call with `*args` or `**kwargs` counts as passing
every parameter.  A default that only tests override is test-only API.

Only `runner` writes artifacts: no other program file calls the CSV or
table writer, and the CLI imports nothing from `runner` but `run_*`.

Only `config` and `batch` name an estimator kind: `config` resolves
everything that depends on the kind into the estimator's setup, and the
batch maps the kind to its update rule.
"""

import ast
from pathlib import Path

from ipslearn.batch import ESTIMATOR_KINDS

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


CONSTRUCTORS = {"__init__", "__new__", "__post_init__"}


def _defaulted_parameters(trees):
    """(function name, parameter, positional index or None) for every
    defaulted parameter of a program function or method.  The index counts
    from the first argument a call passes, so a method's `self` is left out;
    keyword-only parameters have None."""
    out = []
    for tree in trees:
        methods = {
            id(f) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            for f in node.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in f.decorator_list)
        }
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.name in CONSTRUCTORS:
                continue
            a = node.args
            positional = [*a.posonlyargs, *a.args][1 if id(node) in methods else 0:]
            for k in range(len(positional) - len(a.defaults), len(positional)):
                out.append((node.name, positional[k].arg, k))
            out += [(node.name, arg.arg, None)
                    for arg, default in zip(a.kwonlyargs, a.kw_defaults) if default is not None]
    return out


def _calls(trees):
    """Function or attribute name -> [(positional count, keyword names, starred)]."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name is None:
                continue
            starred = (any(isinstance(x, ast.Starred) for x in node.args)
                       or any(kw.arg is None for kw in node.keywords))
            calls.setdefault(name, []).append(
                (len(node.args), {kw.arg for kw in node.keywords}, starred)
            )
    return calls


def _never_passed(trees):
    calls = _calls(trees)
    return sorted(
        f"{name}({param})" for name, param, k in _defaulted_parameters(trees)
        if not any(starred or param in keywords or (k is not None and n_pos > k)
                   for n_pos, keywords, starred in calls.get(name, ()))
    )


def test_every_defaulted_parameter_is_passed_by_the_program():
    trees = [ast.parse(path.read_text(), filename=str(path)) for path in PROGRAM_FILES]
    unpassed = _never_passed(trees)
    assert not unpassed, f"defaulted parameters no program call passes: {unpassed}"


def test_a_never_passed_default_is_flagged():
    tree = ast.parse(
        "def f(a, b=1, c=2, *, d=3, e=4): pass\n"
        "def g(x=0): pass\n"
        "def h(y=0): pass\n"
        "class K:\n"
        "    def __init__(self, z=0): pass\n"
        "    def m(self, u=0, v=0): pass\n"
        "f(0, 1, e=5)\n"
        "g(*args)\n"
        "K().m(1)\n"
    )
    assert _never_passed([tree]) == ["f(c)", "f(d)", "h(y)", "m(v)"]


def test_only_the_runner_writes_artifacts():
    # one module decides how an output directory is laid out: the CLI parses
    # and dispatches to the runner's `run_*` functions, which write every file
    writers = {"write_csv", "_write_table"}
    for path in PROGRAM_FILES:
        called = writers & set(_calls([ast.parse(path.read_text(), filename=str(path))]))
        assert path.name == "runner.py" or not called, f"{path.name} calls {sorted(called)}"
    cli = ast.parse((ROOT / "src" / "ipslearn" / "cli.py").read_text())
    imported = [alias.name for node in ast.walk(cli)
                if isinstance(node, ast.ImportFrom) and node.module == "runner"
                for alias in node.names]
    assert imported and all(name.startswith("run_") for name in imported), imported


def test_only_config_and_batch_name_estimator_kinds():
    # every other module reads what the estimator's setup holds, never its kind
    named = {}
    for path in PROGRAM_FILES:
        kinds = sorted({node.value for node in ast.walk(ast.parse(path.read_text()))
                        if isinstance(node, ast.Constant) and node.value in ESTIMATOR_KINDS})
        if kinds and path.name not in ("config.py", "batch.py"):
            named[path.name] = kinds
    assert not named, f"estimator kinds named outside config and batch: {named}"
