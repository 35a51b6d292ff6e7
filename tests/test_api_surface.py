"""Every public name and every defaulted parameter in ``src/dipolelab`` is used.

A public function or class must be referenced by ``src/`` outside its own
definition, by the benchmark in ``bench/``, or by ``tests/test_acceptance.py``;
a name only its own unit tests call is test-only product API.  The sources are
parsed with ``ast``, nothing is imported.  A reference is a name, an attribute,
an imported name or an identifier-like string (``bench/tracing.py`` patches
names given as strings).

Likewise a parameter with a default, of a module-level function or a method,
must be passed by keyword or by position by some call in those same files; a
knob no caller turns is dead code.  Calls match by the called name alone.
"""

import ast
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# module.name -> why it stays without a product caller
ALLOWED = {
    "spatial.read_snapshot": "the reader of the snapshot artifact format; the fuzz "
                             "tests drive it",
}

# module.function.parameter -> why it stays although no product call passes it
UNPASSED = {
    "harness.run_gauge_check.omega_length": "the detuned gauge check is the negative "
                                            "control of the cross-gauge fidelity",
}

PRODUCT_CALLERS = [*sorted((ROOT / "src" / "dipolelab").glob("*.py")),
                   *sorted((ROOT / "bench").glob("*.py")),
                   ROOT / "tests" / "test_acceptance.py"]


def referenced(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names that tree refers to, leaving out the subtree skip."""
    skipped = set() if skip is None else {id(node) for node in ast.walk(skip)}
    names = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            names.add(node.value)
    return names


def test_public_names_have_a_product_caller():
    sources = {path.stem: ast.parse(path.read_text())
               for path in sorted((ROOT / "src" / "dipolelab").glob("*.py"))}
    outside = set()
    for path in [*sorted((ROOT / "bench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]:
        outside |= referenced(ast.parse(path.read_text()))
    unused = set()
    for module, tree in sources.items():
        elsewhere = outside.union(*(referenced(other) for name, other in sources.items()
                                    if name != module))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name not in elsewhere and node.name not in referenced(tree, node):
                unused.add(f"{module}.{node.name}")
    # a name on the allowlist that gains a caller leaves it
    assert unused == set(ALLOWED)


def defaulted_parameters(tree: ast.Module):
    """(function, parameter, position or None) for each defaulted parameter.

    Covers module-level functions and the methods of module-level classes;
    a method's position leaves out self or cls.  Nested closures are skipped.
    """
    functions = [(node, False) for node in tree.body if isinstance(node, ast.FunctionDef)]
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        functions += [(item, not any(getattr(d, "id", None) == "staticmethod"
                                     for d in item.decorator_list))
                      for item in cls.body if isinstance(item, ast.FunctionDef)]
    for fn, bound in functions:
        args = fn.args
        positional = (args.posonlyargs + args.args)[int(bound):]
        first = len(positional) - len(args.defaults)
        for index, arg in enumerate(positional[first:], start=first):
            yield fn.name, arg.arg, index
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield fn.name, arg.arg, None


def passed_arguments(trees) -> dict:
    """Called name -> (keywords passed, most positional arguments) over all calls."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            keywords, count = calls.get(name, (set(), 0))
            # a *args call may fill every position
            starred = any(isinstance(arg, ast.Starred) for arg in node.args)
            calls[name] = (keywords | {kw.arg for kw in node.keywords},
                           max(count, math.inf if starred else len(node.args)))
    return calls


def test_defaulted_parameters_have_a_product_caller():
    calls = passed_arguments(ast.parse(path.read_text()) for path in PRODUCT_CALLERS)
    unpassed = set()
    for path in sorted((ROOT / "src" / "dipolelab").glob("*.py")):
        for function, param, index in defaulted_parameters(ast.parse(path.read_text())):
            keywords, count = calls.get(function, (set(), 0))
            if param not in keywords and (index is None or count <= index):
                unpassed.add(f"{path.stem}.{function}.{param}")
    # a parameter on the allowlist that gains a caller leaves it
    assert unpassed == set(UNPASSED)
