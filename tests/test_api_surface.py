"""Every public name and every defaulted parameter in ``src/dipolelab`` is used.

A public function or class must be referenced by ``src/`` outside its own
definition, by the benchmark in ``bench/``, or by ``tests/test_acceptance.py``;
a name only its own unit tests call is test-only product API.  The sources are
parsed with ``ast``, nothing is imported.  A reference is a name, an attribute,
an imported name or an identifier-like string (``bench/tracing.py`` patches
names given as strings).

Likewise a parameter with a default, of a module-level function or a method,
must be passed by keyword or by position by some call in those same files,
with a value other than its default literal; a knob no caller turns is dead
code.  Calls match by the called name alone.
"""

import ast
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
    """(function, parameter, position or None, default) for each defaulted parameter.

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
        for index, (arg, default) in enumerate(zip(positional[first:], args.defaults),
                                               start=first):
            yield fn.name, arg.arg, index, default
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield fn.name, arg.arg, None, default


def literal(node: ast.AST):
    """(type, value) of a literal expression, or None for anything else."""
    try:
        value = ast.literal_eval(node)
    except (ValueError, TypeError):
        return None
    return type(value), value


def passed_arguments(trees) -> dict:
    """Called name -> [(positional argument nodes, {keyword: node})], one per call."""
    calls = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(
                    (node.args, {kw.arg: kw.value for kw in node.keywords}))
    return calls


def turns(call, param: str, index: int | None, default: ast.AST) -> bool:
    """Whether one call passes param a value other than its default literal."""
    args, keywords = call
    if param in keywords:
        value = keywords[param]
    elif index is not None and any(isinstance(arg, ast.Starred) for arg in args[:index + 1]):
        return True   # a *args call may fill the position with anything
    elif index is not None and index < len(args):
        value = args[index]
    else:
        return False
    fixed = literal(default)
    return fixed is None or literal(value) != fixed


def test_defaulted_parameters_have_a_product_caller():
    # a parameter that every product call passes only as its default literal
    # is as dead as one no call passes
    calls = passed_arguments(ast.parse(path.read_text()) for path in PRODUCT_CALLERS)
    unpassed = set()
    for path in sorted((ROOT / "src" / "dipolelab").glob("*.py")):
        for function, param, index, default in defaulted_parameters(ast.parse(path.read_text())):
            if not any(turns(call, param, index, default) for call in calls.get(function, [])):
                unpassed.add(f"{path.stem}.{function}.{param}")
    # a parameter on the allowlist that gains a caller leaves it
    assert unpassed == set(UNPASSED)
