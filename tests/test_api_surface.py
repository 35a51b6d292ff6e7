"""Every public module-level name in ``src/dipolelab`` has a product caller.

A public function or class must be referenced by ``src/`` outside its own
definition, by the benchmark in ``bench/``, or by ``tests/test_acceptance.py``;
a name only its own unit tests call is test-only product API.  The sources are
parsed with ``ast``, nothing is imported.  A reference is a name, an attribute,
an imported name or an identifier-like string (``bench/tracing.py`` patches
names given as strings).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# module.name -> why it stays without a product caller
ALLOWED = {
    "spatial.read_snapshot": "the reader of the snapshot artifact format; the fuzz "
                             "tests drive it",
}


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
