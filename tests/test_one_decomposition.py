"""Only ``hamiltonians`` turns a generator kind into operator pieces.

``hamiltonians.coupling_terms`` is the one map from a generator kind to the
pieces of the coupling W = H + Lap, and ``generator_terms`` builds H from
them; the steppers, the eigensolver and the bounds module read those pieces.
A module that reads a spec's ``kind`` or names a kind constant is a second
decomposition.  The sources are parsed with ``ast``, nothing is imported.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KIND_CONSTANTS = {"FULL", "DIPOLE_VELOCITY", "DIPOLE_LENGTH"}


def terminal_name(node: ast.AST) -> str:
    """The last identifier of a name or attribute chain, else ''."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


def kind_reads(tree: ast.AST) -> list[int]:
    """Line numbers that read a spec's kind or name a generator-kind constant."""
    lines = []
    for node in ast.walk(tree):
        spec_kind = (isinstance(node, ast.Attribute) and node.attr == "kind"
                     and "spec" in terminal_name(node.value))
        constant = (terminal_name(node) in KIND_CONSTANTS
                    or isinstance(node, ast.alias) and node.name in KIND_CONSTANTS)
        if spec_kind or constant:
            lines.append(node.lineno)
    return sorted(set(lines))


def test_only_hamiltonians_reads_a_generator_kind():
    found = {}
    for path in sorted((ROOT / "src" / "dipolelab").glob("*.py")):
        if path.name == "hamiltonians.py":
            continue
        lines = kind_reads(ast.parse(path.read_text()))
        if lines:
            found[path.name] = lines
    assert found == {}


def test_the_guard_sees_each_form_of_a_kind_read():
    source = ("from .hamiltonians import FULL\n"
              "if spec_v.kind == 1:\n"
              "    pass\n"
              "x = hamiltonians.DIPOLE_LENGTH\n"
              "y = self.spec.kind\n"
              "z = env.kind\n")
    assert kind_reads(ast.parse(source)) == [1, 2, 4, 5]
