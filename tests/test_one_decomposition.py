"""Only ``hamiltonians`` turns a generator kind into operator pieces.

``hamiltonians.coupling_terms`` is the one map from a generator kind to the
pieces of the coupling W = H + Lap, and ``generator_terms`` builds H from
them; the steppers, the eigensolver and the bounds module read those pieces.
A module that reads a spec's ``kind`` or names a kind constant is a second
decomposition.  Likewise one operator type in ``hamiltonians`` applies both
H and W, and ``spatial`` alone cuts k^2 to the half spectrum of the real
transforms.  ``propagate.StepperConfig.nsteps`` alone turns a time span into a
step count, and ``fields`` alone maps an envelope's field-space vectors onto
grid axes.  The sources are parsed with ``ast``, nothing is imported.
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


def found_outside(owner: str, guard) -> dict:
    """{module file: lines} that guard finds in every module but owner."""
    found = {}
    for path in sorted((ROOT / "src" / "dipolelab").glob("*.py")):
        lines = [] if path.name == owner else guard(ast.parse(path.read_text()))
        if lines:
            found[path.name] = lines
    return found


def test_only_hamiltonians_reads_a_generator_kind():
    assert found_outside("hamiltonians.py", kind_reads) == {}


def test_the_guard_sees_each_form_of_a_kind_read():
    source = ("from .hamiltonians import FULL\n"
              "if spec_v.kind == 1:\n"
              "    pass\n"
              "x = hamiltonians.DIPOLE_LENGTH\n"
              "y = self.spec.kind\n"
              "z = env.kind\n")
    assert kind_reads(ast.parse(source)) == [1, 2, 4, 5]


APPLY_NAMES = {"apply", "adjoint_apply"}


def is_half_spectrum_bound(node: ast.AST) -> bool:
    """Whether node reads ``<expr> // 2 + 1``, the length of a half spectrum."""
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
            and isinstance(node.right, ast.Constant) and node.right.value == 1
            and isinstance(node.left, ast.BinOp) and isinstance(node.left.op, ast.FloorDiv)
            and isinstance(node.left.right, ast.Constant) and node.left.right.value == 2)


def half_spectrum_slices(tree: ast.AST) -> list[int]:
    """Line numbers that subscript k_square or slice to a half spectrum."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Subscript):
            continue
        bounds = [part for sl in ast.walk(node.slice) if isinstance(sl, ast.Slice)
                  for part in (sl.lower, sl.upper)]
        if terminal_name(node.value) == "k_square" or any(map(is_half_spectrum_bound, bounds)):
            lines.append(node.lineno)
    return sorted(set(lines))


def apply_definitions(tree: ast.AST) -> list[int]:
    """Line numbers that define a function named apply or adjoint_apply."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name in APPLY_NAMES)


def test_only_spatial_cuts_the_half_spectrum():
    assert found_outside("spatial.py", half_spectrum_slices) == {}


def test_only_hamiltonians_defines_an_operator_apply():
    assert found_outside("hamiltonians.py", apply_definitions) == {}


def test_the_guards_see_each_form_of_a_slice_and_an_apply():
    source = ("a = grid.k_square[..., :3]\n"
              "b = sym[..., :grid.shape[-1] // 2 + 1]\n"
              "c = k_square[0]\n"
              "d = x[: n // 2]\n"
              "class Op:\n"
              "    def apply(self, v):\n"
              "        def adjoint_apply(u):\n"
              "            return u\n"
              "    def normal_apply(self, v):\n"
              "        return v\n")
    tree = ast.parse(source)
    assert half_spectrum_slices(tree) == [1, 2, 3]
    assert apply_definitions(tree) == [6, 7]


def time_to_step_conversions(tree: ast.AST) -> list[int]:
    """Line numbers that name TIME_MATCH_TOL or round a quotient by dt."""
    lines = []
    for node in ast.walk(tree):
        tolerance = (terminal_name(node) == "TIME_MATCH_TOL"
                     or isinstance(node, ast.alias) and node.name == "TIME_MATCH_TOL")
        rounded = (isinstance(node, ast.Call) and terminal_name(node.func) == "round"
                   and any(isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Div)
                           and terminal_name(sub.right) == "dt"
                           for arg in node.args for sub in ast.walk(arg)))
        if tolerance or rounded:
            lines.append(node.lineno)
    return sorted(set(lines))


def test_only_propagate_turns_times_into_steps():
    assert found_outside("propagate.py", time_to_step_conversions) == {}


def test_the_guard_sees_each_form_of_a_time_to_step_conversion():
    source = ("from .propagate import TIME_MATCH_TOL\n"
              "k = int(round((s - t0) / dt))\n"
              "n = round(span / self.dt)\n"
              "tol = propagate.TIME_MATCH_TOL\n"
              "m = round(span / width)\n"
              "q = (t1 - t0) / dt\n")
    assert time_to_step_conversions(ast.parse(source)) == [1, 2, 3, 4]


ENVELOPE_VECTORS = {"k_hat", "eps_hat"}


def envelope_vector_reads(tree: ast.AST) -> list[int]:
    """Line numbers that read an attribute named k_hat or eps_hat, getattr included."""
    lines = []
    for node in ast.walk(tree):
        attribute = isinstance(node, ast.Attribute) and node.attr in ENVELOPE_VECTORS
        by_name = (isinstance(node, ast.Call) and terminal_name(node.func) == "getattr"
                   and any(isinstance(arg, ast.Constant) and arg.value in ENVELOPE_VECTORS
                           for arg in node.args))
        if attribute or by_name:
            lines.append(node.lineno)
    return sorted(set(lines))


def test_only_fields_reads_an_envelope_vector():
    assert found_outside("fields.py", envelope_vector_reads) == {}


def test_the_guard_sees_each_form_of_an_envelope_vector_read():
    source = ("k = env.k_hat\n"
              "e = spec.field.envelope.eps_hat[:2]\n"
              "n = np.any(field.envelope.eps_hat)\n"
              "v = getattr(env, 'k_hat')\n"
              "m = env.field_dim\n"
              "k_hat = np.zeros(2)\n"
              "eps = k_hat[0]\n")
    assert envelope_vector_reads(ast.parse(source)) == [1, 2, 3, 4]
