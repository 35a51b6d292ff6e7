"""A-posteriori certificate for the distance between full and dipole evolution.

Writing the difference of the two propagators as a time integral of one
evolution applied to the generator difference applied to the other bounds the
terminal error by

    B = int_{t0}^{t} g(s) ds,
    g(s) = 2 ||(b(r, s) - b(0, s)) . grad psi_s|| + ||(|b(r, s)|^2 - |b(0, s)|^2) psi_s||,

where b(r, s) = (1/w) a(r/lam, w s) is the coupling that
``fields.coupling_arrays`` samples and psi_s is the dipole-evolved state.
Only the dipole trajectory is needed to produce B, which is what makes the
certificate usable a-posteriori; the dipole run evaluates g for every
wavelength as it passes each node, so no node state is kept.  Its hook
receives every (nsteps / (4 panels))-th step index and takes the node time
t0 + h j from the Simpson nodes, not t0 + k dt, which differs in the last bits.
B is composite Simpson over the fine nodes; the same samples at every other
node give a coarse B, and a fine/coarse gap above QUAD_SELF_TOL (relative)
flags the quadrature.  The measured error e that B is compared against comes
from the full-coupling runs of the harness sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .fields import ScaledField, coupling_arrays
from .fields import profile_value  # noqa: F401  (unused; bench/tracing.py patches it here)
from .hamiltonians import HamiltonianSpec
from .propagate import StepperConfig, evolve
from .spatial import WaveFunction, spectral_axis_derivative

QUAD_SELF_TOL = 0.01


@dataclass
class CookReport:
    """Certified bound, quadrature data, and the measured error it certifies."""

    lam: float
    omega: float
    nodes: np.ndarray
    weights: np.ndarray
    g_values: np.ndarray
    bound: float
    bound_coarse: float
    quad_self_error: float
    quad_flag: bool
    measured_error: float | None = None
    slack: float | None = None
    metadata: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {
            "lambda": self.lam,
            "omega": self.omega,
            "nodes": [float(x) for x in self.nodes],
            "weights": [float(x) for x in self.weights],
            "g_values": [float(x) for x in self.g_values],
            "bound": self.bound,
            "bound_coarse": self.bound_coarse,
            "quad_self_error": self.quad_self_error,
            "quad_flag": self.quad_flag,
            "measured_error": self.measured_error,
            "slack": self.slack,
        }
        out.update(self.metadata)
        return out


def cook_integrand(fld: ScaledField, s: float, psi: WaveFunction) -> float:
    """g(s) >= 0 for one dipole-trajectory sample."""
    grid = psi.grid
    b_axes, b_sq = coupling_arrays(fld, s, grid)
    b0_axes, b0_sq = coupling_arrays(fld, s, grid, dipole=True)
    scale = np.sqrt(grid.cell_volume)
    total = 0.0
    if b_axes:
        acc = np.zeros(grid.shape, dtype=complex)
        for (axis, b), (_, b0) in zip(b_axes, b0_axes):
            acc = acc + (b - b0) * spectral_axis_derivative(psi.values, grid, axis)
        total += 2.0 * float(np.linalg.norm(acc.ravel())) * scale
    sq_term = (b_sq - b0_sq) * psi.values
    total += float(np.linalg.norm(sq_term.ravel())) * scale
    return total


def simpson_weights(panels: int, t0: float, t: float) -> tuple[np.ndarray, np.ndarray]:
    """Composite Simpson nodes and weights with the given panel count."""
    if panels < 1:
        raise ConfigError("need at least one Simpson panel")
    n = 2 * panels
    h = (t - t0) / n
    nodes = t0 + h * np.arange(n + 1)
    weights = np.full(n + 1, 2.0)
    weights[1::2] = 4.0
    weights[0] = weights[-1] = 1.0
    return nodes, weights * h / 3.0


def _bound_from_samples(nodes: np.ndarray, g_values: np.ndarray, panels: int):
    """(B, B_coarse, quad_flag) from one wavelength's g at the fine nodes."""
    _, w_fine = simpson_weights(2 * panels, nodes[0], nodes[-1])
    _, w_coarse = simpson_weights(panels, nodes[0], nodes[-1])
    bound_fine = float(w_fine @ g_values)
    bound_coarse = float(w_coarse @ g_values[::2])
    flag = abs(bound_fine - bound_coarse) > QUAD_SELF_TOL * max(bound_fine, 1e-30)
    return bound_fine, bound_coarse, flag


def dipole_node_trajectory(spec_inf: HamiltonianSpec, fields: list[ScaledField],
                           psi0: WaveFunction, clock: StepperConfig, panels: int):
    """Dipole evolution on clock through the fine Simpson nodes (2*panels panels).

    g(s) is evaluated for each of the fields as the run passes each node, so
    no node state is kept; the 4*panels node intervals must divide the
    clock's steps.  Returns (nodes, g_table, psi_final), with
    g_table[i, j] = g(nodes[j]) for fields[i] and psi_final the dipole state
    at clock.t_final.
    """
    nodes, _ = simpson_weights(2 * panels, clock.t0, clock.t_final)
    every, rest = divmod(clock.nsteps, 4 * panels)
    if rest:
        raise ConfigError(f"4 * panels = {4 * panels} must divide the {clock.nsteps} steps")
    g_table = np.empty((len(fields), nodes.size))

    def on_node(k: int, psi: WaveFunction) -> None:
        j = k // every
        g_table[:, j] = [cook_integrand(fld, nodes[j], psi) for fld in fields]

    final = evolve(spec_inf, psi0, clock, on_sample=on_node, every=every).terminal_state
    return nodes, g_table, final
