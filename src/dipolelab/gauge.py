"""Unitary map between the velocity- and length-gauge dipole evolutions.

The map multiplies by exp(-i b(0,t).r) with b(0,t) = (1/omega) a(0, omega t),
using the on-grid components of b.  It conjugates (-i grad - b)^2 to the bare
Laplacian, so the length-gauge generator carries the -E(0,t).r term instead;
any off-grid |b|^2 remainder is spatially constant and therefore a pure global
phase, which is why state comparison here is phase-insensitive.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .fields import ScaledField, coupling_arrays
from .spatial import WaveFunction, inner_product, norm


def _phase_field(field: ScaledField, t: float, grid) -> np.ndarray:
    phase = np.zeros((1,) * grid.dim)
    for axis, b in coupling_arrays(field, t, grid, dipole=True)[0]:
        phase = phase + b * grid.mesh(axis)
    return phase


def velocity_to_length(psi_v: WaveFunction, field: ScaledField, t: float) -> WaveFunction:
    """psi_L(t) = exp(-i b(t).r) psi_V(t); norm-preserving to roundoff."""
    phase = _phase_field(field, t, psi_v.grid)
    return WaveFunction(psi_v.grid, psi_v.values * np.exp(-1j * phase))


def length_to_velocity(psi_l: WaveFunction, field: ScaledField, t: float) -> WaveFunction:
    """Inverse multiplier exp(+i b(t).r)."""
    phase = _phase_field(field, t, psi_l.grid)
    return WaveFunction(psi_l.grid, psi_l.values * np.exp(1j * phase))


def phase_fidelity(psi1: WaveFunction, psi2: WaveFunction) -> float:
    """|<psi1, psi2>| / (||psi1|| ||psi2||): 1 iff equal up to a global phase."""
    n1 = norm(psi1)
    n2 = norm(psi2)
    if n1 == 0.0 or n2 == 0.0:
        raise ConfigError("phase fidelity of a zero state")
    return abs(inner_product(psi1, psi2)) / (n1 * n2)
