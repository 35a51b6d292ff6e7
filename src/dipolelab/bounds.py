"""Discrete analogues of the operator estimates behind well-posedness.

Three measurements on matrix-free operators, all over reproducible seeded
probe ensembles:

  * contraction_scan: q(alpha) = ||W R_alpha||, R_alpha = (-Lap + alpha)^-1;
    invertibility of 1 + W R_alpha needs q < 1.  q(alpha)^2 is the top
    eigenvalue of the Hermitian PSD normal operator R W^dag W R, found by the
    Lanczos recurrence the Krylov stepper uses (propagate._lanczos), restarted
    from the top Ritz vector every 24 vectors.  It stops once the top Ritz
    pair's residual is at most 1e-8 times its Ritz value.  Shifts run in
    increasing order, each warm-started from the previous top eigenvector
    plus the seeded random start.
  * infinitesimal_bound_scan: smallest C with ||W psi||^2 <= eps ||Lap psi||^2
    + C ||psi||^2 over the probes (a lower bound on the true constant).
  * graph_norm_constants: the ratio between the discrete second Sobolev norm
    and the graph norm ||psi|| + ||(H + alpha) psi||.

The estimates are grid-dependent; reports carry the grid and seed so numbers
are reproducible bit-for-bit and never extrapolated to the continuum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, NumericalError
from .fields import coupling_arrays
from .hamiltonians import (DIPOLE_LENGTH, DIPOLE_VELOCITY, HamiltonianSpec,
                           hamiltonian_apply_fn, length_gauge_term,
                           potential_on_grid)
from .propagate import _lanczos, _tridiagonal_eigh
from .spatial import Grid, WaveFunction, spectral_axis_derivative

# Lanczos for q(alpha): at most LANCZOS_M basis vectors per cycle.  A flat
# spectral top (constant drift and no potential, diagonal in k) can take
# hundreds of restarts; the cap allows about 19,000 applies per shift.
LANCZOS_M = 24
RITZ_RTOL = 1e-8
LANCZOS_MAX_RESTARTS = 800


@dataclass(frozen=True, eq=False)
class CouplingOperator:
    """W = 2i b.grad + b^2 + V as a matrix-free operator on a grid."""

    grid: Grid
    b_axes: dict
    b_sq: object
    v: object

    @classmethod
    def from_spec(cls, spec: HamiltonianSpec, t: float, grid: Grid) -> "CouplingOperator":
        v = potential_on_grid(spec.potential, grid)
        if spec.kind == DIPOLE_LENGTH:
            return cls(grid, {}, 0.0, v + length_gauge_term(spec.field, t, grid))
        b_axes, b_sq = coupling_arrays(spec.field, t, grid,
                                       dipole=spec.kind == DIPOLE_VELOCITY)
        return cls(grid, dict(b_axes), b_sq, v)

    @classmethod
    def explicit(cls, grid: Grid, b_axes: dict | None = None, b_sq=0.0,
                 v=None) -> "CouplingOperator":
        return cls(grid, dict(b_axes or {}), b_sq,
                   np.zeros(grid.shape) if v is None else v)

    def apply(self, values: np.ndarray) -> np.ndarray:
        out = (self.b_sq + self.v) * values
        if self.b_axes:
            vhat = np.fft.fftn(values)
            for axis, b in self.b_axes.items():
                grad = np.fft.ifftn(vhat * (1j * self.grid.k_mesh(axis)))
                out = out + 2j * b * grad
        return out

    def adjoint_apply(self, values: np.ndarray) -> np.ndarray:
        # (2i b . grad)^dagger = 2i grad . (b .) for real b; multiplications
        # are self-adjoint.
        out = (self.b_sq + self.v) * values
        for axis, b in self.b_axes.items():
            out = out + 2j * spectral_axis_derivative(b * values, self.grid, axis)
        return out


def resolvent_apply(values: np.ndarray, grid: Grid, alpha: float) -> np.ndarray:
    """(-Lap + alpha)^-1, diagonal in momentum space."""
    if alpha <= 0:
        raise ConfigError("resolvent shift must be positive")
    return np.fft.ifftn(np.fft.fftn(values) / (grid.k_square + alpha))


def _top_eigenpair(apply_fn, v0: np.ndarray, alpha: float):
    """Largest eigenvalue and unit eigenvector of a Hermitian PSD operator.

    Lanczos from the unit vector v0, restarted from the top Ritz vector each
    time LANCZOS_M vectors are used up.  It stops once the top pair's residual
    norm b |z_last| falls to RITZ_RTOL theta; for a Hermitian operator some
    eigenvalue then lies that close to theta.
    """
    v = v0
    for _ in range(LANCZOS_MAX_RESTARTS + 1):
        for V, diag, off, b in _lanczos(apply_fn, v, LANCZOS_M):
            if not (np.isfinite(b) and np.isfinite(diag[-1])):
                raise NumericalError(
                    f"normal operator returned non-finite values at alpha={alpha}")
            theta, z = _tridiagonal_eigh(diag, off)
            converged = b * abs(z[-1, -1]) <= RITZ_RTOL * abs(theta[-1])
            if converged:
                break
        top = z[:, -1] @ V
        v = (top / np.linalg.norm(top)).reshape(v0.shape)
        if converged:
            return float(theta[-1]), v
    raise NumericalError(
        f"Lanczos found no top eigenvalue at alpha={alpha} within "
        f"{LANCZOS_MAX_RESTARTS} restarts")


def contraction_scan(w_op: CouplingOperator, alphas: Sequence[float],
                     seed: int = 2024):
    """q(alpha) over the sampled shifts and the smallest alpha with q < 1.

    q(alpha)^2 is the top eigenvalue of R W^dag W R, R = (-Lap + alpha)^-1.
    The first shift starts from a seeded random unit vector r; each later one
    from the previous top eigenvector plus r, since the old eigenvector alone
    can span an invariant subspace of the new operator that misses its top.
    """
    alphas = [float(a) for a in alphas]
    if sorted(alphas) != alphas:
        raise ConfigError("alpha grid must be increasing")
    grid = w_op.grid
    rng = np.random.default_rng(seed)
    r = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    r /= np.linalg.norm(r.ravel())
    q = np.empty(len(alphas))
    start = r
    # overflow surfaces as _top_eigenpair's NumericalError, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for i, alpha in enumerate(alphas):
            def normal_apply(x: np.ndarray, alpha=alpha) -> np.ndarray:
                y = w_op.apply(resolvent_apply(x, grid, alpha))
                return resolvent_apply(w_op.adjoint_apply(y), grid, alpha)

            theta, top = _top_eigenpair(normal_apply, start, alpha)
            q[i] = np.sqrt(max(theta, 0.0))
            start = top + r
            start /= np.linalg.norm(start.ravel())
    alpha_star = None
    for a, qa in zip(alphas, q):
        if qa < 1.0:
            alpha_star = a
            break
    return np.array(alphas), q, alpha_star


def infinitesimal_bound_scan(w_op: CouplingOperator, epsilons: Sequence[float],
                             probes: Sequence[WaveFunction]) -> np.ndarray:
    """Smallest C per eps with ||W psi||^2 <= eps ||Lap psi||^2 + C ||psi||^2.

    Probe-set maxima are lower bounds on the true constants and are clamped
    at zero.  The ensemble must be large enough (>= 64) to span smooth and
    oscillatory states.
    """
    if len(probes) < 64:
        raise ConfigError("relative-bound scan needs at least 64 probes")
    grid = probes[0].grid
    # Parseval for the unnormalized FFT: ||Lap psi|| = ||k^2 F psi|| / sqrt(N)
    inv_sqrt_n = 1.0 / np.sqrt(grid.npoints)
    w_norms = []
    lap_norms = []
    norms = []
    for p in probes:
        wn = np.linalg.norm(w_op.apply(p.values).ravel())
        ln = np.linalg.norm((grid.k_square * np.fft.fftn(p.values)).ravel()) * inv_sqrt_n
        nn = np.linalg.norm(p.values.ravel())
        w_norms.append(wn ** 2)
        lap_norms.append(ln ** 2)
        norms.append(nn ** 2)
    w_norms = np.array(w_norms)
    lap_norms = np.array(lap_norms)
    norms = np.array(norms)
    out = []
    for eps in epsilons:
        c = np.max((w_norms - float(eps) * lap_norms) / norms)
        out.append(max(0.0, float(c)))
    return np.array(out)


def sobolev_norm(psi: WaveFunction) -> float:
    """(1 + k^2 + k^4)^(1/2)-weighted momentum norm (discrete W^{2,2}).

    With unit weight this reduces to the plain L2 norm (Parseval).
    """
    g = psi.grid
    vhat = np.fft.fftn(psi.values)
    weight = 1.0 + g.k_square + g.k_square ** 2
    total = float(np.sum(weight * np.abs(vhat) ** 2))
    return np.sqrt(total * g.cell_volume / g.npoints)


def graph_norm_constants(spec: HamiltonianSpec, t: float, alpha: float,
                         probes: Sequence[WaveFunction]):
    """[min, max] over probes of ||psi||_{W^{2,2}} / (||psi|| + ||(H+alpha) psi||)."""
    if len(probes) < 1:
        raise ConfigError("need at least one probe")
    grid = probes[0].grid
    fn = hamiltonian_apply_fn(spec, t, grid)
    ratios = []
    scale = np.sqrt(grid.cell_volume)
    for p in probes:
        n = np.linalg.norm(p.values.ravel()) * scale
        if n == 0.0:
            raise ConfigError("degenerate zero-norm probe")
        hp = fn(p.values) + alpha * p.values
        graph = n + np.linalg.norm(hp.ravel()) * scale
        ratios.append(sobolev_norm(p) / graph)
    return float(np.min(ratios)), float(np.max(ratios))


def probe_ensemble(grid: Grid, count: int, seed: int,
                   kind: str = "mixed") -> list[WaveFunction]:
    """Reproducible probe states: Gaussians with random boosts + band noise."""
    rng = np.random.default_rng(seed)
    probes: list[WaveFunction] = []
    scale = np.sqrt(grid.cell_volume)
    for idx in range(count):
        if kind == "mixed" and idx % 2 == 1:
            cutoff = max(2, min(grid.shape) // 4)
            coeff = np.zeros(grid.shape, dtype=complex)
            sel = tuple(slice(0, cutoff) for _ in range(grid.dim))
            block = rng.standard_normal((cutoff,) * grid.dim) \
                + 1j * rng.standard_normal((cutoff,) * grid.dim)
            coeff[sel] = block
            vals = np.fft.ifftn(coeff)
        else:
            vals = np.ones(grid.shape, dtype=complex)
            for axis in range(grid.dim):
                l = grid.lengths[axis]
                c = rng.uniform(-l / 4, l / 4)
                lo = 2.2 * grid.spacing[axis]
                sig = rng.uniform(lo, max(l / 8, 2.0 * lo))
                k0 = rng.uniform(-1.0, 1.0) * np.pi / (3.0 * grid.spacing[axis])
                x = grid.mesh(axis)
                vals = vals * np.exp(-(x - c) ** 2 / (2 * sig ** 2) + 1j * k0 * x)
        n = np.linalg.norm(vals.ravel()) * scale
        probes.append(WaveFunction(grid, vals / n))
    return probes


def plane_wave_probes(grid: Grid, mode_indices: Sequence[tuple]) -> list[WaveFunction]:
    """Commensurate plane waves exp(i k.x), unit-normalized on the box."""
    probes = []
    vol = np.prod(grid.lengths)
    for modes in mode_indices:
        if len(modes) != grid.dim:
            raise ConfigError("mode index dimension mismatch")
        phase = np.zeros(grid.shape)
        for axis, m in enumerate(modes):
            k = 2.0 * np.pi * m / grid.lengths[axis]
            phase = phase + k * grid.mesh(axis)
        vals = np.exp(1j * phase) / np.sqrt(vol)
        probes.append(WaveFunction(grid, vals))
    return probes


@dataclass
class BoundsReport:
    """Scan outputs plus the probe/grid description that reproduces them."""

    alphas: list
    q_values: list
    alpha_star: float | None
    epsilons: list
    c_eps: list
    graph_alpha: float
    graph_interval: tuple
    probe_description: str
    seed: int
    grid_shape: tuple
    grid_lengths: tuple

    def to_json_dict(self) -> dict:
        return {
            "alphas": [float(a) for a in self.alphas],
            "q_values": [float(q) for q in self.q_values],
            "alpha_star": self.alpha_star,
            "epsilons": [float(e) for e in self.epsilons],
            "c_eps": [float(c) for c in self.c_eps],
            "graph_alpha": self.graph_alpha,
            "graph_interval": [float(self.graph_interval[0]), float(self.graph_interval[1])],
            "probe_description": self.probe_description,
            "seed": self.seed,
            "grid_shape": list(self.grid_shape),
            "grid_lengths": list(self.grid_lengths),
        }

    def format_table(self) -> str:
        lines = ["alpha      q(alpha)"]
        for a, q in zip(self.alphas, self.q_values):
            lines.append(f"{a:<10.4g} {q:.6f}")
        lines.append(f"alpha* (first q<1): {self.alpha_star}")
        lines.append("")
        lines.append("eps        C_eps")
        for e, c in zip(self.epsilons, self.c_eps):
            lines.append(f"{e:<10.4g} {c:.6f}")
        lines.append("")
        c0, c1 = self.graph_interval
        lines.append(f"graph-norm ratio at alpha={self.graph_alpha}: [{c0:.6f}, {c1:.6f}]")
        return "\n".join(lines)


def run_bounds_suite(spec: HamiltonianSpec, t: float, grid: Grid, seed: int,
                     alphas: Sequence[float] = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0),
                     epsilons: Sequence[float] = (0.0, 0.01, 0.05, 0.1, 0.5, 1.0),
                     graph_alpha: float = 10.0,
                     probe_count: int = 64) -> BoundsReport:
    """Full scan set against one generator at one time."""
    w_op = CouplingOperator.from_spec(spec, t, grid)
    alpha_arr, q, alpha_star = contraction_scan(w_op, alphas, seed=seed)
    probes = probe_ensemble(grid, probe_count, seed)
    c_eps = infinitesimal_bound_scan(w_op, epsilons, probes)
    interval = graph_norm_constants(spec, t, graph_alpha, probes)
    return BoundsReport(
        alphas=list(alpha_arr), q_values=list(q), alpha_star=alpha_star,
        epsilons=list(epsilons), c_eps=list(c_eps), graph_alpha=graph_alpha,
        graph_interval=interval,
        probe_description=f"mixed gaussian/band-limited ensemble, {probe_count} probes",
        seed=seed, grid_shape=grid.shape, grid_lengths=grid.lengths)
