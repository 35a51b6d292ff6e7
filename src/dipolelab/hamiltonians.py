"""Potentials and the generators of the dynamics, applied matrix-free.

Units: hbar = e = 1, m = 1/2, so the kinetic operator is -Laplacian with unit
coefficient and a hydrogen-like attraction reads -2Z/r (softened on grids).

Three generator kinds:

  full            (-i grad - b(r,t))^2 + V,  b(r,t) = (1/omega) a(r/lam, omega t)
  dipole_velocity (-i grad - b(0,t))^2 + V
  dipole_length   -Laplacian + V + da/dt(0, omega t).r

expanded in Coulomb gauge as -Lap + W, W = 2i b.grad + |b|^2 + V with b sampled
by ``fields.coupling_arrays`` (``fields.full_coupling_arrays`` for the full
kind, which refuses a field that is not periodic on the grid).
``coupling_terms`` is the one map from a kind to the pieces of W: a
momentum-space shift, a diagonal and gradient terms.  The dipole velocity
coupling is constant in space, so all of it is the shift
|b|^2 - 2 b.k; the full coupling puts |b|^2 on the diagonal and adds one
gradient transform per coupled axis.  Vector components of b beyond the grid
dimension (transverse geometries) cannot act through the gradient; they
contribute through |b|^2 only, which is exactly the reduction of the
transverse-momentum zero sector.  ``generator_terms`` adds k^2 to the shift
for H, whose terms the split stepper of ``propagate`` exponentiates.  One
``SpectralOperator`` applies both: ``hamiltonian_apply_fn`` returns the apply
of H's, and ``bounds.CouplingOperator`` is W's.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import ConfigError
from .fields import (ScaledField, coupling_arrays, full_coupling_arrays,
                     length_gauge_term)
from .fields import profile_value  # noqa: F401  (unused; bench/tracing.py patches it here)
from .spatial import Grid, fourier_pair, real_fourier_pair

FULL = "full"
DIPOLE_VELOCITY = "dipole_velocity"
DIPOLE_LENGTH = "dipole_length"

SOFT_CORE = "soft_core"
GAUSSIAN_WELL = "gaussian_well"
NBODY_SOFT_CORE = "nbody_soft_core"
ZERO_POTENTIAL = "zero"

HERMITICITY_PROBES = 8
HERMITICITY_SEED = 7041


@dataclass(frozen=True)
class PotentialModel:
    kind: str
    z: float = 0.0
    eps: float = 1.0
    depth: float = 0.0
    width: float = 1.0
    n_particles: int = 1


def _check_length(name: str, value: float) -> None:
    # the potentials square their length scales
    if not (value > 0 and math.isfinite(value * value)):
        raise ConfigError(f"{name} must be positive with a finite square")


def soft_core_coulomb(z: float = 1.0, eps: float = 1.0) -> PotentialModel:
    """V(x) = -2Z / sqrt(|x|^2 + eps^2); eps > 0 regularizes the singularity."""
    if not math.isfinite(z):
        raise ConfigError("nuclear charge must be finite")
    _check_length("softening length", eps)
    return PotentialModel(SOFT_CORE, z=float(z), eps=float(eps))


def gaussian_well(depth: float, width: float) -> PotentialModel:
    """V(x) = -depth * exp(-|x|^2 / (2 width^2))."""
    if not 0 < depth < math.inf:
        raise ConfigError("well depth must be finite and positive")
    _check_length("well width", width)
    return PotentialModel(GAUSSIAN_WELL, depth=float(depth), width=float(width))


def n_body_soft_core(n_particles: int, eps: float = 1.0) -> PotentialModel:
    """Atom with N electrons: -sum_k 2N/|r_k| + sum_{k<l} 2/|r_k - r_l|, softened."""
    if n_particles < 1:
        raise ConfigError("particle count must be >= 1")
    _check_length("softening length", eps)
    return PotentialModel(NBODY_SOFT_CORE, eps=float(eps), n_particles=int(n_particles))


def zero_potential() -> PotentialModel:
    return PotentialModel(ZERO_POTENTIAL)


POTENTIAL_CACHE_SIZE = 8
_potential_cache: dict = {}


def potential_on_grid(pot: PotentialModel, grid: Grid) -> np.ndarray:
    """Sampled potential values (read-only), cached per (potential, grid geometry).

    The cache keeps the POTENTIAL_CACHE_SIZE most recently added entries and
    evicts the oldest first.
    """
    key = (pot, grid.shape, grid.lengths, grid.particles)
    hit = _potential_cache.get(key)
    if hit is not None:
        return hit
    # an overflow or 0/0 while sampling shows up as a non-finite sample below
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        out = _sample_potential(pot, grid)
    if not np.all(np.isfinite(out)):
        raise ConfigError("potential samples are not finite")
    out.setflags(write=False)
    while len(_potential_cache) >= POTENTIAL_CACHE_SIZE:
        del _potential_cache[next(iter(_potential_cache))]
    _potential_cache[key] = out
    return out


def _sample_potential(pot: PotentialModel, grid: Grid) -> np.ndarray:
    if pot.kind == ZERO_POTENTIAL:
        return np.zeros(grid.shape)
    if pot.kind == SOFT_CORE:
        r2 = grid.radius_sq(range(grid.dim))
        return -2.0 * pot.z / np.sqrt(r2 + pot.eps ** 2)
    if pot.kind == GAUSSIAN_WELL:
        r2 = grid.radius_sq(range(grid.dim))
        return -pot.depth * np.exp(-r2 / (2.0 * pot.width ** 2))
    if pot.kind == NBODY_SOFT_CORE:
        n = pot.n_particles
        if grid.particles != n:
            raise ConfigError("grid particle structure does not match the potential")
        d = grid.per_particle_dim
        eps2 = pot.eps ** 2
        v = np.zeros(grid.shape)
        for p in range(n):
            v = v - 2.0 * n / np.sqrt(grid.radius_sq(range(p * d, (p + 1) * d)) + eps2)
        for p in range(n):
            for q in range(p + 1, n):
                sep2 = np.zeros((1,) * grid.dim)
                for i in range(d):
                    diff = grid.mesh(p * d + i) - grid.mesh(q * d + i)
                    sep2 = sep2 + diff * diff
                v = v + 2.0 / np.sqrt(sep2 + eps2)
        return v
    raise ConfigError(f"unknown potential kind {pot.kind!r}")


@dataclass(frozen=True, eq=False)
class HamiltonianSpec:
    """Which generator (full / dipole velocity / dipole length) plus V."""

    kind: str
    field: ScaledField
    potential: PotentialModel

    def __post_init__(self):
        if self.kind not in (FULL, DIPOLE_VELOCITY, DIPOLE_LENGTH):
            raise ConfigError(f"unknown Hamiltonian kind {self.kind!r}")


def full_coupling(field: ScaledField, potential: PotentialModel) -> HamiltonianSpec:
    return HamiltonianSpec(FULL, field, potential)


def dipole_velocity(field: ScaledField, potential: PotentialModel) -> HamiltonianSpec:
    return HamiltonianSpec(DIPOLE_VELOCITY, field, potential)


def dipole_length(field: ScaledField, potential: PotentialModel) -> HamiltonianSpec:
    return HamiltonianSpec(DIPOLE_LENGTH, field, potential)


def coupling_terms(spec: HamiltonianSpec, t: float, grid: Grid):
    """(shift, diagonal, grads) of W(t) = F^-1 shift F + diagonal + sum_a g_a F^-1 ik_a F.

    W = H + Lap is the coupling.  grads lists (g, ik) = (2i b, i k) per
    on-grid axis of the full coupling.  The dipole velocity coupling is
    constant in space, so all of it is the momentum shift
    |b(0,t)|^2 - 2 b(0,t).k: a float when b has no on-grid component, else an
    array.  The other kinds have shift 0.0.  The diagonal
    is the cached ``potential_on_grid`` array itself unless a term joins it
    (|b(r,t)|^2 of the full coupling, E.r with on-grid polarization), so a
    caller can tell a fixed factor by identity.
    """
    v = potential_on_grid(spec.potential, grid)
    if spec.kind == DIPOLE_LENGTH:
        term = length_gauge_term(spec.field, t, grid)
        return 0.0, v if term is None else v + term, []
    if spec.kind == FULL:
        b_axes, b_sq = full_coupling_arrays(spec.field, t, grid)
        return 0.0, v + b_sq, [(2j * b, 1j * grid.k_mesh(axis)) for axis, b in b_axes]
    b_axes, b_sq = coupling_arrays(spec.field, t, grid, dipole=True)
    for axis, b in b_axes:
        b_sq = b_sq - 2.0 * b * grid.k_mesh(axis)
    return b_sq, v, []


def generator_terms(spec: HamiltonianSpec, t: float, grid: Grid):
    """(symbol, diagonal, grads) of H(t) = F^-1 symbol F + diagonal + sum_a g_a F^-1 ik_a F.

    The ``coupling_terms`` with the shift added to k^2; a zero shift leaves
    the symbol the cached ``grid.k_square`` itself, so a fixed symbol too is
    told by identity.
    """
    shift, diag, grads = coupling_terms(spec, t, grid)
    sym = grid.k_square if isinstance(shift, float) and shift == 0.0 else grid.k_square + shift
    return sym, diag, grads


@dataclass(frozen=True, eq=False)
class SpectralOperator:
    """A = F^-1 symbol F + diagonal + sum_a g_a F^-1 ik_a F on the trailing grid axes.

    H and its coupling W take this form.  The symbol and diagonal are real;
    a scalar symbol joins the diagonal when the operator is built, leaving
    the symbol 0.0 (no transform).  The build also decides is_real: a real
    diagonal, a 0.0 or the cached ``grid.k_square`` symbol and no gradient
    terms.  Such an operator maps a real input to a real output, with real
    transforms on ``grid.half_k_square`` if the symbol is k^2.  Other inputs
    take the complex transforms; the spectrum is multiplied and transformed
    in place unless a gradient term reads it again, and the real diagonal is
    added to each part, so one apply holds about two states besides its input.
    """

    grid: Grid
    symbol: object
    diagonal: object
    grads: list
    is_real: bool = field(init=False)

    def __post_init__(self):
        if np.ndim(self.symbol) == 0:
            object.__setattr__(self, "diagonal", self.diagonal + self.symbol)
            object.__setattr__(self, "symbol", 0.0)
        spectral = isinstance(self.symbol, np.ndarray)
        is_real = (not self.grads and np.isrealobj(self.diagonal)
                   and (self.symbol is self.grid.k_square or not spectral))
        object.__setattr__(self, "is_real", is_real)
        object.__setattr__(self, "_pair", fourier_pair(self.grid))
        object.__setattr__(self, "_real_pair",
                           real_fourier_pair(self.grid) if is_real and spectral else None)

    def apply(self, values: np.ndarray) -> np.ndarray:
        return self._apply(values, adjoint=False)

    def adjoint_apply(self, values: np.ndarray) -> np.ndarray:
        return self._apply(values, adjoint=True)

    def _apply(self, values: np.ndarray, adjoint: bool) -> np.ndarray:
        diag, grads = self.diagonal, self.grads
        if self._real_pair is not None and values.dtype.kind == "f":
            rforward, rinverse = self._real_pair
            vhat = rforward(values)
            vhat *= self.grid.half_k_square
            out = rinverse(vhat)
            out += diag * values
            return out
        forward, inverse = self._pair
        spectral = isinstance(self.symbol, np.ndarray)
        # the gradient terms of A (not those of its adjoint) read the spectrum again
        reread = bool(grads) and not adjoint
        vhat = forward(values) if spectral or reread else None
        if spectral:
            out = np.multiply(vhat, self.symbol, out=None if reread else vhat)
            inverse(out, out=out)
            # the real diagonal acts on each part: two half-state temporaries, the
            # same bits as `out += diag * values` without its complex temporary
            out.real += diag * values.real
            out.imag += diag * values.imag
        else:
            out = np.multiply(diag, values, dtype=None if self.is_real else complex)
        # the real symbol and diagonal are self-adjoint, and
        # (g F^-1 ik F)^dagger = F^-1 conj(ik) F conj(g)
        for g, ik in grads:
            if adjoint:
                grad = np.conj(ik) * forward(np.conj(g) * values)
                out += inverse(grad, out=grad)
            else:
                grad = vhat * ik
                out += g * inverse(grad, out=grad)
        return out


def hamiltonian_apply_fn(spec: HamiltonianSpec, t: float, grid: Grid) -> Callable:
    """The apply of H(t), the operator of its ``generator_terms``, on raw value arrays."""
    return SpectralOperator(grid, *generator_terms(spec, t, grid)).apply


def _random_words(rng: random.Random, count: int) -> np.ndarray:
    """count unsigned 32-bit integers from the stdlib generator's randbytes."""
    return np.frombuffer(rng.randbytes(4 * count), dtype="<u4")


def hermiticity_defect(spec: HamiltonianSpec, t: float, grid: Grid) -> float:
    """max over i <= j of |M_ij - conj(M_ji)|, M_ij = <p_i, H p_j>, on fixed probes p_i.

    The HERMITICITY_PROBES probes are normalized uniform complex noise drawn
    from the stdlib random.Random(HERMITICITY_SEED), deterministic per grid
    size.  M is built one H apply at a time, so the check holds the probes
    and one applied state.  A non-finite H gives a NaN defect.
    """
    rng = random.Random(HERMITICITY_SEED)
    n = grid.npoints
    probes = np.empty((HERMITICITY_PROBES, n), dtype=complex)
    # each row's real and imaginary parts, interleaved, from 32-bit integers
    for probe, parts in zip(probes, probes.view(np.float64)):
        parts[:] = _random_words(rng, 2 * n).view("<i4")
        probe /= np.linalg.norm(probe) * math.sqrt(grid.cell_volume)
    apply = hamiltonian_apply_fn(spec, t, grid)
    m = np.empty((HERMITICITY_PROBES, HERMITICITY_PROBES), dtype=complex)
    for j, probe in enumerate(probes):
        m[:, j] = np.vecdot(probes, apply(probe.reshape(grid.shape)).ravel())
    m *= grid.cell_volume
    return float(np.max(np.triu(np.abs(m - m.conj().T))))
