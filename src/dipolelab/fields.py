"""Laser envelopes, the wavelength scaling of the vector potential, and Maxwell checks.

An envelope is a dimensionless transverse vector field

    a(x, t) = E * f(u) * eps_hat,    u = 2*pi*k_hat.x - t,

with profile f(u) = sin(u) for a continuous wave and f(u) = F(u) (the
primitive of exp(-u^2)*cos(u) that vanishes at +infinity) for a Gaussian
pulse.  F is evaluated from a cubic Hermite table on |u| <= PULSE_WINDOW,
built lazily once per process in numpy, and is constant outside the window.
A ``ScaledField`` realizes the physical coupling at wavelength
``lam`` and angular frequency ``omega``: the vector potential divided by the
speed of light is (1/omega) * a(r/lam, omega*t), so the speed of light never
appears as an independent parameter: c = omega*lam/(2*pi) is implied by
(lam, omega) and is no input.

Geometry convention: propagation and polarization vectors live in a "field
space" whose dimension may exceed the simulation grid's.  Grid coordinates
embed as the leading field coordinates (padded with zeros): each particle's
grid axis i carries field component i, and further components are off-grid.
A 1D run along the propagation axis therefore carries a polarization pointing
off-grid; its coupling survives only through |a|^2.  Two-dimensional
single-particle runs can hold both vectors in-plane and exercise the
gradient coupling as well.  ``_sampling_geometry`` is the convention's one
implementation: ``coupling_arrays``, ``full_coupling_arrays`` and
``length_gauge_term`` read it, and no other module reads an envelope's
vectors.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .spatial import spectral_axis_derivative

CW = "cw"
PULSE = "pulse"
ZERO = "zero"

UNIT_TOL = 1e-12

# Window and spacing of the tabulated pulse primitive.  Outside the window the
# profile is constant to ~1e-30, so clamping is exact for double precision.
PULSE_WINDOW = 8.0
_PULSE_SPACING = 1.0 / 512.0
_PULSE_CELLS = int(round(2 * PULSE_WINDOW / _PULSE_SPACING))

_pulse_coeffs: np.ndarray | None = None

# 6-point Gauss-Legendre rule on [-1, 1], equal bit for bit to
# numpy.polynomial.legendre.leggauss(6) without importing numpy.polynomial
_GAUSS_NODES = (-0.9324695142031519, -0.6612093864662645, -0.2386191860831969,
                0.2386191860831969, 0.6612093864662645, 0.9324695142031519)
_GAUSS_WEIGHTS = (0.17132449237917027, 0.3607615730481387, 0.46791393457269104,
                  0.46791393457269104, 0.3607615730481387, 0.17132449237917027)


def _build_pulse_table() -> np.ndarray:
    """Cubic Hermite table of F(u) = -int_u^inf exp(-s^2) cos(s) ds on the window.

    Node values sum 6-point Gauss-Legendre integrals of F'(u) = exp(-u^2) cos(u)
    over each cell, accumulated from the right edge, where F(PULSE_WINDOW)
    ~ -1e-29 is taken as 0; node slopes are the exact F'.  Returns the
    per-cell coefficient rows (c0, c1, c2, c3) of c0 + c1 t + c2 t^2 + c3 t^3
    in the cell's local coordinate t in [0, 1].  The table is within 3e-13 of
    the closed form -(sqrt(pi)/2) e^{-1/4} (1 - Re erf(u - i/2)).
    """
    h = _PULSE_SPACING
    nodes = -PULSE_WINDOW + h * np.arange(_PULSE_CELLS + 1)
    x, w = np.array(_GAUSS_NODES), np.array(_GAUSS_WEIGHTS)
    s = nodes[:-1, None] + (0.5 * h) * (1.0 + x)
    cells = (np.exp(-s * s) * np.cos(s)) @ ((0.5 * h) * w)
    y = np.zeros(_PULSE_CELLS + 1)
    y[:-1] = -np.cumsum(cells[::-1])[::-1]
    hm = h * np.exp(-nodes * nodes) * np.cos(nodes)
    dy = np.diff(y)
    return np.stack([y[:-1], hm[:-1],
                     3.0 * dy - 2.0 * hm[:-1] - hm[1:],
                     hm[:-1] + hm[1:] - 2.0 * dy])


def _pulse_primitive(u: np.ndarray) -> np.ndarray:
    """F(u) from the Hermite table, constant outside the window; NaN stays NaN."""
    global _pulse_coeffs
    if _pulse_coeffs is None:
        _pulse_coeffs = _build_pulse_table()
    c0, c1, c2, c3 = _pulse_coeffs
    s = (np.clip(u, -PULSE_WINDOW, PULSE_WINDOW) + PULSE_WINDOW) / _PULSE_SPACING
    # fmin maps NaN to the last cell, so the cast never sees NaN; t keeps it.
    cell = np.fmin(np.floor(s), _PULSE_CELLS - 1).astype(np.intp)
    t = s - cell
    return ((c3.take(cell) * t + c2.take(cell)) * t + c1.take(cell)) * t + c0.take(cell)


def profile_value(kind: str, u):
    """Scalar profile f(u); vectorized over u."""
    u = np.asarray(u, dtype=float)
    if kind == CW:
        return np.sin(u)
    if kind == PULSE:
        return _pulse_primitive(u)
    if kind == ZERO:
        return np.zeros_like(u)
    raise ConfigError(f"unknown envelope kind {kind!r}")


def profile_derivative(kind: str, u):
    """df/du, closed form; vectorized over u."""
    u = np.asarray(u, dtype=float)
    if kind == CW:
        return np.cos(u)
    if kind == PULSE:
        return np.exp(-u * u) * np.cos(u)
    if kind == ZERO:
        return np.zeros_like(u)
    raise ConfigError(f"unknown envelope kind {kind!r}")


@dataclass(frozen=True, eq=False)
class LaserEnvelope:
    """Dimensionless envelope a(x,t): kind, strength E, and unit vectors.

    Invariants (enforced by the factory constructors, measured by
    ``check_transversality``): |k_hat| = |eps_hat| = 1 and k_hat.eps_hat = 0
    to 1e-12.  Direct construction skips validation so broken fixtures can be
    built for negative-control tests.
    """

    kind: str
    amplitude: float
    k_hat: np.ndarray
    eps_hat: np.ndarray

    def __post_init__(self):
        k = np.asarray(self.k_hat, dtype=float).copy()
        e = np.asarray(self.eps_hat, dtype=float).copy()
        k.setflags(write=False)
        e.setflags(write=False)
        object.__setattr__(self, "k_hat", k)
        object.__setattr__(self, "eps_hat", e)

    @property
    def field_dim(self) -> int:
        return self.k_hat.shape[0]


def validate_envelope(env: LaserEnvelope) -> None:
    if env.kind not in (CW, PULSE, ZERO):
        raise ConfigError(f"unknown envelope kind {env.kind!r}")
    if env.k_hat.ndim != 1 or env.eps_hat.shape != env.k_hat.shape:
        raise ConfigError("k_hat and eps_hat must be 1D vectors of equal length")
    if env.kind == ZERO:
        return
    if abs(np.linalg.norm(env.k_hat) - 1.0) > UNIT_TOL:
        raise ConfigError("k_hat is not a unit vector")
    if abs(np.linalg.norm(env.eps_hat) - 1.0) > UNIT_TOL:
        raise ConfigError("eps_hat is not a unit vector")
    if abs(float(np.dot(env.k_hat, env.eps_hat))) > UNIT_TOL:
        raise ConfigError("k_hat and eps_hat are not transversal")
    if not np.isfinite(env.amplitude):
        raise ConfigError("amplitude must be finite")


def _validated(kind: str, amplitude: float, k_hat: Sequence[float],
               eps_hat: Sequence[float]) -> LaserEnvelope:
    """The envelope of the factory constructors, checked by ``validate_envelope``."""
    env = LaserEnvelope(kind, float(amplitude), k_hat, eps_hat)
    validate_envelope(env)
    return env


def plane_wave_cw(amplitude: float, k_hat: Sequence[float],
                  eps_hat: Sequence[float]) -> LaserEnvelope:
    return _validated(CW, amplitude, k_hat, eps_hat)


def gaussian_pulse(amplitude: float, k_hat: Sequence[float],
                   eps_hat: Sequence[float]) -> LaserEnvelope:
    return _validated(PULSE, amplitude, k_hat, eps_hat)


def zero_envelope(field_dim: int = 2) -> LaserEnvelope:
    k = np.zeros(field_dim)
    e = np.zeros(field_dim)
    return LaserEnvelope(ZERO, 0.0, k, e)


def transverse_envelope(kind: str, amplitude: float, grid_dim: int) -> LaserEnvelope:
    """Propagation along grid axis 1, polarization pointing off-grid.

    Field space has grid_dim + 1 components; the envelope has no on-grid
    vector component, so only |a|^2 couples to the dynamics.
    """
    if kind == ZERO:
        return zero_envelope(grid_dim + 1)
    k = np.zeros(grid_dim + 1)
    k[0] = 1.0
    e = np.zeros(grid_dim + 1)
    e[-1] = 1.0
    return _validated(kind, amplitude, k, e)


def in_plane_envelope(kind: str, amplitude: float) -> LaserEnvelope:
    """Propagation along axis 1, polarization along axis 2 (2D+ grids only)."""
    if kind == ZERO:
        return zero_envelope(2)
    return _validated(kind, amplitude, [1.0, 0.0], [0.0, 1.0])


def ray_coordinate(env: LaserEnvelope, x, t: float) -> np.ndarray:
    """u = 2*pi*k_hat.x - t for envelope coordinates (x, t).

    A position embeds as the leading field coordinates, so it meets the
    leading components of k_hat.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape[-1] > env.field_dim:
        raise ConfigError(
            f"position dimension {x.shape[-1]} exceeds field dimension {env.field_dim}")
    return 2.0 * np.pi * (x @ env.k_hat[:x.shape[-1]]) - t


def eval_envelope(env: LaserEnvelope, x, t: float) -> np.ndarray:
    """a(x, t); x may be a scalar, a vector, or a batch (..., d<=field_dim)."""
    u = ray_coordinate(env, x, t)
    f = profile_value(env.kind, u)
    return env.amplitude * np.multiply.outer(f, env.eps_hat)


@dataclass(frozen=True, eq=False)
class ScaledField:
    """An envelope realized at wavelength lam and angular frequency omega.

    Envelope validity is the envelope factories' concern; broken envelopes can
    be carried here deliberately as negative-control fixtures.
    """

    envelope: LaserEnvelope
    lam: float
    omega: float

    def __post_init__(self):
        if not (self.lam > 0.0 and self.omega > 0.0):
            raise ConfigError("lam and omega must be positive")


@dataclass(frozen=True)
class TransversalityReport:
    defect: float
    passed: bool


def check_transversality(env: LaserEnvelope) -> TransversalityReport:
    """|k_hat . eps_hat| against the 1e-12 gate."""
    defect = abs(float(np.dot(env.k_hat, env.eps_hat)))
    return TransversalityReport(defect=defect, passed=defect <= UNIT_TOL)


def is_commensurate(env: LaserEnvelope, grid, lam: float) -> bool:
    """Whether the scaled field is exactly periodic on the grid.

    Plane waves need an integer number of wavelengths along every axis with a
    nonzero propagation component.  The pulse has no spatial period and enters
    the axis-aligned geometries as a multiplication operator, so it carries no
    periodicity requirement; the zero envelope is trivially periodic.  The
    plane-wave answer is decided once per geometry, with the cached
    ``_sampling_geometry`` entry.
    """
    return env.kind != CW or _sampling_geometry(ScaledField(env, lam, 1.0), grid)[2]


def snap_lambda(box_length: float, m: int) -> float:
    """Commensurate wavelength: an integer fraction L/m of the box."""
    if m < 1:
        raise ConfigError("commensurability divisor must be >= 1")
    return box_length / m


@dataclass(frozen=True)
class DivergenceReport:
    max_defect: float
    commensurate: bool
    warning: str = ""


def check_divergence_free(env: LaserEnvelope, grid, lam: float = 1.0) -> DivergenceReport:
    """Max |spectral divergence| of a(./lam, t) sampled on the grid at t = 0, 0.9.

    Non-commensurate configurations are reported with a warning flag rather
    than rejected; wrap-around discontinuities then pollute the spectral
    derivative and the number is diagnostic only.
    """
    commensurate = is_commensurate(env, grid, lam)
    fld = ScaledField(env, lam, 1.0)  # at omega = 1, b is a itself
    max_defect = 0.0
    for t in (0.0, 0.9):
        div = np.zeros(grid.shape)
        for axis, b in coupling_arrays(fld, t, grid)[0]:
            # b may only broadcast against the grid (in-plane b is (nx, 1));
            # the derivative needs every point along its axis
            b = np.broadcast_to(b, grid.shape)
            div = div + spectral_axis_derivative(b, grid, axis).real
        max_defect = max(max_defect, float(np.max(np.abs(div))))
    warning = "" if commensurate else "grid not commensurate with envelope period"
    return DivergenceReport(max_defect=max_defect, commensurate=commensurate,
                            warning=warning)


# Sampling geometry is kept for the GEOMETRY_CACHE_SIZE most recently added
# (envelope vectors, lam, grid) keys; a study uses one per wavelength.
GEOMETRY_CACHE_SIZE = 16
_geometry_cache: dict = {}
_geometry_lock = threading.Lock()   # a sweep's wavelength threads share the cache


def _sampling_geometry(field: ScaledField, grid):
    """The time-independent part of ``coupling_arrays``: (rays, eps_axes, periodic).

    rays[p] is particle p's ray offset 2 pi k_hat.x / lam, broadcastable
    against the grid (read-only); eps_axes[p] lists (grid axis, eps_i) for
    each nonzero on-grid polarization component of particle p.  periodic
    says whether a plane wave along k_hat fits a whole number (at least one)
    of wavelengths into the box along every axis it moves along.  Cached per
    geometry, oldest entry evicted first.
    """
    env = field.envelope
    key = (env.k_hat.tobytes(), env.eps_hat.tobytes(), field.lam,
           grid.shape, grid.lengths, grid.particles)
    hit = _geometry_cache.get(key)
    if hit is not None:
        return hit
    d = grid.per_particle_dim
    # grid axis i of each particle carries field component i
    k, eps = env.k_hat[:d], env.eps_hat[:d]
    rays, eps_axes, periodic = [], [], True
    for p in range(grid.particles):
        u = np.zeros((1,) * grid.dim)
        for i in np.flatnonzero(k):
            u = u + (2.0 * np.pi * k[i] / field.lam) * grid.mesh(p * d + i)
            ratio = abs(k[i]) * grid.lengths[p * d + i] / field.lam
            if abs(k[i]) >= 1e-15 and (abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio)
                                       or round(ratio) < 1):
                periodic = False
        u.setflags(write=False)
        rays.append(u)
        eps_axes.append([(p * d + i, eps[i]) for i in np.flatnonzero(eps)])
    geometry = rays, eps_axes, periodic
    with _geometry_lock:
        while len(_geometry_cache) >= GEOMETRY_CACHE_SIZE:
            del _geometry_cache[next(iter(_geometry_cache))]
        _geometry_cache[key] = geometry
    return geometry


def coupling_arrays(field: ScaledField, t: float, grid, dipole: bool = False):
    """Sampled coupling b(r, t) = (1/omega) a(r/lam, omega t) on the grid.

    Returns (b_axes, b_sq): one (axis, b) pair per grid axis with a nonzero
    polarization component, repeating over particles, and |b|^2 summed over
    particles, off-grid polarization components included.  Each particle's
    position embeds as the leading field coordinates.  With dipole=True the
    coupling is b(0, t) and every value is a float; otherwise the values are
    arrays that broadcast against the grid.  Only the profile is evaluated
    per call; the geometry comes from ``_sampling_geometry``.
    """
    return _sample_coupling(field, t, grid, _sampling_geometry(field, grid), dipole)


def full_coupling_arrays(field: ScaledField, t: float, grid):
    """The spatial ``coupling_arrays`` of the full generator, which needs a periodic field.

    A plane wave must fit the box (``is_commensurate``), since the spectral
    gradient would otherwise see it wrap.  One ``_sampling_geometry`` lookup
    both decides that and feeds the samples.
    """
    geometry = _sampling_geometry(field, grid)
    if field.envelope.kind == CW and not geometry[2]:
        raise ConfigError("full-coupling generator requires a commensurate field on the grid")
    return _sample_coupling(field, t, grid, geometry, False)


def _sample_coupling(field: ScaledField, t: float, grid, geometry, dipole: bool):
    """``coupling_arrays`` from the field's ``_sampling_geometry`` entry."""
    env = field.envelope
    rays, eps_axes, _ = geometry
    amp = env.amplitude / field.omega
    s = field.omega * t
    if dipole:
        profiles = [amp * float(profile_value(env.kind, -s))] * grid.particles
    else:
        profiles = [amp * profile_value(env.kind, u - s) for u in rays]
    b_axes = []
    b_sq = 0.0 if dipole else np.zeros((1,) * grid.dim)
    for b, axes in zip(profiles, eps_axes):
        b_sq = b_sq + b * b
        b_axes.extend((axis, b * e) for axis, e in axes)
    return b_axes, b_sq


def length_gauge_term(field: ScaledField, t: float, grid):
    """(d/dt a)(0, omega t) . r  ==  -E(0,t) . r over the on-grid polarization.

    None when no polarization component lies on the grid; otherwise an array
    that has the grid's shape.
    """
    eps_axes = _sampling_geometry(field, grid)[1]
    if not any(eps_axes):
        return None
    env = field.envelope
    # a(0, s) = E f(-s) eps_hat, so d/ds a(0, s) = -E f'(-s) eps_hat.
    adot = -env.amplitude * float(profile_derivative(env.kind, -field.omega * t))
    term = np.zeros((1,) * grid.dim)
    for axes in eps_axes:
        for axis, e in axes:
            term = term + adot * e * grid.mesh(axis)
    return np.broadcast_to(term, grid.shape) if term.shape != grid.shape else term
