"""Time evolution: Strang splitting, Krylov exponentiation, ground states.

All steppers freeze the time-dependent generator at the step midpoint
(order-2 Magnus truncation), so both exhibit second-order self-convergence in
dt.  The split stepper handles the dipole generators, whose kinetic factor is
diagonal in momentum space with shifted symbol (k - b(t_mid))^2; the Krylov
stepper exponentiates any Hermitian generator, including the full coupling.
One Lanczos recurrence serves the Krylov step and the one restarted-Lanczos
extremal eigensolver, which finds the ground state (the top eigenpair of -H)
and the contraction constants of the bounds module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import eigh
from scipy.linalg.blas import dznrm2, zgemv
from scipy.linalg.lapack import dstev

from .errors import ConfigError, NumericalError
from .fields import coupling_arrays
from .hamiltonians import (DIPOLE_VELOCITY, FULL, HamiltonianSpec, ZERO_POTENTIAL,
                           hamiltonian_apply_fn, hermiticity_defect,
                           length_gauge_term, potential_on_grid)
from .spatial import Grid, WaveFunction, fourier_pair, normalize, norm

SPLIT = "split"
KRYLOV = "krylov"

SPLIT_DRIFT_BOUND = 1e-10
KRYLOV_GUARD = 1e-8
_MAX_HALVINGS = 16

TIME_MATCH_TOL = 1e-9

# Restarted Lanczos eigensolver: at most LANCZOS_M basis vectors per cycle.
# A flat spectral top (constant drift and no potential, diagonal in k) can
# take hundreds of restarts; the cap allows about 19,000 applies per solve.
LANCZOS_M = 24
LANCZOS_MAX_RESTARTS = 800


@dataclass
class StepperConfig:
    """Time-integration policy for one trajectory."""

    dt: float
    t0: float
    t_final: float
    method: str = SPLIT
    krylov_m: int = 24
    krylov_tol: float = 1e-10
    store_states: bool = False
    sample_times: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        if not (0 <= self.t0 <= self.t_final):
            raise ConfigError("need 0 <= t0 <= t_final")
        if self.method not in (SPLIT, KRYLOV):
            raise ConfigError(f"unknown stepper method {self.method!r}")
        if not 8 <= self.krylov_m <= 64:
            raise ConfigError("krylov subspace dimension must lie in [8, 64]")

    @property
    def drift_bound(self) -> float:
        return SPLIT_DRIFT_BOUND if self.method == SPLIT else max(self.krylov_tol, 1e-12)


@dataclass
class Trajectory:
    """Recorded sample times, optional states, and norm bookkeeping."""

    times: list[float]
    states: list[WaveFunction] | None
    max_step_drift: float
    terminal_norm: float
    nsteps: int
    method: str

    @property
    def terminal_state(self) -> WaveFunction:
        if not self.states:
            raise ConfigError("trajectory was run without stored states")
        return self.states[-1]


def _split_stepper(spec: HamiltonianSpec, grid: Grid,
                   dt: float) -> Callable[[np.ndarray, float], np.ndarray]:
    """step(values, t_mid) for the dipole generators; exactly norm-preserving."""
    if spec.kind == FULL:
        raise ConfigError("split stepper handles dipole generators only")
    v = potential_on_grid(spec.potential, grid)
    k_sq = grid.k_square
    forward, inverse = fourier_pair(grid)

    if spec.kind == DIPOLE_VELOCITY:
        half_v = np.exp(-0.5j * dt * v)

        def step(values: np.ndarray, t_mid: float) -> np.ndarray:
            # symbol of (-i grad - b)^2 at constant b: (k - b)^2 + |b_offgrid|^2
            b_axes, b_sq = coupling_arrays(spec.field, t_mid, grid, dipole=True)
            sym = k_sq + b_sq
            for axis, b in b_axes:
                sym = sym - 2.0 * b * grid.k_mesh(axis)
            kin = np.exp(-1j * dt * sym)
            out = inverse(kin * forward(half_v * values))
            out *= half_v
            return out

        return step

    kin = np.exp(-1j * dt * k_sq)

    def step_length(values: np.ndarray, t_mid: float) -> np.ndarray:
        v_eff = v + length_gauge_term(spec.field, t_mid, grid)
        half_v = np.exp(-0.5j * dt * v_eff)
        out = inverse(kin * forward(half_v * values))
        out *= half_v
        return out

    return step_length


def step_split(spec: HamiltonianSpec, psi: WaveFunction, t: float,
               dt: float) -> WaveFunction:
    """One Strang step exp(-i dt/2 Veff) exp(-i dt K(t_mid)) exp(-i dt/2 Veff)."""
    stepper = _split_stepper(spec, psi.grid, dt)
    return WaveFunction(psi.grid, stepper(psi.values, t + 0.5 * dt))


def _lanczos(apply_fn, v0: np.ndarray, m: int):
    """Lanczos tridiagonalisation of apply_fn on the Krylov space of the unit vector v0.

    Yields (V, alphas, betas, b) after each new basis vector: the basis rows
    V, the tridiagonal T = tridiag(betas, alphas, betas) and the norm b of the
    next residual.  The basis is preallocated as (m, N), and each residual is
    re-orthogonalised against the whole basis by block classical Gram-Schmidt,
    applied twice.  Both passes are BLAS zgemv calls on V[:j+1].T, a
    Fortran-ordered view of the basis: trans=2 forms the coefficients
    h = conj(V) w, and beta=1 subtracts V^T h from w in place.  At most m
    vectors are built; the caller stops early by leaving the loop.
    apply_fn must return a new array, not a view of its argument.
    """
    shape = v0.shape
    V = np.empty((m, v0.size), dtype=complex)
    V[0] = v0.ravel()
    alphas = np.empty(m)
    betas = np.empty(m - 1)
    for j in range(m):
        w = apply_fn(V[j].reshape(shape)).ravel()
        basis = V[:j + 1].T
        h = zgemv(1.0, basis, w, trans=2)
        alphas[j] = h[j].real
        # zgemv copies y when it cannot write into w; its return value is the result
        w = zgemv(-1.0, basis, h, beta=1.0, y=w, overwrite_y=1)
        w = zgemv(-1.0, basis, zgemv(1.0, basis, w, trans=2), beta=1.0, y=w,
                  overwrite_y=1)
        b = dznrm2(w)
        yield V[:j + 1], alphas[:j + 1], betas[:j], b
        if j + 1 < m:
            betas[j] = b
            np.multiply(w, 1.0 / b, out=V[j + 1])


def _tridiagonal_eigh(alphas: np.ndarray, betas: np.ndarray):
    """Eigenvalues and eigenvectors of tridiag(betas, alphas, betas) via LAPACK dstev."""
    if alphas.size == 1:
        return alphas.copy(), np.ones((1, 1))
    lam, q, info = dstev(alphas, betas)
    if info != 0:
        raise NumericalError(f"tridiagonal eigensolver failed (LAPACK dstev info {info})")
    return lam, q


def _top_eigenpair(apply_fn, v0: np.ndarray, what: str, atol: float = 0.0,
                   rtol: float = 0.0):
    """Largest eigenvalue and unit eigenvector of a Hermitian operator.

    Lanczos from the unit vector v0, restarted from the top Ritz vector each
    time LANCZOS_M vectors are used up.  It stops once the top pair's residual
    norm b |z_last| falls to atol + rtol |theta|; some eigenvalue then lies
    that close to theta.  `what` names the operator in error messages.
    """
    v = v0
    for _ in range(LANCZOS_MAX_RESTARTS + 1):
        for V, diag, off, b in _lanczos(apply_fn, v, LANCZOS_M):
            if not (np.isfinite(b) and np.isfinite(diag[-1])):
                raise NumericalError(f"{what} returned non-finite values")
            theta, z = _tridiagonal_eigh(diag, off)
            converged = b * abs(z[-1, -1]) <= atol + rtol * abs(theta[-1])
            if converged:
                break
        top = z[:, -1] @ V
        del V   # the view holds the whole basis; free it before the next cycle
        v = (top / np.linalg.norm(top)).reshape(v0.shape)
        if converged:
            return float(theta[-1]), v
    raise NumericalError(
        f"Lanczos found no top eigenvalue of {what} within "
        f"{LANCZOS_MAX_RESTARTS} restarts")


def _lanczos_expm(apply_fn, values: np.ndarray, dt: float, m: int, tol: float):
    """exp(-i dt H) values from a Lanczos subspace of at most m vectors.

    Returns (new_values | None, residual_estimate).  None signals that the
    subspace budget m was exhausted before the residual estimate dropped
    below tol.
    """
    beta0 = dznrm2(values.ravel())
    if beta0 == 0.0:
        return values.copy(), 0.0
    for V, alphas, betas, b in _lanczos(apply_fn, values / beta0, m):
        lam, q = _tridiagonal_eigh(alphas, betas)
        u = q @ (np.exp(-1j * dt * lam) * q[0, :])
        est = abs(dt) * b * abs(u[-1])
        if est <= tol or b <= 1e-14 * beta0:
            return zgemv(beta0, V.T, u).reshape(values.shape), est
    return None, est


def _check_hermiticity_guard(spec: HamiltonianSpec, t: float, grid: Grid) -> None:
    defect = hermiticity_defect(spec, t, grid)
    if defect > KRYLOV_GUARD:
        raise NumericalError(
            f"hermiticity defect {defect:.2e} exceeds the Krylov guard {KRYLOV_GUARD}")


def _krylov_step_values(spec: HamiltonianSpec, grid: Grid, values: np.ndarray,
                        t: float, dt: float, m: int, tol: float,
                        depth: int = 0) -> np.ndarray:
    apply_fn = hamiltonian_apply_fn(spec, t + 0.5 * dt, grid)
    out, _ = _lanczos_expm(apply_fn, values, dt, m, tol)
    if out is not None:
        return out
    if depth >= _MAX_HALVINGS:
        raise NumericalError(
            f"Krylov stepper failed to converge at dt={dt:.3e} (m={m}); dt too large")
    half = 0.5 * dt
    mid = _krylov_step_values(spec, grid, values, t, half, m, tol, depth + 1)
    return _krylov_step_values(spec, grid, mid, t + half, half, m, tol, depth + 1)


def step_krylov(spec: HamiltonianSpec, psi: WaveFunction, t: float, dt: float,
                m: int = 24, tol: float = 1e-10) -> WaveFunction:
    """exp(-i dt H(t + dt/2)) psi via Lanczos; auto-halves dt on non-convergence."""
    _check_hermiticity_guard(spec, t + 0.5 * dt, psi.grid)
    vals = _krylov_step_values(spec, psi.grid, psi.values, t, dt, m, tol)
    return WaveFunction(psi.grid, vals)


def evolve(spec: HamiltonianSpec, psi0: WaveFunction, config: StepperConfig) -> Trajectory:
    """Propagate psi0 from t0 to t_final with per-step norm bookkeeping.

    The trajectory records the requested sample times, which must land on
    step boundaries, and the states at those times when config.store_states
    is set.
    """
    grid = psi0.grid
    n0 = norm(psi0)
    if abs(n0 - 1.0) > 1e-6:
        raise ConfigError(f"initial state is not normalized (norm {n0})")
    span = config.t_final - config.t0
    nsteps = int(round(span / config.dt))
    if abs(config.t0 + nsteps * config.dt - config.t_final) > TIME_MATCH_TOL * max(1.0, abs(config.t_final)):
        raise ConfigError("dt must divide t_final - t0")

    sample_times = config.sample_times
    if sample_times is None:
        sample_times = (config.t0, config.t_final) if nsteps > 0 else (config.t0,)
    sample_index: dict[int, float] = {}
    for s in sample_times:
        k = int(round((s - config.t0) / config.dt)) if config.dt > 0 else 0
        if k < 0 or k > nsteps or abs(config.t0 + k * config.dt - s) > TIME_MATCH_TOL * max(1.0, abs(s)):
            raise ConfigError(f"sample time {s} does not land on a step boundary")
        sample_index[k] = s

    if config.method == SPLIT:
        stepper = _split_stepper(spec, grid, config.dt)
    else:
        _check_hermiticity_guard(spec, config.t0 + 0.5 * config.dt, grid)

        def stepper(values: np.ndarray, t_mid: float) -> np.ndarray:
            return _krylov_step_values(spec, grid, values,
                                       t_mid - 0.5 * config.dt, config.dt,
                                       config.krylov_m, config.krylov_tol)

    traj = Trajectory(times=[], states=[] if config.store_states else None,
                      max_step_drift=0.0, terminal_norm=n0, nsteps=nsteps,
                      method=config.method)

    def record(k: int, psi_now: WaveFunction) -> None:
        traj.times.append(sample_index[k])
        if config.store_states:
            traj.states.append(psi_now.copy())

    values = psi0.values.copy()
    if 0 in sample_index:
        record(0, WaveFunction(grid, values))
    prev_norm = n0
    bound = config.drift_bound
    sqrt_vol = np.sqrt(grid.cell_volume)
    for j in range(nsteps):
        t_mid = config.t0 + (j + 0.5) * config.dt
        values = stepper(values, t_mid)
        # SciPy's dznrm2, not np.linalg.norm: numpy links a second OpenBLAS, and
        # waking both thread pools in one loop oversubscribes the cores
        cur_norm = dznrm2(values.ravel()) * sqrt_vol
        if not np.isfinite(cur_norm):
            raise NumericalError(f"state became non-finite at step {j}")
        drift = abs(cur_norm - prev_norm)
        if drift > bound:
            raise NumericalError(
                f"norm drift {drift:.2e} exceeded the bound {bound:.1e} at step {j}")
        traj.max_step_drift = max(traj.max_step_drift, drift)
        prev_norm = cur_norm
        if (j + 1) in sample_index:
            record(j + 1, WaveFunction(grid, values))
    traj.terminal_norm = prev_norm
    return traj


def _field_free_apply(potential, grid: Grid) -> Callable[[np.ndarray], np.ndarray]:
    v = potential_on_grid(potential, grid)
    k_sq = grid.k_square
    forward, inverse = fourier_pair(grid)

    def apply(values: np.ndarray) -> np.ndarray:
        out = inverse(k_sq * forward(values))
        out += v * values
        return out

    return apply


def ground_state_imaginary_time(potential, grid: Grid, tol: float = 1e-8):
    """Lowest eigenpair of -Lap + V by restarted Lanczos from a Gaussian seed.

    Returns (energy, psi) with ||H psi - E psi|| <= tol and psi normalized on
    the grid.  The lowest pair of H is the top pair of -H.  For a Euclidean
    unit vector the Lanczos residual equals the grid-norm residual of the
    grid-normalized state, so tol is the solver's absolute stop.  The name is
    kept from a former imaginary-time relaxation ahead of the Lanczos solve,
    which only added cost; the acceptance suite and the benchmark tracer call
    this name.
    """
    if potential.kind == ZERO_POTENTIAL:
        raise ConfigError("free particle has no bound ground state")
    apply_h = _field_free_apply(potential, grid)

    sigma = max(1.0, 2.5 * max(grid.spacing))
    r2 = np.zeros(grid.shape)
    for axis in range(grid.dim):
        x = grid.mesh(axis)
        r2 = r2 + x * x
    seed = np.exp(-r2 / (2.0 * sigma * sigma)).astype(complex)
    theta, values = _top_eigenpair(lambda x: -apply_h(x),
                                   seed / np.linalg.norm(seed.ravel()),
                                   "the negated field-free Hamiltonian", atol=tol)
    energy = -theta
    psi = normalize(WaveFunction(grid, values))
    rnorm = norm(WaveFunction(grid, apply_h(psi.values) - energy * psi.values))
    if not rnorm <= tol:
        raise NumericalError(
            f"ground-state residual {rnorm:.2e} exceeds the tolerance {tol:.1e}")
    return energy, psi


DENSE_ORACLE_CAP = 64


def dense_hamiltonian(spec: HamiltonianSpec, t: float, grid: Grid,
                      cap: int = 4096) -> np.ndarray:
    """Dense matrix of H(t) in the grid basis (small grids only)."""
    n = grid.npoints
    if n > cap:
        raise ConfigError(f"dense Hamiltonian capped at {cap} points, got {n}")
    fn = hamiltonian_apply_fn(spec, t, grid)
    # one batched apply to every basis vector; row j of the result is H e_j
    basis = np.eye(n, dtype=complex).reshape((n,) + grid.shape)
    return fn(basis).reshape(n, n).T


def dense_oracle_evolve(spec: HamiltonianSpec, psi0: WaveFunction, t0: float,
                        t: float, steps: int) -> WaveFunction:
    """Brute-force reference: exact exponentials of the midpoint-frozen H.

    Grids are capped at 64 total points; each step diagonalizes the dense
    Hermitian matrix and applies exp(-i dt H) exactly.
    """
    grid = psi0.grid
    if grid.npoints > DENSE_ORACLE_CAP:
        raise ConfigError(f"dense oracle capped at {DENSE_ORACLE_CAP} points")
    if steps < 1:
        raise ConfigError("need at least one step")
    dt = (t - t0) / steps
    values = psi0.values.ravel().copy()
    for j in range(steps):
        t_mid = t0 + (j + 0.5) * dt
        h = dense_hamiltonian(spec, t_mid, grid, cap=DENSE_ORACLE_CAP)
        h = 0.5 * (h + h.conj().T)
        lam, q = eigh(h)
        values = q @ (np.exp(-1j * dt * lam) * (q.conj().T @ values))
    return WaveFunction(grid, values.reshape(grid.shape))
