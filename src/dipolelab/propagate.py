"""Time evolution: Strang splitting, Krylov exponentiation, ground states.

All steppers freeze the time-dependent generator at the step midpoint
(order-2 Magnus truncation), so both exhibit second-order self-convergence in
dt.  Both read the generator's terms from ``hamiltonians.generator_terms``.
The split stepper is one Strang step for any generator without gradient
terms, a symbol diagonal in momentum space plus a diagonal in position space:
the dipole kinds in any geometry and the full kind with off-grid
polarization.  The Krylov stepper exponentiates any Hermitian generator
through its ``SpectralOperator``, the in-plane full coupling included.
``StepperConfig.nsteps`` alone turns a time span into a step count.
``evolve`` returns the final state and hands the state at every ``every``-th
step boundary only to ``on_sample``, which receives the step index.
One Lanczos recurrence serves the Krylov step and the one restarted-Lanczos
extremal eigensolver, which finds the ground state (the top eigenpair of -H)
and the contraction constants of the bounds module.  Its basis takes the
arithmetic of its start vector and operator: the ground state of the real
-Lap + V, and the contraction constants of a real coupling W, are solved on
real bases with real transforms, while the Krylov step keeps a complex basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, NumericalError
from .fields import ScaledField, zero_envelope
from .hamiltonians import (HamiltonianSpec, ZERO_POTENTIAL, dipole_length, generator_terms,
                           hamiltonian_apply_fn, hermiticity_defect)
from .hamiltonians import potential_on_grid  # noqa: F401  (unused; bench/tracing.py patches it here)
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

# A Krylov step's basis starts with LOCAL_ROWS rows: the presets' steps fill 3
# to 5, and a step that needs more grows the basis to krylov_m by one copy.
LOCAL_ROWS = 6


@dataclass
class StepperConfig:
    """Time-integration policy for one trajectory."""

    dt: float
    t0: float
    t_final: float
    method: str = SPLIT
    krylov_m: int = 24
    krylov_tol: float = 1e-10

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ConfigError("dt must be finite and positive")
        if not 0 <= self.t0 <= self.t_final < math.inf:
            raise ConfigError("need finite 0 <= t0 <= t_final")
        if self.method not in (SPLIT, KRYLOV):
            raise ConfigError(f"unknown stepper method {self.method!r}")
        if not 8 <= self.krylov_m <= 64:
            raise ConfigError("krylov subspace dimension must lie in [8, 64]")
        if not 0 < self.krylov_tol < math.inf:
            raise ConfigError("krylov_tol must be finite and positive")

    @property
    def nsteps(self) -> int:
        """The whole number of steps of size dt from t0 to t_final."""
        nsteps = int(round((self.t_final - self.t0) / self.dt))
        if abs(self.t0 + nsteps * self.dt - self.t_final) > TIME_MATCH_TOL * max(1.0, abs(self.t_final)):
            raise ConfigError("dt must divide t_final - t0")
        return nsteps

    @property
    def drift_bound(self) -> float:
        return SPLIT_DRIFT_BOUND if self.method == SPLIT else max(self.krylov_tol, 1e-12)


@dataclass
class Trajectory:
    """The final state of one run and its norm bookkeeping."""

    terminal_state: WaveFunction
    max_step_drift: float
    terminal_norm: float
    nsteps: int
    method: str


def _split_stepper(spec: HamiltonianSpec, grid: Grid,
                   dt: float) -> Callable[[np.ndarray, float], np.ndarray]:
    """step(values, t_mid): the Strang step exp(-i dt/2 D) F^-1 exp(-i dt S) F exp(-i dt/2 D).

    S and D are the symbol and diagonal of ``generator_terms`` at t_mid.  A
    factor is exponentiated again only when its term is a new array, so fixed
    terms are exponentiated once.  Exactly norm-preserving; generators with
    gradient terms do not split into these two factors and are refused.
    """
    forward, inverse = fourier_pair(grid)
    sym = diag = kin = half_d = None

    def step(values: np.ndarray, t_mid: float) -> np.ndarray:
        nonlocal sym, diag, kin, half_d
        new_sym, new_diag, grads = generator_terms(spec, t_mid, grid)
        if grads:
            raise ConfigError("split stepper needs a generator without gradient terms")
        if new_sym is not sym:
            sym, kin = new_sym, np.exp(-1j * dt * new_sym)
        if new_diag is not diag:
            diag, half_d = new_diag, np.exp(-0.5j * dt * new_diag)
        out = inverse(kin * forward(half_d * values))
        out *= half_d
        return out

    return step


def _lanczos(apply_fn, v0: np.ndarray, m: int, local: bool = False):
    """Lanczos tridiagonalisation of apply_fn on the Krylov space of the unit vector v0.

    Yields (V, alphas, betas, b) after each new basis vector: the basis rows
    V, the tridiagonal T = tridiag(betas, alphas, betas) and the norm b of the
    next residual.  Each residual is re-orthogonalised against the whole
    basis by block classical Gram-Schmidt, applied twice, on a basis
    allocated as (m, N).  With local=True it is orthogonalised once, against
    the previous two vectors only (the plain three-term recurrence), which is
    enough for the few vectors of a Krylov step; that basis is allocated as
    LOCAL_ROWS rows and grown to m rows by one copy only when a step needs
    more.  At most m vectors are built; the caller stops early by leaving the
    loop.  apply_fn must return a new array, not a view of its argument.  The
    basis takes the result type of v0 and the first apply: a real operator
    started from a real vector (the ground state of -Lap + V, the normal
    operator of a real W) keeps a real basis of half the memory.
    """
    shape = v0.shape
    w = apply_fn(v0).ravel()
    V = np.empty((min(m, LOCAL_ROWS) if local else m, v0.size),
                 dtype=np.result_type(v0, w))
    V[0] = v0.ravel()
    alphas = np.empty(m)
    betas = np.empty(m - 1)
    for j in range(m):
        if j:
            w = apply_fn(V[j].reshape(shape)).ravel()
        basis = V[max(j - 1, 0) if local else 0:j + 1]
        h = np.vecdot(basis, w)
        alphas[j] = h[-1].real
        w -= h @ basis
        if not local:
            w -= np.vecdot(basis, w) @ basis
        b = np.sqrt(np.vdot(w, w).real)
        yield V[:j + 1], alphas[:j + 1], betas[:j], b
        if j + 1 < m:
            betas[j] = b
            if j + 1 == len(V):
                grown = np.empty((m, v0.size), V.dtype)
                grown[:j + 1] = V
                V = grown
            np.multiply(w, 1.0 / b, out=V[j + 1])


def _tridiagonal_eigh(alphas: np.ndarray, betas: np.ndarray):
    """Ascending eigenvalues and eigenvectors of tridiag(betas, alphas, betas)."""
    n = alphas.size
    t = np.diag(alphas)
    t.flat[n::n + 1] = betas   # the subdiagonal: eigh reads the lower triangle
    if not np.isfinite(t).all():
        raise NumericalError("tridiagonal eigensolver got non-finite Lanczos coefficients")
    try:
        return np.linalg.eigh(t, UPLO="L")
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"tridiagonal eigensolver failed: {exc}") from exc


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
    subspace budget m was exhausted before the residual estimate
    |dt| b |u_last| (Saad 1992) dropped below tol.  That estimate needs a small
    eigensolve, so it is formed only once its leading Taylor term
    |dt|^(j+1) beta_0...beta_j / j! reaches tol, at breakdown, and at the
    last vector: a skipped check can only add a vector, never accept a worse
    step.
    """
    beta0 = np.sqrt(np.vdot(values, values).real)
    if beta0 == 0.0:
        return values.copy(), 0.0
    breakdown = 1e-14 * beta0
    lead = 1.0
    for V, alphas, betas, b in _lanczos(apply_fn, values / beta0, m, local=True):
        j = alphas.size - 1
        lead *= abs(dt) * b / max(j, 1)
        # `not lead > tol` also holds for a NaN residual, which the eigensolver rejects
        if not lead > tol or b <= breakdown or j + 1 == m:
            lam, q = _tridiagonal_eigh(alphas, betas)
            u = q @ (np.exp(-1j * dt * lam) * q[0, :])
            est = abs(dt) * b * abs(u[-1])
            if est <= tol or b <= breakdown:
                return ((beta0 * u) @ V).reshape(values.shape), est
    return None, est


def _check_hermiticity_guard(spec: HamiltonianSpec, t: float, grid: Grid) -> None:
    defect = hermiticity_defect(spec, t, grid)
    # a non-finite H gives a NaN defect, which fails the comparison too
    if not defect <= KRYLOV_GUARD:
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


def evolve(spec: HamiltonianSpec, psi0: WaveFunction, config: StepperConfig,
           on_sample: Callable[[int, WaveFunction], None] | None = None,
           every: int = 1) -> Trajectory:
    """Propagate psi0 from t0 to t_final with per-step norm bookkeeping.

    The trajectory holds the state at t_final.  on_sample(k, psi) is called
    at the step boundaries k = 0, every, 2 every, ..., nsteps, in step order,
    with the running state; every must divide config.nsteps.  psi is valid
    only during the call, so a hook that keeps it must copy it.  A hook may
    itself call evolve: the gauge check advances its length gauge from mark
    to mark inside the velocity run's hook.
    """
    grid = psi0.grid
    n0 = norm(psi0)
    if abs(n0 - 1.0) > 1e-6:
        raise ConfigError(f"initial state is not normalized (norm {n0})")
    nsteps = config.nsteps
    if every < 1 or nsteps % every:
        raise ConfigError(f"the hook stride {every} does not divide the {nsteps} steps")

    if config.method == SPLIT:
        stepper = _split_stepper(spec, grid, config.dt)
    else:
        _check_hermiticity_guard(spec, config.t0 + 0.5 * config.dt, grid)

        def stepper(values: np.ndarray, t_mid: float) -> np.ndarray:
            return _krylov_step_values(spec, grid, values,
                                       t_mid - 0.5 * config.dt, config.dt,
                                       config.krylov_m, config.krylov_tol)

    values = psi0.values.copy()
    if on_sample is not None:
        on_sample(0, WaveFunction(grid, values))
    max_drift = 0.0
    prev_norm = n0
    bound = config.drift_bound
    sqrt_vol = np.sqrt(grid.cell_volume)
    for j in range(nsteps):
        t_mid = config.t0 + (j + 0.5) * config.dt
        values = stepper(values, t_mid)
        cur_norm = np.sqrt(np.vdot(values, values).real) * sqrt_vol
        if not np.isfinite(cur_norm):
            raise NumericalError(f"state became non-finite at step {j}")
        drift = abs(cur_norm - prev_norm)
        if drift > bound:
            raise NumericalError(
                f"norm drift {drift:.2e} exceeded the bound {bound:.1e} at step {j}")
        max_drift = max(max_drift, drift)
        prev_norm = cur_norm
        if on_sample is not None and (j + 1) % every == 0:
            on_sample(j + 1, WaveFunction(grid, values))
    return Trajectory(WaveFunction(grid, values), max_drift, prev_norm, nsteps, config.method)


def ground_state_imaginary_time(potential, grid: Grid, tol: float = 1e-8):
    """Lowest eigenpair of -Lap + V by restarted Lanczos from a Gaussian seed.

    H = -Lap + V is applied as the zero-field length generator.  Returns
    (energy, psi) with ||H psi - E psi|| <= tol and psi normalized on the
    grid.  The lowest pair of H is the top pair of -H.  For a Euclidean unit
    vector the Lanczos residual equals the grid-norm residual of the
    grid-normalized state, so tol is the solver's absolute stop.  H and the
    seed are real, so the solve runs on a real basis with real transforms;
    the final residual check applies H to the complex state.  The name is
    kept from a former imaginary-time relaxation ahead of the Lanczos solve,
    which only added cost; the acceptance suite and the benchmark tracer call
    this name.
    """
    if potential.kind == ZERO_POTENTIAL:
        raise ConfigError("free particle has no bound ground state")
    field = ScaledField(zero_envelope(), 1.0, 1.0)
    apply_h = hamiltonian_apply_fn(dipole_length(field, potential), 0.0, grid)

    sigma = max(1.0, 2.5 * max(grid.spacing))
    seed = np.exp(-grid.radius_sq(range(grid.dim)) / (2.0 * sigma * sigma))
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
        lam, q = np.linalg.eigh(h)
        values = q @ (np.exp(-1j * dt * lam) * (q.conj().T @ values))
    return WaveFunction(grid, values.reshape(grid.shape))
