"""Discrete analogues of the operator estimates behind well-posedness.

Three measurements on the coupling W = H - (-Lap), built from
``hamiltonians.coupling_terms`` and applied by the ``SpectralOperator`` that
applies H, all over reproducible seeded probe ensembles.  Every draw comes
from the stdlib random.Random(seed): normal deviates by the Box-Muller
transform of its 32-bit integers, uniform packet parameters from its
uniform(), so no bounds process loads numpy.random:

  * contraction_scan: q(alpha) = ||W R_alpha||, R_alpha = (-Lap + alpha)^-1;
    invertibility of 1 + W R_alpha needs q < 1.  q(alpha)^2 is the top
    eigenvalue of the Hermitian PSD normal operator W R^2 W^dag (R is
    self-adjoint), applied as W^dag, one resolvent squared and W, so one
    transform pair per apply when b has no on-grid component.  It is found
    by the restarted-Lanczos eigensolver that also finds the ground state
    (propagate._top_eigenpair), which stops once the top Ritz pair's
    residual is at most RITZ_RTOL = 1e-8 times its Ritz value.  Shifts run
    in increasing order, each warm-started from the previous top
    eigenvector plus the seeded random start.  When W is real (a real
    diagonal, a constant shift and no gradient terms, as on every preset) the
    normal operator is real symmetric and the scan runs on a real start, a
    real Lanczos basis and real transforms.
  * infinitesimal_bound_scan: smallest C with ||W psi||^2 <= eps ||Lap psi||^2
    + C ||psi||^2 over the probes (a lower bound on the true constant).
  * graph_norm_constants: the ratio between the discrete second Sobolev norm
    and the graph norm ||psi|| + ||(H + alpha) psi||.

The probe kernels work on stacked probe blocks (probe axis leading) of at
most PROBE_BLOCK_POINTS grid points: 8 probes of a 512-point grid, one
probe of a 128^2 grid.  The seeded ensemble is drawn in those blocks: the
generator is read probe by probe in index order, then the Box-Muller
transform and inverse FFT of the block's band-limited probes and the
exponentials of its Gaussian packets each run once over the block, in the
block's own rows, so a block draw holds the block, the normal deviates and
one exponential factor.  That arithmetic is element by element, so no
probe depends, to the bit, on the block it is drawn in.  run_bounds_suite
makes one pass over these blocks: each block is transformed once, for both
the Laplacian norms of the relative bound and the Sobolev norms of the
graph norm, gets one W apply and one H apply, and is reduced to per-probe
scalars before the next block is drawn.  So the suite holds one block,
never the ensemble.  infinitesimal_bound_scan and graph_norm_constants take
probe lists (probe_ensemble gives the rows of the same blocks) and run the
same per-block kernels.  The estimates are grid-dependent; reports carry the
grid and seed so numbers are reproducible bit-for-bit and never
extrapolated to the continuum.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError
from .hamiltonians import (HamiltonianSpec, SpectralOperator, _random_words,
                           coupling_terms, hamiltonian_apply_fn)
from .hamiltonians import potential_on_grid  # noqa: F401  (unused; bench/tracing.py patches it here)
from .propagate import _top_eigenpair
from .spatial import Grid, WaveFunction, fourier_pair, real_fourier_pair

# relative residual at which the top Ritz value q(alpha)^2 is accepted
RITZ_RTOL = 1e-8

# the scan set of run_bounds_suite: contraction shifts, relative-bound
# epsilons, the graph-norm shift and the probe count
SUITE_ALPHAS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0)
SUITE_EPSILONS = (0.0, 0.01, 0.05, 0.1, 0.5, 1.0)
SUITE_GRAPH_ALPHA = 10.0
SUITE_PROBES = 64

# grid points per stacked probe block (64 KiB of complex values), so a block
# stays cache-sized and below glibc's 128 KiB mmap threshold: 8192-point
# blocks raised a pulse-1d probe process's peak memory above a study's
PROBE_BLOCK_POINTS = 4096


class CouplingOperator(SpectralOperator):
    """The coupling W as a ``hamiltonians.SpectralOperator``; its symbol is W's shift."""

    @classmethod
    def from_spec(cls, spec: HamiltonianSpec, t: float, grid: Grid) -> "CouplingOperator":
        return cls(grid, *coupling_terms(spec, t, grid))

    @classmethod
    def explicit(cls, grid: Grid, b_axes: dict | None = None,
                 b_sq=0.0) -> "CouplingOperator":
        """W = 2i b.grad + b^2 with b given per on-grid axis."""
        grads = [(2j * b, 1j * grid.k_mesh(axis)) for axis, b in (b_axes or {}).items()]
        return cls(grid, 0.0, b_sq + np.zeros(grid.shape), grads)


def _box_muller(words: np.ndarray) -> np.ndarray:
    """Standard normal deviates from each row of 2n 32-bit integers: n per row.

    Each integer k becomes u = (k + 1/2) 2^-32, inside (0, 1), so the
    logarithm never sees zero: a radius from the first half of the row and an
    angle from the second.
    """
    u = (words + 0.5) * 2.0 ** -32
    count = u.shape[-1] // 2
    radius = np.sqrt(-2.0 * np.log(u[..., :count]))
    return radius * np.cos(2.0 * np.pi * u[..., count:])


def _standard_normal(rng: random.Random, shape: tuple) -> np.ndarray:
    """Standard normal deviates by the Box-Muller transform, in a C-order array."""
    return _box_muller(_random_words(rng, 2 * math.prod(shape))).reshape(shape)


def resolvent_apply(values: np.ndarray, grid: Grid, alpha: float,
                    power: int = 1) -> np.ndarray:
    """(-Lap + alpha)^-power, diagonal in momentum space; leading axes are a batch.

    power=2 serves the contraction scan's normal operator W R^2 W^dag: one
    transform pair where two resolvents would take two.  The symbol is real
    and even in k, so a real input goes through the real transforms, on the
    half spectrum, and gives a real output.
    """
    if not 0 < alpha < math.inf:
        raise ConfigError("resolvent shift must be finite and positive")
    if values.dtype.kind == "f":
        forward, inverse = real_fourier_pair(grid)
        vhat = forward(values)
        vhat /= (grid.half_k_square + alpha) ** power
        return inverse(vhat)
    forward, inverse = fourier_pair(grid)
    vhat = forward(values)
    vhat /= (grid.k_square + alpha) ** power
    return inverse(vhat, out=vhat)


def contraction_scan(w_op: CouplingOperator, alphas: Sequence[float],
                     seed: int = 2024):
    """q(alpha) over the sampled shifts and the smallest alpha with q < 1.

    q(alpha)^2 = ||W R||^2, R = (-Lap + alpha)^-1, is the top eigenvalue of
    W R^2 W^dag.  The first shift starts from a seeded random unit vector r;
    each later one from the previous top eigenvector plus r, since the old
    eigenvector alone can span an invariant subspace of the new operator
    that misses its top.  A real W makes the normal operator real symmetric:
    r is then the real part of the complex draw, and the Lanczos basis and
    the transforms stay real.
    """
    alphas = [float(a) for a in alphas]
    if sorted(alphas) != alphas:
        raise ConfigError("alpha grid must be increasing")
    grid = w_op.grid
    rng = random.Random(seed)
    r = _standard_normal(rng, grid.shape)
    if not w_op.is_real:
        r = r + 1j * _standard_normal(rng, grid.shape)
    r /= np.linalg.norm(r.ravel())
    q = np.empty(len(alphas))
    start = r
    # overflow surfaces as _top_eigenpair's NumericalError, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for i, alpha in enumerate(alphas):
            def normal_apply(x: np.ndarray, alpha=alpha) -> np.ndarray:
                y = resolvent_apply(w_op.adjoint_apply(x), grid, alpha, power=2)
                return w_op.apply(y)

            theta, top = _top_eigenpair(normal_apply, start,
                                        f"the normal operator at alpha={alpha}",
                                        rtol=RITZ_RTOL)
            q[i] = np.sqrt(max(theta, 0.0))
            start = top + r
            start /= np.linalg.norm(start.ravel())
    alpha_star = None
    for a, qa in zip(alphas, q):
        if qa < 1.0:
            alpha_star = a
            break
    return np.array(alphas), q, alpha_star


def probe_blocks(probes: Iterable[WaveFunction]):
    """Probe values stacked with the probe axis leading, in order.

    Takes any iterable of probes and draws from it one block at a time.  A
    block holds at most PROBE_BLOCK_POINTS grid points, or one probe when a
    single probe is larger.
    """
    probes = iter(probes)
    for first in probes:
        per_block = max(1, PROBE_BLOCK_POINTS // first.grid.npoints)
        block = np.stack([first.values,
                          *(p.values for p in islice(probes, per_block - 1))])
        del first  # the block is a copy: hold no probe while it is consumed
        yield block


def _squared_norms(block: np.ndarray) -> np.ndarray:
    """Euclidean squared norm of each probe (leading axis) of a block."""
    flat = block.reshape(block.shape[0], -1)
    return np.vecdot(flat, flat).real


def _laplacian_norms(vhat: np.ndarray, grid: Grid) -> np.ndarray:
    """||Lap psi||^2 per probe from the block's forward transform vhat.

    Parseval for the unnormalized FFT: ||Lap psi||^2 = ||k^2 F psi||^2 / N.
    """
    return _squared_norms(grid.k_square * vhat) / grid.npoints


def _relative_rows(w_op: CouplingOperator, block: np.ndarray,
                   lap_norms: np.ndarray) -> np.ndarray:
    """Rows ||W psi||^2, ||Lap psi||^2 and ||psi||^2 over the probes of a block."""
    return np.stack([_squared_norms(w_op.apply(block)), lap_norms, _squared_norms(block)])


def _relative_constants(epsilons: Sequence[float], rows: np.ndarray) -> np.ndarray:
    """C_eps per eps: the probe maximum over the _relative_rows, clamped at zero."""
    w_norms, lap_norms, norms = rows
    out = []
    for eps in epsilons:
        # NaN fails the comparison too
        if not 0.0 <= eps < math.inf:
            raise ConfigError("relative-bound weights must be finite and non-negative")
        c = np.max((w_norms - float(eps) * lap_norms) / norms)
        out.append(max(0.0, float(c)))
    return np.array(out)


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
    forward, _ = fourier_pair(grid)
    rows = [_relative_rows(w_op, block, _laplacian_norms(forward(block), grid))
            for block in probe_blocks(probes)]
    return _relative_constants(epsilons, np.concatenate(rows, axis=1))


def _sobolev_weight(grid: Grid) -> np.ndarray:
    """The momentum weight 1 + k^2 + k^4, flattened."""
    return (1.0 + grid.k_square + grid.k_square ** 2).ravel()


def _sobolev_norms(vhat: np.ndarray, grid: Grid, weight: np.ndarray) -> np.ndarray:
    """||psi||_{W^{2,2}} per probe from the block's forward transform vhat."""
    dens = (vhat.real ** 2 + vhat.imag ** 2).reshape(vhat.shape[0], -1)
    return np.sqrt(dens @ weight * grid.cell_volume / grid.npoints)


def _graph_ratios(h_apply, alpha: float, block: np.ndarray, sobolev: np.ndarray,
                  grid: Grid) -> np.ndarray:
    """||psi||_{W^{2,2}} / (||psi|| + ||(H+alpha) psi||) over the probes of a block.

    h_apply applies H; sobolev holds the probes' _sobolev_norms.
    """
    scale = np.sqrt(grid.cell_volume)
    n = np.sqrt(_squared_norms(block)) * scale
    if np.any(n == 0.0):
        raise ConfigError("degenerate zero-norm probe")
    hp = h_apply(block)
    hp += alpha * block
    graph = n + np.sqrt(_squared_norms(hp)) * scale
    return sobolev / graph


def graph_norm_constants(spec: HamiltonianSpec, t: float, alpha: float,
                         probes: Sequence[WaveFunction]):
    """[min, max] over probes of ||psi||_{W^{2,2}} / (||psi|| + ||(H+alpha) psi||)."""
    if len(probes) < 1:
        raise ConfigError("need at least one probe")
    if not math.isfinite(alpha):
        raise ConfigError("graph-norm shift must be finite")
    grid = probes[0].grid
    fn = hamiltonian_apply_fn(spec, t, grid)
    forward, _ = fourier_pair(grid)
    weight = _sobolev_weight(grid)
    ratios = np.concatenate([
        _graph_ratios(fn, alpha, block, _sobolev_norms(forward(block), grid, weight), grid)
        for block in probe_blocks(probes)])
    return float(np.min(ratios)), float(np.max(ratios))


def _probe_block(rng: random.Random, grid: Grid, first: int, count: int) -> np.ndarray:
    """Probes first .. first + count - 1 of the ensemble, stacked, each unit-normalized.

    Odd indices are band-limited noise, even ones Gaussian packets with a
    random boost.  The generator is read probe by probe in index order; the
    arithmetic then runs once per kind over the block's probes of that kind,
    element by element, so no row depends, to the bit, on how the ensemble
    is split into blocks.
    """
    cutoff = max(2, min(grid.shape) // 4)
    modes = cutoff ** grid.dim
    spacing = grid.spacing
    words, packets = [], []
    for idx in range(first, first + count):
        if idx % 2 == 1:
            # real parts, then imaginary parts: two words per deviate
            words += [_random_words(rng, 2 * modes), _random_words(rng, 2 * modes)]
        else:
            packet = []
            for l, h in zip(grid.lengths, spacing):
                c = rng.uniform(-l / 4, l / 4)
                lo = 2.2 * h
                sig = rng.uniform(lo, max(l / 8, 2.0 * lo))
                k0 = rng.uniform(-1.0, 1.0) * np.pi / (3.0 * h)
                packet.append((c, 2 * sig ** 2, k0))
            packets.append(packet)
    # row j holds probe first + j
    block = np.empty((count,) + grid.shape, dtype=complex)
    if words:
        parts = _box_muller(np.stack(words)).reshape((-1, 2) + (cutoff,) * grid.dim)
        coeff = block[1 - first % 2::2]
        coeff[...] = 0.0
        sel = (slice(None),) + (slice(0, cutoff),) * grid.dim
        coeff[sel] = parts[:, 0]
        coeff[sel] += 1j * parts[:, 1]
        fourier_pair(grid)[1](coeff, out=coeff)
    if packets:
        params = np.array(packets)
        lead = (len(packets),) + (1,) * grid.dim
        vals = block[first % 2::2]
        vals[...] = 1.0
        for axis in range(grid.dim):
            c, den, k0 = (params[:, axis, j].reshape(lead) for j in range(3))
            x = grid.mesh(axis)
            vals *= np.exp(-(x - c) ** 2 / den + 1j * k0 * x)
    scale = np.sqrt(grid.cell_volume)
    for row in block:
        row /= np.linalg.norm(row.ravel()) * scale
    return block


def _drawn_blocks(grid: Grid, count: int, seed: int) -> Iterator[np.ndarray]:
    """The count-probe ensemble of seed, drawn in the blocks probe_blocks stacks."""
    rng = random.Random(seed)
    per_block = max(1, PROBE_BLOCK_POINTS // grid.npoints)
    for first in range(0, count, per_block):
        yield _probe_block(rng, grid, first, min(per_block, count - first))


def probe_ensemble(grid: Grid, count: int, seed: int) -> list[WaveFunction]:
    """Reproducible probe states, drawn from one seeded generator a block at a time."""
    return [WaveFunction(grid, row) for block in _drawn_blocks(grid, count, seed)
            for row in block]


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


def run_bounds_suite(spec: HamiltonianSpec, t: float, grid: Grid, seed: int) -> BoundsReport:
    """Full scan set against one generator at one time.

    The probes are drawn block by block, in the blocks probe_blocks would
    stack, and each block is reduced to its per-probe scalars before the
    next is drawn; the report equals the one the list functions give on
    probe_ensemble(grid, SUITE_PROBES, seed).
    """
    w_op = CouplingOperator.from_spec(spec, t, grid)
    alpha_arr, q, alpha_star = contraction_scan(w_op, SUITE_ALPHAS, seed=seed)
    h_apply = hamiltonian_apply_fn(spec, t, grid)
    forward, _ = fourier_pair(grid)
    weight = _sobolev_weight(grid)
    rows, ratios = [], []
    for block in _drawn_blocks(grid, SUITE_PROBES, seed):
        # one transform feeds both spectral norms and is dropped before the applies
        vhat = forward(block)
        lap, sobolev = _laplacian_norms(vhat, grid), _sobolev_norms(vhat, grid, weight)
        del vhat
        rows.append(_relative_rows(w_op, block, lap))
        ratios.append(_graph_ratios(h_apply, SUITE_GRAPH_ALPHA, block, sobolev, grid))
    c_eps = _relative_constants(SUITE_EPSILONS, np.concatenate(rows, axis=1))
    ratios = np.concatenate(ratios)
    return BoundsReport(
        alphas=list(alpha_arr), q_values=list(q), alpha_star=alpha_star,
        epsilons=list(SUITE_EPSILONS), c_eps=list(c_eps), graph_alpha=SUITE_GRAPH_ALPHA,
        graph_interval=(float(np.min(ratios)), float(np.max(ratios))),
        probe_description=f"mixed gaussian/band-limited ensemble, {SUITE_PROBES} probes",
        seed=seed, grid_shape=grid.shape, grid_lengths=grid.lengths)
