"""Periodic tensor grids, wavefunctions, and spectral operations.

Discrete L2 convention: the norm carries the volume element, so grid
refinement leaves norms invariant.  States live in position space; momentum
space is only passed through, as a Fourier multiplier between the unnormalized
forward and inverse DFTs.  Boxes are centered: coordinates run over [-L/2, L/2).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError

MEMORY_CAP_POINTS = 1 << 22

SNAPSHOT_MAGIC = b"DPLW"
SNAPSHOT_VERSION = 1
SNAPSHOT_MAX_DIM = 64  # bounds the header read before the body size is known


@dataclass(frozen=True, eq=False)
class Grid:
    """Periodic tensor-product grid; axes may be grouped into particles."""

    shape: tuple[int, ...]
    lengths: tuple[float, ...]
    particles: int = 1

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def per_particle_dim(self) -> int:
        return self.dim // self.particles

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(l / n for l, n in zip(self.lengths, self.shape))

    @property
    def npoints(self) -> int:
        return int(np.prod(self.shape))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    def axis_coordinates(self, axis: int) -> np.ndarray:
        n = self.shape[axis]
        dx = self.spacing[axis]
        return -0.5 * self.lengths[axis] + dx * np.arange(n)

    def mesh(self, axis: int) -> np.ndarray:
        """Coordinate array along one axis, shaped for broadcasting."""
        x = self.axis_coordinates(axis)
        shape = [1] * self.dim
        shape[axis] = self.shape[axis]
        return x.reshape(shape)

    def radius_sq(self, axes) -> np.ndarray:
        """Sum of the squared coordinates over the given axes, shaped for broadcasting."""
        r2 = np.zeros((1,) * self.dim)
        for axis in axes:
            x = self.mesh(axis)
            r2 = r2 + x * x
        return r2

    def k_axis(self, axis: int) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.shape[axis], d=self.spacing[axis])

    def k_mesh(self, axis: int) -> np.ndarray:
        k = self.k_axis(axis)
        shape = [1] * self.dim
        shape[axis] = self.shape[axis]
        return k.reshape(shape)

    @cached_property
    def k_square(self) -> np.ndarray:
        out = np.zeros(self.shape)
        for axis in range(self.dim):
            out = out + self.k_mesh(axis) ** 2
        return out

    @cached_property
    def half_k_square(self) -> np.ndarray:
        """k_square on the half spectrum of ``real_fourier_pair``: a view."""
        return self.k_square[..., :self.shape[-1] // 2 + 1]


def make_grid(dim: int, points, lengths, particles: int = 1) -> Grid:
    """Validated grid constructor: powers of two, >= 8 points per axis."""
    if isinstance(points, (int, np.integer)):
        points = [int(points)] * dim
    if isinstance(lengths, (int, float, np.floating)):
        lengths = [float(lengths)] * dim
    points = [int(p) for p in points]
    lengths = [float(l) for l in lengths]
    if len(points) != dim or len(lengths) != dim:
        raise ConfigError("points and lengths must match the grid dimension")
    for p in points:
        if p < 8 or (p & (p - 1)) != 0:
            raise ConfigError(f"points per axis must be a power of two >= 8, got {p}")
    for p, l in zip(points, lengths):
        # the operators square every coordinate (up to l) and momentum (up to pi p / l)
        k_max = math.pi * p / l if l > 0 else math.inf
        if not (0 < l < math.inf and math.isfinite(dim * l * l)
                and math.isfinite(dim * k_max * k_max)):
            raise ConfigError("box lengths must be finite and positive, with finite "
                              "squared coordinates and momenta")
    if particles < 1 or dim % particles != 0:
        raise ConfigError("particle count must divide the grid dimension")
    total = int(np.prod(points))
    if total > MEMORY_CAP_POINTS:
        raise ConfigError(
            f"grid of {total} points exceeds the memory cap {MEMORY_CAP_POINTS}")
    return Grid(shape=tuple(points), lengths=tuple(lengths), particles=particles)


class WaveFunction:
    """Complex position-space amplitudes on a grid."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: Grid, values: np.ndarray):
        values = np.asarray(values, dtype=complex)
        if values.shape != grid.shape:
            raise ConfigError("values shape does not match grid shape")
        if not np.all(np.isfinite(values.view(float))):
            raise ConfigError("wavefunction amplitudes must be finite")
        self.grid = grid
        self.values = values

    def copy(self) -> "WaveFunction":
        return WaveFunction(self.grid, self.values.copy())


def inner_product(phi: WaveFunction, psi: WaveFunction) -> complex:
    """<phi, psi> with the volume element; exact trapezoid on a periodic grid."""
    if phi.grid is not psi.grid and (phi.grid.shape != psi.grid.shape
                                     or phi.grid.lengths != psi.grid.lengths):
        raise ConfigError("inner product of states on different grids")
    return complex(np.vdot(phi.values, psi.values) * phi.grid.cell_volume)


def norm(psi: WaveFunction) -> float:
    return float(np.linalg.norm(psi.values.ravel()) * np.sqrt(psi.grid.cell_volume))


def normalize(psi: WaveFunction) -> WaveFunction:
    n = norm(psi)
    if n == 0.0:
        raise ConfigError("cannot normalize the zero state")
    return WaveFunction(psi.grid, psi.values / n)


def gaussian_packet(grid: Grid, center, sigma: float, momentum=None) -> WaveFunction:
    """Normalized Gaussian exp(-(x-c)^2/(2 sigma^2) + i k0.x).

    <x> = center, <p> = k0, <x_i^2 about center> = sigma^2/2 per axis.
    """
    center = np.broadcast_to(np.atleast_1d(np.asarray(center, float)), (grid.dim,))
    if momentum is None:
        momentum = np.zeros(grid.dim)
    momentum = np.broadcast_to(np.atleast_1d(np.asarray(momentum, float)), (grid.dim,))
    sigma = float(sigma)
    max_dx = max(grid.spacing)
    if sigma <= 2.0 * max_dx:
        raise ConfigError(f"sigma {sigma} too small for grid spacing {max_dx}")
    tail = 0.0
    for axis in range(grid.dim):
        half = 0.5 * grid.lengths[axis]
        for wall in (half - center[axis], half + center[axis]):
            if wall <= 0:
                raise ConfigError("packet center outside the box")
            tail += 0.5 * math.erfc(wall / sigma)
    if tail > 1e-12:
        raise ConfigError(f"packet tail mass {tail:.2e} at the boundary exceeds 1e-12")
    phase = np.zeros(grid.shape)
    r2 = np.zeros(grid.shape)
    for axis in range(grid.dim):
        x = grid.mesh(axis) - center[axis]
        r2 = r2 + x * x
        phase = phase + momentum[axis] * grid.mesh(axis)
    values = np.exp(-r2 / (2.0 * sigma * sigma) + 1j * phase)
    return normalize(WaveFunction(grid, values))


def fourier_pair(grid: Grid):
    """(forward, inverse) DFTs over an array's trailing grid.dim axes.

    Leading axes are a batch.  One-dimensional grids use np.fft.fft/ifft, which
    skip the n-d wrapper; other grids use fftn/ifftn with explicit axes.  Both
    take ``out=``; passing the input itself transforms in place, bit-identical
    to the out-of-place result.  The transforms are looked up on np.fft at call
    time, so a patched np.fft attribute sees every call.
    """
    if grid.dim == 1:
        def forward(values: np.ndarray, out=None) -> np.ndarray:
            return np.fft.fft(values, out=out)

        def inverse(values: np.ndarray, out=None) -> np.ndarray:
            return np.fft.ifft(values, out=out)
    else:
        axes = tuple(range(-grid.dim, 0))

        def forward(values: np.ndarray, out=None) -> np.ndarray:
            return np.fft.fftn(values, axes=axes, out=out)

        def inverse(values: np.ndarray, out=None) -> np.ndarray:
            return np.fft.ifftn(values, axes=axes, out=out)

    return forward, inverse


def real_fourier_pair(grid: Grid):
    """(forward, inverse) real DFTs over an array's trailing grid.dim axes.

    The forward transform keeps the first n // 2 + 1 frequencies of the last
    axis, which fix the Hermitian spectrum of a real array; the inverse maps
    that half spectrum back to the real array.  Leading
    axes are a batch.  Like ``fourier_pair`` the transforms are looked up on
    np.fft at call time.
    """
    if grid.dim == 1:
        n = grid.shape[0]

        def forward(values: np.ndarray) -> np.ndarray:
            return np.fft.rfft(values)

        def inverse(values: np.ndarray) -> np.ndarray:
            return np.fft.irfft(values, n=n)
    else:
        axes = tuple(range(-grid.dim, 0))

        def forward(values: np.ndarray) -> np.ndarray:
            return np.fft.rfftn(values, axes=axes)

        def inverse(values: np.ndarray) -> np.ndarray:
            return np.fft.irfftn(values, s=grid.shape, axes=axes)

    return forward, inverse


def spectral_axis_derivative(values: np.ndarray, grid: Grid, axis: int) -> np.ndarray:
    """d/dx_axis via the Fourier multiplier i*k (raw array in, raw array out).

    The grid occupies the trailing axes, so leading axes are a batch.
    """
    vhat = np.fft.fft(values, axis=axis - grid.dim)
    vhat *= 1j * grid.k_mesh(axis)
    return np.fft.ifft(vhat, axis=axis - grid.dim, out=vhat)


def write_snapshot(path, psi: WaveFunction) -> None:
    """Binary state dump: magic 'DPLW', version, dims, lengths, (re, im) pairs."""
    g = psi.grid
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC)
        fh.write(struct.pack("<II", SNAPSHOT_VERSION, g.dim))
        fh.write(struct.pack(f"<{g.dim}I", *g.shape))
        fh.write(struct.pack(f"<{g.dim}d", *g.lengths))
        inter = np.empty(g.shape + (2,))
        inter[..., 0] = psi.values.real
        inter[..., 1] = psi.values.imag
        fh.write(inter.astype("<f8").tobytes(order="C"))


def read_snapshot(path) -> WaveFunction:
    """Inverse of write_snapshot; a malformed or oversized file is a ConfigError."""

    def take(fh, size: int) -> bytes:
        data = fh.read(size)
        if len(data) != size:
            raise ConfigError(f"truncated snapshot {path}: wanted {size} bytes, got {len(data)}")
        return data

    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != SNAPSHOT_MAGIC:
            raise ConfigError(f"bad snapshot magic {magic!r}")
        version, dim = struct.unpack("<II", take(fh, 8))
        if version != SNAPSHOT_VERSION:
            raise ConfigError(f"unsupported snapshot version {version}")
        if not 1 <= dim <= SNAPSHOT_MAX_DIM:
            raise ConfigError(f"snapshot dimension {dim} outside [1, {SNAPSHOT_MAX_DIM}]")
        shape = struct.unpack(f"<{dim}I", take(fh, 4 * dim))
        lengths = struct.unpack(f"<{dim}d", take(fh, 8 * dim))
        if min(shape) < 1 or not all(np.isfinite(l) and l > 0 for l in lengths):
            raise ConfigError("snapshot grid has an empty axis or a non-positive length")
        n = math.prod(shape)
        if n > MEMORY_CAP_POINTS:
            raise ConfigError(
                f"snapshot of {n} points exceeds the memory cap {MEMORY_CAP_POINTS}")
        raw = np.frombuffer(take(fh, 16 * n), dtype="<f8").reshape(shape + (2,))
    grid = Grid(shape=tuple(shape), lengths=tuple(lengths))
    return WaveFunction(grid, raw[..., 0] + 1j * raw[..., 1])
