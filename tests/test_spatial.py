import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dipolelab import fields, hamiltonians, spatial
from dipolelab.errors import ConfigError


def test_make_grid_1d():
    g = spatial.make_grid(1, 256, 40.0)
    assert g.spacing == (0.15625,)
    assert g.dim == 1 and g.npoints == 256


def test_make_grid_two_body():
    g = spatial.make_grid(2, [64, 64], [30.0, 30.0], particles=2)
    assert g.per_particle_dim == 1
    assert g.shape == (64, 64)


def test_make_grid_rejects_bad_points():
    with pytest.raises(ConfigError):
        spatial.make_grid(1, 7, 40.0)
    with pytest.raises(ConfigError):
        spatial.make_grid(1, 4, 40.0)
    with pytest.raises(ConfigError):
        spatial.make_grid(1, 1 << 23, 40.0)  # memory cap
    with pytest.raises(ConfigError):
        spatial.make_grid(3, [8, 8, 8], [1.0, 1.0, 1.0], particles=2)
    # 1e308 squares past the float range; 1e-300 makes pi n / l do the same
    for length in (0.0, -1.0, float("nan"), float("inf"), 1e308, 1e-300):
        with pytest.raises(ConfigError):
            spatial.make_grid(1, 8, length)


def moments(psi):
    """(<x>, <(x - <x>)^2>, <p>, <p^2>) of a normalized 1D state, p = -i d/dx."""
    g = psi.grid
    x = g.mesh(0)
    dens = np.abs(psi.values) ** 2 * g.cell_volume
    x_mean = float((x * dens).sum())
    dpsi = spatial.spectral_axis_derivative(psi.values, g, 0)
    p_mean = spatial.inner_product(psi, spatial.WaveFunction(g, -1j * dpsi)).real
    p2 = spatial.norm(spatial.WaveFunction(g, dpsi)) ** 2
    return x_mean, float(((x - x_mean) ** 2 * dens).sum()), p_mean, p2


def test_gaussian_packet_moments():
    g = spatial.make_grid(1, 512, 60.0)
    psi = spatial.gaussian_packet(g, 1.5, 1.0, 0.0)
    assert spatial.norm(psi) == pytest.approx(1.0, abs=1e-12)
    x_mean, x2, p_mean, _ = moments(psi)
    assert x_mean == pytest.approx(1.5, abs=1e-9)
    assert p_mean == pytest.approx(0.0, abs=1e-10)
    assert x2 == pytest.approx(0.5, abs=1e-8)

    boosted = spatial.gaussian_packet(g, 0.0, 1.0, 3.0)
    _, _, p_mean, p2 = moments(boosted)
    assert p_mean == pytest.approx(3.0, abs=1e-8)
    assert p2 == pytest.approx(9.0 + 0.5, abs=1e-8)


def test_gaussian_packet_validation():
    g = spatial.make_grid(1, 256, 40.0)
    with pytest.raises(ConfigError):
        spatial.gaussian_packet(g, 0.0, 0.01, 0.0)  # sigma below grid scale
    with pytest.raises(ConfigError):
        spatial.gaussian_packet(g, 18.0, 1.0, 0.0)  # tail at the wall


def test_inner_product_against_direct_summation():
    g = spatial.make_grid(1, 128, 10.0)
    rng = np.random.default_rng(42)
    phi = spatial.WaveFunction(g, rng.standard_normal(128) + 1j * rng.standard_normal(128))
    psi = spatial.WaveFunction(g, rng.standard_normal(128) + 1j * rng.standard_normal(128))
    direct = sum(complex(np.conj(a) * b) for a, b in zip(phi.values, psi.values))
    direct *= g.cell_volume
    assert abs(spatial.inner_product(phi, psi) - direct) < 1e-13 * abs(direct)


def test_inner_product_parity_orthogonality():
    g = spatial.make_grid(1, 256, 40.0)
    x = g.mesh(0)
    even = spatial.normalize(spatial.WaveFunction(g, np.exp(-x ** 2)))
    odd = spatial.normalize(spatial.WaveFunction(g, x * np.exp(-x ** 2)))
    assert abs(spatial.inner_product(even, odd)) < 1e-12
    assert spatial.inner_product(even, even).real == pytest.approx(1.0, abs=1e-12)


def test_inner_product_conjugate_symmetry():
    g = spatial.make_grid(1, 64, 5.0)
    rng = np.random.default_rng(3)
    phi = spatial.WaveFunction(g, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    psi = spatial.WaveFunction(g, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    assert spatial.inner_product(phi, psi) == np.conj(spatial.inner_product(psi, phi))


def test_inner_product_grid_mismatch():
    a = spatial.make_grid(1, 64, 5.0)
    b = spatial.make_grid(1, 64, 6.0)
    va = spatial.WaveFunction(a, np.ones(64, dtype=complex))
    vb = spatial.WaveFunction(b, np.ones(64, dtype=complex))
    with pytest.raises(ConfigError):
        spatial.inner_product(va, vb)


def test_spectral_gradient_plane_wave_exact():
    g = spatial.make_grid(1, 128, 16.0)
    k = 2 * np.pi * 5 / 16.0
    psi = np.exp(1j * k * g.mesh(0))
    grad = spatial.spectral_axis_derivative(psi, g, 0)
    assert np.max(np.abs(grad - 1j * k * psi)) < 1e-12


def test_spectral_gradient_gaussian_analytic():
    g = spatial.make_grid(1, 512, 60.0)
    sigma = 1.3
    psi = spatial.gaussian_packet(g, 0.0, sigma, 0.0)
    grad = spatial.spectral_axis_derivative(psi.values, g, 0)
    x = g.mesh(0)
    expected = -x / sigma ** 2 * psi.values
    assert np.max(np.abs(grad - expected)) < 1e-8


def test_spectral_gradient_constant_is_zero():
    g = spatial.make_grid(2, [16, 16], [4.0, 4.0])
    psi = np.ones((16, 16), dtype=complex)
    for axis in range(g.dim):
        assert np.max(np.abs(spatial.spectral_axis_derivative(psi, g, axis))) < 1e-14


def test_spectral_axis_derivative_of_a_batch_along_one_axis():
    # each row of a leading batch axis is differentiated along the grid axis
    # alone: d/dy of exp(i (k x + q y)) is i q times the state
    g = spatial.make_grid(2, [16, 32], [4.0, 8.0])
    rows = []
    for k, q in ((1, 2), (-3, 5)):
        rows.append(np.exp(1j * (2 * np.pi * k / 4.0 * g.mesh(0)
                                 + 2 * np.pi * q / 8.0 * g.mesh(1))))
    batch = np.stack(rows)
    out = spatial.spectral_axis_derivative(batch, g, 1)
    for row, grad, q in zip(batch, out, (2, 5)):
        assert np.max(np.abs(grad - 1j * (2 * np.pi * q / 8.0) * row)) < 1e-12


def test_laplacian_matches_gradient_composition():
    # the generator's kinetic term -Lap, with no field and no potential,
    # against the spectral derivative applied twice
    g = spatial.make_grid(1, 256, 30.0)
    psi = spatial.gaussian_packet(g, 0.0, 1.0, 2.0)
    fld = fields.ScaledField(fields.zero_envelope(2), 1.0, 1.0)
    spec = hamiltonians.dipole_velocity(fld, hamiltonians.zero_potential())
    minus_lap = hamiltonians.hamiltonian_apply_fn(spec, 0.0, g)(psi.values)
    once = spatial.spectral_axis_derivative(psi.values, g, 0)
    twice = spatial.spectral_axis_derivative(once, g, 0)
    assert np.max(np.abs(minus_lap + twice)) < 1e-10


def test_momentum_roundtrip_and_parseval():
    g = spatial.make_grid(2, [32, 32], [8.0, 8.0])
    forward, inverse = spatial.fourier_pair(g)
    rng = np.random.default_rng(7)
    psi = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    phat = forward(psi)
    assert abs(np.linalg.norm(phat) ** 2 / g.npoints - np.linalg.norm(psi) ** 2) \
        < 1e-13 * np.linalg.norm(psi) ** 2
    assert np.max(np.abs(inverse(phat) - psi)) < 1e-13


def test_momentum_shift_theorem():
    g = spatial.make_grid(1, 256, 40.0)
    forward, _ = spatial.fourier_pair(g)
    shift = 40.0 / 256 * 16   # on-lattice shift
    psi = spatial.gaussian_packet(g, 0.0, 1.2, 0.0)
    shifted = spatial.gaussian_packet(g, shift, 1.2, 0.0)
    k = g.k_axis(0)
    scale = g.cell_volume / np.sqrt(2 * np.pi)   # the continuum transform's normalization
    expected = scale * forward(psi.values) * np.exp(-1j * k * shift)
    actual = scale * forward(shifted.values)
    assert np.max(np.abs(actual - expected)) < 1e-10


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_parseval_property(seed):
    g = spatial.make_grid(1, 64, 7.0)
    forward, _ = spatial.fourier_pair(g)
    rng = np.random.default_rng(seed)
    psi = spatial.WaveFunction(g, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    k_norm = np.linalg.norm(forward(psi.values)) * np.sqrt(g.cell_volume / g.npoints)
    assert abs(k_norm - spatial.norm(psi)) < 1e-13


def test_norm_invariant_under_refinement():
    # same physical Gaussian, two resolutions: discrete norms agree
    for n in (128, 256):
        g = spatial.make_grid(1, n, 40.0)
        psi = spatial.gaussian_packet(g, 0.0, 1.0, 0.0)
        assert spatial.norm(psi) == pytest.approx(1.0, abs=1e-12)


def test_snapshot_roundtrip(tmp_path):
    g = spatial.make_grid(2, [16, 32], [4.0, 9.0])
    rng = np.random.default_rng(11)
    psi = spatial.WaveFunction(
        g, rng.standard_normal((16, 32)) + 1j * rng.standard_normal((16, 32)))
    path = tmp_path / "state.dplw"
    spatial.write_snapshot(path, psi)
    back = spatial.read_snapshot(path)
    assert back.grid.shape == g.shape
    assert back.grid.lengths == g.lengths
    np.testing.assert_array_equal(back.values, psi.values)
    with open(path, "rb") as fh:
        assert fh.read(4) == b"DPLW"


def test_snapshot_bad_magic(tmp_path):
    path = tmp_path / "junk.dplw"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(ConfigError):
        spatial.read_snapshot(path)


def _snapshot_bytes(tmp_path, n=64):
    g = spatial.make_grid(1, n, 10.0)
    rng = np.random.default_rng(3)
    psi = spatial.WaveFunction(g, rng.standard_normal(n) + 1j * rng.standard_normal(n))
    path = tmp_path / "state.dplw"
    spatial.write_snapshot(path, psi)
    return path, path.read_bytes()


def test_snapshot_truncated_body(tmp_path):
    path, data = _snapshot_bytes(tmp_path)
    path.write_bytes(data[:-8])
    with pytest.raises(ConfigError, match="truncated"):
        spatial.read_snapshot(path)


def test_snapshot_truncated_header(tmp_path):
    path, data = _snapshot_bytes(tmp_path)
    for cut in (6, 14, 20):  # inside version/dim, inside shape, inside lengths
        path.write_bytes(data[:cut])
        with pytest.raises(ConfigError, match="truncated"):
            spatial.read_snapshot(path)


def test_snapshot_header_past_memory_cap(tmp_path):
    # a two-axis header claiming 2^20 x 2^20 points, with no body behind it
    path = tmp_path / "huge.dplw"
    path.write_bytes(b"DPLW" + struct.pack("<II", 1, 2) + struct.pack("<2I", 1 << 20, 1 << 20)
                     + struct.pack("<2d", 1.0, 1.0))
    with pytest.raises(ConfigError, match="memory cap"):
        spatial.read_snapshot(path)


@pytest.mark.parametrize("dim", [0, 1 << 31])
def test_snapshot_bad_dimension(tmp_path, dim):
    path = tmp_path / "dim.dplw"
    path.write_bytes(b"DPLW" + struct.pack("<II", 1, dim) + b"\x00" * 32)
    with pytest.raises(ConfigError, match="dimension"):
        spatial.read_snapshot(path)


def test_fourier_pair_matches_fftn_on_1d_arrays():
    g = spatial.make_grid(1, 64, 10.0)
    forward, inverse = spatial.fourier_pair(g)
    rng = np.random.default_rng(4)
    x = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    np.testing.assert_array_equal(forward(x), np.fft.fftn(x))
    np.testing.assert_array_equal(inverse(x), np.fft.ifftn(x))


@pytest.mark.parametrize("dim,points", [(1, 32), (2, 8)])
def test_fourier_pair_transforms_a_batch_row_by_row(dim, points):
    g = spatial.make_grid(dim, points, 10.0)
    forward, inverse = spatial.fourier_pair(g)
    rng = np.random.default_rng(5)
    batch = rng.standard_normal((5,) + g.shape) + 1j * rng.standard_normal((5,) + g.shape)
    fb, ib = forward(batch), inverse(batch)
    for row, f_row, i_row in zip(batch, fb, ib):
        np.testing.assert_array_equal(f_row, np.fft.fftn(row))
        np.testing.assert_array_equal(i_row, np.fft.ifftn(row))


@pytest.mark.parametrize("dim,points,batch", [(1, 512, ()), (1, 32, (5,)), (2, 16, ()),
                                              (2, 8, (3,))])
def test_fourier_pair_in_place_is_bit_identical(dim, points, batch):
    g = spatial.make_grid(dim, points, 10.0)
    forward, inverse = spatial.fourier_pair(g)
    rng = np.random.default_rng(6)
    x = rng.standard_normal(batch + g.shape) + 1j * rng.standard_normal(batch + g.shape)
    for transform in (forward, inverse):
        want = transform(x)
        work = x.copy()
        got = transform(work, out=work)
        assert got is work
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("points,length", [(0, 1.0), (8, -1.0), (8, float("nan"))])
def test_snapshot_bad_grid(tmp_path, points, length):
    path = tmp_path / "grid.dplw"
    path.write_bytes(b"DPLW" + struct.pack("<II", 1, 1) + struct.pack("<I", points)
                     + struct.pack("<d", length) + b"\x00" * (16 * points))
    with pytest.raises(ConfigError, match="empty axis"):
        spatial.read_snapshot(path)
