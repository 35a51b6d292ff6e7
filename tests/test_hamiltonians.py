import random

import numpy as np
import pytest

from dipolelab import bounds, fields, hamiltonians as ham, harness, propagate, spatial
from dipolelab.errors import ConfigError

from conftest import traced_peak


def zero_field():
    return fields.ScaledField(fields.zero_envelope(2), 1.0, 1.0)


def apply(spec, t, psi):
    """H(t) psi through the apply every product path uses."""
    return ham.hamiltonian_apply_fn(spec, t, psi.grid)(psi.values)


def test_free_plane_wave_eigenfunction():
    g = spatial.make_grid(1, 128, 16.0)
    k = 2 * np.pi * 3 / 16.0
    psi = spatial.WaveFunction(g, np.exp(1j * k * g.mesh(0)))
    spec = ham.dipole_velocity(zero_field(), ham.zero_potential())
    out = apply(spec, 0.0, psi)
    assert np.max(np.abs(out - k * k * psi.values)) < 1e-12


def test_soft_core_pointwise_formula():
    # grid chosen so x = 2 lies on the lattice
    g = spatial.make_grid(1, 256, 32.0)
    varr = ham.potential_on_grid(ham.soft_core_coulomb(1.0, 1.0), g)
    idx = int(np.argmin(np.abs(g.axis_coordinates(0) - 2.0)))
    assert g.axis_coordinates(0)[idx] == pytest.approx(2.0, abs=1e-12)
    assert varr[idx] == pytest.approx(-2.0 / np.sqrt(5.0), abs=1e-14)


def test_soft_core_narrow_packet_energy():
    g = spatial.make_grid(1, 512, 32.0)
    psi = spatial.gaussian_packet(g, 2.0, 0.35, 0.0)
    spec = ham.dipole_velocity(zero_field(), ham.soft_core_coulomb(1.0, 1.0))
    v = ham.potential_on_grid(spec.potential, g)
    pe = float(np.sum(v * np.abs(psi.values) ** 2) * g.cell_volume)
    assert pe == pytest.approx(-2.0 / np.sqrt(5.0), abs=0.02)


def test_full_vs_dipole_generator_difference_decays():
    # ||(H_lam - H_inf) psi|| = O(1/lam): log-log slope within [0.9, 1.1]
    g = spatial.make_grid(1, 512, 80.0)
    env = fields.transverse_envelope("cw", 1.0, 1)
    pot = ham.soft_core_coulomb(1.0, 1.0)
    psi = spatial.gaussian_packet(g, 0.0, 1.0, 0.0)
    t = np.pi / 4   # quadratic Taylor term of sin^2 vanishes here
    lams, norms = [], []
    for m in (4, 2, 1):
        lam = fields.snap_lambda(80.0, m)
        fld = fields.ScaledField(env, lam, 1.0)
        a = apply(ham.full_coupling(fld, pot), t, psi)
        b = apply(ham.dipole_velocity(fld, pot), t, psi)
        lams.append(lam)
        norms.append(spatial.norm(spatial.WaveFunction(g, a - b)))
    slope = -np.polyfit(np.log(lams), np.log(norms), 1)[0]
    assert 0.9 <= slope <= 1.1
    assert norms[0] > norms[1] > norms[2]


def test_dipole_length_form():
    # H_L psi = -Lap psi + V psi + (da/dt(0, w t) . r) psi, on-grid components
    g = spatial.make_grid(2, [32, 32], [16.0, 16.0])
    env = fields.in_plane_envelope("cw", 0.7)
    fld = fields.ScaledField(env, 8.0, 1.3)
    pot = ham.gaussian_well(2.0, 2.0)
    psi = spatial.gaussian_packet(g, 0.0, 1.5, 0.0)
    spec = ham.dipole_length(fld, pot)
    out = apply(spec, 0.9, psi)
    lap = sum(spatial.spectral_axis_derivative(
        spatial.spectral_axis_derivative(psi.values, g, axis), g, axis) for axis in (0, 1))
    v = ham.potential_on_grid(pot, g)
    adot = -0.7 * np.cos(-1.3 * 0.9)   # d/ds [E f(-s)] with f = sin
    manual = -lap + (v + adot * g.mesh(1)) * psi.values
    assert np.max(np.abs(out - manual)) < 1e-12


def test_dipole_velocity_uses_field_at_origin_only():
    g = spatial.make_grid(1, 256, 80.0)
    env = fields.transverse_envelope("cw", 0.5, 1)
    pot = ham.zero_potential()
    psi = spatial.gaussian_packet(g, 0.0, 1.0, 1.0)
    outs = []
    for lam in (10.0, 40.0):
        fld = fields.ScaledField(env, lam, 1.0)
        outs.append(apply(ham.dipole_velocity(fld, pot), 0.8, psi))
    np.testing.assert_array_equal(outs[0], outs[1])


def test_hermiticity_dipole_velocity():
    g = spatial.make_grid(2, [32, 32], [16.0, 16.0])
    env = fields.in_plane_envelope("cw", 0.8)
    fld = fields.ScaledField(env, 8.0, 1.0)
    spec = ham.dipole_velocity(fld, ham.soft_core_coulomb(1.0, 1.0))
    assert ham.hermiticity_defect(spec, 0.37, g) <= 1e-11


def test_hermiticity_full_coupling_commensurate():
    for maker, grid in (
        (lambda: fields.transverse_envelope("cw", 0.8, 1), spatial.make_grid(1, 256, 40.0)),
        (lambda: fields.in_plane_envelope("cw", 0.8), spatial.make_grid(2, [32, 32], [16.0, 16.0])),
    ):
        env = maker()
        fld = fields.ScaledField(env, fields.snap_lambda(grid.lengths[0], 2), 1.0)
        spec = ham.full_coupling(fld, ham.soft_core_coulomb(1.0, 1.0))
        assert ham.hermiticity_defect(spec, 0.37, grid) <= 1e-10


def test_hermiticity_negative_control():
    # polarization along propagation: div a != 0, so 2i b.grad is not
    # anti-symmetrized and the discrete operator is visibly non-Hermitian
    g = spatial.make_grid(1, 256, 40.0)
    env = fields.LaserEnvelope("cw", 1.0, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    fld = fields.ScaledField(env, 20.0, 1.0)
    spec = ham.HamiltonianSpec("full", fld, ham.zero_potential())
    assert ham.hermiticity_defect(spec, 0.2, g) > 1e-4


def test_hermiticity_defect_holds_the_probes_and_one_applied_state():
    # M_ij = <p_i, H p_j> is built one apply at a time; with every applied
    # state held next to the probes the peak was 18.5 states
    g = spatial.make_grid(1, 8192, 80.0)
    env = fields.transverse_envelope("cw", 0.25, 1)
    spec = ham.full_coupling(fields.ScaledField(env, 10.0, 1.0), ham.soft_core_coulomb())
    first = ham.hermiticity_defect(spec, 0.3, g)   # fills the module caches
    defect, peak = traced_peak(ham.hermiticity_defect, spec, 0.3, g)
    assert defect == first <= 1e-10
    assert peak < 14 * g.npoints * 16


def test_hermiticity_defect_is_the_largest_pairwise_asymmetry():
    # the defect is max over i <= j of |<p_i, H p_j> - <H p_i, p_j>| on the
    # probes, here on a dense non-Hermitian H whose pairs are formed explicitly
    g = spatial.make_grid(1, 64, 40.0)
    env = fields.LaserEnvelope("cw", 1.0, np.array([1.0, 0.0]), np.array([1.0, 0.0]))
    spec = ham.HamiltonianSpec("full", fields.ScaledField(env, 20.0, 1.0), ham.zero_potential())
    rng = random.Random(ham.HERMITICITY_SEED)
    probes = []
    for _ in range(ham.HERMITICITY_PROBES):
        parts = np.frombuffer(rng.randbytes(8 * g.npoints), dtype="<i4").astype(float)
        vals = parts.view(complex)
        probes.append(vals / (np.linalg.norm(vals) * np.sqrt(g.cell_volume)))
    h = propagate.dense_hamiltonian(spec, 0.2, g)
    worst = max(abs(np.vdot(p, h @ q) - np.vdot(h @ p, q)) * g.cell_volume
                for i, p in enumerate(probes) for q in probes[i:])
    assert ham.hermiticity_defect(spec, 0.2, g) == pytest.approx(worst, rel=1e-12)


def test_hermiticity_probes_keep_their_bits(monkeypatch):
    # the probes come from the 32-bit integer helper the bounds draws share,
    # bit for bit the signed integers of randbytes they were first built from
    g = spatial.make_grid(1, 64, 40.0)
    seen = []

    def spy_apply_fn(spec, t, grid):
        def apply(values):
            seen.append(values.copy())
            return np.zeros_like(values)
        return apply

    monkeypatch.setattr(ham, "hamiltonian_apply_fn", spy_apply_fn)
    ham.hermiticity_defect(None, 0.0, g)
    rng = random.Random(ham.HERMITICITY_SEED)
    assert len(seen) == ham.HERMITICITY_PROBES
    for got in seen:
        vals = np.frombuffer(rng.randbytes(8 * g.npoints), dtype="<i4").astype(float).view(complex)
        want = vals / (np.linalg.norm(vals) * np.sqrt(g.cell_volume))
        assert got.tobytes() == want.tobytes()


def test_full_coupling_requires_commensurate_grid():
    g = spatial.make_grid(1, 256, 40.0)
    env = fields.transverse_envelope("cw", 0.5, 1)
    fld = fields.ScaledField(env, 33.0, 1.0)   # 40/33 not integer
    spec = ham.full_coupling(fld, ham.zero_potential())
    psi = spatial.gaussian_packet(g, 0.0, 1.0, 0.0)
    with pytest.raises(ConfigError):
        apply(spec, 0.0, psi)


def test_full_coupling_decides_commensurability_once_per_geometry(monkeypatch):
    # the answer is kept with the cached sampling geometry: a repeated build
    # recomputes nothing, gives the same terms, and a non-commensurate field
    # raises the same error on every build; every build, fit or misfit,
    # looks its geometry up once
    monkeypatch.setattr(fields, "_geometry_cache", {})
    lookups = []

    def lookup(field, grid):
        lookups.append(field.lam)
        return sampling_geometry(field, grid)

    sampling_geometry = fields._sampling_geometry
    monkeypatch.setattr(fields, "_sampling_geometry", lookup)
    g = spatial.make_grid(1, 256, 40.0)
    env = fields.transverse_envelope("cw", 0.5, 1)
    fit, misfit = (ham.full_coupling(fields.ScaledField(env, lam, 1.0), ham.soft_core_coulomb())
                   for lam in (10.0, 33.0))
    first = ham.coupling_terms(fit, 0.3, g)
    with pytest.raises(ConfigError) as refused:
        ham.coupling_terms(misfit, 0.3, g)
    # both geometries are kept, the refused one too
    assert len(fields._geometry_cache) == 2
    cached = dict(fields._geometry_cache)
    again = ham.coupling_terms(fit, 0.3, g)
    np.testing.assert_array_equal(again[1], first[1])
    # off-grid polarization: no shift and no gradient terms
    assert (again[0], again[2]) == (first[0], first[2]) == (0.0, [])
    for _ in range(2):
        with pytest.raises(ConfigError) as again_refused:
            ham.coupling_terms(misfit, 0.3, g)
        assert str(again_refused.value) == str(refused.value)
    # no later build, fit or misfit, computed the sampling geometry again:
    # the same entries
    assert fields._geometry_cache.keys() == cached.keys()
    assert all(fields._geometry_cache[key] is entry for key, entry in cached.items())
    assert lookups == [10.0, 33.0, 10.0, 33.0, 33.0]


def test_nbody_reduces_to_soft_core():
    g = spatial.make_grid(1, 64, 16.0, particles=1)
    lhs = ham.potential_on_grid(ham.n_body_soft_core(1, 1.0), g)
    rhs = ham.potential_on_grid(ham.soft_core_coulomb(1.0, 1.0), g)
    np.testing.assert_array_equal(lhs, rhs)


def test_nbody_pointwise_value():
    g = spatial.make_grid(2, [64, 64], [32.0, 32.0], particles=2)
    pot = ham.n_body_soft_core(2, 1.0)
    v = ham.potential_on_grid(pot, g)
    xs = g.axis_coordinates(0)
    i = int(np.argmin(np.abs(xs - 1.0)))
    j = int(np.argmin(np.abs(xs + 1.0)))
    assert xs[i] == pytest.approx(1.0, abs=1e-12) and xs[j] == pytest.approx(-1.0, abs=1e-12)
    expected = -4.0 / np.sqrt(2.0) - 4.0 / np.sqrt(2.0) + 2.0 / np.sqrt(5.0)
    assert v[i, j] == pytest.approx(expected, abs=1e-13)


def test_nbody_exchange_symmetry():
    g = spatial.make_grid(2, [32, 32], [20.0, 20.0], particles=2)
    v = ham.potential_on_grid(ham.n_body_soft_core(2, 1.0), g)
    np.testing.assert_array_equal(v, v.T)


def test_nbody_dimension_mismatch():
    g = spatial.make_grid(2, [32, 32], [20.0, 20.0], particles=2)
    with pytest.raises(ConfigError):
        ham.potential_on_grid(ham.n_body_soft_core(3, 1.0), g)


def test_potential_factory_validation():
    with pytest.raises(ConfigError):
        ham.soft_core_coulomb(1.0, eps=0.0)
    with pytest.raises(ConfigError):
        ham.gaussian_well(-1.0, 1.0)
    with pytest.raises(ConfigError):
        ham.HamiltonianSpec("sideways", zero_field(), ham.zero_potential())
    # non-finite parameters, and length scales whose square overflows
    nan, inf = float("nan"), float("inf")
    for z, eps in ((nan, 1.0), (inf, 1.0), (1.0, nan), (1.0, inf), (1.0, 1e308)):
        with pytest.raises(ConfigError):
            ham.soft_core_coulomb(z, eps)
    for depth, width in ((nan, 1.0), (inf, 1.0), (1.0, nan), (1.0, 1e200)):
        with pytest.raises(ConfigError):
            ham.gaussian_well(depth, width)
    with pytest.raises(ConfigError):
        ham.n_body_soft_core(2, 1e308)


def test_potential_cache_is_bounded():
    pot = ham.soft_core_coulomb(1.0, 1.0)
    for length in range(20, 70):
        ham.potential_on_grid(pot, spatial.make_grid(1, 64, float(length)))
    assert len(ham._potential_cache) <= ham.POTENTIAL_CACHE_SIZE == 8
    g = spatial.make_grid(1, 64, 69.0)
    first = ham.potential_on_grid(pot, g)
    assert ham.potential_on_grid(pot, g) is first
    assert not first.flags.writeable


@pytest.mark.parametrize("kind", [ham.FULL, ham.DIPOLE_VELOCITY, ham.DIPOLE_LENGTH])
@pytest.mark.parametrize("plane", [False, True])
def test_apply_accepts_a_leading_batch_axis(kind, plane):
    # the 2D in-plane field drives the gradient term of the full generator
    if plane:
        g = spatial.make_grid(2, [8, 8], [16.0, 16.0])
        fld = fields.ScaledField(fields.in_plane_envelope("cw", 0.5), 8.0, 1.0)
    else:
        g = spatial.make_grid(1, 16, 20.0)
        fld = fields.ScaledField(fields.transverse_envelope("pulse", 0.5, 1),
                                 fields.snap_lambda(20.0, 2), 1.0)
    fn = ham.hamiltonian_apply_fn(ham.HamiltonianSpec(kind, fld, ham.soft_core_coulomb()),
                                  0.3, g)
    rng = np.random.default_rng(8)
    batch = rng.standard_normal((4,) + g.shape) + 1j * rng.standard_normal((4,) + g.shape)
    out = fn(batch)
    for row, out_row in zip(batch, out):
        np.testing.assert_array_equal(out_row, fn(row))


def _field_free_length(potential):
    return ham.dipole_length(fields.ScaledField(fields.zero_envelope(), 1.0, 1.0), potential)


@pytest.mark.parametrize("case", ["soft-core-1d", "two-body-preset"])
def test_real_input_takes_real_transforms_when_h_keeps_states_real(case):
    if case == "soft-core-1d":
        g, pot = spatial.make_grid(1, 256, 40.0), ham.soft_core_coulomb(1.0, 1.0)
    else:
        cfg = harness.preset_config("two-body-1d")
        g, pot = cfg.build_grid(), cfg.build_potential()
    fn = ham.hamiltonian_apply_fn(_field_free_length(pot), 0.0, g)
    rng = np.random.default_rng(12)
    for _ in range(2):
        values = rng.standard_normal(g.shape)
        real = fn(values)
        ref = fn(values.astype(complex))
        assert real.dtype == np.float64 and ref.dtype == np.complex128
        assert np.max(np.abs(real - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("kind", [ham.FULL, ham.DIPOLE_VELOCITY, ham.DIPOLE_LENGTH])
@pytest.mark.parametrize("plane", [False, True], ids=["off-grid-1d", "in-plane-2d"])
def test_real_arithmetic_follows_the_terms(kind, plane):
    # H is -Lap plus a real diagonal for the length kinds and the off-grid
    # full kind; the off-grid velocity symbol is k^2 plus a nonzero scalar,
    # the in-plane one (k - b)^2, and the in-plane full kind has gradient terms
    if plane:
        g = spatial.make_grid(2, [16, 16], [16.0, 16.0])
        fld = fields.ScaledField(fields.in_plane_envelope("cw", 0.5), 8.0, 1.0)
    else:
        g = spatial.make_grid(1, 64, 20.0)
        fld = fields.ScaledField(fields.transverse_envelope("pulse", 0.5, 1),
                                 fields.snap_lambda(20.0, 2), 1.0)
    fn = ham.hamiltonian_apply_fn(ham.HamiltonianSpec(kind, fld, ham.soft_core_coulomb()),
                                  0.3, g)
    values = np.random.default_rng(15).standard_normal(g.shape)
    out, ref = fn(values), fn(values.astype(complex))
    keeps_real = kind == ham.DIPOLE_LENGTH or (kind == ham.FULL and not plane)
    assert out.dtype == (np.float64 if keeps_real else np.complex128)
    assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))
    if not keeps_real:
        np.testing.assert_array_equal(out.view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("kind", [ham.DIPOLE_VELOCITY, ham.FULL])
def test_real_input_keeps_the_complex_path_when_h_does_not_keep_states_real(kind):
    # the in-plane velocity symbol (k - b)^2 is odd in k; the in-plane full
    # generator has gradient terms
    g = spatial.make_grid(2, [16, 16], [16.0, 16.0])
    fld = fields.ScaledField(fields.in_plane_envelope("cw", 0.5), 8.0, 1.0)
    fn = ham.hamiltonian_apply_fn(ham.HamiltonianSpec(kind, fld, ham.soft_core_coulomb()),
                                  0.3, g)
    values = np.random.default_rng(13).standard_normal(g.shape)
    out = fn(values)
    assert out.dtype == np.complex128
    np.testing.assert_array_equal(out.view(np.uint64),
                                  fn(values.astype(complex)).view(np.uint64))


@pytest.mark.parametrize("operator", ["h-field-free", "w-dipole-velocity-in-plane"])
def test_warm_apply_peaks_below_three_states(operator):
    # H and W share one apply; the in-plane velocity W has an array symbol
    g = spatial.make_grid(2, 64, 30.0)
    if operator == "h-field-free":
        fn = ham.hamiltonian_apply_fn(_field_free_length(ham.soft_core_coulomb()), 0.0, g)
    else:
        fld = fields.ScaledField(fields.in_plane_envelope("cw", 0.5), 8.0, 1.0)
        spec = ham.dipole_velocity(fld, ham.soft_core_coulomb())
        fn = bounds.CouplingOperator.from_spec(spec, 0.3, g).apply
    rng = np.random.default_rng(14)
    values = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    fn(values)
    _, peak = traced_peak(fn, values)
    assert peak < 3 * values.nbytes
