import json
import warnings

import numpy as np
import pytest

from dipolelab import bounds, fields, hamiltonians as ham, propagate, spatial
from dipolelab.errors import ConfigError, NumericalError


def free_spec():
    fld = fields.ScaledField(fields.zero_envelope(2), 1.0, 1.0)
    return ham.dipole_velocity(fld, ham.zero_potential())


def preset_w_operator():
    env = fields.transverse_envelope("cw", 0.25, 1)
    fld = fields.ScaledField(env, 10.0, 1.0)
    spec = ham.dipole_velocity(fld, ham.soft_core_coulomb(1.0, 1.0))
    g = spatial.make_grid(1, 512, 80.0)
    return bounds.CouplingOperator.from_spec(spec, 0.7, g), g


def test_zero_operator_norms_vanish():
    g = spatial.make_grid(1, 64, 10.0)
    w = bounds.CouplingOperator.explicit(g)
    with np.errstate(all="raise"):
        alphas, q, alpha_star = bounds.contraction_scan(w, [1.0, 10.0])
    assert np.all(q == 0.0)
    assert alpha_star == 1.0
    probes = bounds.probe_ensemble(g, 64, seed=1)
    c = bounds.infinitesimal_bound_scan(w, [0.0, 0.1, 1.0], probes)
    assert np.all(c == 0.0)
    with pytest.raises(ConfigError):
        bounds.infinitesimal_bound_scan(w, [0.0], probes[:8])


def test_contraction_matches_symbol_oracle():
    # constant drift along the grid: W = 2i b d/dx + b^2, exact symbol
    # (b^2 - 2 k b) / (k^2 + alpha), maximized over the discrete lattice
    g = spatial.make_grid(1, 256, 20.0)
    w = bounds.CouplingOperator.explicit(g, b_axes={0: 1.0}, b_sq=1.0)
    alphas = [1.0, 5.0, 20.0, 100.0]
    _, q, _ = bounds.contraction_scan(w, alphas, seed=11)
    k = g.k_axis(0)
    for a, qa in zip(alphas, q):
        oracle = np.max(np.abs(1.0 - 2.0 * k) / (k ** 2 + a))
        assert abs(qa - oracle) <= 1e-3 * oracle


def dense_contraction(w, alpha):
    """sqrt of the top eigenvalue of the dense matrix (W R)^dag (W R)."""
    g = w.grid
    n = g.npoints
    basis = np.eye(n, dtype=complex).reshape((n,) + g.shape)
    axes = tuple(range(1, g.dim + 1))
    r = np.fft.ifftn(np.fft.fftn(basis, axes=axes) / (g.k_square + alpha), axes=axes)
    r = r.reshape(n, n).T
    wm = np.array([w.apply(e).ravel() for e in basis]).T
    wr = wm @ r
    return np.sqrt(np.linalg.eigvalsh(wr.conj().T @ wr)[-1])


def dense_oracle_operators():
    env = fields.transverse_envelope("cw", 0.25, 1)
    spec = ham.dipole_velocity(fields.ScaledField(env, 10.0, 1.0),
                               ham.soft_core_coulomb(1.0, 1.0))
    g1 = spatial.make_grid(1, 64, 16.0)
    yield bounds.CouplingOperator.from_spec(spec, 0.7, g1)
    # in-plane drift that varies in x: W is not normal
    g2 = spatial.make_grid(2, [16, 8], [8.0, 6.0])
    x, y = g2.mesh(0), g2.mesh(1)
    bx = 0.6 * np.sin(2 * np.pi * x / 8.0) + 0.2 * np.cos(2 * np.pi * y / 6.0)
    by = 0.3 * np.cos(2 * np.pi * x / 8.0)
    yield bounds.CouplingOperator.explicit(g2, b_axes={0: bx, 1: by},
                                           b_sq=bx ** 2 + by ** 2,
                                           v=-1.0 / np.sqrt(1.0 + x ** 2 + y ** 2))


@pytest.mark.parametrize("index", [0, 1], ids=["soft-core-1d", "in-plane-2d"])
def test_contraction_matches_dense_oracle(index):
    w = list(dense_oracle_operators())[index]
    alphas = [1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0]
    _, q, _ = bounds.contraction_scan(w, alphas, seed=4)
    for a, qa in zip(alphas, q):
        oracle = dense_contraction(w, a)
        assert abs(qa - oracle) <= 1e-9 * oracle


@pytest.mark.parametrize("drift", [False, True], ids=["soft-core", "constant-drift"])
def test_warm_started_scan_matches_cold_solves(drift):
    # constant drift: W R is diagonal in k, so each top eigenvector is an
    # exact eigenvector of the next shift's operator
    if drift:
        g = spatial.make_grid(1, 256, 20.0)
        w = bounds.CouplingOperator.explicit(g, b_axes={0: 1.0}, b_sq=1.0)
    else:
        w, _ = preset_w_operator()
    alphas = [1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0]
    _, q, _ = bounds.contraction_scan(w, alphas, seed=11)
    for a, qa in zip(alphas, q):
        _, cold, _ = bounds.contraction_scan(w, [a], seed=11)
        assert abs(qa - cold[0]) <= 1e-9 * cold[0]


def test_contraction_restart_cap_raises(monkeypatch):
    # the constant-drift symbol has a flat top at alpha = 100: one cycle of
    # LANCZOS_M vectors does not reach the residual target
    g = spatial.make_grid(1, 256, 20.0)
    w = bounds.CouplingOperator.explicit(g, b_axes={0: 1.0}, b_sq=1.0)
    monkeypatch.setattr(propagate, "LANCZOS_MAX_RESTARTS", 0)
    with pytest.raises(NumericalError, match="restarts"):
        bounds.contraction_scan(w, [100.0], seed=11)


def test_contraction_overflow_is_a_numerical_error():
    g = spatial.make_grid(1, 64, 10.0)
    w = bounds.CouplingOperator.explicit(g, v=np.full(g.shape, 1e200))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericalError, match="non-finite") as info:
            bounds.contraction_scan(w, [1.0])
    assert "\n" not in str(info.value)


def test_contraction_scan_on_soft_core_spec():
    w, _ = preset_w_operator()
    alphas = [1.0, 3.0, 10.0, 30.0, 100.0]
    _, q, alpha_star = bounds.contraction_scan(w, alphas, seed=11)
    assert all(q[i] >= q[i + 1] for i in range(len(q) - 1))
    assert alpha_star is not None
    assert all(qa < 1.0 for a, qa in zip(alphas, q) if a >= alpha_star)
    # one decade of alpha shrinks q by at least 5x
    assert q[2] / q[4] >= 5.0


def test_contraction_requires_increasing_alphas():
    g = spatial.make_grid(1, 64, 10.0)
    w = bounds.CouplingOperator.explicit(g)
    with pytest.raises(ConfigError):
        bounds.contraction_scan(w, [10.0, 1.0])
    with pytest.raises(ConfigError):
        bounds.resolvent_apply(np.zeros(64, complex), g, -1.0)


def test_adjoint_identity():
    # <phi, W psi> == <W^dag phi, psi> for an arbitrary (non-Hermitian) W
    g = spatial.make_grid(1, 128, 16.0)
    x = g.mesh(0)
    b_var = 0.5 * np.sin(2 * np.pi * x / 16.0)   # x-dependent drift, div != 0
    w = bounds.CouplingOperator.explicit(g, b_axes={0: b_var}, b_sq=0.3,
                                         v=0.1 * np.cos(2 * np.pi * x / 16.0))
    rng = np.random.default_rng(5)
    phi = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    psi = rng.standard_normal(128) + 1j * rng.standard_normal(128)
    lhs = np.vdot(phi, w.apply(psi))
    rhs = np.vdot(w.adjoint_apply(phi), psi)
    assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(lhs))


def test_infinitesimal_bound_bounded_multiplication():
    g = spatial.make_grid(1, 256, 20.0)
    x = g.mesh(0)
    v = -0.7 * np.exp(-x ** 2 / 8.0)   # ||V||_inf = 0.7
    w = bounds.CouplingOperator.explicit(g, v=v)
    probes = bounds.probe_ensemble(g, 64, seed=3)
    eps = [0.0, 0.01, 0.05, 0.1, 0.5, 1.0]
    c = bounds.infinitesimal_bound_scan(w, eps, probes)
    assert c[0] <= 0.7 ** 2 + 1e-12
    assert all(c[i] >= c[i + 1] for i in range(len(c) - 1))
    assert np.all(c >= 0.0)


def test_infinitesimal_bound_nonincreasing_on_preset():
    w, g = preset_w_operator()
    probes = bounds.probe_ensemble(g, 64, seed=7)
    eps = [0.0, 0.02, 0.1, 0.3, 1.0]
    c = bounds.infinitesimal_bound_scan(w, eps, probes)
    assert all(c[i] >= c[i + 1] for i in range(len(c) - 1))


def test_graph_norm_free_case_symbol_oracle():
    g = spatial.make_grid(1, 256, 20.0)
    modes = [(0,), (1,), (3,), (9,), (27,), (80,)]
    probes = bounds.plane_wave_probes(g, modes)
    alpha = 10.0
    cmin, cmax = bounds.graph_norm_constants(free_spec(), 0.0, alpha, probes)
    ks = [2 * np.pi * m[0] / 20.0 for m in modes]
    ratios = [np.sqrt(1 + k ** 2 + k ** 4) / (1 + k ** 2 + alpha) for k in ks]
    assert cmin == pytest.approx(min(ratios), abs=1e-6)
    assert cmax == pytest.approx(max(ratios), abs=1e-6)


def test_graph_norm_shift_consistency():
    g = spatial.make_grid(1, 256, 20.0)
    modes = [(0,), (2,), (10,), (60,)]
    probes = bounds.plane_wave_probes(g, modes)
    ks = [2 * np.pi * m[0] / 20.0 for m in modes]
    for alpha in (10.0, 100.0):
        cmin, cmax = bounds.graph_norm_constants(free_spec(), 0.0, alpha, probes)
        ratios = [np.sqrt(1 + k ** 2 + k ** 4) / (1 + k ** 2 + alpha) for k in ks]
        assert cmin == pytest.approx(min(ratios), abs=1e-6)
        assert cmax == pytest.approx(max(ratios), abs=1e-6)


def test_graph_norm_interval_positive_on_preset():
    env = fields.transverse_envelope("cw", 0.25, 1)
    fld = fields.ScaledField(env, 10.0, 1.0)
    spec = ham.dipole_velocity(fld, ham.soft_core_coulomb(1.0, 1.0))
    g = spatial.make_grid(1, 256, 40.0)
    probes = bounds.probe_ensemble(g, 32, seed=9)
    cmin, cmax = bounds.graph_norm_constants(spec, 0.3, 10.0, probes)
    assert 0.0 < cmin <= cmax < np.inf


def test_sobolev_norm_reduces_to_l2():
    g = spatial.make_grid(1, 128, 16.0)
    psi = spatial.gaussian_packet(g, 0.0, 1.0, 0.0)
    # unit weight bound: ||psi||_{W^{2,2}} >= ||psi||, equality iff k = 0 only
    assert bounds.sobolev_norm(psi) >= spatial.norm(psi)
    flat = spatial.normalize(spatial.WaveFunction(g, np.ones(128, complex)))
    assert bounds.sobolev_norm(flat) == pytest.approx(spatial.norm(flat), abs=1e-12)


def test_bounds_suite_reproducible():
    env = fields.transverse_envelope("cw", 0.25, 1)
    fld = fields.ScaledField(env, 10.0, 1.0)
    spec = ham.dipole_velocity(fld, ham.soft_core_coulomb(1.0, 1.0))
    g = spatial.make_grid(1, 256, 40.0)
    rep1 = bounds.run_bounds_suite(spec, 0.1, g, seed=33,
                                   alphas=(1.0, 10.0, 100.0))
    rep2 = bounds.run_bounds_suite(spec, 0.1, g, seed=33,
                                   alphas=(1.0, 10.0, 100.0))
    assert rep1.to_json_dict() == rep2.to_json_dict()
    payload = json.loads(json.dumps(rep1.to_json_dict()))
    assert payload["seed"] == 33
    table = rep1.format_table()
    assert "alpha" in table and "C_eps" in table.replace("C_eps", "C_eps")
