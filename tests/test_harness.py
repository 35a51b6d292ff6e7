import configparser
import json
from dataclasses import replace

import numpy as np
import pytest

from dipolelab import cli, harness
from dipolelab.errors import ConfigError, NumericalError


def trimmed_config(**overrides):
    """Small, fast study used for orchestration tests (seconds, not minutes)."""
    base = dict(
        preset="custom", grid_dim=1, grid_points=(256,), grid_lengths=(80.0,),
        potential_kind="soft_core", envelope_kind="cw", amplitude=0.25,
        omega=1.0, lambdas=(20.0, 40.0), t0=None,
        t_final=np.pi / 512 + np.pi / 2, dt=np.pi / 512, panels=16,
        initial_state="ground", ground_tol=1e-7, seed=11,
    )
    base.update(overrides)
    return harness.StudyConfig(**base)


def test_config_roundtrip(tmp_path):
    cfg = trimmed_config()
    path = tmp_path / "study.ini"
    cfg.write_ini(path)
    back = harness.StudyConfig.from_ini(path)
    assert back.canonical_text() == cfg.canonical_text()
    assert back.config_hash() == cfg.config_hash()
    assert back.lambdas == cfg.lambdas


def test_config_missing_file():
    with pytest.raises(ConfigError):
        harness.StudyConfig.from_ini("/nonexistent/withered.ini")


def test_config_bad_file(tmp_path):
    path = tmp_path / "broken.ini"
    path.write_text("[grid]\npoints = banana\n")
    with pytest.raises(ConfigError):
        harness.StudyConfig.from_ini(path)


def test_config_validation():
    with pytest.raises(ConfigError):
        trimmed_config(lambdas=(40.0, 20.0))          # not increasing
    cfg = trimmed_config(lambdas=(33.0,))             # not commensurate
    with pytest.raises(ConfigError):
        cfg.validate()
    cfg2 = trimmed_config(t0=0.0)
    with pytest.raises(ConfigError):
        cfg2.validate()                               # start time must be > 0


@pytest.mark.parametrize("field, value", [
    ("dt", 0.0), ("dt", -1e-3), ("dt", float("nan")), ("dt", float("inf")),
    ("omega", 0.0), ("omega", float("nan")), ("omega", float("inf")),
    ("panels", 0), ("krylov_m", 7), ("krylov_m", 65),
    ("krylov_tol", 0.0), ("krylov_tol", float("nan")),
    ("ground_tol", -1e-8), ("ground_tol", float("nan")),
    ("t0", float("nan")), ("t_final", float("inf")),
    ("lambdas", (float("nan"),)), ("lambdas", (0.0, 20.0)),
    ("lambdas", (20.0, float("inf"))), ("seed", -1),
    ("lambdas", ()), ("lambdas", (5e-324,)), ("amplitude", float("nan")),
    ("amplitude", 1e308), ("amplitude", 1e154), ("t_final", 1e308),
])
def test_config_domain_checks(field, value):
    with pytest.raises(ConfigError):
        trimmed_config(**{field: value})


def test_preset_configs_are_valid():
    for name in harness.PRESETS:
        harness.preset_config(name).validate()
    with pytest.raises(ConfigError):
        harness.preset_config("cw-9d")


def test_zero_envelope_sweep_error_floor():
    # both generators coincide; the residual is the stepper-mismatch floor
    cfg = trimmed_config(envelope_kind="zero", lambdas=(20.0,),
                         t_final=np.pi / 2048 + np.pi / 8, dt=np.pi / 2048)
    res = harness.run_convergence_sweep(cfg)
    assert res.records[0].error <= 1e-6
    assert res.records[0].bound == 0.0


def test_sweep_records_and_slope():
    cfg = trimmed_config()
    res = harness.run_convergence_sweep(cfg)
    assert len(res.records) == len(cfg.lambdas)
    assert res.records[0].error > res.records[1].error
    assert not res.partial
    for rec in res.records:
        assert rec.error <= 1.05 * rec.bound + 1e-6


def test_sweep_records_only_numerical_failures(monkeypatch):
    # the full-coupling run fails; only a NumericalError becomes a FAILED row
    cfg = trimmed_config(initial_state="packet")

    def fail_with(exc_type):
        def fail(*args, **kwargs):
            raise exc_type("synthetic failure")
        return fail

    monkeypatch.setattr(harness, "evolve", fail_with(NumericalError))
    res = harness.run_convergence_sweep(cfg)
    assert res.partial
    assert all(r.error is None and r.diagnostic for r in res.records)
    monkeypatch.setattr(harness, "evolve", fail_with(ConfigError))
    with pytest.raises(ConfigError):
        harness.run_convergence_sweep(cfg)


def test_cook_comparison_reports():
    cfg = trimmed_config()
    sweep = harness.run_convergence_sweep(cfg)
    reports = harness.run_cook_comparison(cfg, sweep)
    assert [r.lam for r in reports] == list(cfg.lambdas)
    for rep in reports:
        assert rep.measured_error <= 1.05 * rep.bound + 1e-6
        assert len(rep.g_values) == len(sweep.nodes)


def test_gauge_check_and_negative_control():
    cfg = trimmed_config()
    report = harness.run_gauge_check(cfg)
    assert report["min_fidelity"] >= 1 - 1e-6
    # the multiplier is only omega-sensitive with on-grid polarization, so the
    # deliberate misconfiguration runs in-plane on a 2D grid
    cfg2d = trimmed_config(grid_dim=2, grid_points=(64, 64),
                           grid_lengths=(32.0, 32.0), polarization="in_plane",
                           amplitude=0.5, lambdas=(16.0,), dt=np.pi / 512,
                           t_final=np.pi / 512 + 2 * np.pi)
    detuned = harness.run_gauge_check(cfg2d, omega_length=1.5)
    assert detuned["min_fidelity"] < 0.99


def test_run_study_artifacts(tmp_path):
    cfg = trimmed_config()
    target = harness.run_study(cfg, tmp_path)
    assert target == tmp_path / "custom" / cfg.config_hash()
    for name in ("sweep.csv", "cook.csv", "gauge.json", "manifest.json"):
        assert (target / name).exists()
    assert (target / "snapshots" / "initial.dplw").exists()
    manifest = json.loads((target / "manifest.json").read_text())
    assert manifest["config_hash"] == cfg.config_hash()
    assert manifest["conventions"]["omega"] == 1.0
    assert "timestamp" in manifest and "runtimes_s" in manifest
    sweep_rows = (target / "sweep.csv").read_text().strip().splitlines()
    assert sweep_rows[0].startswith("lambda,error,cook_bound")
    assert all(row.endswith(cfg.config_hash()) for row in sweep_rows[1:])


def test_rerun_from_manifest_reproduces(tmp_path):
    cfg = trimmed_config()
    target = harness.run_study(cfg, tmp_path / "a")
    manifest = json.loads((target / "manifest.json").read_text())
    ini = tmp_path / "replay.ini"
    ini.write_text(manifest["config_ini"])
    replay = harness.StudyConfig.from_ini(ini)
    assert replay.config_hash() == cfg.config_hash()
    target2 = harness.run_study(replay, tmp_path / "b")
    assert (target / "sweep.csv").read_bytes() == (target2 / "sweep.csv").read_bytes()


def test_determinism_across_thread_counts(tmp_path):
    cfg = trimmed_config()
    t1 = harness.run_study(replace(cfg, threads=1), tmp_path / "t1")
    t4 = harness.run_study(replace(cfg, threads=4), tmp_path / "t4")
    for name in ("sweep.csv", "cook.csv", "gauge.json"):
        assert (t1 / name).read_bytes() == (t4 / name).read_bytes()


def test_field_check_report():
    rep = harness.run_field_check(trimmed_config())
    assert rep["transversality_pass"]
    assert rep["divergence_defect"] <= 1e-10
    prep = harness.run_field_check(trimmed_config(envelope_kind="pulse"))
    assert prep["pulse_asymptote"] == pytest.approx(
        -np.sqrt(np.pi) * np.exp(-0.25) * 0.25, abs=1e-10)


def test_bounds_check_runs():
    rep = harness.run_bounds_check(trimmed_config())
    assert all(rep.q_values[i] >= rep.q_values[i + 1]
               for i in range(len(rep.q_values) - 1))
    assert rep.graph_interval[0] > 0


# -- CLI ------------------------------------------------------------------


def test_cli_missing_config(capsys):
    assert cli.main(["sweep"]) == 1
    assert "config" in capsys.readouterr().err.lower()


def test_cli_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[grid]\n")
    assert cli.main(["sweep", "--config", str(bad)]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["dim = 1\n", "[grid]\ndim = 1\ndim = 2\n"],
                         ids=["no-section-header", "duplicate-key"])
def test_cli_malformed_ini(tmp_path, capsys, text):
    bad = tmp_path / "bad.ini"
    bad.write_text(text)
    assert cli.main(["sweep", "--config", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["sweep", "bounds", "field-check", "gauge-check", "cook"])
@pytest.mark.parametrize("section, key, value", [
    ("field", "omega", "0"), ("run", "dt", "nan"), ("run", "panels", "0"),
    ("run", "krylov_m", "100"), ("field", "amplitude", "1e308"),
    ("run", "t_final", "1e308"),
], ids=["omega-zero", "dt-nan", "panels-zero", "krylov-m-100", "amplitude-1e308",
        "t-final-1e308"])
def test_cli_config_hole_fails_before_compute(tmp_path, capsys, monkeypatch,
                                              command, section, key, value):
    def no_compute(*args, **kwargs):
        raise AssertionError("the ground state was solved for an invalid config")

    monkeypatch.setattr(harness, "ground_state_imaginary_time", no_compute)
    ini = tmp_path / "study.ini"
    harness.preset_config("cw-1d").write_ini(ini)
    cp = configparser.ConfigParser()
    cp.read(ini)
    cp[section][key] = value
    with open(ini, "w") as fh:
        cp.write(fh)
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(ini), "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:")


def test_cli_unknown_subcommand():
    assert cli.main(["transmogrify"]) == 1


def test_cli_sweep_and_reports(tmp_path, capsys):
    ini = tmp_path / "study.ini"
    trimmed_config().write_ini(ini)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(ini), "--out", str(out)]) == 0
    assert (out / "custom" / trimmed_config().config_hash() / "sweep.csv").exists()
    assert cli.main(["gauge-check", "--config", str(ini), "--out", str(out)]) == 0
    assert (out / "gauge_check.json").exists()
    assert cli.main(["field-check", "--config", str(ini), "--out", str(out)]) == 0
    assert cli.main(["bounds", "--config", str(ini), "--out", str(out)]) == 0
    assert (out / "bounds.json").exists()


def test_cli_numerical_failure_exit_code(monkeypatch, tmp_path):
    ini = tmp_path / "study.ini"
    trimmed_config().write_ini(ini)

    def explode(config):
        raise NumericalError("synthetic blow-up")

    monkeypatch.setattr(harness, "run_convergence_sweep", explode)
    monkeypatch.setattr(cli, "run_convergence_sweep", explode)
    assert cli.main(["sweep", "--config", str(ini), "--out", str(tmp_path)]) == 2
