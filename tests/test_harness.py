import configparser
import dataclasses
import json
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

import dipolelab
from dipolelab import cli, harness, propagate as prop, spatial
from dipolelab.errors import ConfigError, NumericalError
from dipolelab.gauge import phase_fidelity

from conftest import traced_peak


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
    # a manifest's config_ini must re-run, so write_ini -> from_ini is the identity,
    # a '%' in a string field included
    configs = [harness.preset_config(name) for name in harness.PRESETS]
    configs += [trimmed_config(), trimmed_config(preset="a%b"),
                trimmed_config(preset="%%(x)s%")]
    path = tmp_path / "study.ini"
    for cfg in configs:
        cfg.write_ini(path)
        back = harness.StudyConfig.from_ini(path)
        assert back == cfg
        assert back.canonical_text() == cfg.canonical_text()
        assert back.config_hash() == cfg.config_hash()


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
    ("dt", 1.6e-74), ("t_final", 1e154), ("panels", harness.MAX_STEPS // 4 + 1),
])
def test_config_domain_checks(field, value):
    with pytest.raises(ConfigError):
        trimmed_config(**{field: value})


def test_step_count_cap():
    # the cap sits far above every preset and rejects nothing below it
    assert harness.MAX_STEPS == 2 ** 20
    for name in harness.PRESETS:
        cfg = harness.preset_config(name)
        assert (cfg.final_time - cfg.start_time) / cfg.dt <= 1280 + 1e-6
    dt = np.pi / 512
    trimmed_config(t0=dt, t_final=dt + harness.MAX_STEPS * dt)
    with pytest.raises(ConfigError, match="MAX_STEPS"):
        trimmed_config(t0=dt, t_final=dt + 2 * harness.MAX_STEPS * dt)


def configparser_canonical_text(cfg):
    """canonical_text as it was first built, through a ConfigParser."""
    cp = configparser.ConfigParser()
    cp["grid"] = {
        "dim": str(cfg.grid_dim),
        "points": ", ".join(str(p) for p in cfg.grid_points),
        "lengths": ", ".join(repr(l) for l in cfg.grid_lengths),
        "particles": str(cfg.particles),
    }
    cp["field"] = {
        "kind": cfg.envelope_kind, "amplitude": repr(cfg.amplitude),
        "polarization": cfg.polarization, "omega": repr(cfg.omega),
        "lambdas": ", ".join(repr(l) for l in cfg.lambdas),
    }
    cp["potential"] = {
        "kind": cfg.potential_kind, "z": repr(cfg.potential_z),
        "eps": repr(cfg.potential_eps), "depth": repr(cfg.potential_depth),
        "width": repr(cfg.potential_width),
    }
    cp["run"] = {
        "preset": cfg.preset,
        "t0": "auto" if cfg.t0 is None else repr(cfg.t0),
        "t_final": "auto" if cfg.t_final is None else repr(cfg.t_final),
        "dt": repr(cfg.dt), "panels": str(cfg.panels),
        "initial_state": cfg.initial_state, "ground_tol": repr(cfg.ground_tol),
        "packet_sigma": repr(cfg.packet_sigma), "packet_center": repr(cfg.packet_center),
        "packet_momentum": repr(cfg.packet_momentum), "krylov_m": str(cfg.krylov_m),
        "krylov_tol": repr(cfg.krylov_tol), "seed": str(cfg.seed),
    }
    buf = []
    for name in ("grid", "field", "potential", "run"):
        buf.append(f"[{name}]\n")
        for key in sorted(cp[name]):
            buf.append(f"{key} = {cp[name][key]}\n")
        buf.append("\n")
    return "".join(buf)


def test_canonical_text_matches_the_configparser_construction(tmp_path):
    # the text feeds the config hash and so the output directory
    configs = [harness.preset_config(name) for name in harness.PRESETS]
    configs += [trimmed_config(), trimmed_config(t0=0.5, t_final=2.5, seed=0,
                                                 initial_state="packet")]
    for cfg in configs:
        text = cfg.canonical_text()
        assert text == configparser_canonical_text(cfg)
        path = tmp_path / "round.ini"
        cfg.write_ini(path)
        back = harness.StudyConfig.from_ini(path)
        assert back.canonical_text() == text
        assert configparser_canonical_text(back) == text
    assert harness.preset_config("cw-1d").config_hash() == "4d73bdcd73acc39f"
    assert harness.preset_config("pulse-1d").config_hash() == "11dde640fc63f3f7"
    assert harness.preset_config("two-body-1d").config_hash() == "3d79045a7490c082"


def test_config_hash_is_the_hashlib_sha256_prefix():
    # the builtin sha256 the harness imports gives hashlib's digest
    import hashlib
    configs = [harness.preset_config(name) for name in harness.PRESETS]
    configs.append(trimmed_config(seed=3, lambdas=(10.0, 30.0)))
    for cfg in configs:
        want = hashlib.sha256(cfg.canonical_text().encode()).hexdigest()[:16]
        assert cfg.config_hash() == want


def test_ini_table_lists_every_field_once():
    # threads is a CLI flag, not part of a study's identity
    table = [field for _, _, field, _, _ in harness._INI_KEYS]
    assert sorted(table) == sorted(f.name for f in dataclasses.fields(harness.StudyConfig)
                                   if f.name != "threads")
    keys = [(section, key) for section, key, *_ in harness._INI_KEYS]
    assert len(set(keys)) == len(keys)


def test_ini_optional_keys_fall_back_to_the_field_defaults(tmp_path):
    cfg = trimmed_config(t0=0.5, packet_sigma=2.5, seed=0)
    required = {(section, key): field for section, key, field, _, needed
                in harness._INI_KEYS if needed}
    full, cp = configparser.ConfigParser(), configparser.ConfigParser()
    full.read_string(cfg.canonical_text())
    cp.read_dict({section: {key: full.get(section, key, raw=True)
                            for s, key in required if s == section}
                  for section in full.sections()})
    path = tmp_path / "required.ini"
    with open(path, "w") as fh:
        cp.write(fh)
    expected = harness.StudyConfig(**{field: getattr(cfg, field)
                                      for field in required.values()})
    assert harness.StudyConfig.from_ini(path) == expected
    # each required key is required
    for section, key in required:
        cp.remove_option(section, key)
        with open(path, "w") as fh:
            cp.write(fh)
        with pytest.raises(ConfigError, match=key):
            harness.StudyConfig.from_ini(path)
        cp[section][key] = full.get(section, key, raw=True)


@pytest.mark.parametrize("edit, named", [
    (lambda text: text.replace("[run]\n", "[run]\nkrylov_tl = 1e-06\n"), "'krylov_tl' in [run]"),
    (lambda text: text + "[grids]\ndim = 2\n", "[grids]"),
    (lambda text: text + "[grids]\n", "[grids]"),
    (lambda text: "[DEFAULT]\nseed = 3\n" + text, "'seed' in [DEFAULT]"),
    (lambda text: text.replace("[field]\n", "[field]\nlambda = 20.0\n"), "'lambda' in [field]"),
], ids=["misspelled-run-key", "extra-section", "extra-empty-section",
        "default-section-key", "field-key-typo"])
def test_cli_unknown_ini_key_or_section_exits_1(tmp_path, capsys, edit, named):
    # an unknown key was once ignored: a misspelled krylov_tol ran at its default
    ini = tmp_path / "study.ini"
    ini.write_text(edit(trimmed_config().canonical_text()))
    out = tmp_path / "out"
    assert cli.main(["field-check", "--config", str(ini), "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error:") and named in lines[0]
    assert not out.exists()


def test_cli_percent_in_a_string_field(tmp_path, capsys):
    # the canonical text once went through a ConfigParser, whose interpolation
    # check leaked a ValueError traceback for a literal '%'
    ini = tmp_path / "study.ini"
    trimmed_config().write_ini(ini)
    ini.write_text(ini.read_text().replace("preset = custom", "preset = a%%b"))
    out = tmp_path / "out"
    assert cli.main(["field-check", "--config", str(ini), "--out", str(out)]) == 0
    payload = json.loads((out / "field_check.json").read_text())
    assert payload["config_hash"] == trimmed_config(preset="a%b").config_hash()
    assert capsys.readouterr().err == ""


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
    reports = harness.cook_reports(harness.run_convergence_sweep(cfg))
    assert [r["lambda"] for r in reports] == list(cfg.lambdas)
    for rep in reports:
        assert rep["measured_error"] <= 1.05 * rep["bound"] + 1e-6
        assert len(rep["g_values"]) == len(rep["nodes"])


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


def test_gauge_check_holds_one_trajectorys_marks():
    # the length-gauge run compares each mark as it passes it; with both
    # runs' 17 marks stored the peak was about 41 states
    dt = np.pi / 512
    cfg = trimmed_config(grid_dim=2, grid_points=(32, 32), grid_lengths=(32.0, 32.0),
                         lambdas=(32.0,), initial_state="packet", packet_sigma=3.0,
                         t_final=dt + 64 * dt, dt=dt, panels=4)
    harness.run_gauge_check(cfg)   # fills the module caches
    report, peak = traced_peak(harness.run_gauge_check, cfg)
    assert len(report["fidelity_forward"]) == len(report["fidelity_reverse"]) == 17
    assert peak < 30 * 32 * 32 * 16


PACKET_GAUGE_POINTS = 8192


def packet_gauge_config():
    # a packet start: no ground solve inside the check
    dt = 2 * np.pi / 1280
    return harness.StudyConfig(grid_points=(PACKET_GAUGE_POINTS,), grid_lengths=(80.0,),
                               initial_state="packet", lambdas=(10.0,), panels=4,
                               t_final=dt + 64 * dt, dt=dt)


def test_gauge_check_holds_a_fixed_handful_of_states():
    # the length gauge advances to each velocity mark inside the velocity
    # run's hook, so no mark is copied; with the 17 velocity marks stored the
    # peak was 23.6 states
    cfg = packet_gauge_config()
    harness.run_gauge_check(cfg)   # fills the module caches
    report, peak = traced_peak(harness.run_gauge_check, cfg)
    assert len(report["fidelity_forward"]) == len(report["fidelity_reverse"]) == 17
    assert report["min_fidelity"] >= 1 - 1e-12
    assert peak < 16 * PACKET_GAUGE_POINTS * 16


def test_study_process_does_not_import_numpy_random(tmp_path):
    # no process draws from numpy.random: the study's hermiticity guard and
    # the bounds probes draw from the stdlib generator; nor does any map
    # OpenSSL, since the config hash takes the builtin sha256
    code = (
        "import sys\n"
        "import numpy as np\n"
        "from dipolelab import harness\n"
        "cfg = harness.StudyConfig(\n"
        "    preset='custom', grid_dim=1, grid_points=(256,), grid_lengths=(80.0,),\n"
        "    potential_kind='soft_core', envelope_kind='cw', amplitude=0.25,\n"
        "    omega=1.0, lambdas=(20.0, 40.0), t0=None,\n"
        "    t_final=np.pi / 512 + np.pi / 8, dt=np.pi / 512, panels=4,\n"
        "    initial_state='ground', ground_tol=1e-7, seed=11)\n"
        "harness.run_study(cfg, sys.argv[1])\n"
        "print('numpy.random' in sys.modules, '_hashlib' in sys.modules)\n")
    src = os.path.dirname(os.path.dirname(dipolelab.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False", "False"]
    assert (tmp_path / "custom").is_dir()


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


def test_manifest_dipole_infidelity_reads_zero_for_a_stationary_dipole_side(tmp_path):
    # off-grid polarization in 1-D makes the dipole coupling a global phase,
    # so the dipole run leaves the ground state where it started
    cfg = trimmed_config()
    target = harness.run_study(cfg, tmp_path)
    manifest = json.loads((target / "manifest.json").read_text())
    psi0 = spatial.read_snapshot(target / "snapshots" / "initial.dplw")
    final = spatial.read_snapshot(target / "snapshots" / "dipole_final.dplw")
    assert 0.0 <= manifest["dipole_infidelity"] <= 1e-9
    assert manifest["dipole_infidelity"] == 1.0 - phase_fidelity(psi0, final) ** 2


def test_in_plane_sweep_whose_dipole_side_moves():
    # in-plane polarization: the dipole coupling b(0, t).p moves the ground
    # state, and the coupling b(r, t).grad is nonzero in the full runs
    cfg = harness.StudyConfig(grid_dim=2, grid_points=(64, 64), grid_lengths=(48.0, 48.0),
                              polarization="in_plane", amplitude=0.25,
                              lambdas=(12.0, 24.0, 48.0), dt=2 * np.pi / 640, panels=16)
    sweep = harness.run_convergence_sweep(cfg)
    errors = [r.error for r in sweep.records]
    bounds = [r.bound for r in sweep.records]
    assert np.isfinite(errors + bounds).all()
    assert errors[0] > errors[1] > errors[2]
    assert all(e <= 1.05 * b + 1e-6 for e, b in zip(errors, bounds))
    assert 0.7 <= sweep.slope <= 1.3
    assert harness.run_gauge_check(cfg)["min_fidelity"] >= 1 - 1e-6
    assert sweep.dipole_infidelity > 0.1


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


def test_cli_field_check_in_plane_2d(tmp_path, capsys):
    # in-plane b_y(x) is stored as an (nx, 1) array and differentiated along
    # y, the axis it only broadcasts over
    cfg = trimmed_config(grid_dim=2, grid_points=(64, 64), grid_lengths=(32.0, 32.0),
                         polarization="in_plane", amplitude=0.5, lambdas=(16.0,))
    ini = tmp_path / "study.ini"
    cfg.write_ini(ini)
    out = tmp_path / "out"
    assert cli.main(["field-check", "--config", str(ini), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    payload = json.loads((out / "field_check.json").read_text())
    assert payload["divergence_defect"] <= 1e-10


def test_bounds_check_runs():
    rep = harness.run_bounds_check(trimmed_config())
    assert all(rep.q_values[i] >= rep.q_values[i + 1]
               for i in range(len(rep.q_values) - 1))
    assert rep.graph_interval[0] > 0


@pytest.mark.parametrize("entry", ["run_convergence_sweep", "run_gauge_check",
                                   "run_bounds_check"])
def test_entry_points_build_their_setup_once(monkeypatch, entry):
    # validate() hands the grid, envelope and potential it checked to the run
    calls = []
    for name in ("build_grid", "build_envelope", "build_potential"):
        build = getattr(harness.StudyConfig, name)
        monkeypatch.setattr(harness.StudyConfig, name,
                            lambda self, build=build, name=name: (calls.append(name),
                                                                  build(self))[1])
    dt = np.pi / 512
    cfg = trimmed_config(initial_state="packet", packet_sigma=3.0, t_final=dt + 64 * dt,
                         panels=4)
    getattr(harness, entry)(cfg)
    assert sorted(calls) == ["build_envelope", "build_grid", "build_potential"]


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
    ("run", "panels", "1000000000000000"),
    ("run", "krylov_m", "100"), ("field", "amplitude", "1e308"),
    ("run", "t_final", "1e308"), ("run", "dt", "1.6e-74"), ("run", "t_final", "1e154"),
], ids=["omega-zero", "dt-nan", "panels-zero", "panels-1e15", "krylov-m-100",
        "amplitude-1e308", "t-final-1e308", "dt-1.6e-74", "t-final-1e154"])
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


def test_cli_sweep_off_the_step_lattice_fails_before_compute(tmp_path, capsys,
                                                              monkeypatch):
    # 1,284 steps hold the 4 Simpson intervals of one panel but not the 16
    # gauge marks; the sweep once ran in full before the gauge check failed
    def no_compute(*args, **kwargs):
        raise AssertionError("the ground state was solved for an invalid config")

    monkeypatch.setattr(harness, "ground_state_imaginary_time", no_compute)
    ini = tmp_path / "study.ini"
    replace(harness.preset_config("cw-1d"), dt=2 * np.pi / 1284, panels=1).write_ini(ini)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(ini), "--out", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and "divisible by 16" in lines[0]
    assert not out.exists()
    # 1,296 steps hold the 16 marks but not the 128 intervals of 32 panels
    with pytest.raises(ConfigError, match="divisible by 128"):
        replace(harness.preset_config("cw-1d"), dt=2 * np.pi / 1296).validate()
    # a span within the step-count tolerance of zero is zero steps, no lattice
    with pytest.raises(ConfigError, match="divisible by 128"):
        replace(harness.preset_config("cw-1d"), t0=1.0, t_final=1.0 + 1e-12).validate()


def test_cli_unknown_subcommand():
    assert cli.main(["transmogrify"]) == 1


def test_cli_calls_in_one_process_parse_independently(tmp_path):
    # the parser is built once per process and shared by every main() call
    assert cli.build_parser() is cli.build_parser()
    ini = tmp_path / "study.ini"
    trimmed_config().write_ini(ini)
    out = tmp_path / "out"

    def field_check(*flags):
        argv = ["field-check", "--config", str(ini), "--out", str(out), *flags]
        assert cli.main(argv) == 0
        return json.loads((out / "field_check.json").read_text())["config_hash"]

    assert field_check("--seed", "5") == trimmed_config(seed=5).config_hash()
    assert cli.main(["preset", "cw-9d"]) == 1
    assert field_check() == trimmed_config().config_hash()
    args = cli.build_parser().parse_args(["preset", "cw-1d"])
    assert (args.command, args.name, args.seed, args.threads) == ("preset", "cw-1d", None, 1)
    assert not hasattr(args, "config")


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# records the thread settings numpy sees when it is first imported
NUMPY_LOAD_WATCH = """
import importlib.abc, json, os, sys
seen = []

class Watch(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append({v: os.environ.get(v) for v in %r})

sys.meta_path.insert(0, Watch())
import dipolelab.cli
print(json.dumps(seen[0]))
""" % (BLAS_THREAD_VARS,)


@pytest.mark.parametrize("preset", [None, "2"], ids=["unset", "explicit"])
def test_cli_pins_one_blas_thread_before_numpy_loads(preset):
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    src = os.path.dirname(os.path.dirname(dipolelab.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    out = subprocess.run([sys.executable, "-c", NUMPY_LOAD_WATCH], env=env,
                         capture_output=True, text=True, check=True).stdout
    seen = json.loads(out)
    # a value already in the environment wins
    assert seen == {"OPENBLAS_NUM_THREADS": preset or "1", "OMP_NUM_THREADS": "1",
                    "MKL_NUM_THREADS": "1"}


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


def test_cli_sweep_runs_the_gauge_check_before_the_sweep(monkeypatch, tmp_path):
    # both ground solves then come before the Krylov sweep, as in preset
    order = []
    for module in (cli, harness):
        for name, label in (("run_gauge_check", "gauge"), ("run_convergence_sweep", "sweep")):
            run = getattr(module, name)
            monkeypatch.setattr(module, name,
                                lambda *a, run=run, label=label: (order.append(label),
                                                                  run(*a))[1])
    ini = tmp_path / "study.ini"
    trimmed_config().write_ini(ini)
    assert cli.main(["sweep", "--config", str(ini), "--out", str(tmp_path / "out")]) == 0
    assert order == ["gauge", "sweep"]


@pytest.mark.parametrize("command", ["preset", "sweep"])
def test_cli_study_with_failed_wavelengths_prints_them_and_exits_2(
        monkeypatch, tmp_path, capsys, command):
    evolve = harness.evolve

    def krylov_fails(spec, psi0, config, *args, **kwargs):
        if config.method == prop.KRYLOV:
            raise NumericalError("synthetic Krylov failure")
        return evolve(spec, psi0, config, *args, **kwargs)

    monkeypatch.setattr(harness, "evolve", krylov_fails)
    ini = tmp_path / "cw-1d.ini"
    harness.preset_config("cw-1d").write_ini(ini)
    argv = ["preset", "cw-1d"] if command == "preset" else ["sweep", "--config", str(ini)]
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 2
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if "FAILED: synthetic Krylov failure" in line]
    assert [line.split()[0] for line in failed] == [
        "lambda=10", "lambda=20", "lambda=40", "lambda=80"]
    assert "decay slope: None" in lines


def test_sweep_peak_memory_does_not_grow_with_panels():
    # the dipole run streams its Simpson nodes into the certificate, so four
    # times the panels (17 -> 65 nodes) adds less than two states to the peak
    dt = np.pi / 512

    def sweep_peak(panels):
        cfg = trimmed_config(grid_dim=2, grid_points=(32, 32), grid_lengths=(32.0, 32.0),
                             lambdas=(32.0,), initial_state="packet", packet_sigma=3.0,
                             t_final=dt + 64 * dt, dt=dt, panels=panels)
        return traced_peak(harness.run_convergence_sweep, cfg)[1]

    state_bytes = 32 * 32 * 16
    sweep_peak(4)   # fills the module caches
    small = sweep_peak(4)
    assert sweep_peak(16) - small < 2 * state_bytes
