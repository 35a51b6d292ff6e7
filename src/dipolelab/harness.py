"""Study orchestration: convergence sweeps, gauge checks, certificates, presets.

A study fixes a grid, a potential, an envelope, and a list of commensurate
wavelengths at constant angular frequency.  For each wavelength the full
minimal-coupling trajectory is compared against the shared dipole trajectory,
the terminal distance e(lam) is recorded together with the certified bound
B(lam), and a log-log slope is fitted over the top decade of wavelengths.

Outputs land in <out>/<preset>/<config-hash>/: sweep.csv, cook.csv,
gauge.json, manifest.json, snapshots/.  Data files are bit-deterministic for
a fixed config and seed regardless of worker count; wall-clock metadata
(timestamps, runtimes) lives only in the manifest.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import io
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import run_bounds_suite
from .cook import (CookReport, _bound_from_samples, dipole_node_trajectory,
                   simpson_weights)
from .errors import ConfigError, NumericalError
from .fields import (CW, PULSE, PULSE_WINDOW, LaserEnvelope, ScaledField,
                     check_divergence_free, check_transversality,
                     in_plane_envelope, is_commensurate, transverse_envelope)
from .gauge import length_to_velocity, phase_fidelity, velocity_to_length
from .hamiltonians import (PotentialModel, dipole_length, dipole_velocity,
                           full_coupling, gaussian_well, n_body_soft_core,
                           soft_core_coulomb, zero_potential)
from .propagate import (KRYLOV, SPLIT, StepperConfig, evolve,
                        ground_state_imaginary_time)
from .spatial import Grid, WaveFunction, gaussian_packet, make_grid, write_snapshot

PRESETS = ("cw-1d", "pulse-1d", "two-body-1d")

_SECTION_ORDER = ("grid", "field", "potential", "run")


@dataclass
class StudyConfig:
    """Everything needed to reproduce one study."""

    preset: str = "custom"
    grid_dim: int = 1
    grid_points: tuple = (512,)
    grid_lengths: tuple = (80.0,)
    particles: int = 1
    potential_kind: str = "soft_core"
    potential_z: float = 1.0
    potential_eps: float = 1.0
    potential_depth: float = 1.0
    potential_width: float = 1.0
    envelope_kind: str = CW
    amplitude: float = 0.25
    polarization: str = "out_of_plane"
    omega: float = 1.0
    lambdas: tuple = (10.0, 20.0, 40.0, 80.0)
    t0: float | None = None
    t_final: float | None = None
    dt: float = 2.0 * np.pi / 1280.0
    panels: int = 32
    initial_state: str = "ground"
    ground_tol: float = 1e-8
    packet_sigma: float = 1.5
    packet_center: float = 0.0
    packet_momentum: float = 0.0
    krylov_m: int = 24
    krylov_tol: float = 1e-10
    seed: int = 20240901
    threads: int = 1

    def __post_init__(self):
        self.grid_points = tuple(int(p) for p in np.atleast_1d(self.grid_points))
        self.grid_lengths = tuple(float(l) for l in np.atleast_1d(self.grid_lengths))
        self.lambdas = tuple(float(l) for l in np.atleast_1d(self.lambdas))
        # every domain check below fails on NaN, which compares false
        if not (self.lambdas and all(0 < lam < math.inf for lam in self.lambdas)):
            raise ConfigError("need at least one lambda, each finite and positive")
        if list(self.lambdas) != sorted(set(self.lambdas)):
            raise ConfigError("lambda list must be strictly increasing")
        # the field phase 2 pi x / lambda must stay finite across the box
        if not math.isfinite(2.0 * math.pi * max(self.grid_lengths, default=0.0)
                             / self.lambdas[0]):
            raise ConfigError("the shortest lambda is too small for the box")
        if self.threads < 1:
            raise ConfigError("thread count must be >= 1")
        if not 0 < self.dt < math.inf:
            raise ConfigError("dt must be finite and positive")
        if not 0 < self.omega < math.inf:
            raise ConfigError("omega must be finite and positive")
        # every profile stays below sqrt(2), so |b|^2 <= 2 particles (E/omega)^2;
        # field-check samples the envelope itself, at omega = 1
        b_max = abs(self.amplitude) * max(1.0, 1.0 / self.omega)
        if not math.isfinite(2.0 * self.particles * b_max * b_max):
            raise ConfigError("amplitude must be finite with a finite |b|^2 = (E/omega)^2")
        if self.panels < 1:
            raise ConfigError("panels must be >= 1")
        if not 8 <= self.krylov_m <= 64:
            raise ConfigError("krylov_m must lie in [8, 64]")
        if not (self.krylov_tol > 0 and self.ground_tol > 0):
            raise ConfigError("krylov_tol and ground_tol must be positive")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        for name in ("t0", "t_final"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite")
        # evolve rounds (final_time - start_time) / dt to an integer step count
        if not math.isfinite((self.final_time - self.start_time) / self.dt):
            raise ConfigError("(t_final - t0) / dt must be a finite step count")

    # -- derived pieces ---------------------------------------------------

    @property
    def start_time(self) -> float:
        return self.dt if self.t0 is None else self.t0

    @property
    def final_time(self) -> float:
        if self.t_final is None:
            return self.start_time + 2.0 * np.pi / self.omega
        return self.t_final

    def build_grid(self) -> Grid:
        return make_grid(self.grid_dim, self.grid_points, self.grid_lengths,
                         particles=self.particles)

    def build_potential(self) -> PotentialModel:
        kind = self.potential_kind
        if kind == "soft_core":
            return soft_core_coulomb(self.potential_z, self.potential_eps)
        if kind == "gaussian_well":
            return gaussian_well(self.potential_depth, self.potential_width)
        if kind == "nbody":
            return n_body_soft_core(self.particles, self.potential_eps)
        if kind == "zero":
            return zero_potential()
        raise ConfigError(f"unknown potential kind {kind!r}")

    def build_envelope(self) -> LaserEnvelope:
        d = self.grid_dim // self.particles
        if self.polarization == "out_of_plane":
            return transverse_envelope(self.envelope_kind, self.amplitude, d)
        if self.polarization == "in_plane":
            if d < 2:
                raise ConfigError("in-plane polarization needs >= 2 dimensions per particle")
            return in_plane_envelope(self.envelope_kind, self.amplitude)
        raise ConfigError(f"unknown polarization {self.polarization!r}")

    def build_initial_state(self, grid: Grid):
        """Returns (psi0, energy-or-None)."""
        if self.initial_state == "ground":
            energy, psi0 = ground_state_imaginary_time(
                self.build_potential(), grid, tol=self.ground_tol)
            return psi0, energy
        if self.initial_state == "packet":
            psi0 = gaussian_packet(grid, self.packet_center, self.packet_sigma,
                                   self.packet_momentum)
            return psi0, None
        raise ConfigError(f"unknown initial state recipe {self.initial_state!r}")

    def validate(self) -> None:
        grid = self.build_grid()
        env = self.build_envelope()
        if self.start_time <= 0:
            raise ConfigError("t0 must be positive")
        if self.final_time <= self.start_time:
            raise ConfigError("t_final must exceed t0")
        for lam in self.lambdas:
            if not is_commensurate(env, grid, lam):
                raise ConfigError(
                    f"lambda {lam} is not commensurate with the box; snap to L/m")

    # -- serialization ----------------------------------------------------

    def canonical_text(self) -> str:
        cp = configparser.ConfigParser()
        cp["grid"] = {
            "dim": str(self.grid_dim),
            "points": ", ".join(str(p) for p in self.grid_points),
            "lengths": ", ".join(repr(l) for l in self.grid_lengths),
            "particles": str(self.particles),
        }
        cp["field"] = {
            "kind": self.envelope_kind,
            "amplitude": repr(self.amplitude),
            "polarization": self.polarization,
            "omega": repr(self.omega),
            "lambdas": ", ".join(repr(l) for l in self.lambdas),
        }
        cp["potential"] = {
            "kind": self.potential_kind,
            "z": repr(self.potential_z),
            "eps": repr(self.potential_eps),
            "depth": repr(self.potential_depth),
            "width": repr(self.potential_width),
        }
        cp["run"] = {
            "preset": self.preset,
            "t0": "auto" if self.t0 is None else repr(self.t0),
            "t_final": "auto" if self.t_final is None else repr(self.t_final),
            "dt": repr(self.dt),
            "panels": str(self.panels),
            "initial_state": self.initial_state,
            "ground_tol": repr(self.ground_tol),
            "packet_sigma": repr(self.packet_sigma),
            "packet_center": repr(self.packet_center),
            "packet_momentum": repr(self.packet_momentum),
            "krylov_m": str(self.krylov_m),
            "krylov_tol": repr(self.krylov_tol),
            "seed": str(self.seed),
        }
        buf = io.StringIO()
        for name in _SECTION_ORDER:
            buf.write(f"[{name}]\n")
            for key in sorted(cp[name]):
                buf.write(f"{key} = {cp[name][key]}\n")
            buf.write("\n")
        return buf.getvalue()

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16]

    def write_ini(self, path) -> None:
        Path(path).write_text(self.canonical_text())

    @classmethod
    def from_ini(cls, path) -> "StudyConfig":
        cp = configparser.ConfigParser()
        try:
            if not cp.read(path):
                raise ConfigError(f"cannot read config file {path}")
            # required keys go through cp.get*(section, key), which raises when
            # the key is missing; a section's get* returns None instead
            grid = cp["grid"]
            fld = cp["field"]
            pot = cp["potential"]
            run = cp["run"]
            t0 = run.get("t0", "auto")
            t_final = run.get("t_final", "auto")
            return cls(
                preset=run.get("preset", "custom"),
                grid_dim=cp.getint("grid", "dim"),
                grid_points=tuple(int(x) for x in grid["points"].split(",")),
                grid_lengths=tuple(float(x) for x in grid["lengths"].split(",")),
                particles=grid.getint("particles", 1),
                envelope_kind=fld["kind"].strip(),
                amplitude=cp.getfloat("field", "amplitude"),
                polarization=fld.get("polarization", "out_of_plane"),
                omega=cp.getfloat("field", "omega"),
                lambdas=tuple(float(x) for x in fld["lambdas"].split(",")),
                potential_kind=pot["kind"].strip(),
                potential_z=pot.getfloat("z", 1.0),
                potential_eps=pot.getfloat("eps", 1.0),
                potential_depth=pot.getfloat("depth", 1.0),
                potential_width=pot.getfloat("width", 1.0),
                t0=None if t0 == "auto" else float(t0),
                t_final=None if t_final == "auto" else float(t_final),
                dt=cp.getfloat("run", "dt"),
                panels=cp.getint("run", "panels"),
                initial_state=run.get("initial_state", "ground"),
                ground_tol=run.getfloat("ground_tol", 1e-8),
                packet_sigma=run.getfloat("packet_sigma", 1.5),
                packet_center=run.getfloat("packet_center", 0.0),
                packet_momentum=run.getfloat("packet_momentum", 0.0),
                krylov_m=run.getint("krylov_m", 24),
                krylov_tol=run.getfloat("krylov_tol", 1e-10),
                seed=run.getint("seed", 20240901),
            )
        except (configparser.Error, KeyError, ValueError) as exc:
            # parser messages span lines; the CLI reports one line
            detail = " ".join(str(exc).split())
            raise ConfigError(f"bad config file {path}: {detail}") from exc


def preset_config(name: str) -> StudyConfig:
    """Built-in study presets; wavelengths are snapped to L/m by construction."""
    if name == "cw-1d":
        return StudyConfig(preset=name)
    if name == "pulse-1d":
        return StudyConfig(preset=name, envelope_kind=PULSE)
    if name == "two-body-1d":
        # The box is sized so the shortest wavelength stays in the first-order
        # regime of the bound state (2*pi*x_rms/lambda well below 1).
        return StudyConfig(
            preset=name, grid_dim=2, grid_points=(128, 128),
            grid_lengths=(80.0, 80.0), particles=2, potential_kind="nbody",
            potential_eps=1.0, amplitude=0.2, lambdas=(10.0, 20.0, 40.0, 80.0),
            dt=2.0 * np.pi / 640.0, panels=16, ground_tol=1e-6)
    raise ConfigError(f"unknown preset {name!r}; choose from {PRESETS}")


# -- sweep core -----------------------------------------------------------


@dataclass
class LambdaRecord:
    lam: float
    error: float | None
    bound: float | None
    bound_coarse: float | None
    quad_flag: bool
    g_values: np.ndarray | None
    runtime_s: float
    diagnostic: str = ""


@dataclass
class SweepResult:
    config: StudyConfig
    records: list
    slope: float | None
    nodes: np.ndarray
    dipole_states: list
    psi0: WaveFunction
    initial_energy: float | None
    dipole_runtime_s: float
    partial: bool

    @property
    def errors(self) -> list:
        return [r.error for r in self.records]


def _fit_decay_slope(records) -> float | None:
    """Decay exponent p in e ~ lam^-p over the top decade of wavelengths."""
    pts = [(r.lam, r.error) for r in records
           if r.error is not None and r.error > 0.0]
    if len(pts) < 2:
        return None
    lam_max = max(l for l, _ in pts)
    pts = [(l, e) for l, e in pts if l >= lam_max / 10.0]
    if len(pts) < 2:
        return None
    logs = np.log(np.array(pts))
    coeff = np.polyfit(logs[:, 0], logs[:, 1], 1)
    return float(-coeff[0])


def run_convergence_sweep(config: StudyConfig) -> SweepResult:
    """e(lam) and B(lam) for every wavelength against the shared dipole run."""
    config.validate()
    grid = config.build_grid()
    env = config.build_envelope()
    potential = config.build_potential()
    psi0, energy = config.build_initial_state(grid)
    t0, t_final = config.start_time, config.final_time

    ref_field = ScaledField(env, config.lambdas[0], config.omega)
    spec_inf = dipole_velocity(ref_field, potential)
    tick = time.perf_counter()
    nodes, dipole_traj = dipole_node_trajectory(
        spec_inf, psi0, t0, t_final, config.panels, config.dt)
    dipole_runtime = time.perf_counter() - tick
    dipole_states = dipole_traj.states
    psi_inf_final = dipole_states[-1]

    def one_lambda(lam: float) -> LambdaRecord:
        tick = time.perf_counter()
        try:
            fld = ScaledField(env, lam, config.omega)
            spec_full = full_coupling(fld, potential)
            stepper = StepperConfig(
                dt=config.dt, t0=t0, t_final=t_final, method=KRYLOV,
                krylov_m=config.krylov_m, krylov_tol=config.krylov_tol,
                store_states=True, sample_times=(t_final,))
            traj = evolve(spec_full, psi0, stepper)
            diff = traj.terminal_state.values - psi_inf_final.values
            err = float(np.linalg.norm(diff.ravel())) * np.sqrt(grid.cell_volume)
            g_values, b_fine, b_coarse, flag = _bound_from_samples(
                fld, nodes, dipole_states, config.panels)
            return LambdaRecord(lam, err, b_fine, b_coarse, flag, g_values,
                                time.perf_counter() - tick)
        except NumericalError as exc:
            return LambdaRecord(lam, None, None, None, False, None,
                                time.perf_counter() - tick, diagnostic=str(exc))

    if config.threads > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            records = list(pool.map(one_lambda, config.lambdas))
    else:
        records = [one_lambda(lam) for lam in config.lambdas]
    records.sort(key=lambda r: r.lam)

    return SweepResult(
        config=config, records=records, slope=_fit_decay_slope(records),
        nodes=nodes, dipole_states=dipole_states, psi0=psi0,
        initial_energy=energy, dipole_runtime_s=dipole_runtime,
        partial=any(r.diagnostic for r in records))


def run_cook_comparison(config: StudyConfig,
                        sweep: SweepResult | None = None) -> list[CookReport]:
    """B(lam) vs e(lam) reports across the sweep."""
    if sweep is None:
        sweep = run_convergence_sweep(config)
    _, weights = simpson_weights(2 * config.panels, sweep.nodes[0], sweep.nodes[-1])
    reports = []
    for rec in sweep.records:
        if rec.g_values is None:
            continue
        reports.append(CookReport(
            lam=rec.lam, omega=config.omega, nodes=sweep.nodes, weights=weights,
            g_values=rec.g_values, bound=rec.bound, bound_coarse=rec.bound_coarse,
            quad_self_error=abs(rec.bound - rec.bound_coarse),
            quad_flag=rec.quad_flag, measured_error=rec.error,
            slack=None if rec.error is None else rec.bound - rec.error,
            metadata={"panels": config.panels, "t0": sweep.nodes[0],
                      "t": sweep.nodes[-1]}))
    return reports


def run_gauge_check(config: StudyConfig, lam: float | None = None,
                    omega_length: float | None = None) -> dict:
    """Velocity-gauge vs mapped length-gauge fidelity at the sample times.

    omega_length deliberately detunes the length-gauge field (negative-control
    fixture); the default uses the config's omega on both sides.
    """
    config.validate()
    grid = config.build_grid()
    env = config.build_envelope()
    potential = config.build_potential()
    psi0, _ = config.build_initial_state(grid)
    t0, t_final = config.start_time, config.final_time
    lam = config.lambdas[0] if lam is None else lam

    fld_v = ScaledField(env, lam, config.omega)
    fld_l = ScaledField(env, lam, config.omega if omega_length is None else omega_length)
    spec_v = dipole_velocity(fld_v, potential)
    spec_l = dipole_length(fld_l, potential)

    n_marks = 16
    span = t_final - t0
    sample = tuple(t0 + span * j / n_marks for j in range(n_marks + 1))
    stepper = lambda: StepperConfig(dt=config.dt, t0=t0, t_final=t_final,
                                    method=SPLIT, store_states=True,
                                    sample_times=sample)
    traj_v = evolve(spec_v, psi0, stepper())
    psi0_l = velocity_to_length(psi0, fld_l, t0)
    traj_l = evolve(spec_l, psi0_l, stepper())

    fidelities = []
    for t, sv, sl in zip(traj_v.times, traj_v.states, traj_l.states):
        mapped = velocity_to_length(sv, fld_l, t)
        fidelities.append(phase_fidelity(mapped, sl))
    reverse = []
    for t, sv, sl in zip(traj_v.times, traj_v.states, traj_l.states):
        unmapped = length_to_velocity(sl, fld_l, t)
        reverse.append(phase_fidelity(unmapped, sv))
    return {
        "lambda": lam,
        "omega_velocity": config.omega,
        "omega_length": fld_l.omega,
        "times": [float(t) for t in traj_v.times],
        "fidelity_forward": [float(f) for f in fidelities],
        "fidelity_reverse": [float(f) for f in reverse],
        "min_fidelity": float(min(min(fidelities), min(reverse))),
    }


# -- persistence ----------------------------------------------------------


def _write_sweep_csv(path, result: SweepResult, config_hash: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "error", "cook_bound", "quad_flag",
                         "diagnostic", "config_hash"])
        for rec in result.records:
            writer.writerow([
                repr(float(rec.lam)),
                "" if rec.error is None else repr(float(rec.error)),
                "" if rec.bound is None else repr(float(rec.bound)),
                int(rec.quad_flag),
                rec.diagnostic,
                config_hash,
            ])


def _write_cook_csv(path, result: SweepResult, config_hash: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["lambda", "s", "g", "config_hash"])
        for rec in result.records:
            if rec.g_values is None:
                continue
            for s, g in zip(result.nodes, rec.g_values):
                writer.writerow([repr(float(rec.lam)), repr(float(s)),
                                 repr(float(g)), config_hash])


def run_study(config: StudyConfig, outdir, sweep: SweepResult | None = None) -> Path:
    """Sweep + gauge check + certificate table, persisted under the config hash."""
    config.validate()
    chash = config.config_hash()
    target = Path(outdir) / config.preset / chash
    target.mkdir(parents=True, exist_ok=True)
    (target / "snapshots").mkdir(exist_ok=True)

    wall_start = time.perf_counter()
    if sweep is None:
        sweep = run_convergence_sweep(config)
    gauge_report = run_gauge_check(config)

    _write_sweep_csv(target / "sweep.csv", sweep, chash)
    _write_cook_csv(target / "cook.csv", sweep, chash)
    gauge_payload = dict(gauge_report)
    gauge_payload["config_hash"] = chash
    with open(target / "gauge.json", "w") as fh:
        json.dump(gauge_payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    write_snapshot(target / "snapshots" / "initial.dplw", sweep.psi0)
    write_snapshot(target / "snapshots" / "dipole_final.dplw",
                   sweep.dipole_states[-1])

    manifest = {
        "config_hash": chash,
        "config_ini": config.canonical_text(),
        "preset": config.preset,
        "package_version": __version__,
        "seed": config.seed,
        "threads": config.threads,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "slope": sweep.slope,
        "partial": sweep.partial,
        "initial_energy": sweep.initial_energy,
        "conventions": {"omega": config.omega, "amplitude": config.amplitude,
                        "units": "hbar=e=1, m=1/2"},
        "runtimes_s": {
            "total": time.perf_counter() - wall_start,
            "dipole": sweep.dipole_runtime_s,
            "per_lambda": {repr(r.lam): r.runtime_s for r in sweep.records},
        },
    }
    if config.envelope_kind == PULSE:
        manifest["pulse_window"] = PULSE_WINDOW
    with open(target / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return target


def run_field_check(config: StudyConfig) -> dict:
    """Transversality, divergence, and pulse-asymptote diagnostics."""
    grid = config.build_grid()
    env = config.build_envelope()
    trans = check_transversality(env)
    div = check_divergence_free(env, grid, lam=config.lambdas[0])
    report = {
        "kind": env.kind,
        "transversality_defect": trans.defect,
        "transversality_pass": trans.passed,
        "divergence_defect": div.max_defect,
        "divergence_commensurate": div.commensurate,
        "divergence_warning": div.warning,
    }
    if env.kind == PULSE:
        from .fields import profile_value
        asym = float(profile_value(PULSE, -PULSE_WINDOW))
        report["pulse_asymptote"] = asym * env.amplitude
        report["pulse_window"] = PULSE_WINDOW
    return report


def run_bounds_check(config: StudyConfig):
    """Bounds suite on the config's dipole generator at the start time."""
    config.validate()
    grid = config.build_grid()
    env = config.build_envelope()
    potential = config.build_potential()
    fld = ScaledField(env, config.lambdas[0], config.omega)
    spec = dipole_velocity(fld, potential)
    return run_bounds_suite(spec, config.start_time, grid, config.seed)
