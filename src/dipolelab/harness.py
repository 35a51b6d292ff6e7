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
import json
import math
import time
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import run_bounds_suite
from .cook import _bound_from_samples, dipole_node_trajectory, simpson_weights
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

# hashlib maps OpenSSL (3.6 MB of resident memory) for one digest; the
# builtin module gives the same sha256, as CPython's random.py does for sha512
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

PRESETS = ("cw-1d", "pulse-1d", "two-body-1d")

# the presets take at most 1,280 steps; a config far beyond that would run
# for days
MAX_STEPS = 2 ** 20

# the gauge check compares the two gauges at this many equal intervals
GAUGE_MARKS = 16

# value kind -> (INI text of a field value, field value of an INI text)
_INI_KINDS = {
    "int": (str, int),
    "float": (repr, float),
    "text": (str, str.strip),
    "int list": (lambda v: ", ".join(map(str, v)),
                 lambda text: tuple(map(int, text.split(",")))),
    "float list": (lambda v: ", ".join(map(repr, v)),
                   lambda text: tuple(map(float, text.split(",")))),
    "float or auto": (lambda v: "auto" if v is None else repr(v),
                      lambda text: None if text == "auto" else float(text)),
}

# (section, key, StudyConfig field, value kind, required): every INI key, in
# section order; a key that is not required falls back to the field's default
_INI_KEYS = (
    ("grid", "dim", "grid_dim", "int", True),
    ("grid", "points", "grid_points", "int list", True),
    ("grid", "lengths", "grid_lengths", "float list", True),
    ("grid", "particles", "particles", "int", False),
    ("field", "kind", "envelope_kind", "text", True),
    ("field", "amplitude", "amplitude", "float", True),
    ("field", "polarization", "polarization", "text", False),
    ("field", "omega", "omega", "float", True),
    ("field", "lambdas", "lambdas", "float list", True),
    ("potential", "kind", "potential_kind", "text", True),
    ("potential", "z", "potential_z", "float", False),
    ("potential", "eps", "potential_eps", "float", False),
    ("potential", "depth", "potential_depth", "float", False),
    ("potential", "width", "potential_width", "float", False),
    ("run", "preset", "preset", "text", False),
    ("run", "t0", "t0", "float or auto", False),
    ("run", "t_final", "t_final", "float or auto", False),
    ("run", "dt", "dt", "float", True),
    ("run", "panels", "panels", "int", True),
    ("run", "initial_state", "initial_state", "text", False),
    ("run", "ground_tol", "ground_tol", "float", False),
    ("run", "packet_sigma", "packet_sigma", "float", False),
    ("run", "packet_center", "packet_center", "float", False),
    ("run", "packet_momentum", "packet_momentum", "float", False),
    ("run", "krylov_m", "krylov_m", "int", False),
    ("run", "krylov_tol", "krylov_tol", "float", False),
    ("run", "seed", "seed", "int", False),
)
_SECTIONS = tuple(dict.fromkeys(section for section, *_ in _INI_KEYS))


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
        # each of the 4 * panels Simpson intervals takes at least one of the
        # at most MAX_STEPS steps
        if not 1 <= 4 * self.panels <= MAX_STEPS:
            raise ConfigError(f"panels must lie in [1, MAX_STEPS / 4 = {MAX_STEPS // 4}]")
        if not 8 <= self.krylov_m <= 64:
            raise ConfigError("krylov_m must lie in [8, 64]")
        if not (0 < self.krylov_tol < math.inf and 0 < self.ground_tol < math.inf):
            raise ConfigError("krylov_tol and ground_tol must be finite and positive")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")
        for name in ("t0", "t_final"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} must be finite")
        # StepperConfig.nsteps rounds (final_time - start_time) / dt to an
        # integer step count; NaN and inf fail the comparison too
        if not (self.final_time - self.start_time) / self.dt <= MAX_STEPS:
            raise ConfigError(f"(t_final - t0) / dt must be a step count of at most "
                              f"MAX_STEPS = {MAX_STEPS}")

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

    def validate(self) -> tuple[Grid, LaserEnvelope, PotentialModel, StepperConfig]:
        """Check the config; returns the grid, envelope, potential and clock it checked."""
        grid = self.build_grid()
        env = self.build_envelope()
        potential = self.build_potential()
        if self.start_time <= 0:
            raise ConfigError("t0 must be positive")
        if self.final_time <= self.start_time:
            raise ConfigError("t_final must exceed t0")
        clock = StepperConfig(dt=self.dt, t0=self.start_time, t_final=self.final_time,
                              krylov_m=self.krylov_m, krylov_tol=self.krylov_tol)
        # the Simpson nodes (4 * panels intervals) and the gauge check's marks
        # must land on distinct steps
        lattice = math.lcm(4 * self.panels, GAUGE_MARKS)
        if not clock.nsteps or clock.nsteps % lattice:
            raise ConfigError(
                f"(t_final - t0) / dt must be a whole number of steps divisible by "
                f"{lattice}, the lcm of 4 * panels and {GAUGE_MARKS} gauge marks")
        for lam in self.lambdas:
            if not is_commensurate(env, grid, lam):
                raise ConfigError(
                    f"lambda {lam} is not commensurate with the box; snap to L/m")
        return grid, env, potential, clock

    # -- serialization ----------------------------------------------------

    def canonical_text(self) -> str:
        lines = []
        for name in _SECTIONS:
            lines.append(f"[{name}]")
            # from_ini reads through ConfigParser interpolation, which reads %% as %
            lines.extend(
                f"{key} = {_INI_KINDS[kind][0](getattr(self, field)).replace('%', '%%')}"
                for section, key, field, kind, _ in sorted(_INI_KEYS) if section == name)
            lines.append("")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return sha256(self.canonical_text().encode()).hexdigest()[:16]

    def write_ini(self, path) -> None:
        Path(path).write_text(self.canonical_text())

    @classmethod
    def from_ini(cls, path) -> "StudyConfig":
        cp = configparser.ConfigParser()
        try:
            if not cp.read(path):
                raise ConfigError(f"cannot read config file {path}")
            # a [DEFAULT] key would reach every section, so it is unknown too
            known = {(section, key) for section, key, *_ in _INI_KEYS}
            for section in (cp.default_section, *cp.sections()):
                if section not in (cp.default_section, *_SECTIONS):
                    raise ConfigError(f"bad config file {path}: unknown section [{section}]")
                for key in cp[section]:
                    if (section, key) not in known:
                        raise ConfigError(
                            f"bad config file {path}: unknown key {key!r} in [{section}]")
            # a missing required key raises from cp.get
            return cls(**{field: _INI_KINDS[kind][1](cp.get(section, key))
                          for section, key, field, kind, required in _INI_KEYS
                          if required or cp.has_option(section, key)})
        except (configparser.Error, ValueError) as exc:
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
    dipole_final: WaveFunction
    psi0: WaveFunction
    initial_energy: float | None
    dipole_runtime_s: float
    partial: bool

    @property
    def dipole_infidelity(self) -> float:
        """1 - |<psi0, psi_d(T)>|^2: whether the dipole side moved the initial state."""
        return 1.0 - phase_fidelity(self.psi0, self.dipole_final) ** 2


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
    grid, env, potential, clock = config.validate()
    psi0, energy = config.build_initial_state(grid)

    fields = [ScaledField(env, lam, config.omega) for lam in config.lambdas]
    spec_inf = dipole_velocity(fields[0], potential)
    tick = time.perf_counter()
    nodes, g_table, psi_inf_final = dipole_node_trajectory(
        spec_inf, fields, psi0, clock, config.panels)
    dipole_runtime = time.perf_counter() - tick
    krylov = replace(clock, method=KRYLOV)

    def one_lambda(fld: ScaledField, g_values: np.ndarray) -> LambdaRecord:
        lam = fld.lam
        tick = time.perf_counter()
        try:
            traj = evolve(full_coupling(fld, potential), psi0, krylov)
            diff = traj.terminal_state.values - psi_inf_final.values
            err = float(np.linalg.norm(diff.ravel())) * np.sqrt(grid.cell_volume)
            b_fine, b_coarse, flag = _bound_from_samples(nodes, g_values, config.panels)
            return LambdaRecord(lam, err, b_fine, b_coarse, flag, g_values,
                                time.perf_counter() - tick)
        except NumericalError as exc:
            return LambdaRecord(lam, None, None, None, False, None,
                                time.perf_counter() - tick, diagnostic=str(exc))

    if config.threads > 1:
        # imported here: concurrent.futures loads logging, which a serial run
        # never needs
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            records = list(pool.map(one_lambda, fields, g_table))
    else:
        records = [one_lambda(fld, g) for fld, g in zip(fields, g_table)]

    return SweepResult(
        config=config, records=records, slope=_fit_decay_slope(records),
        nodes=nodes, dipole_final=psi_inf_final, psi0=psi0,
        initial_energy=energy, dipole_runtime_s=dipole_runtime,
        partial=any(r.diagnostic for r in records))


def cook_reports(sweep: SweepResult) -> list[dict]:
    """The certificate of each wavelength that ran, with the error it certifies."""
    config, nodes = sweep.config, sweep.nodes
    _, weights = simpson_weights(2 * config.panels, nodes[0], nodes[-1])
    return [{"lambda": rec.lam, "omega": config.omega,
             "nodes": [float(x) for x in nodes], "weights": [float(x) for x in weights],
             "g_values": [float(x) for x in rec.g_values],
             "bound": rec.bound, "bound_coarse": rec.bound_coarse,
             "quad_self_error": abs(rec.bound - rec.bound_coarse),
             "quad_flag": rec.quad_flag, "measured_error": rec.error,
             "slack": rec.bound - rec.error,
             "panels": config.panels, "t0": float(nodes[0]), "t": float(nodes[-1])}
            for rec in sweep.records if rec.g_values is not None]


def run_gauge_check(config: StudyConfig, omega_length: float | None = None) -> dict:
    """Velocity-gauge vs mapped length-gauge fidelity at GAUGE_MARKS + 1 times.

    The velocity gauge is one split run on the study's clock; its hook sees
    every (nsteps / GAUGE_MARKS)-th step, names mark j by the time
    t0 + span j / GAUGE_MARKS (not t0 + k dt), advances the length gauge from
    the previous mark by one run over the mark interval and compares the two
    states there, so the check holds two running states and copies no mark.
    Each length run takes its step midpoints from its own start, which moves
    a time-dependent (on-grid polarized) length generator in the last bits
    only.  omega_length deliberately detunes the length-gauge field
    (negative-control fixture); the default uses the config's omega on both
    sides.
    """
    grid, env, potential, clock = config.validate()
    psi0, _ = config.build_initial_state(grid)
    t0, span = clock.t0, clock.t_final - clock.t0
    every = clock.nsteps // GAUGE_MARKS
    lam = config.lambdas[0]

    fld_v = ScaledField(env, lam, config.omega)
    fld_l = ScaledField(env, lam, config.omega if omega_length is None else omega_length)
    spec_v = dipole_velocity(fld_v, potential)
    spec_l = dipole_length(fld_l, potential)

    sample = tuple(t0 + span * j / GAUGE_MARKS for j in range(GAUGE_MARKS + 1))
    fidelities, reverse = [], []
    psi_l = velocity_to_length(psi0, fld_l, t0)
    t_l = t0

    def compare(k: int, sv: WaveFunction) -> None:
        nonlocal psi_l, t_l
        t = sample[k // every]
        if t > t_l:
            segment = StepperConfig(dt=config.dt, t0=t_l, t_final=t, method=SPLIT)
            psi_l, t_l = evolve(spec_l, psi_l, segment).terminal_state, t
        fidelities.append(phase_fidelity(velocity_to_length(sv, fld_l, t), psi_l))
        reverse.append(phase_fidelity(length_to_velocity(psi_l, fld_l, t), sv))

    evolve(spec_v, psi0, clock, on_sample=compare, every=every)
    return {
        "lambda": lam,
        "omega_velocity": config.omega,
        "omega_length": fld_l.omega,
        "times": [float(t) for t in sample],
        "fidelity_forward": [float(f) for f in fidelities],
        "fidelity_reverse": [float(f) for f in reverse],
        "min_fidelity": float(min(min(fidelities), min(reverse))),
    }


# -- persistence ----------------------------------------------------------


def write_json(path, payload: dict) -> None:
    """A JSON artifact: sorted keys, two-space indent and a trailing newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


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


def run_study(config: StudyConfig, outdir) -> Path:
    """Gauge check + sweep + certificate table, persisted under the config hash.

    The gauge check validates the config; the output directory is made only
    once both runs have finished.
    """
    wall_start = time.perf_counter()
    # the gauge check first: both ground solves, which hold the study's
    # largest blocks, then run before the Krylov sweep's short-lived bases
    gauge_report = run_gauge_check(config)
    sweep = run_convergence_sweep(config)

    chash = config.config_hash()
    target = Path(outdir) / config.preset / chash
    (target / "snapshots").mkdir(parents=True, exist_ok=True)

    _write_sweep_csv(target / "sweep.csv", sweep, chash)
    _write_cook_csv(target / "cook.csv", sweep, chash)
    write_json(target / "gauge.json", {**gauge_report, "config_hash": chash})

    write_snapshot(target / "snapshots" / "initial.dplw", sweep.psi0)
    write_snapshot(target / "snapshots" / "dipole_final.dplw", sweep.dipole_final)

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
        "dipole_infidelity": sweep.dipole_infidelity,
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
    write_json(target / "manifest.json", manifest)
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
    grid, env, potential, clock = config.validate()
    fld = ScaledField(env, config.lambdas[0], config.omega)
    spec = dipole_velocity(fld, potential)
    return run_bounds_suite(spec, clock.t0, grid, config.seed)
