"""Output checks, read from the artifacts the CLI wrote.

Every per-wavelength record is one operation, and so are the gauge check and
the probe.  A record fails when it raised or carries a diagnostic, when e or B
is not finite, when e > 1.05 B + 1e-6, when e(lambda) is not strictly
decreasing or the fitted slope lies outside [0.7, 1.3], when e or B moves from
the pinned reference by more than ACCURACY_RTOL, or when its data files hash
differently from an earlier study of the same set.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

CERT_FACTOR = 1.05
CERT_ABS = 1e-6
SLOPE_RANGE = (0.7, 1.3)
MIN_FIDELITY = 1.0 - 1e-6
# Relative distance from the pinned e(lambda), B(lambda) beyond which a record
# fails.  On pulse-1d, doubling dt moves e by 4.4e-3 and loosening krylov_tol
# from 1e-10 to 1e-6 moves it by 7.6e-4; both fail.  Loosening it to 1e-8
# (2.4e-6) or matching the integrators on both sides of e (predicted <= 1.8e-4)
# passes.
ACCURACY_RTOL = 5e-4

DATA_FILES = ("sweep.csv", "cook.csv", "gauge.json")


def data_hashes(target: Path) -> dict:
    """sha256 of each data file with the config hash masked out.

    The config hash covers the seed, and the seed changes no physics, so the
    masked hashes must agree across seeds as well as across runs.
    """
    chash = target.name.encode()
    return {name: hashlib.sha256(
        (target / name).read_bytes().replace(chash, b"<config_hash>")).hexdigest()
        for name in DATA_FILES}


def relative_deviation(values, reference) -> float:
    """max_i |v_i - r_i| / |r_i|; inf when the lengths differ."""
    if len(values) != len(reference):
        return math.inf
    return max((abs(v - r) / abs(r) for v, r in zip(values, reference)),
               default=0.0)


def _float(text: str) -> float:
    return float(text) if text else math.nan


@dataclass
class StudyCheck:
    attempted: int
    failed: int = 0
    reasons: list = field(default_factory=list)
    lambdas: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    bounds: list = field(default_factory=list)
    hashes: dict = field(default_factory=dict)
    slope: float | None = None
    min_fidelity: float | None = None
    error_dev_rel: float = math.inf
    bound_dev_rel: float = math.inf


def check_study(target: Path | None, exit_code, raised: str | None,
                lambdas, reference: dict | None,
                expected_hashes: dict | None) -> StudyCheck:
    """Check one finished study; ``reference`` holds pinned error/bound lists."""
    n = len(lambdas)
    out = StudyCheck(attempted=n + 1)
    try:
        if raised is not None or exit_code not in (0, 2) or target is None:
            raise ValueError(f"study raised or exited {exit_code}: {raised}")
        with open(target / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        out.lambdas = [float(r["lambda"]) for r in rows]
        out.errors = [_float(r["error"]) for r in rows]
        out.bounds = [_float(r["cook_bound"]) for r in rows]
        out.slope = json.loads((target / "manifest.json").read_text())["slope"]
        out.min_fidelity = json.loads((target / "gauge.json").read_text())["min_fidelity"]
        out.hashes = data_hashes(target)
    except (OSError, KeyError, ValueError) as exc:
        out.failed = n + 1
        out.reasons.append(f"no usable artifacts: {exc}")
        return out
    if reference is not None:
        out.error_dev_rel = relative_deviation(out.errors, reference["error"])
        out.bound_dev_rel = relative_deviation(out.bounds, reference["bound"])

    bad = [False] * n
    if out.lambdas != [float(l) for l in lambdas]:
        out.reasons.append(f"wavelengths {out.lambdas} != {list(lambdas)}")
        bad = [True] * n
    slope_ok = out.slope is not None and SLOPE_RANGE[0] <= out.slope <= SLOPE_RANGE[1]
    if not slope_ok:
        out.reasons.append(f"decay slope {out.slope} outside {SLOPE_RANGE}")
    for i, row in enumerate(rows[:n]):
        e, b = out.errors[i], out.bounds[i]
        why = []
        if row["diagnostic"]:
            why.append(f"diagnostic {row['diagnostic']!r}")
        if not (math.isfinite(e) and math.isfinite(b)):
            why.append("e or B not finite")
        elif e > CERT_FACTOR * b + CERT_ABS:
            why.append(f"e={e:.6e} exceeds {CERT_FACTOR} B + {CERT_ABS} (B={b:.6e})")
        if i > 0 and not e < out.errors[i - 1]:
            why.append("e(lambda) not strictly decreasing")
        if not slope_ok:
            why.append("slope")
        if reference is not None:
            ref_e, ref_b = reference["error"][i], reference["bound"][i]
            if not abs(e - ref_e) <= ACCURACY_RTOL * abs(ref_e):
                why.append(f"e={e!r} moved from the reference {ref_e!r}")
            if not abs(b - ref_b) <= ACCURACY_RTOL * abs(ref_b):
                why.append(f"B={b!r} moved from the reference {ref_b!r}")
        if expected_hashes is not None and any(
                out.hashes[k] != expected_hashes[k] for k in ("sweep.csv", "cook.csv")):
            why.append("sweep.csv/cook.csv differ from an earlier study of this set")
        if why:
            bad[i] = True
            out.reasons.append(f"lambda={out.lambdas[i]:g}: " + "; ".join(why))
    out.failed = sum(bad)

    gauge_why = []
    if not out.min_fidelity >= MIN_FIDELITY:
        gauge_why.append(f"min fidelity {out.min_fidelity!r} < {MIN_FIDELITY!r}")
    if expected_hashes is not None and out.hashes["gauge.json"] != expected_hashes["gauge.json"]:
        gauge_why.append("gauge.json differs from an earlier study of this set")
    if gauge_why:
        out.failed += 1
        out.reasons.append("gauge: " + "; ".join(gauge_why))
    return out


def _all_finite(value) -> bool:
    if isinstance(value, (list, tuple)):
        return all(_all_finite(v) for v in value)
    return isinstance(value, (int, float)) and math.isfinite(value)


def check_probe(out_dir: Path, exit_codes) -> tuple[bool, str]:
    """(ok, fingerprint) for one bounds + field-check probe."""
    if any(code != 0 for code in exit_codes):
        return False, f"probe exited {list(exit_codes)}"
    report = json.loads((out_dir / "bounds.json").read_text())
    numbers = [report[k] for k in ("alphas", "q_values", "epsilons", "c_eps",
                                   "graph_interval")]
    if report["alpha_star"] is not None:
        numbers.append(report["alpha_star"])
    if not _all_finite(numbers):
        return False, "bounds report is not finite"
    json.loads((out_dir / "field_check.json").read_text())
    digest = hashlib.sha256(json.dumps(
        {k: report[k] for k in ("q_values", "c_eps", "graph_interval")},
        sort_keys=True).encode()).hexdigest()
    return True, digest
