"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import csv
import json
import math
import shutil
from pathlib import Path

import pytest

import tracing
from checks import check_study
from run import ground_residual, probe, spawn, study
from workloads import WORKLOADS, Workload, load_program, write_inputs

ROOT = Path(__file__).resolve().parent.parent

# 1D, 256 points, half a cycle: t_final = dt + pi with dt = 2 pi / 1280.
TRIMMED_INI = """\
[grid]
dim = 1
points = 256
lengths = 80.0
particles = 1

[field]
kind = cw
amplitude = 0.25
omega = 1.0
lambdas = 10.0, 20.0, 40.0, 80.0

[potential]
kind = soft_core

[run]
preset = trimmed-1d
dt = 0.004908738521234052
t_final = 3.146501392111027
panels = 32
"""
TRIMMED = Workload("trimmed-1d", None, TRIMMED_INI, (10.0, 20.0, 40.0, 80.0))


@pytest.fixture(scope="module")
def cli():
    return load_program(ROOT)


@pytest.fixture(scope="module")
def trimmed(cli, tmp_path_factory):
    """A first trimmed study: its ini, output directory and check."""
    work = tmp_path_factory.mktemp("trimmed")
    ini = work / "trimmed.ini"
    ini.write_text(TRIMMED_INI)
    _, first = study(cli, TRIMMED, ini, 5, work / "first", None, None)
    assert first.failed == 0, first.reasons
    return ini, work, first


def test_self_time_subtracts_the_union_of_children():
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 3.0, 0, None],
        ["a", 1.5, 2.5, 1, None],   # nested repeat of "a"
        ["b", 2.0, 5.0, 0, None],   # overlaps "a"
        ["c", 8.0, 12.0, 0, None],  # runs past its parent's end
    ]
    assert tracing.self_times(spans) == [4.0, 1.0, 1.0, 3.0, 4.0]
    assert tracing.busy(spans, "a") == 2.0
    assert tracing.union_length([(0, 1), (3, 4), (0.5, 2)], 0.0, 3.5) == 2.5


def test_traced_study_restores_every_patched_name(cli, trimmed):
    ini, work, first = trimmed
    from dipolelab import bounds, harness, propagate
    import numpy as np

    before = (np.fft.fftn, harness.evolve, propagate.hamiltonian_apply_fn,
              bounds.resolvent_apply, cli.run_study)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    patched = [(m, a) for m, a, _ in tracer._patched]
    try:
        with tracer.span("study"):
            _, check = study(cli, TRIMMED, ini, 5, work / "traced", None, None)
        with tracer.span("probe"):
            _, ok, _ = probe(cli, ini, 5, work / "probe")
    finally:
        restored = tracer.restore()
    assert len(patched) == len(restored)
    assert all(getattr(m, a) is orig for m, a, orig in restored)
    assert before == (np.fft.fftn, harness.evolve, propagate.hamiltonian_apply_fn,
                      bounds.resolvent_apply, cli.run_study)

    assert ok and check.failed == 0
    assert check.hashes == first.hashes  # tracing does not perturb results
    values = tracing.layer_values(tracer.spans, tracer.captured,
                                  ground_residual(tracer.captured))
    assert values["propagate.krylov_steps"] == 4 * 640
    assert values["propagate.split_steps"] == 3 * 640
    assert values["propagate.krylov_retries"] == 0
    assert values["propagate.ground_calls"] == 2
    assert values["propagate.ground_residual"] <= 1e-8
    assert values["cook.integrand_calls"] == 4 * 129
    assert values["bounds.resolvent_calls"] > 0
    assert all(math.isfinite(v) for v in values.values())


def test_trimmed_config_passes_every_check(cli, trimmed):
    ini, work, first = trimmed
    reference = {"error": first.errors, "bound": first.bounds}
    _, again = study(cli, TRIMMED, ini, 6, work / "again", reference, first.hashes)
    assert (again.attempted, again.failed) == (5, 0), again.reasons
    assert again.error_dev_rel == again.bound_dev_rel == 0.0
    _, ok, fingerprint = probe(cli, ini, 6, work / "probe")
    assert ok, fingerprint


def test_negative_controls_fail(trimmed):
    ini, work, first = trimmed
    target = next(p for p in (work / "first").glob("*/*") if p.is_dir())

    perturbed = {"error": [e * (1 + 1e-3) for e in first.errors],
                 "bound": first.bounds}
    check = check_study(target, 0, None, TRIMMED.lambdas, perturbed, first.hashes)
    assert check.error_dev_rel > 0.0 and check.bound_dev_rel == 0.0
    assert check.failed == 4

    tampered = work / "tampered" / target.name
    shutil.copytree(target, tampered)
    with open(target / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    for row in rows:
        row["cook_bound"] = repr(0.1 * float(row["cook_bound"]))
    with open(tampered / "sweep.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    check = check_study(tampered, 0, None, TRIMMED.lambdas, None, None)
    assert check.failed == 4
    assert all("exceeds" in r for r in check.reasons)

    gauge = json.loads((target / "gauge.json").read_text())
    gauge["min_fidelity"] = 1.0 - 1e-5
    (tampered / "gauge.json").write_text(json.dumps(gauge))
    check = check_study(tampered, 0, None, TRIMMED.lambdas, None, first.hashes)
    assert check.failed == 5  # every record, plus the gauge check


def test_set_up_child_reports_import_and_ready(cli, tmp_path):
    workload = WORKLOADS["pulse-1d"]
    ini = write_inputs(workload, 1, tmp_path)
    setup_s, report = spawn(ROOT, workload, ini, 1, "setup", tmp_path / "out")
    assert 0.0 < report["import_s"] < setup_s
    assert report["seconds"] == report["codes"] == []
    assert report["peak_rss_mb"] > 0.0
