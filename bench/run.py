"""dipolelab benchmark: one workload per run, one study at a time.

Run from the root of a checkout (see BENCHMARK.json and bench/README.md):

    python3 bench/run.py --workload pulse-1d --seed 1 --seconds 40 --trace 0

A closed loop with one client: each study starts when the previous one has
finished, for about --seconds, and each is followed by a probe pass.  Every
study and every probe pass runs in a fresh interpreter (bench/child.py), as
a CLI call does, and each of those is one set-up sample.  The program keeps
its default threads=1.  With --trace 0 the last stdout line carries the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
separate traced run in this process.  Every run checks the artifacts the CLI
wrote.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_probe, check_study
from workloads import (WORKLOADS, load_program, prepare, probe_argvs,
                       probe_seeds, run_cli, study_argv, write_inputs)

BENCH = Path(__file__).resolve().parent
MIN_STUDIES = 2
TRACE_SETUP_REPS = 3
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def pin_thread_pools() -> None:
    """Run the BLAS and OpenMP pools single-threaded, within nproc.

    On a 2-core machine a two-body study with two OpenBLAS threads took 24 s
    of wall clock and 47 s of CPU time, against 22 s and 22 s with one: the
    second thread gains nothing and competes with whatever else runs there.
    """
    for var in THREAD_VARS:
        os.environ[var] = "1"


def program_digest(root: Path) -> str:
    """sha256 over the package sources: identifies the program measured."""
    tree = hashlib.sha256()
    for path in sorted((root / "src" / "dipolelab").glob("*.py")):
        tree.update(path.name.encode() + b"\0" + path.read_bytes())
    return tree.hexdigest()


def environment(root: Path, seed: int) -> dict:
    """The machine, versions, thread environment and program identity."""
    import numpy
    import scipy

    cpuinfo = dict(line.split(":", 1) for line in
                   Path("/proc/cpuinfo").read_text().splitlines() if ":" in line)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = ((index / f).read_text().strip()
                             for f in ("level", "type", "size"))
        caches[f"L{level}-{kind}"] = size
    commit = None
    if (root / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                capture_output=True, timeout=30).stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpuinfo.get("model name\t", "").strip(),
        "cpuinfo_cache_size": cpuinfo.get("cache size\t", "").strip(),
        "caches": caches,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"],
        "scipy_blas": scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"],
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": commit,
        "src_sha256": program_digest(root),
        "seed": seed,
    }


def artifact_dir(out: Path) -> Path | None:
    """The one <out>/<preset>/<config-hash> directory a study wrote."""
    dirs = [p for p in out.glob("*/*") if p.is_dir()]
    return dirs[0] if len(dirs) == 1 else None


def study(cli, workload, ini, seed, out, reference, expected_hashes):
    """One study through the CLI in this process, checked; returns (seconds, StudyCheck)."""
    shutil.rmtree(out, ignore_errors=True)
    seconds, code, raised = run_cli(cli, study_argv(workload, ini, seed, out))
    check = check_study(artifact_dir(out), code, raised,
                        workload.lambdas, reference, expected_hashes)
    return seconds, check


def probe(cli, ini, seed, out) -> tuple[float, bool, str]:
    """One operator-estimate probe in this process; returns (seconds, ok, fingerprint)."""
    shutil.rmtree(out, ignore_errors=True)
    seconds, codes = 0.0, []
    for argv in probe_argvs(ini, seed, out):
        dt, code, raised = run_cli(cli, argv)
        seconds += dt
        codes.append(code if raised is None else raised)
    ok, fingerprint = check_probe(out, codes)
    return seconds, ok, fingerprint


def spawn(root, workload, ini, seed, mode, out, seeds=()) -> tuple[float, dict]:
    """(set-up seconds, the child's report) for one fresh interpreter."""
    shutil.rmtree(out, ignore_errors=True)
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "--workload", workload.name,
         "--seed", str(seed), "--ini", str(ini), "--mode", mode, "--out", str(out),
         "--probe-seeds", ",".join(map(str, seeds))],
        cwd=root, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"bench: {mode} child failed:\n{proc.stderr}")
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    return child["ready"] - start, child


class Ledger:
    """Operations attempted and failed, with the reasons for failures."""

    def __init__(self, hash_file: Path):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.hash_file = hash_file
        # masked data-file hashes of the first clean study of this program in
        # this checkout; every later study, traced or not, on any seed, must
        # match them
        self.expected = (json.loads(hash_file.read_text())
                         if hash_file.is_file() else None)

    def add_study(self, check) -> None:
        self.attempted += check.attempted
        self.failed += check.failed
        self.reasons += check.reasons
        if self.expected is None and check.failed == 0:
            self.expected = check.hashes
            tmp = self.hash_file.with_suffix(".tmp")
            tmp.write_text(json.dumps(check.hashes, indent=1))
            tmp.replace(self.hash_file)

    def add_probe(self, ok: bool, fingerprint: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.reasons.append(f"probe: {fingerprint}")


def measured_run(root, workload, ini, seed, seconds, work, reference, ledger):
    """End-to-end metrics: a probe pass, then a closed loop of studies, each
    followed by a probe pass.

    Every study and probe pass is a fresh interpreter whose set-up is one
    set-up sample, so set-up, studies and probes all sample the machine over
    the whole run rather than over one stretch of it.  A run makes at least
    MIN_STUDIES studies, so the data files of two studies are always
    compared, and so at least MIN_STUDIES + 1 probe passes, at its start,
    middle and end.

    probe_s is the mean of every probe time in the run, so it averages the
    machine's states over all of a run's passes.  The 2-vCPU virtual machine
    of bench/README.md switches between a fast and a slow state about 1.5x
    apart, for seconds to minutes at a time, so probe times are bimodal and
    their median jumps between the modes.  Over 15 two-body-1d runs, spreads
    of ten consecutive runs were 0.13-0.26 for this mean, 0.19-0.23 for the
    mean of each seed's fastest probe and 0.20-0.32 for the median of all
    probe times.  On pulse-1d the mean spread 0.06 over five runs, the mean
    of per-seed minima 0.16.
    """
    seeds = probe_seeds(seed, workload.probe_seeds)
    setups, studies, passes, rss, checks, fingerprints = [], [], [], [], [], []

    def child(mode):
        out = work / mode
        setup_s, report = spawn(root, workload, ini, seed, mode, out, seeds)
        setups.append(setup_s)
        rss.append(report["peak_rss_mb"])
        return out, report

    def study_child():
        out, report = child("study")
        (code, raised), = report["codes"]
        check = check_study(artifact_dir(out), code, raised, workload.lambdas,
                            reference, ledger.expected)
        ledger.add_study(check)
        studies.append(report["seconds"][0])
        checks.append(check)

    def probe_child():
        out, report = child("probe")
        for i, codes in enumerate(report["codes"]):
            ok, fp = check_probe(out / str(i), codes)
            ledger.add_probe(ok, fp)
            fingerprints.append(fp)
        passes.append(report["seconds"])

    # Start another iteration while it would end nearer to --seconds than
    # stopping now does, so every workload measures for about --seconds.
    start = time.perf_counter()
    probe_child()
    while (len(studies) < MIN_STUDIES or
           (time.perf_counter() - start) * (1 + 0.5 / len(studies)) < seconds):
        study_child()
        probe_child()

    values = {
        "setup_s": statistics.median(setups),
        "study_s": statistics.median(studies),
        "probe_s": statistics.fmean(t for pass_ in passes for t in pass_),
        "peak_rss_mb": max(rss),
    }
    detail = {"setup_s": setups, "study_s": studies, "probe_s": passes,
              "peak_rss_mb": rss, "probe_fingerprint": fingerprints[0],
              "hashes": checks[0].hashes, "errors": checks[0].errors,
              "bounds": checks[0].bounds, "slope": checks[0].slope,
              "min_fidelity": checks[0].min_fidelity,
              "error_dev_rel": max(c.error_dev_rel for c in checks),
              "bound_dev_rel": max(c.bound_dev_rel for c in checks)}
    return values, detail


def ground_residual(captured) -> float:
    """max ||H psi - E psi|| over the traced ground states, recomputed here."""
    import numpy as np
    from dipolelab.hamiltonians import potential_on_grid

    worst = 0.0
    for potential, grid, (energy, psi) in captured["ground"]:
        v = potential_on_grid(potential, grid)
        h_psi = np.fft.ifftn(grid.k_square * np.fft.fftn(psi.values)) + v * psi.values
        resid = np.linalg.norm((h_psi - energy * psi.values).ravel())
        worst = max(worst, float(resid) * math.sqrt(grid.cell_volume))
    return worst


def traced_run(cli, root, workload, ini, seed, work, reference, ledger):
    """Per-layer metrics from one traced study and probe, plus the overhead."""
    import tracing

    imports = [spawn(root, workload, ini, seed, "setup", work / "setup")[1]["import_s"]
               for _ in range(TRACE_SETUP_REPS)]

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        with tracer.span("setup"):
            prepare(workload, ini, seed)
    finally:
        originals = tracer.restore()
    untraced_s, check = study(cli, workload, ini, seed, work / "out", reference,
                              ledger.expected)
    ledger.add_study(check)

    tracing.install(tracer)
    try:
        with tracer.span("study"):
            traced_s, check = study(cli, workload, ini, seed, work / "out",
                                    reference, ledger.expected)
        with tracer.span("probe"):
            _, ok, fingerprint = probe(cli, ini, seed, work / "probe")
    finally:
        originals += tracer.restore()
    ledger.add_study(check)
    ledger.add_probe(ok, fingerprint)
    leftover = [f"{m.__name__}.{a}" for m, a, orig in originals
                if getattr(m, a) is not orig]
    if leftover:
        ledger.failed += 1
        ledger.reasons.append(f"patched names not restored: {leftover}")

    values = tracing.layer_values(tracer.spans, tracer.captured,
                                  ground_residual(tracer.captured))
    values.update({
        "gauge.infidelity": 1.0 - check.min_fidelity,
        "harness.error_dev_rel": check.error_dev_rel,
        "harness.bound_dev_rel": check.bound_dev_rel,
        "trace.study_s": traced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "cli.import_s": statistics.median(imports),
    })
    detail = {"import_s": imports, "hashes": check.hashes,
              "probe_fingerprint": fingerprint,
              "untraced_study_s": untraced_s, "spans": len(tracer.spans)}

    proc = subprocess.run(
        [sys.executable, str(BENCH / "profile_child.py"), "--workload",
         workload.name, "--seed", str(seed)],
        cwd=root, capture_output=True, text=True,
        timeout=CHILD_TIMEOUT_S)
    detail["profile"] = (str(work / "profile_top10.txt") if proc.returncode == 0
                         else f"profile run failed: {proc.stderr[-500:]}")
    return values, detail


def finite(value):
    return value if math.isfinite(value) else sys.float_info.max


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    pin_thread_pools()
    root = Path.cwd()
    cli = load_program(root)
    spec = json.loads((root / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    reference = json.loads((BENCH / "reference.json").read_text())["workloads"]
    workload = WORKLOADS[args.workload]
    work = root / ".bench_work" / workload.name
    ini = write_inputs(workload, args.seed, work)
    ledger = Ledger(work / f"hashes-{program_digest(root)[:16]}.json")

    if args.trace:
        values, detail = traced_run(cli, root, workload, ini, args.seed, work,
                                    reference[workload.name], ledger)
    else:
        values, detail = measured_run(root, workload, ini, args.seed, args.seconds,
                                      work, reference[workload.name], ledger)
    if set(values) != set(units):
        sys.exit(f"bench: metrics {sorted(set(values) ^ set(units))} do not "
                 "match BENCHMARK.json")
    correct = ledger.failed == 0 and all(math.isfinite(v) for v in values.values())

    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "environment": environment(root, args.seed),
              "values": values,
              "attempted": ledger.attempted, "failed": ledger.failed,
              "reasons": ledger.reasons, **detail}
    results = root / ".bench_work" / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{workload.name}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    path.write_text(json.dumps(record, indent=1, default=float))
    for reason in ledger.reasons:
        print(f"bench: failed: {reason}", file=sys.stderr)
    print(f"bench: record {path}")
    print(json.dumps({
        "correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
        "metrics": {name: {"value": finite(values[name]), "unit": units[name]}
                    for name in sorted(values)}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
