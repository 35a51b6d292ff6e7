"""Command-line interface.

Subcommands: sweep | gauge-check | cook | bounds | preset | field-check.
Exit codes: 0 success, 1 configuration error, 2 numerical failure.
BLAS and OpenMP pools run one thread unless the environment sets a count.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from dataclasses import asdict, replace
from pathlib import Path

# OpenBLAS reads its thread count when numpy loads, so this precedes the imports
# below.  One thread: a second only keeps a core busy on a Krylov step's small
# products.  A value already in the environment wins.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

from .errors import ConfigError, NumericalError  # noqa: E402
from .harness import (PRESETS, StudyConfig, cook_reports, preset_config,  # noqa: E402
                      run_bounds_check, run_convergence_sweep, run_field_check,
                      run_gauge_check, run_study, write_json)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="dipolelab",
        description="Convergence sweeps, gauge checks, and error certificates "
                    "for laser-driven Schrodinger dynamics.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", default=None, help="INI study config")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--threads", type=int, default=1, help="worker count")

    common(sub.add_parser("sweep", help="convergence sweep over wavelengths"))
    common(sub.add_parser("gauge-check", help="velocity/length gauge fidelity"))
    common(sub.add_parser("cook", help="certificate bounds vs measured errors"))
    common(sub.add_parser("bounds", help="operator-estimate scans"))
    common(sub.add_parser("field-check", help="envelope diagnostics"))
    preset = sub.add_parser("preset", help="run a built-in study end to end")
    preset.add_argument("name", choices=PRESETS)
    common(preset, needs_config=False)
    return parser


def _load_config(args) -> StudyConfig:
    if args.command == "preset":
        config = preset_config(args.name)
    elif args.config is None:
        raise ConfigError("missing --config <path>")
    else:
        config = StudyConfig.from_ini(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    return replace(config, threads=args.threads)


def _emit(payload: dict, outdir: str, name: str) -> None:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / name
    write_json(path, payload)
    print(f"wrote {path}")


def _report_study(target: Path) -> int:
    """Print a finished study's rows and slope from its files; 2 if a wavelength failed."""
    with open(target / "sweep.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            lam = float(row["lambda"])
            if row["error"]:
                print(f"lambda={lam:<8g} e={float(row['error']):.6e} "
                      f"B={float(row['cook_bound']):.6e}")
            else:
                print(f"lambda={lam:g} FAILED: {row['diagnostic']}")
    manifest = json.loads((target / "manifest.json").read_text())
    print(f"decay slope: {manifest['slope']}")
    print(f"artifacts in {target}")
    return 2 if manifest["partial"] else 0


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse prints its own message; keep exit 1 for configuration
        # problems (its default code 2 is reserved for numerical failures)
        return 0 if exc.code == 0 else 1
    try:
        config = _load_config(args)
        if args.command in ("preset", "sweep"):
            return _report_study(run_study(config, args.out))

        chash = config.config_hash()
        if args.command == "gauge-check":
            report = run_gauge_check(config)
            print(f"min cross-gauge fidelity: {report['min_fidelity']:.9f}")
            _emit({**report, "config_hash": chash}, args.out, "gauge_check.json")
            return 0
        if args.command == "cook":
            reports = cook_reports(run_convergence_sweep(config))
            for rep in reports:
                print(f"lambda={rep['lambda']:<8g} B={rep['bound']:.6e} "
                      f"e={rep['measured_error']:.6e}")
            _emit({"config_hash": chash, "reports": reports}, args.out, "cook_reports.json")
            return 0
        if args.command == "bounds":
            report = run_bounds_check(config)
            print(report.format_table())
            _emit({**asdict(report), "config_hash": chash},
                  args.out, "bounds.json")
            return 0
        if args.command == "field-check":
            report = run_field_check(config)
            for key, val in sorted(report.items()):
                print(f"{key}: {val}")
            _emit({**report, "config_hash": chash}, args.out, "field_check.json")
            return 0
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
