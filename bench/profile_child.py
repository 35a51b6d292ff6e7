"""Run one study of a workload under cProfile; write the top-10 by self time.

A diagnostic artifact only, never a metric: cProfile adds cost to every
Python call but not to work inside numpy, which shifts the proportions.  Run
from the root of a checkout; writes .bench_work/<workload>/profile_top10.txt.
"""

import argparse
import cProfile
import contextlib
import io
import pstats
import shutil
from pathlib import Path

from workloads import WORKLOADS, load_program, prepare, study_argv, write_inputs


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    root = Path.cwd()
    cli = load_program(root)
    workload = WORKLOADS[args.workload]
    work = root / ".bench_work" / workload.name
    out = work / "profile_out"
    shutil.rmtree(out, ignore_errors=True)
    ini = write_inputs(workload, args.seed, work)
    prepare(workload, ini, args.seed)
    profiler = cProfile.Profile()
    with contextlib.redirect_stdout(io.StringIO()):
        code = profiler.runcall(cli.main, study_argv(workload, ini, args.seed, out))
    report = io.StringIO()
    pstats.Stats(profiler, stream=report).sort_stats("tottime").print_stats(10)
    (work / "profile_top10.txt").write_text(
        f"# {workload.name} seed {args.seed}: one study under cProfile, "
        f"exit code {code}\n{report.getvalue()}")


if __name__ == "__main__":
    main()
