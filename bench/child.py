"""One fresh interpreter of a benchmark run: set-up, then a study or a probe pass.

Run from the root of a checkout by bench/run.py, which reads the system-wide
monotonic clock just before the spawn.  The child imports the CLI and
prepares the workload's study; set-up ends there.  Then, with ``--mode
study``, it runs one study through the CLI; with ``--mode probe``, one probe
per seed in ``--probe-seeds``, the i-th writing to ``<out>/<i>``; with
``--mode setup``, nothing more.  It prints one JSON line: the import time,
the clock at the end of set-up, each timed call's seconds and exit codes,
and the process's peak resident memory.

A CLI user runs one study per process, and so does the benchmark: a cache the
program keeps between calls in one process cannot shorten a timed study.
"""

import argparse
import json
import resource
import time
from pathlib import Path

from workloads import (WORKLOADS, load_program, prepare, probe_argvs, run_cli,
                       study_argv)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ini", required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "study", "probe"))
    parser.add_argument("--out", required=True)
    parser.add_argument("--probe-seeds", default="")
    args = parser.parse_args()
    workload, ini, out = WORKLOADS[args.workload], Path(args.ini), Path(args.out)

    tick = time.perf_counter()
    cli = load_program(Path.cwd())
    import_s = time.perf_counter() - tick
    prepare(workload, ini, args.seed)
    ready = time.monotonic()

    seconds, codes = [], []
    if args.mode == "study":
        dt, code, raised = run_cli(cli, study_argv(workload, ini, args.seed, out))
        seconds.append(dt)
        codes.append([code, raised])
    elif args.mode == "probe":
        for i, seed in enumerate(int(s) for s in args.probe_seeds.split(",")):
            total, pair = 0.0, []
            for argv in probe_argvs(ini, seed, out / str(i)):
                dt, code, raised = run_cli(cli, argv)
                total += dt
                pair.append(code if raised is None else raised)
            seconds.append(total)
            codes.append(pair)
    print(json.dumps({
        "import_s": import_s, "ready": ready, "seconds": seconds, "codes": codes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}))


if __name__ == "__main__":
    main()
