"""Pin the reference e(lambda) and B(lambda) per workload.

Run from the root of a checkout:

    python3 bench/pin_reference.py [--seed N]

Runs one study of every workload through the CLI and rewrites
bench/reference.json.  Re-pin only in a change that defines the benchmark,
never in one that claims a gain.
"""

import argparse
import json
import sys
from pathlib import Path

from run import BENCH, environment, pin_thread_pools, study
from workloads import WORKLOADS, load_program, write_inputs

COMMAND = "python3 bench/pin_reference.py"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    pin_thread_pools()
    root = Path.cwd()
    cli = load_program(root)
    pinned = {}
    for name, workload in WORKLOADS.items():
        work = root / ".bench_work" / "pin" / name
        ini = write_inputs(workload, args.seed, work)
        seconds, check = study(cli, workload, ini, args.seed, work / "out", None, None)
        if check.failed:
            print("\n".join(check.reasons), file=sys.stderr)
            return 1
        pinned[name] = {"lambda": check.lambdas, "error": check.errors,
                        "bound": check.bounds, "slope": check.slope,
                        "min_fidelity": check.min_fidelity}
        print(f"{name}: {seconds:.2f} s, e={check.errors}, B={check.bounds}")
    (BENCH / "reference.json").write_text(json.dumps(
        {"command": f"{COMMAND} --seed {args.seed}",
         "environment": environment(root, args.seed),
         "workloads": pinned}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
