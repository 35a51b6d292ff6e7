"""Summarise a set of benchmark runs recorded under .bench_work/results.

Run from the root of a checkout after any number of bench/run.py runs:

    python3 bench/check_sets.py [results-dir]

For each workload it prints every end-to-end metric's median and quartile
spread as a share of the median (the statistic BENCHMARK.json bounds), then
checks across all runs that the masked data-file hashes agree (seeds, traced
and untraced), that probe fingerprints differ between seeds, and that traced
counts repeat exactly on one seed and, apart from the seed-driven probe
count, across seeds.  Exits 1 when a check fails.
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

SEED_DRIVEN = {"bounds.resolvent_calls"}


def spread(values) -> tuple[float, float]:
    """(median, (q3 - q1) / median) as statistics.quantiles gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    runs = defaultdict(list)
    results = Path(sys.argv[1]) if len(sys.argv) > 1 else root / ".bench_work" / "results"
    for path in sorted(results.glob("*.json")):
        record = json.loads(path.read_text())
        runs[record["workload"]].append(record)
    ok = True
    for workload, records in sorted(runs.items()):
        plain = [r for r in records if r["trace"] == 0]
        traced = [r for r in records if r["trace"] == 1]
        print(f"{workload}: {len(plain)} untraced, {len(traced)} traced runs, "
              f"{sum(r['failed'] for r in records)} failed operations")
        ok &= all(r["failed"] == 0 for r in records)
        if len(plain) >= 2:
            for name, bound in bounds.items():
                median, share = spread([r["values"][name] for r in plain])
                flag = "" if share < bound / 3 else (
                    "  ABOVE BOUND/3" if share < bound else "  ABOVE BOUND")
                print(f"  {name:12s} median {median:.6g}  spread {share:.4f}"
                      f"  bound {bound}{flag}")
        hashes = {json.dumps(r["hashes"], sort_keys=True) for r in records}
        print(f"  data-file hashes identical across {len(records)} runs: {len(hashes) == 1}")
        ok &= len(hashes) == 1
        by_seed = defaultdict(set)
        for r in records:
            by_seed[r["seed"]].add(r["probe_fingerprint"])
        if len(by_seed) >= 2:
            distinct = (all(len(fs) == 1 for fs in by_seed.values())
                        and len(set().union(*by_seed.values())) == len(by_seed))
            print(f"  probe results differ between all {len(by_seed)} seeds "
                  f"and repeat on each: {distinct}")
            ok &= distinct
        for seed in sorted({r["seed"] for r in traced}):
            same = {json.dumps({k: r["values"][k] for k in counts})
                    for r in traced if r["seed"] == seed}
            print(f"  traced counts repeat on seed {seed}: {len(same) == 1}")
            ok &= len(same) == 1
        if traced:
            study_counts = {json.dumps({k: r["values"][k] for k in counts
                                        if k not in SEED_DRIVEN}) for r in traced}
            print(f"  study counts equal across traced seeds: {len(study_counts) == 1}")
            ok &= len(study_counts) == 1
            overhead = [r["values"]["trace.overhead_s"] for r in traced]
            print(f"  tracing overhead per traced run (traced - untraced study): "
                  f"{', '.join(f'{o:.3f}' for o in overhead)} s")
            if plain:
                traced_s = statistics.median(r["values"]["trace.study_s"] for r in traced)
                plain_s = statistics.median(r["values"]["study_s"] for r in plain)
                print(f"  median traced study {traced_s:.3f} s against median "
                      f"study_s {plain_s:.3f} s: overhead {traced_s - plain_s:+.3f} s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
