"""Run the benchmark over several seeds and report run-to-run spread.

Usage, from the root of a source checkout::

    python3 bench/spread.py --workloads gsb-deg7,nf-corpus --seeds 1-10 \
        [--trace 0|1] [--out bench/baseline.json]

Runs ``bench/run.py`` once per (workload, seed), one run at a time, and
prints, for each metric, the median, the quartiles and the spread
(interquartile range over median, quartiles as ``statistics.quantiles(n=4)``
gives them) next to the bound in BENCHMARK.json.  It fails when a run is
incorrect or when the exact work counts differ between runs that must
agree: across all seeds for workloads whose inputs do not depend on the
seed, and across runs of the same seed otherwise.  ``--out`` writes the
values, the summary and the environment (Python, commit, CPU count, hash
seed, CPU model) as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDED = {"nf-corpus"}  # workloads whose inputs depend on the seed
RUN_TIMEOUT_S = 180


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def one_run(workload, seed, seconds, trace):
    cmd = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("%s failed (%d): %s" % (" ".join(cmd), proc.returncode, proc.stderr))
    result = json.loads(lines[-1])
    counts = next(line[len("counts "):] for line in lines if line.startswith("counts "))
    return result, counts


def environment():
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "commit": commit,
        "nproc": os.cpu_count(),
        "hash_seed": "0",
        "cpu": cpu,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    seeds = parse_seeds(args.seeds)
    report = {"environment": environment(), "run_seconds": seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list] = {}
        counts_by_key: dict[object, set] = {}
        for seed in seeds:
            result, counts = one_run(workload, seed, seconds, args.trace)
            if not result["correct"]:
                print("%s seed %d: incorrect, %d of %d failed" % (
                    workload, seed, result["failed"], result["attempted"]))
                ok = False
            key = seed if workload in SEEDED else None
            counts_by_key.setdefault(key, set()).add(counts)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for key, seen in counts_by_key.items():
            if len(seen) != 1:
                print("%s: exact counts differ between runs%s: %s" % (
                    workload, "" if key is None else " of seed %d" % key, sorted(seen)))
                ok = False
        summary = {}
        print("%s (%d runs)" % (workload, len(seeds)))
        for name, vals in values.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / q2 if q2 else 0.0
            bound = bounds.get(name)
            summary[name] = {"median": q2, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            flag = ""
            if bound is not None:
                flag = "bound %.2f%s" % (bound, "" if spread < bound / 3 else "  WIDE")
            print("  %-36s median %-12.6g spread %6.3f  %s" % (name, q2, spread, flag))
        report["workloads"][workload] = {
            "seeds": seeds,
            "counts": sorted(set().union(*counts_by_key.values())),
            "metrics": summary,
        }
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
