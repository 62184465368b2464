"""Self-test of the benchmark harness at tiny sizes.

Usage, from the root of a source checkout::

    python3 bench/selftest.py

For every workload it runs one tiny job untraced and one traced, and
requires no failed answer, identical exact counts and every metric that
BENCHMARK.json names.  It then plants one wrong expected answer per
workload and requires the run to report a nonzero ``failed_ratio``.
Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import sys

import run
from workloads import FACTS, WORKLOADS

# One wrong expected answer per workload, added to its tiny-size facts.
PLANTED = {
    "gsb-deg7": {"uncertified": 1},
    "s1-build-deg9": {"nonzero_identities": 1},
    "nf-corpus": {"identity_output": "1"},
    "basis-oracle": {"dims": (2, 5, 18)},
}


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    problems = []
    for name in WORKLOADS:
        clean = run.Run(name, seed=1, seconds=0.01, trace=True, size="tiny").execute()
        layers = clean.per_layer()
        ratio = layers["failed_ratio"][0]
        if clean.failed or not clean.attempted:
            problems.append("%s: clean tiny run failed: %s" % (name, clean.failures[:3]))
        if set(layers) != per_layer:
            problems.append("%s: per-layer metrics differ from BENCHMARK.json" % name)
        if set(clean.end_to_end()) != end_to_end:
            problems.append("%s: end-to-end metrics differ from BENCHMARK.json" % name)

        facts = dict(FACTS[name]["tiny"], **PLANTED[name])
        planted = run.Run(name, seed=1, seconds=0.01, trace=False, size="tiny", facts=facts)
        planted.execute()
        planted_ratio = run.safe_ratio(planted.failed, planted.attempted)
        if planted_ratio == 0:
            problems.append("%s: planted wrong answer %r was not caught" % (name, PLANTED[name]))
        print(
            "%-14s clean failed_ratio %.3g of %d, planted failed_ratio %.3g of %d"
            % (name, ratio, clean.attempted, planted_ratio, planted.attempted)
        )
    for line in problems:
        print("PROBLEM %s" % line)
    print("selftest %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
