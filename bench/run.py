"""Benchmark harness for the shirshov engine.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each is here): ``gsb-deg7``,
``s1-build-deg9``, ``nf-corpus`` and ``basis-oracle``.  The harness
imports the package from ``src/`` of the checkout, times set-up (imports,
configuration and input generation, repeated and reported as a median),
then repeats the workload's job for about ``--seconds``.  Every job's
answers are checked; the exact work counts (rules, lifts, compositions,
reduction steps, oracle dimensions) must repeat from job to job, and
between traced and untraced jobs.

Times are read in reference seconds (``hostclock.HostClock``): wall time
corrected for the shared host's changing speed, which a fixed calibration
kernel measures twenty times a second.  The plain wall-clock job time is
printed too, and reported as ``host.wall_s`` in the traced run.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` half the time runs untraced and
half traced, and the JSON carries the per-layer metrics and the tracing
overhead.  The traced run also writes its per-layer table and spans to
``.bench_out/``.  The lines before the JSON list every metric by name
and unit.

The process runs single-threaded under a fixed hash seed (it re-executes
itself with ``PYTHONHASHSEED=0`` when the variable is not set that way).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

from hostclock import HostClock
from tracer import Tracer
from workloads import FACTS, WORKLOADS

HASH_SEED = "0"
SETUPS = 15
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
PACKAGE = "shirshov"


class Lib:
    """The engine's public names, looked up at each use.

    Lookups go through the modules so that the tracer's wrappers, which
    replace names inside those modules, see every call the harness makes.
    """

    def __init__(self):
        names = (PACKAGE, PACKAGE + ".cli", PACKAGE + ".reference", PACKAGE + ".words")
        self._modules = [importlib.import_module(n) for n in names]

    def __getattr__(self, name):
        for m in self._modules:
            if hasattr(m, name):
                return getattr(m, name)
        raise AttributeError(name)


def load_library() -> Lib:
    """Import the package afresh, so each set-up pays for its imports."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    lib = Lib()
    origin = Path(lib._modules[0].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError("%s was imported from %s, not from %s" % (PACKAGE, origin, SRC))
    return lib


def percentile(values, q):
    """Percentile by linear interpolation between order statistics.

    With few samples this reads between them instead of picking one, so a
    median of jobs equals ``statistics.median``.
    """
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


class Run:
    """One benchmark run: set-up, measured jobs, checks and metrics."""

    def __init__(self, workload_name, seed, seconds, trace, size="full", facts=None):
        self.name = workload_name
        self.workload = WORKLOADS[workload_name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.size = size
        self.facts = FACTS[workload_name][size] if facts is None else facts
        self.attempted = 0
        self.failures: list[str] = []
        self.first = None  # the first job's result, checked in full
        self.untraced: list[tuple] = []
        self.traced: list[tuple] = []
        self.tracer = None

    # -- answers ----------------------------------------------------------

    def _verdicts(self):
        """Check the first job's answers against the workload's facts."""
        checked = self.workload.check(self.lib, self.inputs, self.first, self.facts)
        self.attempted += len(checked)
        for label, ok, detail in checked:
            if not ok:
                self.failures.append("%s: %s" % (label, detail))

    def _repeats(self, index, result):
        """A later job's answers and exact counts must equal the first job's.

        The answers are then dropped, so that memory does not grow with
        the number of jobs a run makes.
        """
        first = self.first
        self.attempted += len(result.answers) + 1
        if len(result.answers) != len(first.answers):
            self.failures.append("job %d gave a different number of answers" % index)
        for (label, got), (_, want) in zip(result.answers, first.answers):
            if got != want:
                self.failures.append(
                    "job %d, %s: %r differs from job 1's %r" % (index, label, got, want)
                )
        if result.counts != first.counts:
            self.failures.append(
                "job %d counts %r differ from job 1's %r" % (index, result.counts, first.counts)
            )
        result.answers = result.keep = None

    # -- measuring --------------------------------------------------------

    def _measure(self, seconds, tracer=None):
        """Repeat the job for about ``seconds`` of wall time (at least once).

        Each job is stamped on the host clock's net time and timed in wall
        seconds.  The loop stops at the job boundary nearest the deadline:
        once the next job would end past it by more than half a job.
        """
        jobs = []
        net = self.clock.net
        wall_clock = time.perf_counter
        deadline = wall_clock() + seconds
        while True:
            gc.collect()
            if tracer is not None:
                tracer.reset()
            start, start_net = wall_clock(), net()
            try:
                result = self.workload.job(self.lib, self.inputs, net)
            except Exception as e:  # a raised answer is a failed answer
                self.attempted += 1
                self.failures.append("job raised %s: %s" % (type(e).__name__, e))
                return jobs
            end_net, wall = net(), wall_clock() - start
            if self.first is None:
                self.first = result
            else:
                self._repeats(len(self.untraced) + len(jobs) + 1, result)
            snapshot = tracer.snapshot() if tracer is not None else None
            jobs.append(((start_net, end_net), wall, result, snapshot))
            if wall_clock() + wall / 2 >= deadline:
                return jobs

    def _to_reference(self, jobs):
        """Turn each job's net stamps into reference seconds.

        A traced job's self times are scaled from wall to reference
        seconds by the job's own ratio of the two.
        """
        out = []
        for (a, b), wall, result, snapshot in jobs:
            took = self.clock.ref_between(a, b)
            if result.calls is not None:
                result.calls = [self.clock.ref_between(s, e) for s, e in result.calls]
            for entry in (snapshot or {}).values():
                entry["self_s"] *= took / wall
            out.append((took, wall, result, snapshot))
        return out

    def execute(self):
        self.clock = HostClock().start()
        try:
            setups = []
            for _ in range(SETUPS):
                gc.collect()
                self.clock.resample()
                start = self.clock.net()
                self.lib = load_library()
                self.inputs = self.workload.prepare(self.lib, self.seed, self.size)
                setups.append((start, self.clock.net()))

            span = self.seconds / 2 if self.trace else self.seconds
            self.untraced = self._measure(span)
            if self.trace and self.untraced:
                self.tracer = Tracer(PACKAGE)
                self.tracer.install()
                try:
                    self.traced = self._measure(span, self.tracer)
                finally:
                    self.tracer.uninstall()
        finally:
            self.clock.stop()
        self.setup_s = statistics.median(self.clock.ref_between(a, b) for a, b in setups)
        self.untraced = self._to_reference(self.untraced)
        self.traced = self._to_reference(self.traced)
        if self.first is not None:
            self._verdicts()
            self.first.keep = None
        if self.traced:
            self._layer_counts_repeat()
        return self

    def _layer_counts_repeat(self):
        """Traced call counts and work counts must repeat exactly."""

        def counts(snapshot):
            return {
                name: {k: v for k, v in entry.items() if k != "self_s"}
                for name, entry in snapshot.items()
            }

        first = counts(self.traced[0][3])
        for index, (_, _, _, snapshot) in enumerate(self.traced[1:], start=2):
            self.attempted += 1
            if counts(snapshot) != first:
                self.failures.append("traced job %d layer counts differ from job 1's" % index)

    # -- metrics ----------------------------------------------------------

    @property
    def failed(self):
        return len(self.failures)

    def call_latencies(self) -> list:
        """Per-call reference times of the untraced jobs.

        A job that makes one user-level call is one call.
        """
        calls = []
        for took, _, result, _ in self.untraced:
            calls.extend(result.calls if result.calls is not None else [took])
        return calls

    def end_to_end(self) -> dict:
        """End-to-end metrics; every time is in reference seconds."""
        jobs = [took for took, _, _, _ in self.untraced]
        calls = self.call_latencies()
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        return {
            "setup_s": (self.setup_s, "s"),
            "job_ref_s": (statistics.median(jobs), "s"),
            "calls_per_ref_s": (len(calls) / sum(jobs), "1/s"),
            "call_p50_ref_ms": (1000 * percentile(calls, 0.50), "ms"),
            "call_p99_ref_ms": (1000 * percentile(calls, 0.99), "ms"),
            "peak_rss_mb": (peak, "MB"),
        }

    def per_layer(self) -> dict:
        """Per-layer metrics from the traced jobs.

        Times are medians over the traced jobs; counts come from the first
        traced job, since ``_verdicts`` requires them to repeat exactly.
        """
        snaps = [s for _, _, _, s in self.traced]
        first = snaps[0]
        out = {}
        for metric, name, key, unit in LAYER_METRICS:
            if key == "self_s":
                value = statistics.median(s[name]["self_s"] for s in snaps)
            else:
                value = first[name].get(key, 0)
            out[metric] = (value, unit)
        finds = first["rewriting.find_ambiguities"]
        match = first["rewriting.match"]
        out["rewriting.ambiguity_yield"] = (
            safe_ratio(finds.get("ambiguities", 0), finds.get("lifts_squared", 0)),
            "ratio",
        )
        out["rewriting.match.hit_ratio"] = (safe_ratio(match.get("hits", 0), match["calls"]), "ratio")
        traced = statistics.median(t for t, _, _, _ in self.traced)
        untraced = statistics.median(t for t, _, _, _ in self.untraced)
        out["trace.overhead_s"] = (traced - untraced, "s")
        out["host.wall_s"] = (statistics.median(w for _, w, _, _ in self.untraced), "s")
        out["host.slowdown"] = (statistics.median(self.clock.factors), "ratio")
        out["failed_ratio"] = (safe_ratio(self.failed, self.attempted), "ratio")
        return out

    def write_trace(self):
        """Write the last traced job's per-name table and spans."""
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / ("trace-%s-%d.json" % (self.name, self.seed))
        payload = {
            "workload": self.name,
            "seed": self.seed,
            "stats": self.traced[-1][3],
            "spans": [
                {"id": i, "parent": p, "name": n, "start": a, "end": b}
                for i, p, n, a, b in self.tracer.spans
            ],
        }
        path.write_text(json.dumps(payload, indent=1) + "\n")
        return path


def safe_ratio(num, den):
    return num / den if den else 0.0


# (metric, traced name, statistic, unit)
LAYER_METRICS = tuple(
    (name + "." + key, name, key, "s" if key == "self_s" else "count")
    for name, keys in (
        ("words.occurrences", ("calls", "self_s")),
        ("words.key", ("calls", "self_s")),
        ("algebra.apply_D", ("calls", "self_s", "terms_out")),
        ("algebra.leading", ("calls", "self_s")),
        ("algebra.lie_expand", ("calls", "self_s")),
        ("lyndon.special_expand", ("calls", "self_s")),
        ("lyndon.shirshov_bracket", ("self_s",)),
        ("lyndon.is_alsw_hereditary", ("self_s",)),
        ("syntax.parse_term", ("self_s",)),
        ("syntax.format_term", ("self_s",)),
        ("rewriting.build", ("self_s",)),
        ("rewriting.find_ambiguities", ("self_s",)),
        ("rewriting.composition", ("self_s",)),
        ("rewriting.reduce", ("self_s", "steps")),
        ("rewriting.match", ("calls",)),
        ("rota_baxter.section_rule", ("calls", "self_s")),
        ("rota_baxter.rota_baxter_rule", ("self_s",)),
        ("rota_baxter.drbl_nf", ("self_s", "steps")),
        ("rota_baxter.enumerate_basis", ("self_s",)),
        ("reference.oracle_quotient_dim", ("self_s",)),
    )
    for key in keys
) + (
    ("rewriting.rules", "rewriting.build", "rules", "count"),
    ("rewriting.lifts", "rewriting.build", "lifts", "count"),
    ("rewriting.ambiguities", "rewriting.find_ambiguities", "ambiguities", "count"),
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r; choose from %s" % (args.workload, ", ".join(WORKLOADS)))
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print("error: no %s package under %s" % (PACKAGE, SRC), file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable] + sys.argv, env)
    sys.path.insert(0, str(SRC))
    try:
        load_library()
    except ImportError as e:
        print("error: cannot import %s: %s" % (PACKAGE, e), file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace)).execute()
    print(
        "workload %s seed %d: %d jobs untraced, %d traced; python %s, hash seed %s"
        % (
            args.workload,
            args.seed,
            len(run.untraced),
            len(run.traced),
            sys.version.split()[0],
            HASH_SEED,
        )
    )
    if run.untraced:
        print("calls measured untraced: %d" % len(run.call_latencies()))
        print("counts %s" % json.dumps(run.untraced[0][2].counts, sort_keys=True))
        print(
            "wall_s = %.6g s (median job, plain wall clock); host slow-down median %.3g"
            % (
                statistics.median(w for _, w, _, _ in run.untraced),
                statistics.median(run.clock.factors),
            )
        )
    for line in run.failures[:10]:
        print("FAILED %s" % line, file=sys.stderr)
    if run.trace and run.traced:
        metrics = run.per_layer()
        print("trace written to %s" % run.write_trace().relative_to(ROOT))
    elif not run.trace and run.untraced:
        metrics = run.end_to_end()
        print("failed_ratio = %.6g ratio" % safe_ratio(run.failed, run.attempted))
    else:
        metrics = {}
    for name, (value, unit) in metrics.items():
        print("%s = %.6g %s" % (name, value, unit))
    print(
        json.dumps(
            {
                "correct": run.failed == 0 and bool(metrics),
                "attempted": max(run.attempted, 1),
                "failed": run.failed if metrics else max(run.failed, 1),
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
