"""Benchmark of the torsionfree package: one workload, one seed, one JSON line.

    python3 perfbench/run.py --workload query --seed 1 --seconds 28 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.  The
load is one closed-loop caller in this single process, without threads.  A
run repeats passes until ``--seconds`` have gone by.  Pass k holds inputs
made from ``(seed, k)`` as fresh objects, with the package's pure-hull cache
cleared, so every pass starts cold.  Building a pass's inputs is set-up;
only the calls into the package are timed, and every answer is checked
against a reference after the pass, outside the timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs each pass
twice on identical inputs, untraced and then traced, and prints the
per-layer metrics of traced pass 0 plus the tracing overhead over all pairs;
the spans of traced pass 0 go to ``perfbench/out/``.  The last line of
standard output is the JSON result.  ``--tiny`` shrinks every pass to a few
operations (see smoke.py).
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MODULES = (
    "linalg", "numutil", "rank1", "groups", "bases", "decomp", "indec",
    "quasi", "jonsson", "oracle", "corpus", "fileformat", "cli",
)
# a run that hangs ends with an error, and no result, after this long
HARD_LIMIT_S = 170
# every run makes at least this many passes; definite_frac covers exactly
# these, so it repeats exactly for a seed however fast the machine is
MIN_PASSES = 3


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    k = math.ceil(len(sorted_values) * q) - 1
    return sorted_values[max(0, min(len(sorted_values) - 1, k))]


class Tally:
    """Outcome accounting over every operation attempted in the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.definite = 0
        self.latencies: list[float] = []
        self.timed_s = 0.0
        self.passes: list[tuple[int, int]] = []  # (definite, attempted) per pass

    def run_pass(self, ops, tracer=None, mode_ops=None, mode_check=None):
        """Time each call, then check every answer; returns the pass's timed seconds."""
        from workloads import Mismatch

        clock = time.perf_counter
        answers = []
        if tracer is not None:
            tracer.mode = mode_ops
        for op in ops:
            t0 = clock()
            try:
                answer, error = op.call(), None
            except Exception as exc:  # classified below, never fatal to the run
                answer, error = None, exc
            t1 = clock()
            self.latencies.append(t1 - t0)
            answers.append((answer, error))
        pass_s = sum(self.latencies[-len(ops):]) if ops else 0.0
        if tracer is not None:
            tracer.mode = mode_check
        definite_before = self.definite
        for op, (answer, error) in zip(ops, answers):
            self.attempted += 1
            if error is not None:
                if not op.is_scope_limited(error):
                    self.failed += 1
                    print(f"# failed {op.kind}: {error!r}", file=sys.stderr)
                continue
            try:
                definite = op.check(answer)
            except Mismatch as exc:
                self.failed += 1
                print(f"# wrong answer from {op.kind}: {exc}", file=sys.stderr)
                continue
            except Exception:
                self.failed += 1
                print(f"# reference check of {op.kind} raised:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
                continue
            self.definite += bool(definite)
        self.passes.append((self.definite - definite_before, len(ops)))
        self.timed_s += pass_s
        return pass_s

    def definite_frac(self) -> float:
        head = self.passes[:MIN_PASSES]
        return sum(d for d, _n in head) / sum(n for _d, n in head)

    def result(self, metrics):
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, seconds: float, fixed_setup_s: float):
    tally = Tally()
    builds = []
    throughputs = []
    passes = 0
    start = time.perf_counter()
    while passes < MIN_PASSES or time.perf_counter() - start < seconds:
        b0 = time.perf_counter()
        ops = workload.build(passes)
        builds.append(time.perf_counter() - b0)
        workload.reset()
        throughputs.append(len(ops) / tally.run_pass(ops))
        passes += 1
    lat = sorted(tally.latencies)
    p90 = percentile(lat, 0.9)
    beyond = sum(1 for x in lat if x > p90)
    print(
        f"# {workload.name} seed={workload.seed} passes={passes} ops={len(lat)} "
        f"timed_s={tally.timed_s:.3f} samples_beyond_p90={beyond} "
        f"definite={tally.definite} failed={tally.failed}"
    )
    if beyond < 10:
        print(f"# warning: only {beyond} samples beyond p90", file=sys.stderr)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": _metric(fixed_setup_s + statistics.median(builds), "s"),
        "ops_per_s": _metric(statistics.median(throughputs), "1/s"),
        "op_p50_ms": _metric(statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": _metric(p90 * 1e3, "ms"),
        "peak_rss_mb": _metric(rss_kb / 1024.0, "MB"),
        "definite_frac": _metric(tally.definite_frac(), "ratio"),
    }
    return tally.result(metrics)


class LayerCounters:
    """Waste and cache counts read from outside the package during a traced pass."""

    def __init__(self, tf, tracer):
        self.tf = tf
        self.splits = 0
        self.bases_searched = 0
        self.partitions_walked = 0
        self.blockings = []
        tracer.hooks.update({
            "decomp.check_splitting_partition": self._on_split,
            "indec.strong_decomposability_witness_search": self._on_witness,
            "quasi.quasi_split_check": self._on_quasi_split,
        })

    def _on_split(self, _args, result, _parent):
        self.splits += bool(result[0])

    def _on_witness(self, args, result, _parent):
        # two-block partitions of a rank-r basis: 2^(r-1) - 1 per basis searched
        self.bases_searched += result.bases_searched
        self.partitions_walked += result.bases_searched * (2 ** (args[0].rank - 1) - 1)

    def _on_quasi_split(self, args, _result, parent):
        if parent == "indec.strong_decomposability_witness_search":
            self.blockings.append((args[0], args[1], args[2]))

    def distinct_span_sets(self) -> int:
        span = self.tf.linalg.Subspace.span
        keys = {
            (id(g), frozenset(span([basis.elements[i] for i in block], g.ambient_dim) for block in partition.blocks))
            for g, basis, partition in self.blockings
        }
        return len(keys)


def pure_hull_info(tf):
    cache = getattr(tf.decomp, "_pure_hull", None)
    if hasattr(cache, "cache_info"):
        return cache.cache_info()
    return None


def per_layer(make_workload, seconds: float, tf):
    from tracer import ALL, OFF, ORACLE, Tracer

    tracer = Tracer()
    tracer.install()
    # the fixed input pool is built once per run; its spans count in pass 0
    tracer.mode = ALL
    workload = make_workload()
    tracer.mode = OFF
    tally = Tally()
    untraced_s = traced_s = 0.0
    metrics = {}
    passes = 0
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < seconds:
        ops = workload.build(passes)
        workload.reset()
        untraced_s += tally.run_pass(ops)

        counters = LayerCounters(tf, tracer) if passes == 0 else None
        if passes:
            tracer.clear()
        tracer.mode = ALL
        ops = workload.build(passes)
        workload.reset()
        traced_s += tally.run_pass(ops, tracer, ALL, ORACLE)
        tracer.mode = OFF
        if passes == 0:
            info = pure_hull_info(tf)
            metrics = layer_metrics(tracer, counters, info)
            path = HERE / "out" / f"spans-{workload.name}-seed{workload.seed}.json.gz"
            written = tracer.write(path)
            print(f"# wrote {written} of {len(tracer.layer)} spans of traced pass 0 to {path.relative_to(ROOT)}")
            tracer.hooks.clear()
        passes += 1
    tracer.clear()
    overhead = traced_s / untraced_s - 1.0
    metrics["trace.overhead_frac"] = _metric(overhead, "ratio")
    print(
        f"# {workload.name} seed={workload.seed} pairs={passes} untraced_s={untraced_s:.3f} "
        f"traced_s={traced_s:.3f} untraced_ops_per_s={tally.attempted / 2 / untraced_s:.2f} "
        f"traced_ops_per_s={tally.attempted / 2 / traced_s:.2f} overhead={overhead:.3f}"
    )
    return tally.result(metrics)


def layer_metrics(tracer, counters, info):
    metrics = {}
    for name, (calls, self_s) in tracer.totals().items():
        metrics[f"{name}.calls"] = _metric(calls, "count")
        metrics[f"{name}.self_s"] = _metric(self_s, "s")
    hull_calls = info.hits + info.misses if info else 0
    metrics["decomp.pure_hull.calls"] = _metric(hull_calls, "count")
    metrics["decomp.pure_hull.hit_ratio"] = _metric(info.hits / hull_calls if hull_calls else 0.0, "ratio")
    metrics["decomp.pure_hull.entries"] = _metric(info.currsize if info else 0, "count")
    checked = metrics["decomp.check_splitting_partition.calls"]["value"]
    metrics["decomp.split_yield"] = _metric(counters.splits / checked if checked else 0.0, "ratio")
    walked = counters.partitions_walked
    distinct = counters.distinct_span_sets()
    metrics["indec.bases_searched"] = _metric(counters.bases_searched, "count")
    metrics["indec.partitions_walked"] = _metric(walked, "count")
    metrics["indec.distinct_span_sets"] = _metric(distinct, "count")
    metrics["indec.distinct_span_ratio"] = _metric(distinct / walked if walked else 0.0, "ratio")
    return metrics


def _timeout(_signum, _frame):
    # SystemExit passes the per-operation ``except Exception`` and ends the run
    raise SystemExit(f"error: run exceeded {HARD_LIMIT_S} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="a few operations per pass")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "torsionfree" / "__init__.py").is_file():
        print(f"error: no package sources at {ROOT / 'src' / 'torsionfree'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(HARD_LIMIT_S)

    t0 = time.perf_counter()
    for module in MODULES:
        importlib.import_module(f"torsionfree.{module}")
    import_s = time.perf_counter() - t0
    tf = sys.modules["torsionfree"]

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    def make_workload():
        return WORKLOADS[args.workload](tf, args.seed, args.tiny)

    if args.trace:
        result = per_layer(make_workload, args.seconds, tf)
    else:
        t0 = time.perf_counter()
        workload = make_workload()
        pool_s = time.perf_counter() - t0
        result = end_to_end(workload, args.seconds, import_s + pool_s)
    signal.alarm(0)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
