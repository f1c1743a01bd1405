#!/usr/bin/env python3
"""Benchmark of the exotictilt library and CLI.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload hecke|tilt|cli_qanalogue \\
        --seed N --seconds S --trace 0|1 [--trace-out FILE]

One process runs one workload as a closed loop with a single client.  It
imports the library from ``src/`` of the checkout, generates the query list
from the seed, and runs whole passes over the list until ``--seconds`` have
gone by; each pass starts from fresh state (new root systems, an empty cache
file).  Every output is checked afterwards, untimed: against the committed
digests for the default seed, otherwise against an independent oracle.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced pass and reports the per-layer metrics of
``tracer.py``; ``--trace-out`` also writes the spans as JSON lines.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import random
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

from tracer import LAYERS, PER_LAYER_UNITS, Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "exotictilt"
DIGESTS = Path(__file__).resolve().parent / "expected_digests.json"
DEFAULT_SEED = 0
EXTRA_SETUPS = 8

END_TO_END_UNITS = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class SourceMissing(RuntimeError):
    pass


def import_library():
    """Import exotictilt afresh from ``src/`` of this checkout."""
    init = SRC / PACKAGE / "__init__.py"
    if not init.is_file():
        raise SourceMissing(f"no library source at {init}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    if Path(pkg.__file__).resolve() != init.resolve():
        raise SourceMissing(f"{PACKAGE} was imported from {pkg.__file__}, not {init}")
    return SimpleNamespace(**{
        layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS
    })


def query_key(query):
    return json.dumps(query, sort_keys=True, separators=(",", ":"))


def digest(canonical):
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_digests(workload):
    with open(DIGESTS) as fh:
        doc = json.load(fh)
    return doc["workloads"].get(workload, {})


def tail_percentile(values):
    """p90, or, below 100 samples, the highest percentile that still has at
    least ten samples beyond it; returns (value, percentile)."""
    n = len(values)
    if n >= 100:
        return statistics.quantiles(values, n=10)[-1], 90.0
    ordered = sorted(values)
    idx = max(0, n - 11)
    return ordered[idx], 100.0 * idx / max(1, n - 1)


class Outputs:
    """Keeps, per distinct query, the first output and its digest, and
    counts the executions that failed."""

    def __init__(self, workload):
        self.workload = workload
        # key -> (lib, query, raw) of the first output; its lib, because each
        # pass imports the library afresh and classes compare by identity
        self.first = {}
        self.digests = {}     # key -> digest of the first output
        self.matches = {}     # key -> executions that reproduced it
        self.attempted = 0
        self.failed = 0

    def record(self, lib, query, raw, error):
        key = query_key(query)
        self.attempted += 1
        if error is not None:
            self.failed += 1
            return
        try:
            d = digest(self.workload.canonical(lib, query, raw))
        except Exception:
            self.failed += 1
            return
        if self.digests.setdefault(key, d) != d:
            self.failed += 1
            return
        self.first.setdefault(key, (lib, query, raw))
        self.matches[key] = self.matches.get(key, 0) + 1

    def verify(self, expected):
        """Check each distinct output once: against ``expected`` digests when
        given, otherwise against the workload's oracle.  Every execution
        that reproduced a wrong output counts as failed."""
        oracles = {}   # id(lib) -> that library's oracle root systems
        for key, d in self.digests.items():
            if expected is not None:
                ok = expected.get(key) == d
            else:
                lib, query, raw = self.first[key]
                oracle = oracles.setdefault(id(lib), {})
                try:
                    ok = bool(self.workload.check(lib, oracle, query, raw))
                except Exception:
                    ok = False
            if not ok:
                self.failed += self.matches[key]
        return self.failed


@contextlib.contextmanager
def scratch_dir():
    """A temp directory inside the checkout (the benchmark writes nowhere
    else), removed with its parent ``.bench_tmp`` when done."""
    parent = ROOT / ".bench_tmp"
    parent.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=parent) as tmpdir:
            yield tmpdir
    finally:
        with contextlib.suppress(OSError):
            parent.rmdir()


def run_pass(workload, lib, state, queries, outputs, tracer=None):
    """One timed pass over the query list; returns (loop seconds, latencies).
    Outputs are recorded after the loop so bookkeeping stays out of it."""
    raws = []
    latencies = []
    clock = time.perf_counter
    start = clock()
    for i, query in enumerate(queries):
        t0 = clock()
        try:
            if tracer is None:
                raw = workload.execute(lib, state, query)
            else:
                with tracer.query(i, query[0]):
                    raw = workload.execute(lib, state, query)
                if workload.cold:
                    tracer.harvest()
            error = None
        except Exception as exc:
            raw, error = None, exc
        latencies.append(clock() - t0)
        raws.append((raw, error))
    loop = clock() - start
    for query, (raw, error) in zip(queries, raws):
        outputs.record(lib, query, raw, error)
    return loop, latencies


def run_workload(name, seed, seconds, trace, expected=None, limit=None,
                 trace_out=None):
    """Run one workload; returns the result object printed by ``main`` and a
    dict of run facts (passes, sample counts) for the human-readable lines.

    ``expected`` maps query keys to digests; by default the committed
    digests are used for the default seed and oracles for any other seed.
    ``limit`` truncates the query list (for smoke tests).
    """
    workload = WORKLOADS[name]
    if expected is None and seed == DEFAULT_SEED:
        expected = load_digests(name)
    with scratch_dir() as tmpdir:
        return _run(workload, seed, seconds, trace, expected, limit, trace_out,
                    tmpdir)


def _run(workload, seed, seconds, trace, expected, limit, trace_out, tmpdir):
    setup_times = []

    def setup():
        # what a new script run or process pays before its first query
        t0 = time.perf_counter()
        lib = import_library()
        queries = workload.make_queries(lib, random.Random(seed))[:limit]
        ctx = workload.prepare(lib, queries, tmpdir)
        state = workload.start_pass(lib, ctx)
        setup_times.append(time.perf_counter() - t0)
        return lib, queries, ctx, state

    # Set-up also runs before every pass, so its samples spread over the run.
    for _ in range(EXTRA_SETUPS):
        setup()
    outputs = Outputs(workload)
    deadline = time.perf_counter() + seconds
    loop_s, latencies, layer_runs, tracer, passes = 0.0, [], [], None, 0
    while True:
        lib, queries, ctx, state = setup()
        # Each pass runs the same queries in its own seeded order, so a run
        # averages over several orders of memo and cache filling.
        queries = list(queries)
        random.Random(f"{seed}/{passes}").shuffle(queries)
        plain_s, lat = run_pass(workload, lib, state, queries, outputs)
        if not trace:
            loop_s += plain_s
            latencies.extend(lat)
        else:
            tracer = Tracer(lib)
            tracer.install()
            try:
                state = workload.start_pass(lib, ctx)
                tracer.reset()
                traced_s, _ = run_pass(workload, lib, state, queries, outputs,
                                       tracer)
                tracer.harvest()
            finally:
                tracer.uninstall()
            extra = workload.pass_stats(state)
            extra["trace.overhead_frac"] = traced_s / plain_s - 1.0
            layer_runs.append(tracer.metrics(extra))
        passes += 1
        if time.perf_counter() >= deadline:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed = outputs.verify(expected)
    info = {"passes": passes, "distinct queries": len(outputs.digests),
            "set-ups": len(setup_times)}
    if trace:
        metrics = {
            name: {"value": statistics.median(run[name] for run in layer_runs),
                   "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
        }
        if trace_out:
            with open(trace_out, "w") as fh:
                for rec in tracer.span_records():
                    fh.write(json.dumps(rec) + "\n")
    else:
        p90, pct = tail_percentile(latencies)
        values = {
            "setup_s": statistics.median(setup_times),
            "queries_per_s": len(latencies) / loop_s,
            "latency_p50_ms": 1e3 * statistics.median(latencies),
            "latency_p90_ms": 1e3 * p90,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
        info["latency samples"] = len(latencies)
        info["latency_p90_ms percentile"] = pct
    return {
        "correct": failed == 0,
        "attempted": outputs.attempted,
        "failed": failed,
        "metrics": metrics,
    }, info


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="write the traced spans here")
    args = parser.parse_args(argv)
    # The benchmark never uses a user's Kostant cache directory.
    os.environ.pop("EXOTIC_CACHE_DIR", None)
    try:
        result, info = run_workload(args.workload, args.seed, args.seconds,
                                    bool(args.trace), trace_out=args.trace_out)
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for name, value in info.items():
        print(f"{name} = {value:.6g}")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"queries attempted = {result['attempted']}, failed = {result['failed']}, "
          f"failed_frac = {result['failed'] / result['attempted']:.6g}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
