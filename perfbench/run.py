#!/usr/bin/env python3
"""Run one twindex benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper-families --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports the package from
``src/`` of that checkout and fails without printing a result when there is
none. One process, one thread, closed loop: the next query is sent only after
the previous answer returned. ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` answers each query three times back to back (warm-up,
untraced, traced) and reports per-layer metrics per pass over the pool. The last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. The full record, with the machine it ran on, and the spans of a
traced run are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPS = 5
# A run also lasts until this many queries, so at least ten lie above p90.
MIN_QUERIES = 110
# A traced run answers whole cycles, each query three times (warm-up,
# untraced, traced), until this share of --seconds has passed.
TRACE_SHARE = 1 / 2
MAX_REPORTED_FAILURES = 3
# Reported times are scaled as if each calibration loop had taken this long
# (about its median on the shared 2-CPU Xeon host the benchmark was tuned on).
CAL_REF_S = 1.5e-3
# A query is scaled by the median of this many probes before it and as many after.
SPEED_WINDOW = 4


class Speed:
    """The machine's current speed, from a fixed loop of benchmark code.

    On a shared host the speed of one CPU swings by up to 1.7x within
    seconds, which moves a 30 s average by 10-20 % from run to run. The probe
    loop (a Python integer loop and small numpy reductions, 1-2 ms) runs
    between queries and slows with the machine; no change to the package can
    alter it. Scaling each wall time by the probes around it more than halves
    that spread.
    """

    def __init__(self) -> None:
        import numpy

        self._buf = numpy.arange(400, dtype=numpy.int64)
        self.probes: list[float] = []

    def probe(self) -> int:
        """Time the loop once; return the index of the probe."""
        start = time.perf_counter()
        acc = 0
        for i in range(20_000):
            acc += i * i
        for _ in range(200):
            self._buf.min()
        self.probes.append(time.perf_counter() - start)
        return len(self.probes) - 1

    def scaled(self, wall_s: float, after: int) -> float:
        """Reference-speed time of ``wall_s``, measured just before probe ``after``."""
        window = self.probes[max(0, after - SPEED_WINDOW) : after + SPEED_WINDOW]
        return wall_s * CAL_REF_S / statistics.median(window)


def load_api(fresh: bool) -> SimpleNamespace:
    """Import the package from ``src/``; ``fresh`` re-executes its modules."""
    if fresh:
        for name in [n for n in sys.modules if n == "twindex" or n.startswith("twindex.")]:
            del sys.modules[name]
    pkg = importlib.import_module("twindex")
    if SRC.resolve() not in Path(pkg.__file__).resolve().parents:
        raise ImportError(f"twindex imported from {pkg.__file__}, not from {SRC}")
    mods = SimpleNamespace(
        algebra=importlib.import_module("twindex.algebra"),
        generators=importlib.import_module("twindex.generators"),
        reduced=importlib.import_module("twindex.reduced"),
        steiner=importlib.import_module("twindex.steiner"),
        twins=importlib.import_module("twindex.twins"),
    )
    return SimpleNamespace(
        family_graph=mods.generators.family_graph,
        twin_partition=mods.twins.twin_partition,
        steiner_wiener_naive=mods.steiner.steiner_wiener_naive,
        steiner_wiener_reduced=mods.reduced.steiner_wiener_reduced,
        new_graph=importlib.import_module("twindex.graph").new_graph,
        REFERENCE_CHECKS=importlib.import_module("twindex.reference").REFERENCE_CHECKS,
        modules=mods,
    )


def set_up(workloads, speed: Speed, name: str, seed: int):
    """Import, build the inputs, load the golden table and warm up, several times.

    Returns the last API and workload and the median scaled set-up time.
    """
    walls = []
    speed.probe()
    for rep in range(SETUP_REPS):
        start = time.perf_counter()
        api = load_api(fresh=rep > 0)
        workload = workloads.build(api, name, seed)
        workload.query(api, workload.warmup)
        walls.append((time.perf_counter() - start, speed.probe()))
    return api, workload, statistics.median(speed.scaled(*w) for w in walls)


def run_cycles(api, workload, speed: Speed, order, seconds: float, min_queries: int = 0, tracer=None):
    """Answer whole cycles from ``order`` until ``seconds`` have passed and
    ``min_queries`` were answered.

    Returns the records ``(item, answer, error, wall_s, scaled_s)``, the wall
    time and the cycles played.
    """
    records = []
    played = []
    start = time.perf_counter()
    speed.probe()
    for cycle in order:
        for item in cycle:
            q0 = time.perf_counter()
            try:
                if tracer is None:
                    answer = workload.query(api, item)
                else:
                    answer = tracer.run_query(workload.query, api, item)
                error = None
            except Exception as exc:  # a failed query is counted, and the run goes on
                answer, error = None, exc
            records.append((item, answer, error, time.perf_counter() - q0, speed.probe()))
        played.append(cycle)
        if time.perf_counter() - start >= seconds and len(records) >= min_queries:
            break
    wall_s = time.perf_counter() - start
    records = [(*r[:4], speed.scaled(r[3], r[4])) for r in records]
    return records, wall_s, played


def run_paired(api, workload, speed: Speed, tracer, order, seconds: float):
    """Answer whole cycles, each query once to warm up, then untraced and traced.

    The first run of a query in a process is slower (its memory is not yet
    mapped), so it is left out; the two measured runs follow back to back, so
    they see the same machine speed, and swap order from query to query.
    Returns the warm-up, untraced and traced records and the cycles played.
    """
    warm, plain, traced, played = [], [], [], []
    start = time.perf_counter()
    for cycle in order:
        for i, item in enumerate(cycle):
            warm += run_cycles(api, workload, speed, [[item]], 0)[0]
            for side in (False, True) if i % 2 == 0 else (True, False):
                if side:
                    traced_api = tracer.install(api)
                    try:
                        traced += run_cycles(traced_api, workload, speed, [[item]], 0, tracer=tracer)[0]
                    finally:
                        tracer.uninstall()
                else:
                    plain += run_cycles(api, workload, speed, [[item]], 0)[0]
        played.append(cycle)
        if time.perf_counter() - start >= seconds:
            break
    return warm, plain, traced, played


def count_failures(api, workload, records) -> int:
    """Check every answer; a wrong value and an exception both count."""
    failed = 0
    for item, answer, error, *_ in records:
        if error is None:
            try:
                ok = workload.check(api, workload, item, answer)
            except Exception as exc:  # the check itself failed: count it, keep going
                ok, error = False, exc
            else:
                if not ok:
                    error = f"wrong answer {answer!r}"
        if error is not None:
            failed += 1
            if failed <= MAX_REPORTED_FAILURES:
                detail = (
                    "".join(traceback.format_exception(error))
                    if isinstance(error, BaseException)
                    else error
                )
                print(f"FAILED {item.key}: {detail}", file=sys.stderr)
    return failed


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "twindex").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine(load_at_start) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_at_start": load_at_start,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def latency_summary(latencies, ok: int) -> tuple[float, float, float]:
    """p50 and p90 in ms, and correct answers per second of query time."""
    p90 = statistics.quantiles(latencies, n=10)[8]
    return statistics.median(latencies) * 1e3, p90 * 1e3, ok / sum(latencies)


def end_to_end(records, failed: int, setup_s: float):
    """End-to-end metrics at reference speed, and the same figures in wall time."""
    ok = len(records) - failed
    p50, p90, qps = latency_summary([r[4] for r in records], ok)
    metrics = {
        "query_p50_ms": (p50, "ms"),
        "query_p90_ms": (p90, "ms"),
        "queries_per_s": (qps, "1/s"),
        "correct_frac": (ok / len(records), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    wall = dict(zip(("query_p50_ms", "query_p90_ms", "queries_per_s"),
                    latency_summary([r[3] for r in records], ok)))
    samples = {"samples": len(records), "above_p90": sum(r[4] * 1e3 > p90 for r in records)}
    return metrics, {**samples, "wall_clock": wall}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "twindex" / "__init__.py").is_file():
        print(f"no twindex sources under {SRC}", file=sys.stderr)
        return 2
    # One thread: numpy reads these when the package first imports it.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    load_at_start = os.getloadavg()
    speed = Speed()
    api, workload, setup_s = set_up(workloads, speed, args.workload, args.seed)
    order = workloads.cycles(workload.items, workloads.stream_rng(args.workload, args.seed))

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.trace == 0:
        records, wall_s, played = run_cycles(api, workload, speed, order, args.seconds, MIN_QUERIES)
        failed = count_failures(api, workload, records)
        metrics, samples = end_to_end(records, failed, setup_s)
        info.update(samples, cycles=len(played), timed_s=wall_s)
    else:
        tracer = Tracer()
        warm, plain, traced, played = run_paired(api, workload, speed, tracer, order, args.seconds * TRACE_SHARE)
        records = warm + plain + traced
        failed = count_failures(api, workload, records)
        scaled_traced = sum(r[4] for r in traced)
        metrics = tracer.layer_metrics(
            passes=len(played),
            time_scale=scaled_traced / sum(r[3] for r in traced),
            overhead_frac=scaled_traced / sum(r[4] for r in plain) - 1,
        )
        tracer.write(OUT / f"spans-{stem}.csv.gz")
        info.update(cycles=len(played), spans=len(tracer.spans))

    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    info["machine"] = machine(load_at_start)
    # Per query: key, wall seconds, reference-speed seconds.
    latencies = [[r[0].key, r[3], r[4]] for r in records]
    record = {**info, **result, "latencies": latencies, "probes": speed.probes}
    (OUT / f"{stem}-trace{args.trace}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
