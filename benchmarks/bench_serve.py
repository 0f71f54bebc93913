"""Serving benchmark: snapshot build/load costs and sustained QPS.

Builds the ``medium``-scenario snapshot, measures the compile /
serialize / load legs, drives the asyncio server with the closed-loop
load generator, then measures the path-prediction endpoints (cold
per-origin propagation vs route-table-cached queries, against a plain
``/asns/{asn}`` yardstick) and records everything into
``reports/BENCH_serve.json``.

The committed JSON is the regression baseline for
``check_regression.py``: alongside the throughput it stores a
``calibration`` number — the wall time of a fixed pure-python workload
(:func:`repro.serve.loadgen.calibration_workload`) on the machine that
produced the report — so a slower CI runner rescales the committed
throughput instead of flagging phantom regressions.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import time

from repro.asrank import ASRank
from repro.scenarios import get_scenario
from repro.serve.loadgen import (
    LoadGenConfig,
    calibration_workload,
    run_loadgen,
    run_loadgen_procs,
)
from repro.serve.server import ServerThread
from repro.serve.store import SnapshotStore, load_snapshot, save_snapshot
from repro.serve.workers import WorkerFleet, memory_stats

SCENARIO = "medium"
REQUESTS = 30_000
CONNECTIONS = 8
WORKER_COUNTS = (1, 2, 4, 8)
WORKER_REQUESTS = 4_000  # per load generator; two generators per leg
LOADGEN_PROCS = 2
REPORT_FILE = os.path.join(
    os.path.dirname(__file__), "reports", "BENCH_serve.json"
)
PATH_DSTS = 24
PATH_SRCS_PER_DST = 8


def _percentile(samples, q):
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def paths_leg(store):
    """Cold vs route-table-cached path latency, plus an /asns yardstick.

    Runs against a fresh server (empty response cache and route-table
    LRU) so every sample is a first request for its URL: ``cold``
    queries pay one ``propagate_batch`` per new origin, ``warm``
    queries (same destination, different source) hit the cached route
    table, and the ``asn`` yardstick is the plain per-AS lookup the
    committed throughput baselines are built from.  Sequential on one
    connection — these are service times, not queue times.
    """
    import http.client

    asns = store.current.asns
    step = max(1, len(asns) // PATH_DSTS)
    dsts = asns[::step][:PATH_DSTS]
    srcs = asns[1::step][:PATH_SRCS_PER_DST] or asns[:1]

    thread = ServerThread(store)
    host, port = thread.start()
    conn = http.client.HTTPConnection(host, port, timeout=30)
    errors = 0

    def timed(target):
        nonlocal errors
        start = time.perf_counter()
        conn.request("GET", target)
        response = conn.getresponse()
        response.read()
        if response.status != 200:
            errors += 1
        return (time.perf_counter() - start) * 1000.0

    cold, warm, asn_ms = [], [], []
    try:
        # spin up the connection and the compute-pool threads before
        # timing anything; the sacrificial origin is not in the sample
        spinup = next(a for a in reversed(asns) if a not in dsts)
        for _ in range(20):
            timed(f"/paths/{srcs[0]}/{spinup}")
            timed(f"/asns/{srcs[0]}")
        errors = 0
        for dst in dsts:
            cold.append(timed(f"/paths/{srcs[0]}/{dst}"))
            for src in srcs[1:]:
                if src != dst:
                    warm.append(timed(f"/paths/{src}/{dst}"))
        for asn in asns[: len(warm)]:
            asn_ms.append(timed(f"/asns/{asn}"))
    finally:
        conn.close()
        thread.stop()

    return {
        "errors": errors,
        "cold_samples": len(cold),
        "warm_samples": len(warm),
        "cold_p50_ms": round(_percentile(cold, 0.50), 3),
        "cold_p99_ms": round(_percentile(cold, 0.99), 3),
        "warm_p50_ms": round(_percentile(warm, 0.50), 3),
        "warm_p99_ms": round(_percentile(warm, 0.99), 3),
        "asn_p50_ms": round(_percentile(asn_ms, 0.50), 3),
        "asn_p99_ms": round(_percentile(asn_ms, 0.99), 3),
    }


def workers_leg(path: str, size_bytes: int) -> dict:
    """Fan the load generator out against 1/2/4/8 pre-fork workers.

    Every fleet maps the same snapshot file read-only (``mode="mmap"``)
    so the per-worker ``private_kb`` column is the proof of page
    sharing: it must stay far below the snapshot size no matter how
    many workers fault the payload in.  ``scaling_efficiency`` is
    throughput relative to perfect linear scaling over the 1-worker
    point; on a single-CPU machine every multi-worker point is
    expected to sit near ``1 / workers`` — ``cpus`` is recorded so
    consumers (``check_regression.py``) can tell the difference
    between a contended box and a real regression.
    """
    legs = []
    single_rps = None
    for count in WORKER_COUNTS:
        fleet = WorkerFleet(path, workers=count, mode="mmap")
        host, port = fleet.start()
        try:
            run_loadgen(
                LoadGenConfig(host=host, port=port, requests=1_000,
                              connections=CONNECTIONS, seed=3)
            )
            report = run_loadgen_procs(
                LoadGenConfig(host=host, port=port,
                              requests=WORKER_REQUESTS,
                              connections=CONNECTIONS, seed=4),
                procs=LOADGEN_PROCS,
            )
            stats = [memory_stats(pid) for pid in fleet.pids()]
        finally:
            fleet.stop()
        if single_rps is None:
            single_rps = report.throughput
        stats = [entry for entry in stats if entry is not None]
        per_worker = None
        if stats:
            per_worker = {
                key: round(sum(s[key] for s in stats) / len(stats), 1)
                for key in ("rss_kb", "pss_kb", "private_kb", "shared_kb")
            }
        legs.append({
            "workers": count,
            "requests": report.requests,
            "errors": report.errors,
            "seconds": round(report.seconds, 4),
            "throughput_rps": round(report.throughput, 1),
            "p50_ms": round(report.percentile(0.50), 3),
            "p99_ms": round(report.percentile(0.99), 3),
            "scaling_efficiency": round(
                report.throughput / (count * single_rps), 3
            ),
            "memory_per_worker": per_worker,
        })
        line = (
            f"workers={count}: {report.throughput:,.0f} req/s, "
            f"p50 {report.percentile(0.50):.2f}ms, "
            f"p99 {report.percentile(0.99):.2f}ms, "
            f"{report.errors} errors, "
            f"efficiency {legs[-1]['scaling_efficiency']:.2f}"
        )
        if per_worker:
            line += (
                f", private {per_worker['private_kb']:.0f} kB/worker "
                f"(snapshot {size_bytes // 1024} kB)"
            )
        print(line)
    return {
        "cpus": os.cpu_count(),
        "loadgen_procs": LOADGEN_PROCS,
        "snapshot_bytes": size_bytes,
        "legs": legs,
    }


def main() -> int:
    print(f"building {SCENARIO} scenario ...")
    _graph, _corpus, paths, result = get_scenario(SCENARIO).run()
    facade = ASRank(paths)
    facade._result = result

    start = time.perf_counter()
    snapshot = facade.snapshot(source=f"scenario:{SCENARIO}")
    build_seconds = time.perf_counter() - start

    scratch = tempfile.mkdtemp(prefix="repro-bench-serve-")
    path = os.path.join(scratch, f"{SCENARIO}.snap")
    start = time.perf_counter()
    save_snapshot(snapshot, path)
    save_seconds = time.perf_counter() - start
    size_bytes = os.path.getsize(path)

    start = time.perf_counter()
    load_snapshot(path)
    load_eager_seconds = time.perf_counter() - start
    start = time.perf_counter()
    load_snapshot(path, mode="mmap")
    load_mmap_seconds = time.perf_counter() - start

    store = SnapshotStore(snapshot=snapshot, path=path)
    thread = ServerThread(store)
    host, port = thread.start()
    try:
        # short warmup fills the response cache before the timed run
        run_loadgen(
            LoadGenConfig(host=host, port=port, requests=2_000,
                          connections=CONNECTIONS, seed=1)
        )
        report = run_loadgen(
            LoadGenConfig(host=host, port=port, requests=REQUESTS,
                          connections=CONNECTIONS, seed=2)
        )
        metrics = thread.server.metrics.view()
    finally:
        thread.stop()

    paths_report = paths_leg(store)

    print("worker fleet scaling ...")
    workers_report = workers_leg(path, size_bytes)

    calibration = calibration_workload()

    payload = {
        "scenario": SCENARIO,
        "snapshot": {
            "version": snapshot.version,
            "ases": len(snapshot),
            "bytes": size_bytes,
            "build_seconds": round(build_seconds, 4),
            "save_seconds": round(save_seconds, 4),
            "load_eager_seconds": round(load_eager_seconds, 4),
            "load_mmap_seconds": round(load_mmap_seconds, 4),
        },
        "load": {
            "requests": report.requests,
            "connections": report.connections,
            "errors": report.errors,
            "not_found": report.not_found,
            "seconds": round(report.seconds, 4),
            "throughput_rps": round(report.throughput, 1),
            "p50_ms": round(report.percentile(0.50), 3),
            "p99_ms": round(report.percentile(0.99), 3),
            "cache_hit_rate": metrics["cache"]["hit_rate"],
        },
        "paths": paths_report,
        "workers": workers_report,
        "calibration": round(calibration, 4),
    }

    os.makedirs(os.path.dirname(REPORT_FILE), exist_ok=True)
    with open(REPORT_FILE, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print(
        f"snapshot {snapshot.version}: {len(snapshot)} ASes, "
        f"{size_bytes} bytes, build {build_seconds:.3f}s, "
        f"save {save_seconds:.3f}s, load {load_eager_seconds:.3f}s "
        f"(mmap {load_mmap_seconds:.3f}s)"
    )
    print(
        f"load: {report.requests} requests / {report.connections} conns "
        f"-> {report.throughput:,.0f} req/s, p50 "
        f"{report.percentile(0.50):.2f}ms, p99 "
        f"{report.percentile(0.99):.2f}ms, {report.errors} errors, "
        f"cache hit rate {metrics['cache']['hit_rate']:.0%}"
    )
    print(
        f"paths: cold p50 {paths_report['cold_p50_ms']:.2f}ms / "
        f"p99 {paths_report['cold_p99_ms']:.2f}ms, "
        f"warm p50 {paths_report['warm_p50_ms']:.2f}ms / "
        f"p99 {paths_report['warm_p99_ms']:.2f}ms, "
        f"asn yardstick p99 {paths_report['asn_p99_ms']:.2f}ms"
    )
    print(f"calibration workload: {calibration:.4f}s")
    print(f"wrote {REPORT_FILE}")

    if report.errors:
        print(f"FAIL: {report.errors} transport/5xx errors during the run")
        return 1
    if paths_report["errors"]:
        print(f"FAIL: {paths_report['errors']} non-200s in the paths leg")
        return 1
    worker_errors = sum(leg["errors"] for leg in workers_report["legs"])
    if worker_errors:
        print(f"FAIL: {worker_errors} errors across the worker legs")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
