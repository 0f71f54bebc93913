"""Bench-regression smoke checks: collection, snapshot build, serving
and the era timeline.

Seven legs, run in this order; the first one that fails ends the run
with exit code 1.  Legs gated against a committed report fail on a
>``TOLERANCE`` regression after machine calibration (below):

1. the E00 300-AS scale point's `propagate+collect` time vs
   ``reports/BENCH_e00.json`` (the cheapest point, a few hundred
   milliseconds);
2. the internet-scale smoke: collection over a 10k-AS power-law world
   (a downscaled replica of the 100k point) vs the ``internet_smoke``
   time committed in ``reports/BENCH_e00.json`` — guards the
   internet-scale hot paths (``array_state`` rows, 64-origin blocks,
   the linear-time generator);
3. the warm ``Snapshot.build`` time on the ``medium`` scenario vs
   ``reports/BENCH_graph.json`` — guards the graph core's zero-copy
   build path (the snapshot adopts the facade's ``RelGraph`` index and
   cone bitsets instead of re-indexing);
4. the path-prediction endpoints: committed warm (route-table-cached)
   path p99 must sit within 2x of the ``/asns/{asn}`` yardstick, and a
   live re-measure must show cached tables beating cold per-origin
   propagation;
5. the query service's sustained throughput on a ``small``-scenario
   snapshot vs the ``medium``-snapshot throughput committed in
   ``reports/BENCH_serve.json``;
6. the era timeline: committed delta eras must store <=35% of their
   full-snapshot bytes and committed warm historical-read p99 must sit
   within 2x of the latest-read p99; a small timeline is then rebuilt
   and served live — the storage ratio is machine-independent, and the
   live historical/latest comparison is self-calibrated because both
   legs run interleaved on this runner;
7. pre-fork worker scaling: on runners with >=4 CPUs a 2-worker mmap
   fleet must beat the 1-worker throughput by >=1.6x, both measured
   live on the same machine (skipped, with a message, on smaller
   runners where workers time-slice one core).

The committed baselines and the CI runner are different machines, so
the committed numbers are first rescaled by a calibration ratio.  The
collection check replays the same workload through the per-origin
reference engine, whose cost is engine-independent across this repo's
history, and uses measured/committed reference time as the machine
factor.  The serve check reruns the fixed pure-python
``calibration_workload`` recorded alongside the committed throughput.
Without that, a slower runner would flag phantom regressions and a
faster one would mask real ones.

Usage (what CI runs)::

    PYTHONPATH=src python benchmarks/check_regression.py
"""

from __future__ import annotations

import json
import os
import sys
import time

from repro.bgp.collector import Collector, CollectorConfig
from repro.qa.oracles import ReferenceCollector
from repro.topology.generator import GeneratorConfig, generate_topology

N_ASES = 300
ROUNDS = 3
TOLERANCE = 0.25  # fail on >25% regression
BASELINE_FILE = os.path.join(
    os.path.dirname(__file__), "reports", "BENCH_e00.json"
)
SERVE_BASELINE_FILE = os.path.join(
    os.path.dirname(__file__), "reports", "BENCH_serve.json"
)
SERVE_REQUESTS = 5_000
SERVE_CONNECTIONS = 4
GRAPH_BASELINE_FILE = os.path.join(
    os.path.dirname(__file__), "reports", "BENCH_graph.json"
)
GRAPH_ROUNDS = 5
WORKER_MIN_SPEEDUP = 1.6  # 2-worker floor, only gated on >=4-CPU runners
TIMELINE_BASELINE_FILE = os.path.join(
    os.path.dirname(__file__), "reports", "BENCH_timeline.json"
)
TIMELINE_DELTA_RATIO_MAX = 0.35  # delta eras vs their full snapshots
TIMELINE_WARM_FACTOR = 2.0  # committed historical p99 vs latest p99
TIMELINE_LIVE_FACTOR = 3.0  # live re-measure, absorbs runner noise
TIMELINE_LIVE_EPSILON_MS = 0.25  # sub-ms samples need an absolute floor


def _collect_seconds(graph, config, collector=Collector) -> float:
    """Min-of-N wall time of one collection run."""
    best = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        collector(graph, config).run()
        best = min(best, time.perf_counter() - start)
    return best


def check_internet(factor: float) -> int:
    """Internet-smoke leg: 10k power-law world, calibrated.

    Replays the exact ``internet_smoke`` workload the committed report
    measured (same seeds, same sampled origins) and reuses the machine
    factor the 300-AS leg already computed — the reference engine's
    cost ratio calibrates any workload on the same pair of machines.
    The tolerance is doubled: origin-sampled internet worlds are
    noisier than the dense 300-AS point.
    """
    from bench_e00_scale import internet_smoke_workload

    with open(BASELINE_FILE) as handle:
        baseline = json.load(handle)
    smoke = baseline.get("internet_smoke")
    if not smoke:
        print("skip: no internet_smoke baseline committed yet")
        return 0
    committed = smoke["collect"]

    graph, config, origins = internet_smoke_workload()
    measured = float("inf")
    for _ in range(ROUNDS):
        start = time.perf_counter()
        Collector(graph, config).run(origins=origins)
        measured = min(measured, time.perf_counter() - start)

    tolerance = 2 * TOLERANCE
    allowed = committed * factor * (1.0 + tolerance)
    print(
        f"internet collect @ {smoke['n_ases']} ASes, "
        f"{len(origins)} origins: measured {measured:.4f}s, "
        f"committed {committed:.4f}s, machine factor {factor:.2f}, "
        f"allowed {allowed:.4f}s"
    )
    if measured > allowed:
        print(
            f"REGRESSION: {measured:.4f}s exceeds the committed baseline "
            f"by more than {tolerance:.0%} (machine-adjusted) — an "
            f"internet-scale hot path has regressed"
        )
        return 1
    print("ok: internet-scale collection within the regression budget")
    return 0


def check_serve() -> int:
    """Serve-throughput leg: small snapshot, calibrated vs committed."""
    from repro.asrank import ASRank
    from repro.scenarios import get_scenario
    from repro.serve.loadgen import (
        LoadGenConfig,
        calibration_workload,
        run_loadgen,
    )
    from repro.serve.server import ServerThread
    from repro.serve.store import SnapshotStore

    with open(SERVE_BASELINE_FILE) as handle:
        baseline = json.load(handle)
    committed_rps = baseline["load"]["throughput_rps"]
    committed_cal = baseline["calibration"]

    _graph, _corpus, paths, result = get_scenario("small").run()
    facade = ASRank(paths)
    facade._result = result
    store = SnapshotStore(snapshot=facade.snapshot())
    thread = ServerThread(store)
    host, port = thread.start()
    try:
        run_loadgen(  # warmup fills the response cache
            LoadGenConfig(host=host, port=port, requests=500,
                          connections=SERVE_CONNECTIONS, seed=1)
        )
        report = run_loadgen(
            LoadGenConfig(host=host, port=port, requests=SERVE_REQUESTS,
                          connections=SERVE_CONNECTIONS, seed=2)
        )
    finally:
        thread.stop()

    if report.errors:
        print(f"REGRESSION: {report.errors} serve errors during the run")
        return 1

    # a machine `factor` > 1 means this runner is slower than the one
    # that committed the baseline, so it owes proportionally less QPS
    factor = calibration_workload() / committed_cal if committed_cal else 1.0
    allowed = committed_rps / factor * (1.0 - TOLERANCE)

    print(
        f"serve throughput: measured {report.throughput:,.0f} req/s, "
        f"committed {committed_rps:,.0f} req/s (medium snapshot), "
        f"machine factor {factor:.2f}, floor {allowed:,.0f} req/s"
    )
    if report.throughput < allowed:
        print(
            f"REGRESSION: {report.throughput:,.0f} req/s is more than "
            f"{TOLERANCE:.0%} below the committed baseline "
            f"(machine-adjusted)"
        )
        return 1
    print("ok: serve throughput within the regression budget")
    return 0


def check_paths() -> int:
    """Path-latency leg: the route-table cache must keep warm queries
    near the plain per-AS lookup cost.

    Two gates.  The committed ``medium`` numbers must show warm path
    p99 within 2x of the ``/asns/{asn}`` yardstick p99 — that is the
    criterion the route-table cache exists to meet.  Then the same leg
    is re-measured live on a ``small`` snapshot: warm queries must
    stay under 3x the live yardstick (the looser bound absorbs runner
    noise on sub-millisecond samples; a broken table cache puts warm
    at cold's level, an order of magnitude out) and the warm median
    must actually beat the cold median.
    """
    from bench_serve import paths_leg

    from repro.asrank import ASRank
    from repro.scenarios import get_scenario
    from repro.serve.store import SnapshotStore

    with open(SERVE_BASELINE_FILE) as handle:
        baseline = json.load(handle)
    committed = baseline.get("paths")
    if not committed:
        print("skip: no paths baseline committed yet")
        return 0
    if committed["warm_p99_ms"] > 2 * committed["asn_p99_ms"]:
        print(
            f"REGRESSION: committed warm path p99 "
            f"{committed['warm_p99_ms']}ms exceeds 2x the committed "
            f"/asns yardstick p99 {committed['asn_p99_ms']}ms — "
            f"re-run bench_serve.py on a healthy engine"
        )
        return 1

    _graph, _corpus, paths, result = get_scenario("small").run()
    facade = ASRank(paths)
    facade._result = result
    measured = paths_leg(SnapshotStore(snapshot=facade.snapshot()))

    print(
        f"paths (small snapshot): cold p50 {measured['cold_p50_ms']}ms, "
        f"warm p50 {measured['warm_p50_ms']}ms / "
        f"p99 {measured['warm_p99_ms']}ms, "
        f"asn yardstick p99 {measured['asn_p99_ms']}ms "
        f"(committed medium: warm p99 {committed['warm_p99_ms']}ms / "
        f"yardstick {committed['asn_p99_ms']}ms)"
    )
    if measured["errors"]:
        print(f"REGRESSION: {measured['errors']} non-200s in the paths leg")
        return 1
    if measured["warm_p99_ms"] > 3 * measured["asn_p99_ms"]:
        print(
            "REGRESSION: warm path p99 is more than 3x the /asns "
            "yardstick — route-table caching is not being hit"
        )
        return 1
    if measured["warm_p50_ms"] >= measured["cold_p50_ms"]:
        print(
            "REGRESSION: warm path median is no faster than cold — "
            "cached route tables are not cheaper than a fresh propagation"
        )
        return 1
    print("ok: warm path queries ride the route-table cache")
    return 0


def check_timeline() -> int:
    """Timeline leg: delta storage stays small, historical reads stay
    near latest reads.

    The committed gates: delta eras at <=35% of their full-snapshot
    bytes, and warm historical-read p99 within 2x of latest-read p99.
    Then a small two-era timeline is rebuilt here: its storage ratio
    must meet the same 35% bound (byte counts are machine-independent),
    and a live serving run — historical and latest legs interleaved on
    one connection — must keep warm historical p99 under 3x the live
    latest p99 plus a small absolute epsilon for sub-millisecond noise.
    """
    import tempfile

    from bench_timeline import history_leg

    from repro.serve.store import save_snapshot
    from repro.timeline import build_timeline, era_snapshots, save_timeline
    from repro.topology.evolution import Era, EvolutionConfig, generate_series

    with open(TIMELINE_BASELINE_FILE) as handle:
        baseline = json.load(handle)
    committed_ratio = baseline["timeline"]["delta_ratio"]
    if committed_ratio > TIMELINE_DELTA_RATIO_MAX:
        print(
            f"REGRESSION: committed delta ratio {committed_ratio:.1%} "
            f"exceeds {TIMELINE_DELTA_RATIO_MAX:.0%} — delta encoding "
            f"is not earning its keep; re-run bench_timeline.py"
        )
        return 1
    committed = baseline["serving"]
    if committed["warm_p99_ms"] > TIMELINE_WARM_FACTOR * committed[
        "latest_p99_ms"
    ]:
        print(
            f"REGRESSION: committed historical warm p99 "
            f"{committed['warm_p99_ms']}ms exceeds "
            f"{TIMELINE_WARM_FACTOR:.0f}x the committed latest p99 "
            f"{committed['latest_p99_ms']}ms"
        )
        return 1

    config = EvolutionConfig(
        base=GeneratorConfig(n_ases=80, seed=5, clique_size=4),
        eras=[
            Era(label="e1", new_ases=20, peering_boost=0.02),
            Era(label="e2", new_ases=25, peering_boost=0.03),
        ],
    )
    pairs = era_snapshots(generate_series(config))
    scratch = tempfile.mkdtemp(prefix="repro-check-timeline-")
    timeline = build_timeline(pairs)
    path = os.path.join(scratch, "small.tln")
    save_timeline(timeline, path)

    delta_stored = delta_full = 0
    for index, (_label, snapshot) in enumerate(pairs):
        if timeline.eras[index].kind != "delta":
            continue
        full = os.path.join(scratch, f"era{index}.snap")
        save_snapshot(snapshot, full)
        delta_stored += timeline.era_bytes(index)
        delta_full += os.path.getsize(full)
    live_ratio = delta_stored / delta_full if delta_full else 0.0
    print(
        f"timeline (live 3-era build): delta ratio {live_ratio:.1%} "
        f"(committed {committed_ratio:.1%}, bound "
        f"{TIMELINE_DELTA_RATIO_MAX:.0%})"
    )
    if live_ratio > TIMELINE_DELTA_RATIO_MAX:
        print(
            f"REGRESSION: live delta ratio {live_ratio:.1%} exceeds "
            f"{TIMELINE_DELTA_RATIO_MAX:.0%}"
        )
        return 1

    measured = history_leg(path, samples=120)
    allowed = (
        TIMELINE_LIVE_FACTOR * measured["latest_p99_ms"]
        + TIMELINE_LIVE_EPSILON_MS
    )
    print(
        f"timeline serving: latest p99 {measured['latest_p99_ms']}ms, "
        f"historical warm p99 {measured['warm_p99_ms']}ms "
        f"(allowed {allowed:.3f}ms)"
    )
    if measured["errors"]:
        print(f"REGRESSION: {measured['errors']} non-200s in the timeline leg")
        return 1
    if measured["warm_p99_ms"] > allowed:
        print(
            "REGRESSION: warm historical reads are not riding the "
            "era cache — p99 is far above the latest-read cost"
        )
        return 1
    print("ok: delta storage small, historical reads near latest reads")
    return 0


def check_workers() -> int:
    """Worker-scaling leg: 2 pre-fork workers must beat 1 by >=1.6x.

    Only meaningful with real parallelism available: on runners with
    fewer than 4 CPUs the workers time-slice one core and the measured
    "scaling" is scheduler noise, so the gate prints a skip (the
    committed ``workers.cpus`` field in BENCH_serve.json records what
    the baseline machine had).  Where it does run, a 2-worker mmap
    fleet must deliver at least ``WORKER_MIN_SPEEDUP``x the 1-worker
    throughput on the same machine within the same process — no
    cross-machine calibration needed because both points are measured
    live.
    """
    from repro.asrank import ASRank
    from repro.scenarios import get_scenario
    from repro.serve.loadgen import LoadGenConfig, run_loadgen_procs
    from repro.serve.store import save_snapshot
    from repro.serve.workers import WorkerFleet

    cpus = os.cpu_count() or 1
    if cpus < 4 or not hasattr(os, "fork"):
        print(
            f"skip: worker scaling gate needs >=4 CPUs and fork "
            f"(this runner has {cpus})"
        )
        return 0

    import tempfile

    _graph, _corpus, paths, result = get_scenario("small").run()
    facade = ASRank(paths)
    facade._result = result
    scratch = tempfile.mkdtemp(prefix="repro-check-workers-")
    path = os.path.join(scratch, "small.snap")
    save_snapshot(facade.snapshot(), path)

    throughput = {}
    for count in (1, 2):
        fleet = WorkerFleet(path, workers=count, mode="mmap")
        host, port = fleet.start()
        try:
            run_loadgen_procs(  # warmup
                LoadGenConfig(host=host, port=port, requests=500,
                              connections=SERVE_CONNECTIONS, seed=5),
                procs=2,
            )
            report = run_loadgen_procs(
                LoadGenConfig(host=host, port=port,
                              requests=SERVE_REQUESTS,
                              connections=SERVE_CONNECTIONS, seed=6),
                procs=2,
            )
        finally:
            fleet.stop()
        if report.errors:
            print(
                f"REGRESSION: {report.errors} errors against the "
                f"{count}-worker fleet"
            )
            return 1
        throughput[count] = report.throughput

    speedup = throughput[2] / throughput[1] if throughput[1] else 0.0
    print(
        f"worker scaling: 1 worker {throughput[1]:,.0f} req/s, "
        f"2 workers {throughput[2]:,.0f} req/s, speedup {speedup:.2f}x "
        f"(floor {WORKER_MIN_SPEEDUP}x, {cpus} CPUs)"
    )
    if speedup < WORKER_MIN_SPEEDUP:
        print(
            f"REGRESSION: 2-worker speedup {speedup:.2f}x is below the "
            f"{WORKER_MIN_SPEEDUP}x floor — per-worker scaling has "
            f"regressed (shared accept path or serialized hot path?)"
        )
        return 1
    print("ok: pre-fork workers scale within the regression budget")
    return 0


def check_graph() -> int:
    """Snapshot-build leg: warm medium-world build, calibrated."""
    from repro.asrank import ASRank
    from repro.core.cone import ConeDefinition
    from repro.scenarios import get_scenario
    from repro.serve.loadgen import calibration_workload
    from repro.serve.snapshot import Snapshot

    with open(GRAPH_BASELINE_FILE) as handle:
        baseline = json.load(handle)
    committed = baseline["build_warm_seconds"]
    committed_cal = baseline["calibration"]

    _graph, _corpus, paths, result = get_scenario("medium").run()
    facade = ASRank(paths)
    facade._result = result
    for definition in ConeDefinition:
        facade.cones(definition)
    facade.rank()

    measured = float("inf")
    for _ in range(GRAPH_ROUNDS):
        start = time.perf_counter()
        Snapshot.build(facade)
        measured = min(measured, time.perf_counter() - start)

    factor = (
        calibration_workload() / committed_cal if committed_cal else 1.0
    )
    allowed = committed * factor * (1.0 + TOLERANCE)

    print(
        f"snapshot build (warm, medium): measured {measured:.4f}s, "
        f"committed {committed:.4f}s, machine factor {factor:.2f}, "
        f"allowed {allowed:.4f}s"
    )
    if measured > allowed:
        print(
            f"REGRESSION: {measured:.4f}s exceeds the committed baseline "
            f"by more than {TOLERANCE:.0%} (machine-adjusted) — the "
            f"zero-copy build path has regressed"
        )
        return 1
    print("ok: snapshot build within the regression budget")
    return 0


def main() -> int:
    with open(BASELINE_FILE) as handle:
        baseline = json.load(handle)
    point = baseline["current"][str(N_ASES)]
    committed = point["stages"]["propagate+collect"]
    committed_reference = baseline.get("reference_collect_300")

    graph = generate_topology(GeneratorConfig(n_ases=N_ASES, seed=99))
    config = CollectorConfig(n_vps=max(12, N_ASES // 35), seed=1)

    measured = _collect_seconds(graph, config)

    # calibrate out machine-speed differences between the committed
    # report and this runner via the reference engine's cost
    factor = 1.0
    if committed_reference:
        reference = _collect_seconds(graph, config, ReferenceCollector)
        factor = reference / committed_reference
    allowed = committed * factor * (1.0 + TOLERANCE)

    print(
        f"propagate+collect @ {N_ASES} ASes: measured {measured:.4f}s, "
        f"committed {committed:.4f}s, machine factor {factor:.2f}, "
        f"allowed {allowed:.4f}s"
    )
    if measured > allowed:
        print(
            f"REGRESSION: {measured:.4f}s exceeds the committed baseline "
            f"by more than {TOLERANCE:.0%} (machine-adjusted)"
        )
        return 1
    print("ok: propagate+collect within the regression budget")
    status = check_internet(factor)
    if status:
        return status
    status = check_graph()
    if status:
        return status
    status = check_paths()
    if status:
        return status
    status = check_serve()
    if status:
        return status
    status = check_timeline()
    if status:
        return status
    return check_workers()


if __name__ == "__main__":
    sys.exit(main())
