"""Command-line interface: the full pipeline from a shell.

Subcommands mirror the library stages::

    repro-asrank simulate --scenario medium --out-dir ./run
    repro-asrank infer    --paths ./run/paths.txt --as-rel ./run/as-rel.txt
    repro-asrank cones    --paths ./run/paths.txt --as-rel ./run/as-rel.txt \
                          --ppdc ./run/ppdc-ases.txt
    repro-asrank validate --scenario medium
    repro-asrank rank     --scenario medium --top 15
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.analysis.timeseries import flattening_series, series_metrics
from repro.core.cone import ConeDefinition, CustomerCones
from repro.core.inference import infer_relationships
from repro.core.paths import PathSet
from repro.core.rank import rank_ases
from repro.datasets.serialization import (
    DatasetFormatError,
    save_as_rel,
    save_paths,
    save_ppdc_ases,
    load_paths,
)
from repro.mrt.constants import MrtFormatError
from repro.mrt.updates import write_update_dump
from repro.mrt.writer import write_rib_dump
from repro.topology.evolution import generate_series
from repro.relationships import Relationship
from repro.scenarios import SCENARIOS, get_scenario
from repro.validation import (
    communities_corpus,
    direct_report_corpus,
    routing_policy_corpus,
    rpsl_corpus,
    validate,
)


def _add_scenario_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario",
        default="medium",
        choices=sorted(SCENARIOS),
        help="named workload to run (default: medium)",
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    scenario = get_scenario(args.scenario)
    graph, corpus = scenario.collect()
    os.makedirs(args.out_dir, exist_ok=True)
    paths_file = os.path.join(args.out_dir, "paths.txt")
    count = save_paths(
        paths_file,
        corpus.paths,
        comments=[f"scenario: {scenario.name}", f"vps: {len(corpus.vps)}"],
    )
    print(f"wrote {count} paths to {paths_file}")
    if args.mrt:
        mrt_file = os.path.join(args.out_dir, "rib.mrt")
        records = write_rib_dump(mrt_file, corpus.rib)
        print(f"wrote {records} RIB records to {mrt_file}")
    if args.updates:
        updates_file = os.path.join(args.out_dir, "updates.mrt")
        messages = write_update_dump(updates_file, corpus.rib)
        print(f"wrote {messages} UPDATE messages to {updates_file}")
    return 0


def _cmd_evolve(args: argparse.Namespace) -> int:
    from repro.scenarios import evolution_scenario

    config = evolution_scenario(eras=args.eras)
    snapshots = generate_series(config)
    metrics = series_metrics(snapshots)
    print(f"{'era':<8}{'ases':>6}{'links':>7}{'paths':>8}"
          f"{'clique':>8}{'recall':>8}")
    for m in metrics:
        print(
            f"{m.label:<8}{m.n_ases:>6}{m.n_links:>7}{m.n_paths:>8}"
            f"{len(m.inferred_clique):>8}{m.clique_recall:>8.0%}"
        )
    tracked = flattening_series(metrics)
    print("\ncone share of the largest providers per era:")
    for asn, shares in sorted(tracked.items(), key=lambda kv: -kv[1][0])[:5]:
        print(f"  AS{asn:<7}" + " ".join(f"{s:>6.1%}" for s in shares))
    return 0


def _cmd_infer(args: argparse.Namespace) -> int:
    raw = load_paths(args.paths)
    paths = PathSet.sanitize(raw)
    result = infer_relationships(paths)
    for name, value in paths.stats.as_rows():
        print(f"  {name:<26}{value}")
    counts = result.counts_by_relationship()
    print(
        f"inferred {len(result)} links: "
        f"{counts.get(Relationship.P2C, 0)} c2p, "
        f"{counts.get(Relationship.P2P, 0)} p2p; "
        f"clique = {result.clique.members}"
    )
    if args.as_rel:
        written = save_as_rel(args.as_rel, result, comments=["inferred by repro-asrank"])
        print(f"wrote {written} relationships to {args.as_rel}")
    return 0


def _cmd_cones(args: argparse.Namespace) -> int:
    raw = load_paths(args.paths)
    paths = PathSet.sanitize(raw)
    result = infer_relationships(paths)
    definition = ConeDefinition(args.definition)
    cones = CustomerCones.compute(result, definition)
    print(f"cone definition: {definition.value}")
    for asn, size in cones.top(args.top):
        print(f"  AS{asn:<8} cone {size} ASes")
    if args.ppdc:
        written = save_ppdc_ases(args.ppdc, cones.cones)
        print(f"wrote {written} cones to {args.ppdc}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    scenario = get_scenario(args.scenario)
    graph, corpus, paths, result = scenario.run()
    sources = (
        direct_report_corpus(graph)
        .merge(communities_corpus(corpus.rib, graph.ixp_asns()))
        .merge(rpsl_corpus(graph))
        .merge(routing_policy_corpus(graph))
    )
    report = validate(result, sources, step_lookup=result.step_of)
    print(f"scenario {scenario.name}: {len(result)} inferences, "
          f"{report.validated} validated ({report.coverage:.1%} coverage)")
    for rel in (Relationship.P2C, Relationship.P2P):
        metrics = report.by_class.get(rel)
        if metrics:
            print(f"  {rel.label} PPV: {metrics.ppv:.4f} ({metrics.total} judged)")
    print("  by source:", {s: m.total for s, m in sorted(report.by_source.items())})
    return 0


def _cmd_qa(args: argparse.Namespace) -> int:
    from repro.qa import QaConfig, replay_paths, run_qa

    if args.replay:
        report = replay_paths(args.replay, log=print)
    else:
        config = QaConfig(
            seeds=args.seeds,
            base_seed=args.base_seed,
            repro_dir=args.repro_dir,
            shrink=not args.no_shrink,
        )
        report = run_qa(config, log=print)
    return 0 if report.ok else 1


def _cmd_rank(args: argparse.Namespace) -> int:
    if args.paths:
        raw = load_paths(args.paths)
        paths = PathSet.sanitize(raw)
        result = infer_relationships(paths)
        prefixes = None
    else:
        scenario = get_scenario(args.scenario)
        graph, corpus, paths, result = scenario.run()
        prefixes = {asys.asn: asys.prefixes for asys in graph.ases()}
    cones = CustomerCones.compute(
        result, ConeDefinition.PROVIDER_PEER_OBSERVED, prefixes_by_asn=prefixes
    )
    print(f"{'rank':>4} {'asn':>7} {'cone':>6} {'pfx':>6} {'addrs':>12} "
          f"{'transit':>8} {'cust':>5} {'peer':>5} {'prov':>5}")
    for entry in rank_ases(result, cones, limit=args.top):
        print(
            f"{entry.rank:>4} {entry.asn:>7} {entry.cone_ases:>6} "
            f"{entry.cone_prefixes:>6} {entry.cone_addresses:>12} "
            f"{entry.transit_degree:>8} {entry.num_customers:>5} "
            f"{entry.num_peers:>5} {entry.num_providers:>5}"
        )
    return 0


def _build_snapshot(args: argparse.Namespace):
    """Compile a Snapshot from whichever input the flags select."""
    from repro.asrank import ASRank
    from repro.serve.snapshot import Snapshot

    if args.as_rel:
        return Snapshot.from_files(args.as_rel, ppdc_path=args.ppdc)
    if args.paths:
        return ASRank.from_path_file(args.paths).snapshot(
            source=f"paths:{args.paths}"
        )
    scenario = get_scenario(args.scenario)
    graph, corpus, paths, result = scenario.run()
    facade = ASRank(
        paths,
        prefixes_by_asn={a.asn: a.prefixes for a in graph.ases()},
    )
    facade._result = result
    return facade.snapshot(source=f"scenario:{scenario.name}")


def _cmd_snapshot(args: argparse.Namespace) -> int:
    from repro.serve.store import load_snapshot, save_snapshot

    if args.snapshot_command == "build":
        snapshot = _build_snapshot(args)
        version = save_snapshot(snapshot, args.out)
        size = os.path.getsize(args.out)
        print(
            f"wrote snapshot {version} to {args.out}: "
            f"{len(snapshot)} ASes, {snapshot.stats['n_links']} links, "
            f"{size} bytes"
        )
        return 0
    # info
    from repro.serve.store import read_snapshot_header

    snapshot = load_snapshot(args.file, mode="mmap")
    header, payload_offset = read_snapshot_header(args.file)
    alignment = int(header.get("alignment", 1))
    print(f"snapshot {snapshot.version} ({args.file})")
    print(f"  source       {snapshot.meta.get('source')}")
    print(f"  definitions  {', '.join(snapshot.meta['definitions'])}")
    print(f"  ases         {snapshot.stats.get('n_ases')}")
    print(f"  links        {snapshot.stats.get('n_links')}")
    clique = snapshot.meta.get("clique") or []
    print(f"  clique       {clique}")
    print(f"  format       minor {header.get('minor', 0)}, "
          f"{alignment}-byte section alignment, "
          f"payload at {payload_offset}")
    print(f"  {'section':<30}{'offset':>10}{'bytes':>10}  aligned")
    for name, entry in sorted(header["sections"].items()):
        offset = int(entry["offset"])
        aligned = "yes" if offset % max(alignment, 1) == 0 else "no"
        print(f"  {name:<30}{offset:>10}{int(entry['length']):>10}  "
              f"{aligned}")
    snapshot.close()
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    from repro.scenarios import evolution_scenario
    from repro.timeline import (
        build_timeline,
        era_snapshots,
        load_timeline,
        read_timeline_header,
        save_timeline,
    )

    if args.timeline_command == "build":
        config = evolution_scenario(eras=args.eras, seed=args.seed)
        series = generate_series(config)
        snapshots = era_snapshots(series)
        timeline = build_timeline(snapshots, start_year=args.start_year)
        version = save_timeline(timeline, args.out)
        size = os.path.getsize(args.out)
        print(
            f"wrote timeline {version} to {args.out}: "
            f"{len(timeline)} eras, {size} bytes"
        )
        for info in timeline.eras:
            print(
                f"  era {info.index} {info.label:<8}{info.date}  "
                f"{info.kind:<6}{info.n_ases:>6} ASes "
                f"{info.n_links:>7} links  "
                f"{timeline.era_bytes(info.index):>9} bytes  "
                f"snapshot {info.snapshot_version}"
            )
        return 0
    # info
    timeline = load_timeline(args.file)
    header, payload_offset = read_timeline_header(args.file)
    full = timeline.era_bytes(0)
    print(f"timeline {timeline.version} ({args.file})")
    print(f"  eras         {len(timeline)}")
    print(f"  payload at   {payload_offset}")
    print(f"  {'era':<5}{'label':<10}{'date':<12}{'kind':<7}"
          f"{'ases':>7}{'links':>8}{'bytes':>10}  {'vs era0':>8}  "
          f"snapshot")
    for info in timeline.eras:
        era_bytes = timeline.era_bytes(info.index)
        ratio = era_bytes / full if full else 0.0
        print(
            f"  {info.index:<5}{info.label:<10}{info.date:<12}"
            f"{info.kind:<7}{info.n_ases:>7}{info.n_links:>8}"
            f"{era_bytes:>10}  {ratio:>7.1%}  {info.snapshot_version}"
        )
    timeline.close()
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.server import SnapshotServer
    from repro.serve.store import SnapshotStore, save_snapshot

    if args.workers > 1:
        return _serve_fleet(args, args.mode)
    if args.snapshot:
        store = SnapshotStore(path=args.snapshot, mode=args.mode)
    else:
        snapshot = _build_snapshot(args)
        path = None
        if args.out:
            save_snapshot(snapshot, args.out)
            path = args.out
        store = SnapshotStore(snapshot=snapshot, path=path)
    server = SnapshotServer(
        store,
        host=args.host,
        port=args.port,
        cache_size=args.cache_size,
        allow_admin=not args.no_admin,
        install_sighup=True,
        compute_workers=args.compute_workers,
    )
    try:
        asyncio.run(server.run())
    except KeyboardInterrupt:
        pass
    return 0


def _serve_fleet(args: argparse.Namespace, mode: Optional[str]) -> int:
    """``serve --workers N``: the pre-fork SO_REUSEPORT fleet."""
    import signal as _signal

    from repro.serve.store import read_payload_header, save_snapshot
    from repro.serve.workers import FleetError, WorkerFleet

    path = args.snapshot
    if not path:
        # the fleet maps one file; a built snapshot must land on disk
        path = args.out
        if not path:
            print(
                "error: --workers needs a snapshot file: pass --snapshot, "
                "or --out to save the built snapshot",
                file=sys.stderr,
            )
            return 2
        snapshot = _build_snapshot(args)
        save_snapshot(snapshot, path)
    else:
        # fail before forking on a missing/garbled file (main() turns
        # the raised error into the one-line exit-2 convention); the
        # sniffing header read accepts snapshot and timeline files
        read_payload_header(path)
    fleet = WorkerFleet(
        path,
        workers=args.workers,
        host=args.host,
        port=args.port,
        mode=mode or "mmap",
        cache_size=args.cache_size,
        allow_admin=not args.no_admin,
        compute_workers=args.compute_workers,
    )
    try:
        host, port = fleet.start()
    except FleetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if hasattr(_signal, "SIGHUP"):
        _signal.signal(
            _signal.SIGHUP, lambda *_: fleet.request_reload()
        )
    print(
        f"serving snapshot {path} on http://{host}:{port} "
        f"with {args.workers} workers "
        f"(SO_REUSEPORT, mode={fleet.mode}); SIGHUP reloads the fleet"
    )
    try:
        while True:
            _signal.pause()
    except KeyboardInterrupt:
        pass
    finally:
        fleet.stop()
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    """``stream``: replay an UPDATE dump through the live-ingest layer."""
    import json

    if args.batch_size < 1:
        print("error: --batch-size must be at least 1", file=sys.stderr)
        return 2
    if args.publish_every < 0:
        print("error: --publish-every must not be negative",
              file=sys.stderr)
        return 2

    if args.status:
        from urllib.request import urlopen

        url = args.status.rstrip("/") + "/stream"
        with urlopen(url, timeout=10) as response:
            print(json.dumps(json.load(response), indent=2, sort_keys=True))
        return 0

    if not args.updates:
        print("error: an UPDATE dump is required (or --status URL)",
              file=sys.stderr)
        return 2

    from repro.mrt.reader import iter_rib_dump
    from repro.mrt.updates import follow_update_batches, iter_update_batches
    from repro.stream import StreamIngestor

    base_rows = None
    if args.base:
        base_rows = list(iter_rib_dump(args.base))
    ingestor = StreamIngestor(base_rows=base_rows)

    server = None
    if args.serve:
        from repro.serve.server import ServerThread
        from repro.serve.store import SnapshotStore
        from repro.stream import StorePublisher

        snapshot = ingestor.publish()  # serve the seeded table from t=0
        store = SnapshotStore(snapshot=snapshot)
        ingestor.publisher = StorePublisher(store)
        server = ServerThread(
            store, host=args.host, port=args.port,
            ingest_status=ingestor.status,
        )
        host, port = server.start()
        print(f"serving live ingest on http://{host}:{port} "
              f"(version {snapshot.version})")

    if args.follow:
        batches = follow_update_batches(
            args.updates, batch_size=args.batch_size
        )
    else:
        batches = iter_update_batches(
            args.updates, batch_size=args.batch_size
        )
    try:
        ingestor.run(batches, publish_every=args.publish_every)
    except KeyboardInterrupt:
        pass
    status = ingestor.status()
    print(json.dumps(status, indent=2, sort_keys=True))
    if server is not None:
        print("stream drained; still serving (ctrl-c to stop)")
        try:
            import time as _time

            while True:
                _time.sleep(3600)
        except KeyboardInterrupt:
            pass
        finally:
            server.stop()
    return 0


def _cmd_paths(args: argparse.Namespace) -> int:
    """One path / anycast / what-if query against a snapshot, as JSON."""
    import json

    from repro.serve.handlers import Api
    from repro.serve.store import SnapshotStore, load_snapshot

    if args.snapshot:
        snapshot = load_snapshot(args.snapshot, mode="mmap")
        store = SnapshotStore(snapshot=snapshot, path=args.snapshot)
    else:
        store = SnapshotStore(snapshot=_build_snapshot(args))
    api = Api(store, allow_admin=False)

    if args.what_if:
        with open(args.what_if) as handle:
            ops = json.load(handle)
        body: dict = {"dst": args.dst, "ops": ops}
        if args.sample:
            body["sample"] = args.sample
        status, payload, _route, _cacheable = api.handle(
            "POST", "/what-if", {}, json.dumps(body).encode()
        )
    else:
        query = {}
        if args.origins:
            query["origins"] = args.origins
        status, payload, _route, _cacheable = api.handle(
            "GET", f"/paths/{args.src}/{args.dst}", query
        )
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0 if status == 200 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-asrank",
        description="AS relationship inference, customer cones and validation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser("simulate", help="generate topology + collect BGP paths")
    _add_scenario_arg(simulate)
    simulate.add_argument("--out-dir", default=".", help="output directory")
    simulate.add_argument("--mrt", action="store_true", help="also write an MRT RIB dump")
    simulate.add_argument("--updates", action="store_true",
                          help="also write a BGP4MP update-stream dump")
    simulate.set_defaults(func=_cmd_simulate)

    evolve = sub.add_parser(
        "evolve", help="run the longitudinal era series and print the trends"
    )
    evolve.add_argument("--eras", type=int, default=4)
    evolve.set_defaults(func=_cmd_evolve)

    infer = sub.add_parser("infer", help="infer relationships from a path file")
    infer.add_argument("--paths", required=True, help="path file (one AS path per line)")
    infer.add_argument("--as-rel", help="write inferred relationships here")
    infer.set_defaults(func=_cmd_infer)

    cones = sub.add_parser("cones", help="compute customer cones from a path file")
    cones.add_argument("--paths", required=True)
    cones.add_argument(
        "--definition",
        default=ConeDefinition.PROVIDER_PEER_OBSERVED.value,
        choices=[d.value for d in ConeDefinition],
    )
    cones.add_argument("--top", type=int, default=15)
    cones.add_argument("--ppdc", help="write ppdc-ases file here")
    cones.set_defaults(func=_cmd_cones)

    val = sub.add_parser("validate", help="run a scenario and score PPV")
    _add_scenario_arg(val)
    val.set_defaults(func=_cmd_validate)

    rank = sub.add_parser("rank", help="run a scenario and print the AS ranking")
    _add_scenario_arg(rank)
    rank.add_argument("--paths", help="rank from a path file instead of a scenario")
    rank.add_argument("--top", type=int, default=15)
    rank.set_defaults(func=_cmd_rank)

    snapshot = sub.add_parser(
        "snapshot", help="build/inspect query-service snapshots (repro.serve)"
    )
    snap_sub = snapshot.add_subparsers(dest="snapshot_command", required=True)
    snap_build = snap_sub.add_parser(
        "build", help="compile a snapshot file from a scenario or input files"
    )
    _add_scenario_arg(snap_build)
    snap_build.add_argument("--paths", help="build from a path file")
    snap_build.add_argument("--as-rel", help="build from a CAIDA as-rel file")
    snap_build.add_argument("--ppdc", help="ppdc-ases file (with --as-rel)")
    snap_build.add_argument("--out", required=True, help="snapshot file to write")
    snap_build.set_defaults(func=_cmd_snapshot)
    snap_info = snap_sub.add_parser("info", help="print a snapshot's metadata")
    snap_info.add_argument("file", help="snapshot file")
    snap_info.set_defaults(func=_cmd_snapshot)

    timeline = sub.add_parser(
        "timeline",
        help="build/inspect delta-encoded era timelines (repro.timeline)",
    )
    timeline_sub = timeline.add_subparsers(
        dest="timeline_command", required=True
    )
    timeline_build = timeline_sub.add_parser(
        "build",
        help="run the longitudinal era series and pack it into one "
             "delta-encoded timeline file",
    )
    timeline_build.add_argument("--eras", type=int, default=4,
                                help="eras after the base (default: 4)")
    timeline_build.add_argument("--seed", type=int, default=7,
                                help="series seed (default: 7)")
    timeline_build.add_argument(
        "--start-year", type=int, default=1998,
        help="year of era 0; each era is one year later (default: 1998)",
    )
    timeline_build.add_argument("--out", required=True,
                                help="timeline file to write")
    timeline_build.set_defaults(func=_cmd_timeline)
    timeline_info = timeline_sub.add_parser(
        "info", help="print a timeline's era and section table"
    )
    timeline_info.add_argument("file", help="timeline file")
    timeline_info.set_defaults(func=_cmd_timeline)

    serve = sub.add_parser(
        "serve", help="serve a snapshot over the asyncio HTTP/JSON API"
    )
    _add_scenario_arg(serve)
    serve.add_argument("--snapshot",
                       help="snapshot or timeline file to serve "
                            "(sniffed by magic)")
    serve.add_argument("--paths", help="build + serve from a path file")
    serve.add_argument("--as-rel", help="build + serve from an as-rel file")
    serve.add_argument("--ppdc", help="ppdc-ases file (with --as-rel)")
    serve.add_argument("--out", help="also write the built snapshot here")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument("--cache-size", type=int, default=4096,
                       help="response-cache entries (default: 4096)")
    serve.add_argument("--mode", choices=["eager", "mmap"],
                       help="snapshot load mode: eager copies and "
                            "verifies everything up front, mmap serves "
                            "zero-copy views of the mapped file and "
                            "verifies each section on first touch "
                            "(default: eager; fleets default to mmap)")
    serve.add_argument("--workers", type=int, default=1,
                       help="pre-fork worker processes sharing the port "
                            "via SO_REUSEPORT and the snapshot via mmap; "
                            "1 keeps the single-process server "
                            "(default: 1)")
    serve.add_argument("--no-admin", action="store_true",
                       help="disable POST /admin/reload")
    serve.add_argument("--compute-workers", type=int, default=2,
                       help="path/what-if compute pool size; 0 runs "
                            "them inline on the event loop (default: 2)")
    serve.set_defaults(func=_cmd_serve)

    paths_cmd = sub.add_parser(
        "paths",
        help="predict a policy path / anycast winner / what-if diff "
             "from a snapshot",
    )
    _add_scenario_arg(paths_cmd)
    paths_cmd.add_argument("src", type=int, help="source ASN")
    paths_cmd.add_argument(
        "dst", type=int,
        help="destination ASN (the what-if origin in --what-if mode)",
    )
    paths_cmd.add_argument("--snapshot", help="snapshot file to query")
    paths_cmd.add_argument("--paths", help="build from a path file")
    paths_cmd.add_argument("--as-rel", help="build from an as-rel file")
    paths_cmd.add_argument("--ppdc", help="ppdc-ases file (with --as-rel)")
    paths_cmd.add_argument(
        "--origins",
        help="comma-separated anycast origin set announced with dst",
    )
    paths_cmd.add_argument(
        "--what-if", metavar="OPS_JSON",
        help="JSON file with a scenario op list; prints the diff "
             "against the baseline instead of a single path",
    )
    paths_cmd.add_argument(
        "--sample", type=int,
        help="diff over an evenly-spaced sample of sources (what-if)",
    )
    paths_cmd.set_defaults(func=_cmd_paths)

    stream = sub.add_parser(
        "stream",
        help="live-ingest an MRT UPDATE dump, publishing snapshots "
             "as batches arrive (optionally into a live server)",
    )
    stream.add_argument("updates", nargs="?",
                        help="BGP4MP UPDATE dump to replay")
    stream.add_argument("--base",
                        help="MRT RIB dump seeding the live table")
    stream.add_argument("--batch-size", type=int, default=256,
                        help="UPDATE records applied per batch "
                             "(default: 256)")
    stream.add_argument("--publish-every", type=int, default=1,
                        help="publish a snapshot every N batches; 0 "
                             "publishes once, after the last batch "
                             "(default: 1)")
    stream.add_argument("--serve", action="store_true",
                        help="serve the stream over HTTP while ingesting "
                             "(hot-publishing each snapshot); keeps "
                             "serving after the dump is drained")
    stream.add_argument("--host", default="127.0.0.1")
    stream.add_argument("--port", type=int, default=8080)
    stream.add_argument("--follow", action="store_true",
                        help="tail the dump for appended records instead "
                             "of stopping at EOF")
    stream.add_argument("--status", metavar="URL",
                        help="print a running stream server's /stream "
                             "status as JSON and exit (no ingest)")
    stream.set_defaults(func=_cmd_stream)

    qa = sub.add_parser(
        "qa",
        help="run the seeded differential-invariant sweep (repro.qa)",
    )
    qa.add_argument("--seeds", type=int, default=20,
                    help="number of randomized worlds to sweep (default: 20)")
    qa.add_argument("--base-seed", type=int, default=0,
                    help="first seed of the sweep (default: 0)")
    qa.add_argument("--repro-dir", default="benchmarks/repros",
                    help="where shrunken failure corpora are written")
    qa.add_argument("--no-shrink", action="store_true",
                    help="save failing corpora without delta-debugging them")
    qa.add_argument("--replay", metavar="PATHS_FILE",
                    help="re-run the corpus invariants on a saved repro")
    qa.set_defaults(func=_cmd_qa)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point.  Data and I/O errors exit 2 with a one-line message
    instead of a traceback; invariant violations from ``qa`` exit 1.

    ``SnapshotFormatError`` (corrupted/truncated snapshot files) is a
    ``DatasetFormatError`` subclass, so ``serve``/``snapshot`` follow
    the same convention.  ``UnicodeDecodeError`` covers binary garbage
    handed to the text loaders (``infer``/``cones``/``rank --paths``).
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DatasetFormatError, MrtFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"error: input is not a text file ({exc.reason})",
              file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
