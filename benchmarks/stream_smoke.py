"""CI smoke for live-stream ingest: MRT updates in, hot publishes out.

Builds a ``small``-scenario RIB, seeds a :class:`StreamIngestor` with
three fifths of it, and writes the rest as a BGP4MP UPDATE dump.  The
dump is then streamed batch by batch into the ingestor while a
closed-loop load run hammers the single server the ingestor publishes
into:

* every mid-stream hot publish must land with zero request errors;
* after every publish the served ``/snapshot`` version must equal the
  version the ingestor just published;
* the ``/stream`` route must report the ingest counters;
* the final served version must be bit-identical to a one-shot batch
  build over the full RIB (the family 10 contract, end to end).

Then the fleet leg (skipped without ``fork``): the final snapshot
boots a 2-worker mmap fleet, a :class:`FleetPublisher` pushes one more
streamed change through the two-phase coordinated reload under load,
and every worker must converge on the new version with zero failed
requests.

Exit code 0 on success, 1 with a one-line reason on any failure.

Usage (what CI runs)::

    PYTHONPATH=src python benchmarks/stream_smoke.py
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
import threading
import time
from urllib.request import urlopen

from repro.mrt.reader import RibRecord, UpdateRecord
from repro.mrt.updates import COLLECTOR_ASN, iter_update_batches, write_update_dump
from repro.net.prefix import Prefix
from repro.scenarios import get_scenario
from repro.serve.loadgen import LoadGenConfig, run_loadgen
from repro.serve.server import ServerThread
from repro.serve.store import SnapshotStore, save_snapshot
from repro.serve.workers import WorkerFleet
from repro.stream import FleetPublisher, StorePublisher, StreamIngestor, asrank_from_rib_rows

REQUESTS = 5_000
CONNECTIONS = 4


def rows_from_rib(rib) -> list:
    """Collector RIB entries → MRT RibRecord rows (the stream substrate)."""
    return [
        RibRecord(
            prefix=entry.prefix,
            peer_asn=entry.vp,
            as_path=tuple(entry.path),
            communities=tuple(entry.communities),
        )
        for entry in rib
    ]


def _fail(reason: str) -> int:
    print(f"FAIL: {reason}")
    return 1


def _get(host: str, port: int, route: str) -> dict:
    with urlopen(f"http://{host}:{port}{route}", timeout=10) as response:
        return json.load(response)


def fleet_leg(ingestor: StreamIngestor, scratch: str) -> int:
    """Stream one more change through a 2-worker coordinated reload."""
    if not hasattr(os, "fork"):
        print("fleet leg skipped: no fork on this platform")
        return 0
    path = os.path.join(scratch, "stream.snap")
    save_snapshot(ingestor.live.snapshot, path)
    fleet = WorkerFleet(path, workers=2, mode="mmap")
    host, port = fleet.start()
    try:
        ingestor.publisher = FleetPublisher(fleet, path)
        donor = next(row for row in ingestor.corpus.rows() if row.as_path)
        report_box = []
        loader = threading.Thread(
            target=lambda: report_box.append(run_loadgen(
                LoadGenConfig(host=host, port=port, requests=3_000,
                              connections=CONNECTIONS, seed=23)
            ))
        )
        loader.start()
        time.sleep(0.1)
        ingestor.apply_batch([
            UpdateRecord(
                peer_asn=donor.peer_asn,
                local_asn=COLLECTOR_ASN,
                as_path=donor.as_path,
                announced=(Prefix.parse("198.51.100.0/24"),),
                communities=donor.communities,
            )
        ])
        snapshot = ingestor.publish()
        loader.join(timeout=120)
        if not report_box:
            return _fail("fleet load run never finished")
        if report_box[0].errors:
            return _fail(
                f"{report_box[0].errors} request errors during the "
                f"fleet publish"
            )
        converged = fleet.versions()
        if set(converged.values()) != {snapshot.version}:
            return _fail(f"fleet did not converge: {converged}")
        print(
            f"fleet publish under load: all {len(converged)} workers on "
            f"{snapshot.version}, 0 failed requests "
            f"(mode={ingestor.stats.last_publish_mode})"
        )
    finally:
        fleet.stop()
    return 0


def main() -> int:
    graph, corpus, _paths, _result = get_scenario("small").run()
    entries = list(corpus.rib)
    cut = len(entries) * 3 // 5
    scratch = tempfile.mkdtemp(prefix="repro-stream-smoke-")
    dump = os.path.join(scratch, "updates.mrt")
    write_update_dump(dump, entries[cut:])

    ingestor = StreamIngestor(
        ixp_asns=graph.ixp_asns(),
        base_rows=rows_from_rib(entries[:cut]),
    )
    first = ingestor.publish()
    store = SnapshotStore(snapshot=first)
    ingestor.publisher = StorePublisher(store)

    # ~4 update batches -> >=4 mid-stream hot publishes under load
    held = sum(1 for _ in iter_update_batches(dump, batch_size=1))
    batch_size = max(1, held // 4)

    thread = ServerThread(store, ingest_status=ingestor.status)
    host, port = thread.start()
    try:
        if _get(host, port, "/snapshot")["version"] != first.version:
            return _fail("server did not start on the seeded snapshot")

        report_box = []
        loader = threading.Thread(
            target=lambda: report_box.append(run_loadgen(
                LoadGenConfig(host=host, port=port, requests=REQUESTS,
                              connections=CONNECTIONS, seed=31)
            ))
        )
        loader.start()
        time.sleep(0.1)  # let the load get going before streaming

        hot_publishes = 0
        for batch in iter_update_batches(dump, batch_size=batch_size):
            ingestor.apply_batch(batch)
            snapshot = ingestor.publish()
            hot_publishes += 1
            served = _get(host, port, "/snapshot")["version"]
            if served != snapshot.version:
                return _fail(
                    f"served version {served} did not converge to the "
                    f"published {snapshot.version}"
                )
        loader.join(timeout=120)

        if hot_publishes < 2:
            return _fail(f"only {hot_publishes} mid-stream hot publishes")
        if not report_box:
            return _fail("load run never finished during streaming")
        report = report_box[0]
        if report.errors:
            return _fail(
                f"{report.errors} request errors across {hot_publishes} "
                f"hot publishes"
            )
        if report.requests != REQUESTS:
            return _fail(
                f"only {report.requests}/{REQUESTS} requests completed"
            )

        status = _get(host, port, "/stream")
        if status["publishes"] != ingestor.stats.publishes:
            return _fail(f"/stream counters out of sync: {status}")
        if status["serving_version"] != ingestor.stats.last_publish_version:
            return _fail(f"/stream serving_version stale: {status}")

        batch_built = asrank_from_rib_rows(
            rows_from_rib(entries), ixp_asns=graph.ixp_asns()
        ).snapshot(source=ingestor.source)
        final = _get(host, port, "/snapshot")["version"]
        if final != batch_built.version:
            return _fail(
                f"streamed version {final} != batch-built "
                f"{batch_built.version} over the same RIB"
            )
        print(
            f"streamed {status['updates']} updates in "
            f"{status['batches']} batches: {hot_publishes} hot publishes "
            f"({status['noop_publishes']} noop / "
            f"{status['full_publishes']} full), "
            f"{report.requests} requests, 0 errors, "
            f"final version == batch build"
        )
    finally:
        thread.stop()

    status = fleet_leg(ingestor, scratch)
    if status:
        return status

    print("ok: stream smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
