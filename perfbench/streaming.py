"""stream-publish: UPDATE batch in, new version visible on the socket.

One op hands an 8-update batch to ``StreamIngestor.apply_batch``,
publishes (the ingestor picks the noop, delta or full level), swaps
the snapshot into the ``SnapshotStore`` behind an in-process server,
and ends when ``GET /snapshot`` reports the version ``publish()``
returned.  The seeded churn mixes duplicate re-announcements,
withdrawals, flap-backs and same-VP path changes.
"""

from __future__ import annotations

import http.client
import json
import os
import time
from typing import Dict, List

from common import (
    NULL,
    STREAM_BATCH_SIZE,
    STREAM_SETUP_REPEATS,
    CheckFailed,
    InputExhausted,
    Outcome,
    Reference,
    Timed,
    maxrss_mib,
    timed_loop,
)
from inputs import ensure

_VISIBLE_TIMEOUT_S = 10.0


def _served_version(conn: http.client.HTTPConnection) -> str:
    conn.request("GET", "/snapshot")
    response = conn.getresponse()
    body = response.read()
    if response.status != 200:
        raise CheckFailed(f"/snapshot answered {response.status}")
    return json.loads(body)["version"]


class _Serving:
    """A cold-published ingestor behind a running server."""

    def __init__(self, base_rows, ixp) -> None:
        from repro.serve.server import ServerThread
        from repro.serve.store import SnapshotStore
        from repro.stream import StreamIngestor

        start = time.perf_counter()
        self.ingestor = StreamIngestor(ixp_asns=ixp, base_rows=base_rows)
        snapshot = self.ingestor.publish()
        self.store = SnapshotStore(snapshot=snapshot)
        self.server = ServerThread(self.store)
        host, port = self.server.start()
        self.conn = http.client.HTTPConnection(host, port, timeout=30)
        if _served_version(self.conn) != snapshot.version:
            raise CheckFailed("cold publish not visible on /snapshot")
        self.startup_s = time.perf_counter() - start

    def stop(self) -> None:
        self.conn.close()
        self.server.stop()


def stream_publish(seed: int, seconds: float, scale: str,
                   outcome: Outcome, reference: Reference,
                   tracer) -> Dict[str, object]:
    from repro.mrt.reader import iter_rib_dump
    from repro.mrt.updates import iter_update_batches
    from repro.stream.corpus import asrank_from_rib_rows

    directory, manifest = ensure("stream", seed, scale)
    base_rows = list(iter_rib_dump(os.path.join(directory, "base.mrt")))
    with open(os.path.join(directory, "ixp.json")) as handle:
        ixp = frozenset(json.load(handle))
    batches = iter(list(iter_update_batches(
        os.path.join(directory, "churn.mrt"), batch_size=STREAM_BATCH_SIZE
    )))

    # set-up: cold publish of the base table + server bind -> first
    # /snapshot 200; repeated, and the median reported
    setup: List[Timed] = []
    serving = None
    try:
        for _ in range(STREAM_SETUP_REPEATS):
            if serving is not None:
                serving.stop()
                serving = None
            sample = reference.sample()
            serving = _Serving(base_rows, ixp)
            setup.append((serving.startup_s, sample))
        result = _run(serving, batches, seconds, outcome, reference,
                      tracer)
    finally:
        if serving is not None:
            serving.stop()
    # before the oracle below, which is the benchmark's own work
    peak_rss = maxrss_mib()

    ingestor = serving.ingestor
    # QA family 10's oracle: the batch pipeline over the final table
    final = asrank_from_rib_rows(
        ingestor.corpus.rows(), ixp_asns=ixp
    ).snapshot(source=ingestor.source).version
    outcome.check(
        final == ingestor.stats.last_publish_version,
        f"final version {ingestor.stats.last_publish_version} != "
        f"batch recompute {final}",
    )

    stats = ingestor.stats
    layer: Dict[str, float] = {
        "stream.publishes.noop": stats.noop_publishes,
        "stream.publishes.delta": stats.delta_publishes,
        "stream.publishes.full": stats.full_publishes,
        "stream.avoided_ratio": (
            (stats.noop_publishes + stats.delta_publishes) / stats.publishes
        ),
    }
    for reason, count in stats.fallbacks.items():
        layer[f"stream.fallbacks.{reason}"] = count
    result.update(
        setup=setup,
        peak_rss_mib=peak_rss,
        layer=layer,
        inputs=manifest["sha256"],
        versions=[final],
        expected_version=final,
    )
    return result


def _run(serving: _Serving, batches, seconds: float, outcome: Outcome,
         reference: Reference, tracer) -> Dict[str, object]:
    ingestor, store, conn = serving.ingestor, serving.store, serving.conn
    active = [NULL]

    def publisher(snapshot) -> None:
        with active[0].span("serve.swap_s", "serve"):
            store.swap(snapshot)

    ingestor.publisher = publisher

    def op(tr) -> None:
        active[0] = tr
        batch = next(batches, None)
        if batch is None:
            raise InputExhausted
        with tr.perf_recorder():
            with tr.span("stream.apply_s", "stream", rss="apply"):
                ingestor.apply_batch(batch)
            with tr.span("stream.publish_s", "stream", rss="publish"):
                snapshot = ingestor.publish()
        tr.count("stream.publish_apply_s", ingestor.stats.last_apply_seconds)
        tr.count("stream.publish_build_s", ingestor.stats.last_build_seconds)
        with tr.span("serve.visible_s", "serve"):
            deadline = time.perf_counter() + _VISIBLE_TIMEOUT_S
            while _served_version(conn) != snapshot.version:
                if time.perf_counter() > deadline:
                    raise CheckFailed(
                        f"version {snapshot.version} never became visible"
                    )

    start = []
    untraced, traced = timed_loop(
        op, seconds, outcome, reference, tracer,
        after_warmup=lambda: start.append(ingestor.stats.updates),
    )
    return {
        "ops": untraced,
        "traced_op_s": [s for s, _ in traced],
        # throughput counts UPDATE messages applied, over every op
        "busy": untraced + traced,
        "work": ingestor.stats.updates - start[0],
    }
