"""serve-mixed: the read side of ``repro serve`` under a closed loop.

The server is ``python -m repro.cli serve`` in its own process (single
worker, eager load, 4096-entry response cache) over rib-build's
snapshot for seed 0, whatever the seed: what a request costs follows
the size of the snapshot, which moves with the seed's world (the
median by up to 15% between seeds), so the seed drives the request
stream and not the thing served.  This process drives it with a fixed number of
connections, each sending its next request only after the previous
reply arrived (API clients are scripts that await each reply).  The
client is the benchmark's own, so a change to the program's load
generator cannot move the numbers.

The mix is the program load generator's default (per-AS lookups,
cones, links, rank pages, metadata, health) plus ``/paths`` queries
over the full AS population: lookups set the median through wire,
handlers and the response cache; cold ``/paths`` origins set the tail
through path propagation.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import select
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple
from urllib.parse import unquote

from common import (
    ROUTES,
    SETUP_REPEATS,
    Outcome,
    Reference,
    Timed,
    maxrss_mib,
    median,
    repro_env,
    vm_hwm_mib,
)
from inputs import ensure

_MIX = (
    ("asn", 35), ("cone", 25), ("link", 15), ("ranks", 15),
    ("snapshot", 5), ("healthz", 5),
)
_DEFINITIONS = (
    "recursive", "bgp-observed", "provider%2Fpeer-observed", "ppdc",
)
#: rib-build's input for this seed is the snapshot served
_SNAPSHOT_SEED = 0
_CONNECTIONS = 2
_CACHE_SIZE = 4096
_PATHS_WEIGHT = 10
_SAMPLE_CHECKS = 300
_WARMUP_S = 1.0
#: the load runs in slices this long, with a reference sample between;
#: the machine's slow phases can last under a second, and 2 s slices
#: doubled the ten-seed spread of the rescaled latencies
_SLICE_S = 0.5
_START_TIMEOUT_S = 60.0


class Schedule:
    """Seeded request draws: (route, target)."""

    def __init__(self, seed: int, asns) -> None:
        self.rng = random.Random(seed)
        self.asns = list(asns)
        mix = _MIX + (("paths", _PATHS_WEIGHT),)
        self.routes = [route for route, _ in mix]
        self.weights = [weight for _, weight in mix]

    def draw(self) -> Tuple[str, str]:
        rng, asns = self.rng, self.asns
        route = rng.choices(self.routes, self.weights)[0]
        if route == "asn":
            return route, f"/asns/{rng.choice(asns)}"
        if route == "cone":
            return route, (f"/asns/{rng.choice(asns)}/cone"
                           f"?definition={rng.choice(_DEFINITIONS)}")
        if route == "link":
            return route, f"/links/{rng.choice(asns)}/{rng.choice(asns)}"
        if route == "ranks":
            return route, f"/ranks?page={rng.randint(1, 4)}&per_page=50"
        if route == "paths":
            target = f"/paths/{rng.choice(asns)}/{rng.choice(asns)}"
            if rng.random() < 0.25:
                target += "?origins=" + ",".join(
                    str(a) for a in rng.sample(asns, 2)
                )
            return route, target
        return route, f"/{route}"


async def _request(reader, writer, target: str) -> Tuple[int, bytes]:
    writer.write(
        f"GET {target} HTTP/1.1\r\nHost: bench\r\n"
        f"Connection: keep-alive\r\n\r\n".encode()
    )
    await writer.drain()
    head = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), 30)
    lines = head.split(b"\r\n")
    status = int(lines[0].split(b" ")[1])
    length = 0
    for line in lines[1:]:
        if line.lower().startswith(b"content-length:"):
            length = int(line.split(b":")[1])
    body = await asyncio.wait_for(reader.readexactly(length), 30) \
        if length else b""
    return status, body


class _Load:
    """One closed-loop load phase, driven in slices; each untraced
    latency and each slice's length carries the reference sample taken
    before its slice."""

    def __init__(self) -> None:
        self.untraced: List[Timed] = []
        self.by_route_ms: Dict[str, List[float]] = {}
        self.requests = 0
        self.failed = 0
        self.problems: List[str] = []
        self.slices: List[Timed] = []
        self.drawn = 0

    @property
    def seconds(self) -> float:
        return sum(s for s, _ in self.slices)


async def _drive(port: int, schedule: Schedule, seconds: float, tracer,
                 load: _Load, sample: int) -> None:
    deadline = time.perf_counter() + seconds

    async def worker() -> None:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            while time.perf_counter() < deadline:
                drawn = time.perf_counter()
                route, target = schedule.draw()
                index = load.drawn
                load.drawn += 1
                start = time.perf_counter()
                try:
                    status, _body = await _request(reader, writer, target)
                except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                        OSError) as exc:
                    load.requests += 1
                    load.failed += 1
                    load.problems.append(f"{target}: {exc!r}")
                    writer.close()
                    reader, writer = await asyncio.open_connection(
                        "127.0.0.1", port
                    )
                    continue
                end = time.perf_counter()
                load.requests += 1
                if status >= 500:
                    load.failed += 1
                    load.problems.append(f"{target}: HTTP {status}")
                    continue
                if tracer is not None and index % 2 == 1:
                    op = tracer.begin_op()
                    parent = tracer.add("op", "op", drawn, end, op=op)
                    tracer.add("serve.request_s", "serve", start, end,
                               parent, op=op)
                    load.by_route_ms.setdefault(route, []).append(
                        (end - start) * 1000.0
                    )
                else:
                    load.untraced.append((end - start, sample))
        finally:
            writer.close()

    start = time.perf_counter()
    await asyncio.gather(*(worker() for _ in range(_CONNECTIONS)))
    load.slices.append((time.perf_counter() - start, sample))


async def _fetch(port: int, targets: List[str]) -> List[Tuple[int, bytes]]:
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        return [await _request(reader, writer, t) for t in targets]
    finally:
        writer.close()


def _split_target(target: str):
    path, _, query_string = target.partition("?")
    query = {}
    for pair in filter(None, query_string.split("&")):
        key, _, value = pair.partition("=")
        query[unquote(key)] = unquote(value)
    return unquote(path), query


class _Server:
    """``repro.cli serve`` as a child process."""

    def __init__(self, snapshot_path: str) -> None:
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--snapshot", snapshot_path, "--port", "0", "--mode", "eager",
             "--workers", "1", "--cache-size", str(_CACHE_SIZE)],
            env=repro_env(), stdout=subprocess.PIPE, text=True,
        )
        try:
            self.port = self._await_port()
            deadline = time.monotonic() + _START_TIMEOUT_S
            while asyncio.run(_fetch(self.port, ["/healthz"]))[0][0] != 200:
                if time.monotonic() > deadline:
                    raise RuntimeError("server never answered /healthz")
                time.sleep(0.01)
        except BaseException:
            self.stop()
            raise
        self.startup_s = time.perf_counter() - start

    def _await_port(self) -> int:
        deadline = time.monotonic() + _START_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([self.proc.stdout], [], [], 1.0)
            if not ready:
                continue
            line = self.proc.stdout.readline()
            if not line:
                break
            if " on http://" in line:
                return int(line.strip().rsplit(":", 1)[1])
        raise RuntimeError("server did not report its port")

    def stop(self) -> None:
        if self.proc.poll() is None:
            # SIGTERM, not SIGINT: a shell starting this benchmark in the
            # background leaves SIGINT ignored, and children inherit that
            self.proc.terminate()
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=15)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def serve_mixed(seed: int, seconds: float, scale: str, outcome: Outcome,
                reference: Reference, tracer) -> Dict[str, object]:
    from repro.serve.handlers import Api, encode_payload
    from repro.serve.store import SnapshotStore, load_snapshot

    directory, manifest = ensure("rib", _SNAPSHOT_SEED, scale)
    snapshot_path = os.path.join(directory, "snapshot.snp")

    start = time.perf_counter()
    snapshot = load_snapshot(snapshot_path, mode="eager")
    load_s = time.perf_counter() - start
    rss_load = maxrss_mib()
    asns = list(snapshot.asns)

    setup: List[Timed] = []
    server: Optional[_Server] = None
    try:
        for _ in range(SETUP_REPEATS):
            if server is not None:
                server.stop()
            sample = reference.sample()
            server = _Server(snapshot_path)
            setup.append((server.startup_s, sample))

        port = server.port
        warm = _Load()
        asyncio.run(_drive(port, Schedule(seed + 1_000_003, asns),
                           _WARMUP_S, None, warm, reference.sample()))
        load = _Load()
        schedule = Schedule(seed, asns)
        while load.seconds < seconds:
            sample = reference.sample()
            asyncio.run(_drive(port, schedule,
                               min(_SLICE_S, seconds - load.seconds),
                               tracer, load, sample))
        outcome.attempted += load.requests + warm.requests
        outcome.failed += load.failed + warm.failed
        outcome.problems += (warm.problems + load.problems)[:20]

        # output checks: a seeded sample against in-process handlers
        # over the same file, and the served version against the file's
        api = Api(SnapshotStore(path=snapshot_path, mode="eager"))
        sample = Schedule(seed + 2_000_029, asns)
        targets = [sample.draw()[1] for _ in range(_SAMPLE_CHECKS)]
        answers = asyncio.run(_fetch(port, targets + ["/snapshot"]))
        for target, (status, body) in zip(targets, answers):
            path, query = _split_target(target)
            want_status, payload, _route, _cacheable = api.handle(
                "GET", path, query
            )
            expected = json.loads(encode_payload(payload))
            outcome.check(
                status == want_status and json.loads(body) == expected,
                f"{target}: served {status} differs from Api.handle",
            )
        served = json.loads(answers[-1][1]).get("version")
        outcome.check(
            served == snapshot.version == manifest["snapshot_version"],
            f"/snapshot version {served} != file {snapshot.version}",
        )
        metrics = json.loads(asyncio.run(_fetch(port, ["/metrics"]))[0][1])
        peak_rss = vm_hwm_mib(server.proc.pid)
    finally:
        if server is not None:
            server.stop()

    layer: Dict[str, float] = {
        "serve.snapshot_load_s": load_s,
        "serve.cache_hit_ratio": metrics["cache"]["hit_rate"],
    }
    paths = metrics.get("paths", {})
    lookups = paths.get("table_hits", 0) + paths.get("table_misses", 0)
    layer["serve.paths_table_hit_ratio"] = (
        paths.get("table_hits", 0) / lookups if lookups else 0.0
    )
    for route in ROUTES:
        layer[f"serve.client.{route}.p50_ms"] = median(
            load.by_route_ms.get(route, [])
        )
        layer[f"serve.server.{route}.mean_ms"] = (
            metrics["routes"].get(route, {}).get("mean_ms", 0.0)
        )
    if tracer is not None:
        tracer.rss["snapshot_load"] = rss_load
    traced_ms = [ms for values in load.by_route_ms.values() for ms in values]
    return {
        "setup": setup,
        "ops": load.untraced,
        "traced_op_s": [ms / 1000.0 for ms in traced_ms],
        "busy": load.slices,
        "work": load.requests,
        "peak_rss_mib": peak_rss,
        "layer": layer,
        "inputs": manifest["sha256"],
        "versions": [snapshot.version],
        "expected_version": manifest["snapshot_version"],
    }
