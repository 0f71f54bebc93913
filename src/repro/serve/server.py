"""Dependency-free asyncio HTTP/1.1 JSON server over a snapshot store.

One process, one event loop, stdlib only — like the rest of the repo.
The wire layer is deliberately thin: persistent connections, a
response cache in front of the handlers, ETag/304 revalidation, and
per-route latency metrics deposited into :mod:`repro.perf`.

* **Response cache** — an LRU keyed on ``(snapshot version, method,
  target)`` holding fully framed body bytes + ETag, so a cache hit
  costs one dict lookup and one ``writer.write``.  Keying on the
  version means a hot reload implicitly invalidates everything without
  a flush pause.
* **ETags** — ``"<version>:<crc32 of body>"``; ``If-None-Match``
  revalidation returns 304 with an empty body.
* **Hot reload** — ``POST /admin/reload`` (or SIGHUP when the loop
  owns the main thread's signals) rebuilds the store's snapshot from
  its file and swaps the reference atomically; requests already
  holding the old reference finish against it.

:class:`ServerThread` runs the loop on a background thread so tests,
benchmarks and the load generator can drive a real TCP server from
synchronous code.
"""

from __future__ import annotations

import asyncio
import signal
import threading
import time
import zlib
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Optional, Tuple
from urllib.parse import unquote

from repro import perf
from repro.serve.handlers import Api, encode_payload
from repro.serve.store import SnapshotStore

_STATUS_LINES = {
    200: b"HTTP/1.1 200 OK\r\n",
    202: b"HTTP/1.1 202 Accepted\r\n",
    304: b"HTTP/1.1 304 Not Modified\r\n",
    400: b"HTTP/1.1 400 Bad Request\r\n",
    403: b"HTTP/1.1 403 Forbidden\r\n",
    404: b"HTTP/1.1 404 Not Found\r\n",
    405: b"HTTP/1.1 405 Method Not Allowed\r\n",
    409: b"HTTP/1.1 409 Conflict\r\n",
    431: b"HTTP/1.1 431 Request Header Fields Too Large\r\n",
    500: b"HTTP/1.1 500 Internal Server Error\r\n",
}

#: latency histogram bucket upper bounds, seconds
LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
    0.01, 0.025, 0.05, 0.1, 0.25, 1.0, float("inf"),
)


class Metrics:
    """Per-route request counters + latency histograms + cache stats.

    Guarded by a lock so the ``/metrics`` handler (and tests polling
    from other threads) read a consistent view; the per-request cost is
    one lock acquisition and a bucket increment.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._routes: Dict[str, List] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.not_modified = 0

    def observe(self, route: str, status: int, seconds: float) -> None:
        with self._lock:
            row = self._routes.get(route)
            if row is None:
                row = [0, 0, 0.0, [0] * len(LATENCY_BUCKETS)]
                self._routes[route] = row
            row[0] += 1
            if status >= 500:
                row[1] += 1
            row[2] += seconds
            for i, bound in enumerate(LATENCY_BUCKETS):
                if seconds <= bound:
                    row[3][i] += 1
                    break
        with perf.stage("serve"):
            perf.add_seconds(route, seconds)
            perf.counter("requests")

    def cache_hit(self) -> None:
        with self._lock:
            self.cache_hits += 1

    def cache_miss(self) -> None:
        with self._lock:
            self.cache_misses += 1

    def revalidated(self) -> None:
        with self._lock:
            self.not_modified += 1

    def view(self) -> Dict[str, object]:
        """Detached JSON-serializable view (what ``/metrics`` returns)."""
        with self._lock:
            routes: Dict[str, object] = {}
            for route, (count, errors, seconds, hist) in (
                self._routes.items()
            ):
                routes[route] = {
                    "requests": count,
                    "errors": errors,
                    "seconds": seconds,
                    "mean_ms": (seconds / count * 1000.0) if count else 0.0,
                    "p50_ms": _quantile_ms(hist, 0.50),
                    "p99_ms": _quantile_ms(hist, 0.99),
                    "histogram": {
                        ("inf" if bound == float("inf")
                         else f"{bound * 1000:g}ms"): hist[i]
                        for i, bound in enumerate(LATENCY_BUCKETS)
                    },
                }
            lookups = self.cache_hits + self.cache_misses
            return {
                "routes": routes,
                "cache": {
                    "hits": self.cache_hits,
                    "misses": self.cache_misses,
                    "hit_rate": (
                        self.cache_hits / lookups if lookups else 0.0
                    ),
                    "not_modified": self.not_modified,
                },
            }


def _quantile_ms(hist: List[int], q: float) -> float:
    total = sum(hist)
    if not total:
        return 0.0
    threshold = q * total
    running = 0
    for i, count in enumerate(hist):
        running += count
        if running >= threshold:
            bound = LATENCY_BUCKETS[i]
            return bound * 1000.0 if bound != float("inf") else -1.0
    return -1.0


class SnapshotServer:
    """Serve one :class:`SnapshotStore` over HTTP/1.1 + JSON."""

    def __init__(
        self,
        store: SnapshotStore,
        host: str = "127.0.0.1",
        port: int = 8080,
        cache_size: int = 4096,
        allow_admin: bool = True,
        install_sighup: bool = False,
        compute_workers: int = 2,
        reuse_port: bool = False,
        worker_info: Optional[Dict[str, object]] = None,
        reload_delegate=None,
        ingest_status=None,
    ):
        self.store = store
        self.host = host
        self.port = port
        self.cache_size = cache_size
        self.install_sighup = install_sighup
        # pre-fork fleet wiring: reuse_port=True for SO_REUSEPORT siblings
        self._reuse_port = reuse_port
        self.metrics = Metrics()
        self.api = Api(
            store,
            metrics_view=self.metrics.view,
            allow_admin=allow_admin,
            worker_info=worker_info,
            reload_delegate=reload_delegate,
            ingest_status=ingest_status,
        )
        # path/what-if propagation runs on this bounded pool so a cold
        # route-table build never stalls the event loop: cached reads
        # keep flowing while at most ``compute_workers`` queries compute
        self._pool: Optional[ThreadPoolExecutor] = (
            ThreadPoolExecutor(
                max_workers=max(1, compute_workers),
                thread_name_prefix="serve-compute",
            )
            if compute_workers > 0
            else None
        )
        # (version, method, target) -> (status, body, etag, route)
        self._cache: "OrderedDict[Tuple[str, str, str], Tuple[int, bytes, bytes, str]]" = OrderedDict()
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: set = set()
        self._handler_tasks: set = set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the actual (host, port)."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port,
            reuse_port=self._reuse_port,
        )
        sockname = self._server.sockets[0].getsockname()
        self.host = sockname[0]
        self.port = sockname[1]
        if self.install_sighup and hasattr(signal, "SIGHUP"):
            try:
                asyncio.get_running_loop().add_signal_handler(
                    signal.SIGHUP, self._sighup
                )
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-main thread or platform without signals
        return self.host, self.port

    def _sighup(self) -> None:
        try:
            self.store.reload()
        except Exception as exc:  # keep serving the old snapshot
            print(f"serve: SIGHUP reload failed: {exc}")

    async def serve_forever(self) -> None:
        assert self._server is not None, "call start() first"
        async with self._server:
            await self._server.serve_forever()

    async def run(self) -> None:
        """start() + serve_forever() in one call (the CLI entry)."""
        await self.start()
        print(
            f"serving snapshot {self.store.current.version} "
            f"on http://{self.host}:{self.port}"
        )
        await self.serve_forever()

    async def stop(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # nudge lingering keep-alive connections to EOF and let their
        # handler tasks finish; otherwise the loop teardown cancels
        # them mid-await and asyncio logs the cancellations
        for writer in list(self._connections):
            writer.close()
        if self._handler_tasks:
            await asyncio.gather(
                *list(self._handler_tasks), return_exceptions=True
            )

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
        self._connections.add(writer)
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except asyncio.IncompleteReadError:
                    break
                except asyncio.LimitOverrunError:
                    writer.write(
                        _STATUS_LINES[431] + b"Content-Length: 0\r\n\r\n"
                    )
                    break
                response, keep_alive = await self._respond(head, reader)
                writer.write(response)
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError,
                asyncio.IncompleteReadError):
            pass  # includes a body cut short of its Content-Length
        finally:
            self._connections.discard(writer)
            if task is not None:
                self._handler_tasks.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError,
                    asyncio.CancelledError):
                pass

    async def _respond(
        self, head: bytes, reader: asyncio.StreamReader
    ) -> Tuple[bytes, bool]:
        start = time.perf_counter()
        try:
            method, target, keep_alive, content_length, if_none_match = (
                _parse_head(head)
            )
        except ValueError:
            body = b'{"error":"malformed request"}'
            return _frame(400, body, b"", close=True), False
        body_in = b""
        if content_length:
            if content_length > 1 << 20:
                return (
                    _frame(400, b'{"error":"body too large"}', b"",
                           close=True),
                    False,
                )
            body_in = await reader.readexactly(content_length)

        # the cache/ETag version is the timeline version when one is
        # mounted: the request target carries the raw as_of token, so
        # (version, target) pins both the content generation and the
        # resolved era
        version = self.store.cache_version
        cache_key = (version, method, target)
        cached = self._cache.get(cache_key) if method == "GET" else None
        if cached is not None:
            self._cache.move_to_end(cache_key)
            self.metrics.cache_hit()
            status, body, etag, route = cached
            if if_none_match and if_none_match == etag:
                self.metrics.revalidated()
                response = _frame(304, b"", etag, keep_alive=keep_alive)
            else:
                response = _frame(status, body, etag, keep_alive=keep_alive)
            self.metrics.observe(route, status,
                                 time.perf_counter() - start)
            return response, keep_alive

        path, query = _split_target(target)
        try:
            if self._pool is not None and _compute_route(path):
                status, payload, route, cacheable = (
                    await asyncio.get_running_loop().run_in_executor(
                        self._pool,
                        self.api.handle,
                        method,
                        path,
                        query,
                        body_in,
                    )
                )
            else:
                status, payload, route, cacheable = self.api.handle(
                    method, path, query, body_in
                )
            body = encode_payload(payload)
        except Exception as exc:  # a handler bug must not kill the server
            status, route, cacheable = 500, "error", False
            body = encode_payload({"error": f"internal error: {exc}"})
        etag = b""
        if method == "GET" and cacheable:
            self.metrics.cache_miss()
            etag = f'"{version}:{zlib.crc32(body):08x}"'.encode()
            self._cache[cache_key] = (status, body, etag, route)
            if len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
        if if_none_match and etag and if_none_match == etag:
            self.metrics.revalidated()
            response = _frame(304, b"", etag, keep_alive=keep_alive)
        else:
            response = _frame(status, body, etag, keep_alive=keep_alive)
        self.metrics.observe(route, status, time.perf_counter() - start)
        return response, keep_alive


# ---------------------------------------------------------------------------
# wire helpers
# ---------------------------------------------------------------------------


def _parse_head(head: bytes) -> Tuple[str, str, bool, int, bytes]:
    """Request line + the three headers the server cares about."""
    lines = head.split(b"\r\n")
    parts = lines[0].split(b" ")
    if len(parts) != 3:
        raise ValueError("bad request line")
    method = parts[0].decode("latin-1")
    target = parts[1].decode("latin-1")
    keep_alive = parts[2] != b"HTTP/1.0"
    content_length = 0
    if_none_match = b""
    for line in lines[1:]:
        if not line:
            continue
        key, _, value = line.partition(b":")
        key = key.strip().lower()
        if key == b"content-length":
            # digits only: int() would also take "-1", "+3" and "1_0"
            value = value.strip()
            if not value.isdigit():
                raise ValueError("bad content-length")
            content_length = int(value)
        elif key == b"connection":
            token = value.strip().lower()
            if token == b"close":
                keep_alive = False
            elif token == b"keep-alive":
                keep_alive = True
        elif key == b"if-none-match":
            if_none_match = value.strip()
    return method, target, keep_alive, content_length, if_none_match


def _compute_route(path: str) -> bool:
    """Does this path run propagation or an era diff (and so belong
    on the pool)?"""
    head = path.lstrip("/").split("/", 1)[0]
    return head in ("paths", "what-if", "diff")


def _split_target(target: str) -> Tuple[str, Dict[str, str]]:
    path, _, query_string = target.partition("?")
    query: Dict[str, str] = {}
    if query_string:
        for pair in query_string.split("&"):
            key, _, value = pair.partition("=")
            if key:
                query[unquote(key)] = unquote(value)
    return unquote(path), query


def _frame(
    status: int,
    body: bytes,
    etag: bytes,
    keep_alive: bool = True,
    close: bool = False,
) -> bytes:
    head = [
        _STATUS_LINES.get(status, _STATUS_LINES[500]),
        b"Content-Type: application/json\r\n",
        b"Content-Length: %d\r\n" % len(body),
    ]
    if etag:
        head.append(b"ETag: %s\r\n" % etag)
    head.append(
        b"Connection: close\r\n" if (close or not keep_alive)
        else b"Connection: keep-alive\r\n"
    )
    head.append(b"\r\n")
    return b"".join(head) + body


class ServerThread:
    """A running server on a background thread (tests/benchmarks).

    ::

        with ServerThread(store) as (host, port):
            ... requests against http://host:port ...
    """

    def __init__(self, store: SnapshotStore, host: str = "127.0.0.1",
                 port: int = 0, **kwargs):
        self.server = SnapshotServer(store, host=host, port=port, **kwargs)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._stop: Optional[asyncio.Event] = None

    def start(self) -> Tuple[str, int]:
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._started.wait(timeout=10):
            raise RuntimeError("server thread failed to start")
        return self.server.host, self.server.port

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        await self.server.start()
        self._started.set()
        await self._stop.wait()
        await self.server.stop()

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=10)

    def __enter__(self) -> Tuple[str, int]:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
