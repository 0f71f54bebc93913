"""Pre-fork worker fleet: N processes, one port, one mapped snapshot.

``serve --workers N`` runs this instead of a single-process server.
The parent is a tiny supervisor — it never loads the snapshot — and
each worker is a full :class:`~repro.serve.server.SnapshotServer` over
its own :class:`~repro.serve.store.SnapshotStore`, opened in ``mmap``
mode against the *same* file, so the kernel shares one physical copy
of the payload pages across the whole fleet.

**Port sharing.** The parent binds (without listening) a *reserver*
socket with ``SO_REUSEPORT`` to pin the port, and every worker binds
the same address with ``reuse_port=True`` — the kernel load-balances
accepts across the workers' listen queues.  A platform or address
where that bind fails raises :class:`FleetError` naming the address.

**Supervision.** A monitor thread owns all the control pipes: it
reaps dead workers with ``waitpid(WNOHANG)`` and respawns them (small
backoff), and it is the only thread that reads worker responses, so
request/response bookkeeping needs no cross-thread locking.

**Coordinated reload.** Hot reload is two-phase so it is atomic
across the fleet: the supervisor sends ``prepare`` to every worker
(each loads the target file with *every* section checksum verified and
stages it), and only when all workers ack the same version does it
send ``commit`` (an in-memory swap that cannot fail); any prepare
failure aborts everywhere and every worker keeps serving the old
snapshot.  ``POST /admin/reload`` on a worker returns 202 and files a
reload request with the supervisor (via
:meth:`WorkerAgent.request_reload` as the Api's ``reload_delegate``);
SIGHUP on the parent does the same.  Convergence is observable from
outside: ``/healthz`` carries ``worker: {index, pid}`` next to the
version, and :meth:`WorkerFleet.versions` asks every worker directly.

The control protocol is newline-delimited JSON over two pipes per
worker (parent→child commands, child→parent events/responses)::

    > {"cmd": "prepare", "id": 7, "path": "..."}
    < {"event": "resp", "id": 7, "ok": true, "version": "ab12..."}
    < {"event": "ready", "version": "ab12...", "pid": 4242}
    < {"event": "reload-request", "path": null}

A worker treats EOF on its command pipe as "supervisor is gone" and
shuts down, so an orphaned fleet cannot outlive its parent.
"""

from __future__ import annotations

import asyncio
import json
import os
import selectors
import signal
import socket
import threading
import time
import traceback
from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.datasets.serialization import DatasetFormatError
from repro.serve.server import SnapshotServer
from repro.serve.store import SnapshotStore, load_payload


class FleetError(RuntimeError):
    """A fleet-level operation (start, reload) failed."""


def memory_stats(pid: int) -> Optional[Dict[str, int]]:
    """Resident/proportional/private memory of one process, in kB.

    Parsed from ``/proc/<pid>/smaps_rollup``; ``private_kb`` is what
    the process would free if it exited — for fleet workers mapping
    one snapshot it must stay far below the snapshot size, which is
    the observable proof that the payload pages are shared.  Returns
    ``None`` where /proc is unavailable.
    """
    try:
        with open(f"/proc/{pid}/smaps_rollup") as stream:
            text = stream.read()
    except OSError:
        return None
    fields: Dict[str, int] = {}
    for line in text.splitlines():
        key, _, rest = line.partition(":")
        parts = rest.split()
        if parts and parts[-1] == "kB":
            fields[key] = int(parts[0])
    if "Rss" not in fields:
        return None
    return {
        "rss_kb": fields["Rss"],
        "pss_kb": fields.get("Pss", 0),
        "private_kb": (
            fields.get("Private_Clean", 0) + fields.get("Private_Dirty", 0)
        ),
        "shared_kb": (
            fields.get("Shared_Clean", 0) + fields.get("Shared_Dirty", 0)
        ),
    }


# ---------------------------------------------------------------------------
# worker side (runs in the forked child)
# ---------------------------------------------------------------------------


class WorkerAgent:
    """The child's end of the control protocol, on the server's loop."""

    def __init__(self, store: SnapshotStore, cmd_fd: int, resp_fd: int):
        self.store = store
        self.cmd_fd = cmd_fd
        self.resp_fd = resp_fd
        self._buffer = b""
        self._staged: Optional[Tuple[object, str]] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None

    def request_reload(self, path: Optional[str] = None) -> None:
        """File a reload request with the supervisor (the Api's
        ``reload_delegate``); safe from any thread."""
        self._send({"event": "reload-request", "path": path})

    def _send(self, msg: Dict[str, object]) -> None:
        # small one-line writes are atomic on a pipe (< PIPE_BUF)
        try:
            os.write(self.resp_fd, json.dumps(msg).encode() + b"\n")
        except OSError:
            pass

    async def main(self, server: SnapshotServer) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        await server.start()
        self._send(
            {
                "event": "ready",
                "version": self.store.cache_version,
                "pid": os.getpid(),
                "port": server.port,
            }
        )
        os.set_blocking(self.cmd_fd, False)
        self._loop.add_reader(self.cmd_fd, self._on_command)
        try:
            await self._stop.wait()
        finally:
            self._loop.remove_reader(self.cmd_fd)
            await server.stop()

    def _on_command(self) -> None:
        try:
            data = os.read(self.cmd_fd, 65536)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if not data:
            # EOF: the supervisor died or is stopping us
            self._stop.set()
            return
        self._buffer += data
        while b"\n" in self._buffer:
            line, _, self._buffer = self._buffer.partition(b"\n")
            if not line.strip():
                continue
            try:
                msg = json.loads(line)
            except ValueError:
                continue
            self._loop.create_task(self._handle(msg))

    async def _handle(self, msg: Dict[str, object]) -> None:
        cmd = msg.get("cmd")
        rid = msg.get("id")

        def resp(ok: bool, **extra) -> None:
            self._send({"event": "resp", "id": rid, "ok": ok, **extra})

        if cmd == "ping":
            resp(True, version=self.store.cache_version)
        elif cmd == "prepare":
            path = msg.get("path")
            try:
                # full checksum verification before acking: a corrupt
                # section must fail the *prepare* phase, never surface
                # mid-request after commit.  load_payload sniffs the
                # magic, so a whole timeline stages the same way a
                # single snapshot does.
                payload = await self._loop.run_in_executor(
                    None,
                    lambda: load_payload(
                        path, mode=self.store.mode, verify=True
                    ),
                )
            except Exception as exc:
                self._staged = None
                resp(False, error=str(exc))
                return
            self._staged = (payload, path)
            resp(True, version=payload.version)
        elif cmd == "commit":
            if self._staged is None:
                resp(False, error="nothing staged")
                return
            payload, path = self._staged
            self._staged = None
            self.store.swap(payload, path=path)
            resp(True, version=payload.version)
        elif cmd == "abort":
            if self._staged is not None:
                payload, _path = self._staged
                self._staged = None
                close = getattr(payload, "close", None)
                if close is not None:
                    close()
            resp(True, version=self.store.cache_version)
        elif cmd == "stop":
            resp(True)
            self._stop.set()


def _worker_main(
    index: int,
    snapshot_path: str,
    mode: str,
    cmd_fd: int,
    resp_fd: int,
    host: str,
    port: int,
    server_kwargs: Dict[str, object],
) -> None:
    """Everything a forked worker runs; never returns normally."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if hasattr(signal, "SIGHUP"):
        # reload arrives over the control pipe; the parent owns SIGHUP
        signal.signal(signal.SIGHUP, signal.SIG_IGN)
    store = SnapshotStore(path=snapshot_path, mode=mode)
    agent = WorkerAgent(store, cmd_fd, resp_fd)
    server = SnapshotServer(
        store,
        host=host,
        port=port,
        reuse_port=True,
        worker_info={"index": index, "pid": os.getpid()},
        reload_delegate=agent.request_reload,
        install_sighup=False,
        **server_kwargs,
    )
    asyncio.run(agent.main(server))


# ---------------------------------------------------------------------------
# supervisor side
# ---------------------------------------------------------------------------


class _Worker:
    __slots__ = (
        "index", "pid", "cmd_w", "resp_r", "buffer", "alive", "ready",
        "version", "registered",
    )

    def __init__(self, index: int, pid: int, cmd_w: int, resp_r: int):
        self.index = index
        self.pid = pid
        self.cmd_w = cmd_w
        self.resp_r = resp_r
        self.buffer = b""
        self.alive = True
        self.ready = threading.Event()
        self.version: Optional[str] = None
        self.registered = True


class _Op:
    __slots__ = ("kind", "path", "done", "result", "error")

    def __init__(self, kind: str, path: Optional[str] = None):
        self.kind = kind
        self.path = path
        self.done = threading.Event()
        self.result = None
        self.error: Optional[str] = None


class WorkerFleet:
    """Supervisor for N pre-fork :class:`SnapshotServer` workers."""

    def __init__(
        self,
        snapshot_path: str,
        workers: int = 2,
        host: str = "127.0.0.1",
        port: int = 0,
        mode: str = "mmap",
        restart_backoff: float = 0.1,
        start_timeout: float = 30.0,
        reload_timeout: float = 60.0,
        **server_kwargs,
    ):
        if workers < 1:
            raise ValueError("a fleet needs at least one worker")
        self.snapshot_path = os.path.abspath(snapshot_path)
        self.n_workers = workers
        self.host = host
        self.port = port
        self.mode = mode
        self.restart_backoff = restart_backoff
        self.start_timeout = start_timeout
        self.reload_timeout = reload_timeout
        self.restarts = 0
        self._server_kwargs = server_kwargs
        self._workers: List[Optional[_Worker]] = []
        self._reserver: Optional[socket.socket] = None
        self._selector = selectors.DefaultSelector()
        self._collections: Dict[int, Dict[int, Dict[str, object]]] = {}
        self._last_fatal: Optional[str] = None
        self._ops: "deque[_Op]" = deque()
        self._next_id = 0
        self._stopping = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # -- lifecycle ------------------------------------------------------

    def start(self) -> Tuple[str, int]:
        """Bind, fork the fleet, wait until every worker serves."""
        self._bind()
        self._workers = [None] * self.n_workers
        for index in range(self.n_workers):
            self._spawn(index)
        deadline = time.monotonic() + self.start_timeout
        while time.monotonic() < deadline:
            if all(
                w is not None and w.alive and w.ready.is_set()
                for w in self._workers
            ):
                break
            self._pump(0.05)
            if self._last_fatal is not None:
                # a worker died before serving — its snapshot will not
                # load for the respawn either, so fail now, not after
                # start_timeout worth of respawn churn
                error = self._last_fatal
                self.stop()
                raise FleetError(f"fleet failed to start: {error}")
        else:
            self.stop()
            raise FleetError(
                f"fleet failed to start within {self.start_timeout}s"
            )
        self._last_fatal = None
        self._thread = threading.Thread(
            target=self._monitor, name="fleet-monitor", daemon=True
        )
        self._thread.start()
        return self.host, self.port

    def stop(self) -> None:
        self._stopping.set()
        if self._thread is not None:
            self._thread.join(timeout=10)
            self._thread = None
        # closing the command pipes EOFs every agent -> graceful stop
        for worker in self._workers:
            if worker is not None and worker.alive:
                self._close_fds(worker)
        deadline = time.monotonic() + 5.0
        pending = [w for w in self._workers if w is not None and w.alive]
        while pending and time.monotonic() < deadline:
            for worker in list(pending):
                try:
                    pid, _status = os.waitpid(worker.pid, os.WNOHANG)
                except ChildProcessError:
                    pid = worker.pid
                if pid:
                    worker.alive = False
                    pending.remove(worker)
            if pending:
                time.sleep(0.02)
        for worker in pending:  # refuse to leak processes
            try:
                os.kill(worker.pid, signal.SIGKILL)
                os.waitpid(worker.pid, 0)
            except (OSError, ChildProcessError):
                pass
            worker.alive = False
        self._selector.close()
        if self._reserver is not None:
            self._reserver.close()
            self._reserver = None

    def __enter__(self) -> Tuple[str, int]:
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # -- public operations ---------------------------------------------

    def pids(self) -> List[int]:
        return [
            w.pid for w in self._workers if w is not None and w.alive
        ]

    def reload(
        self, path: Optional[str] = None, timeout: Optional[float] = None
    ) -> str:
        """Two-phase reload across the fleet; returns the new version.

        All-or-nothing: raises :class:`FleetError` (and every worker
        keeps the old snapshot) if any worker fails to load and verify
        the target file.
        """
        op = _Op("reload", path)
        self._ops.append(op)
        if not op.done.wait(timeout or self.reload_timeout * 2 + 10):
            raise FleetError("reload timed out")
        if op.error:
            raise FleetError(op.error)
        return op.result

    def request_reload(self, path: Optional[str] = None) -> None:
        """Queue a reload without waiting (the SIGHUP/delegate path)."""
        self._ops.append(_Op("reload", path))

    def versions(self, timeout: float = 10.0) -> Dict[int, str]:
        """Ask every live worker which version it is serving."""
        op = _Op("ping")
        self._ops.append(op)
        if not op.done.wait(timeout):
            raise FleetError("version poll timed out")
        if op.error:
            raise FleetError(op.error)
        return op.result

    # -- binding + forking ---------------------------------------------

    def _bind(self) -> None:
        # bound but never listening: it pins the (possibly ephemeral)
        # port for the fleet's lifetime without receiving connections;
        # workers bind it for real
        reserver = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            reserver.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEPORT, 1)
            reserver.bind((self.host, self.port))
        except (AttributeError, OSError) as exc:
            reserver.close()
            raise FleetError(
                f"cannot bind {self.host}:{self.port} with SO_REUSEPORT: {exc}"
            ) from exc
        self.host, self.port = reserver.getsockname()[:2]
        self._reserver = reserver

    def _spawn(self, index: int) -> _Worker:
        cmd_r, cmd_w = os.pipe()
        resp_r, resp_w = os.pipe()
        sibling_fds = [
            fd
            for w in self._workers
            if w is not None and w.alive
            for fd in (w.cmd_w, w.resp_r)
        ]
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.close(cmd_w)
                os.close(resp_r)
                for fd in sibling_fds:
                    try:
                        os.close(fd)
                    except OSError:
                        pass
                if self._reserver is not None:
                    self._reserver.close()
                _worker_main(
                    index,
                    self.snapshot_path,
                    self.mode,
                    cmd_r,
                    resp_w,
                    self.host,
                    self.port,
                    self._server_kwargs,
                )
                status = 0
            except BaseException as exc:
                try:
                    os.write(
                        resp_w,
                        json.dumps(
                            {"event": "fatal", "error": str(exc)}
                        ).encode() + b"\n",
                    )
                except OSError:
                    pass
                # data/IO errors (missing or corrupt snapshot) already
                # travel up as a one-line fatal event; a traceback here
                # is only useful for genuine bugs
                if not isinstance(exc, (OSError, DatasetFormatError)):
                    traceback.print_exc()
            finally:
                os._exit(status)
        os.close(cmd_r)
        os.close(resp_w)
        os.set_blocking(resp_r, False)
        worker = _Worker(index, pid, cmd_w, resp_r)
        self._workers[index] = worker
        self._selector.register(resp_r, selectors.EVENT_READ, worker)
        return worker

    def _close_fds(self, worker: _Worker) -> None:
        if worker.registered:
            worker.registered = False
            try:
                self._selector.unregister(worker.resp_r)
            except (KeyError, ValueError, RuntimeError):
                pass
        for fd in (worker.cmd_w, worker.resp_r):
            try:
                os.close(fd)
            except OSError:
                pass

    # -- monitor thread (sole reader of the response pipes) ------------

    def _monitor(self) -> None:
        while not self._stopping.is_set():
            self._pump(0.1)
            try:
                op = self._ops.popleft()
            except IndexError:
                continue
            try:
                if op.kind == "reload":
                    self._execute_reload(op)
                else:
                    self._execute_ping(op)
            except Exception as exc:  # an op bug must not kill the fleet
                op.error = str(exc)
            finally:
                op.done.set()

    def _pump(self, timeout: float) -> None:
        try:
            events = self._selector.select(timeout)
        except OSError:
            events = []
        for key, _mask in events:
            self._drain(key.data)
        self._reap()

    def _drain(self, worker: _Worker) -> None:
        while True:
            try:
                data = os.read(worker.resp_r, 65536)
            except BlockingIOError:
                return
            except OSError:
                data = b""
            if not data:
                if worker.registered:
                    worker.registered = False
                    try:
                        self._selector.unregister(worker.resp_r)
                    except (KeyError, ValueError, RuntimeError):
                        pass
                return
            worker.buffer += data
            while b"\n" in worker.buffer:
                line, _, worker.buffer = worker.buffer.partition(b"\n")
                if not line.strip():
                    continue
                try:
                    msg = json.loads(line)
                except ValueError:
                    continue
                self._dispatch(worker, msg)

    def _dispatch(self, worker: _Worker, msg: Dict[str, object]) -> None:
        event = msg.get("event")
        if event == "ready":
            worker.version = msg.get("version")
            worker.ready.set()
        elif event == "resp":
            collection = self._collections.get(msg.get("id"))
            if collection is not None:
                collection[worker.index] = msg
        elif event == "reload-request":
            self._ops.append(_Op("reload", msg.get("path")))
        elif event == "fatal":
            self._last_fatal = str(msg.get("error"))
            print(
                f"serve: worker {worker.index} (pid {worker.pid}) "
                f"fatal: {msg.get('error')}"
            )

    def _reap(self) -> None:
        for worker in self._workers:
            if worker is None or not worker.alive:
                continue
            try:
                pid, _status = os.waitpid(worker.pid, os.WNOHANG)
            except ChildProcessError:
                pid = worker.pid
            if not pid:
                continue
            self._drain(worker)  # salvage any final lines
            worker.alive = False
            worker.ready.clear()
            self._close_fds(worker)
            if not self._stopping.is_set():
                self.restarts += 1
                time.sleep(self.restart_backoff)
                self._spawn(worker.index)

    # -- fleet operations (run on the monitor thread) -------------------

    def _request_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def _send(self, worker: _Worker, msg: Dict[str, object]) -> bool:
        try:
            os.write(worker.cmd_w, json.dumps(msg).encode() + b"\n")
            return True
        except OSError:
            return False

    def _collect(
        self, rid: int, workers: List[_Worker], timeout: float
    ) -> Dict[int, Dict[str, object]]:
        got: Dict[int, Dict[str, object]] = {}
        self._collections[rid] = got
        deadline = time.monotonic() + timeout
        try:
            while time.monotonic() < deadline:
                if all(
                    not w.alive or w.index in got for w in workers
                ):
                    break
                self._pump(0.05)
        finally:
            self._collections.pop(rid, None)
        return got

    def _live_workers(self) -> List[_Worker]:
        return [
            w
            for w in self._workers
            if w is not None and w.alive and w.ready.is_set()
        ]

    def _execute_ping(self, op: _Op) -> None:
        workers = self._live_workers()
        rid = self._request_id()
        for worker in workers:
            self._send(worker, {"cmd": "ping", "id": rid})
        got = self._collect(rid, workers, 10.0)
        op.result = {
            index: msg.get("version") for index, msg in got.items()
        }

    def _execute_reload(self, op: _Op) -> None:
        target = os.path.abspath(op.path) if op.path else self.snapshot_path
        workers = self._live_workers()
        if not workers:
            op.error = "no live workers to reload"
            return

        # phase 1: every worker loads + fully verifies the target
        rid = self._request_id()
        for worker in workers:
            self._send(
                worker, {"cmd": "prepare", "id": rid, "path": target}
            )
        got = self._collect(rid, workers, self.reload_timeout)
        acks = [msg for msg in got.values() if msg.get("ok")]
        versions = {msg.get("version") for msg in acks}
        if len(got) < len(workers) or len(acks) < len(got) \
                or len(versions) != 1:
            rid = self._request_id()
            for worker in workers:
                if worker.alive:
                    self._send(worker, {"cmd": "abort", "id": rid})
            self._collect(
                rid, [w for w in workers if w.alive], 10.0
            )
            errors = sorted(
                {
                    str(msg.get("error"))
                    for msg in got.values()
                    if not msg.get("ok")
                }
            )
            missing = len(workers) - len(got)
            detail = "; ".join(errors) if errors else (
                f"{missing} worker(s) did not respond"
            )
            op.error = (
                f"reload aborted, fleet still on the old snapshot: "
                f"{detail}"
            )
            return

        # phase 2: commit everywhere (an in-memory swap; a worker dying
        # here respawns from snapshot_path, which now names the new
        # file, so the fleet still converges on one version)
        version = versions.pop()
        self.snapshot_path = target
        rid = self._request_id()
        for worker in workers:
            self._send(worker, {"cmd": "commit", "id": rid})
        got = self._collect(rid, workers, 10.0)
        committed = [msg for msg in got.values() if msg.get("ok")]
        for worker in workers:
            if worker.index in got and got[worker.index].get("ok"):
                worker.version = version
        if len(committed) < len(workers):
            op.error = (
                f"{len(workers) - len(committed)} worker(s) dropped "
                f"during commit; respawns converge to {version}"
            )
            return
        op.result = version
