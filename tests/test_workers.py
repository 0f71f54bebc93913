"""Pre-fork worker fleet: port sharing, supervision, coordinated reload.

These run real forked workers against real sockets, so every test is
built on one module-scoped snapshot file and fleets are kept small
(2 workers) and short-lived.  The invariants under test mirror the
serving contract: one port answers regardless of which worker accepts,
a killed worker is respawned, and hot reload is atomic across the
fleet — all workers converge to one version, and a bad target file
leaves every worker on the old snapshot.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import time
import urllib.request

import pytest

from repro.asrank import ASRank
from repro.scenarios import get_scenario
from repro.serve.store import save_snapshot
from repro.serve.workers import FleetError, WorkerFleet, memory_stats

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="needs fork"
)


def _get(host: str, port: int, path: str, timeout: float = 5.0):
    with urllib.request.urlopen(
        f"http://{host}:{port}{path}", timeout=timeout
    ) as response:
        return response.status, json.loads(response.read())


def _post(host: str, port: int, path: str, payload: dict,
          timeout: float = 5.0):
    request = urllib.request.Request(
        f"http://{host}:{port}{path}",
        data=json.dumps(payload).encode(),
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return response.status, json.loads(response.read())


@pytest.fixture(scope="module")
def snapshots(tmp_path_factory):
    """(small snapshot path + version, tiny snapshot path + version)."""
    directory = tmp_path_factory.mktemp("fleet")
    _g, _c, paths, result = get_scenario("small").run()
    facade = ASRank(paths)
    facade._result = result
    small = str(directory / "small.snapshot")
    small_version = save_snapshot(facade.snapshot(), small)
    _g, _c, paths, result = get_scenario("tiny").run()
    facade = ASRank(paths)
    facade._result = result
    tiny = str(directory / "tiny.snapshot")
    tiny_version = save_snapshot(facade.snapshot(), tiny)
    return small, small_version, tiny, tiny_version


def _wait(predicate, timeout: float = 10.0, interval: float = 0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


class TestFleetServing:
    def test_fleet_serves_and_identifies_workers(self, snapshots):
        small, version, _tiny, _tv = snapshots
        with WorkerFleet(small, workers=2) as (host, port):
            seen_pids = set()
            for _ in range(40):
                status, body = _get(host, port, "/healthz")
                assert status == 200 and body["status"] == "ok"
                assert body["version"] == version
                worker = body["worker"]
                assert worker["index"] in (0, 1)
                seen_pids.add(worker["pid"])
            status, body = _get(host, port, "/snapshot")
            assert status == 200 and body["version"] == version
            assert "worker" in body

    def test_versions_poll(self, snapshots):
        small, version, _tiny, _tv = snapshots
        fleet = WorkerFleet(small, workers=2)
        fleet.start()
        try:
            fleet_versions = fleet.versions()
            assert set(fleet_versions.values()) == {version}
            assert sorted(fleet_versions) == [0, 1]
            assert len(fleet.pids()) == 2
        finally:
            fleet.stop()

    def test_bind_failure_names_the_address(self, snapshots):
        small, _version, _tiny, _tv = snapshots
        # a listener without SO_REUSEPORT holds the port: the fleet
        # cannot share it and says which address failed, forking nothing
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen(1)
            port = taken.getsockname()[1]
            fleet = WorkerFleet(small, workers=2, port=port)
            with pytest.raises(FleetError, match=f"127.0.0.1:{port}"):
                fleet.start()
            assert fleet.pids() == []

    def test_worker_memory_is_shared(self, snapshots):
        small, _v, _tiny, _tv = snapshots
        snapshot_bytes = os.path.getsize(small)
        fleet = WorkerFleet(small, workers=2)
        host, port = fleet.start()
        try:
            for _ in range(20):  # fault some pages in
                _get(host, port, "/ranks?page=1&per_page=100")
            stats = [memory_stats(pid) for pid in fleet.pids()]
        finally:
            fleet.stop()
        if any(s is None for s in stats):
            pytest.skip("smaps_rollup unavailable")
        for entry in stats:
            assert entry["rss_kb"] > 0
            # private pages must not include a copy of the payload
            assert entry["private_kb"] * 1024 < \
                snapshot_bytes + 16 * 1024 * 1024


class TestSupervision:
    def test_killed_worker_respawns(self, snapshots):
        small, _v, _tiny, _tv = snapshots
        fleet = WorkerFleet(small, workers=2, restart_backoff=0.05)
        host, port = fleet.start()
        try:
            victim = fleet.pids()[0]
            os.kill(victim, signal.SIGKILL)
            assert _wait(
                lambda: len(fleet.pids()) == 2
                and victim not in fleet.pids()
            ), f"no respawn: {fleet.pids()}"
            assert fleet.restarts >= 1
            status, _body = _get(host, port, "/healthz")
            assert status == 200
        finally:
            fleet.stop()

    def test_stop_leaves_no_children(self, snapshots):
        small, _v, _tiny, _tv = snapshots
        fleet = WorkerFleet(small, workers=2)
        fleet.start()
        pids = fleet.pids()
        fleet.stop()
        for pid in pids:
            with pytest.raises(OSError):
                os.kill(pid, 0)  # ESRCH: the process is gone

    def test_start_requires_live_snapshot(self, tmp_path):
        missing = str(tmp_path / "nope.snapshot")
        fleet = WorkerFleet(missing, workers=1, start_timeout=3.0,
                            restart_backoff=0.2)
        with pytest.raises(FleetError):
            fleet.start()


class TestCoordinatedReload:
    def test_reload_converges_all_workers(self, snapshots):
        small, small_version, tiny, tiny_version = snapshots
        fleet = WorkerFleet(small, workers=2)
        host, port = fleet.start()
        try:
            assert set(fleet.versions().values()) == {small_version}
            new_version = fleet.reload(tiny)
            assert new_version == tiny_version
            assert set(fleet.versions().values()) == {tiny_version}
            # and observable over HTTP from every worker
            versions_seen = set()
            for _ in range(20):
                _status, body = _get(host, port, "/healthz")
                versions_seen.add(body["version"])
            assert versions_seen == {tiny_version}
        finally:
            fleet.stop()

    def test_failed_reload_keeps_old_everywhere(self, snapshots,
                                                tmp_path):
        small, small_version, tiny, _tv = snapshots
        corrupt = str(tmp_path / "corrupt.snapshot")
        with open(tiny, "rb") as stream:
            blob = bytearray(stream.read())
        blob[-1] ^= 0xFF
        with open(corrupt, "wb") as stream:
            stream.write(bytes(blob))
        fleet = WorkerFleet(small, workers=2)
        fleet.start()
        try:
            with pytest.raises(FleetError, match="old snapshot"):
                fleet.reload(corrupt)
            assert set(fleet.versions().values()) == {small_version}
            # the fleet still reloads fine afterwards
            assert fleet.reload(small) == small_version
        finally:
            fleet.stop()

    def test_reload_of_missing_file_fails_cleanly(self, snapshots):
        small, small_version, _tiny, _tv = snapshots
        fleet = WorkerFleet(small, workers=2)
        fleet.start()
        try:
            with pytest.raises(FleetError):
                fleet.reload(small + ".does-not-exist")
            assert set(fleet.versions().values()) == {small_version}
        finally:
            fleet.stop()

    def test_admin_reload_delegates_and_converges(self, snapshots):
        small, _sv, tiny, tiny_version = snapshots
        fleet = WorkerFleet(small, workers=2)
        host, port = fleet.start()
        try:
            status, body = _post(
                host, port, "/admin/reload", {"path": tiny}
            )
            assert status == 202
            assert body["accepted"] is True
            assert _wait(
                lambda: set(fleet.versions().values()) == {tiny_version}
            ), fleet.versions()
        finally:
            fleet.stop()
