"""The shared-memory graph codec and the zero-copy collection path."""

from __future__ import annotations

import gc
import os
import weakref
from dataclasses import replace

import pytest

import repro.graph.shm as shm_module
from repro.bgp.collector import Collector, CollectorConfig, shutdown_pool
from repro.bgp.noise import NoiseConfig
from repro.bgp.propagation import GraphIndex
from repro.graph import SharedGraphIndex, SharedRelGraph
from repro.topology.generator import GeneratorConfig, generate_topology


@pytest.fixture(scope="module")
def graph():
    return generate_topology(GeneratorConfig(n_ases=160, seed=5))


@pytest.fixture(scope="module")
def index(graph):
    return GraphIndex(graph)


def _corpus_key(corpus):
    return (
        corpus.paths,
        corpus.path_counts,
        [(r.vp, r.prefix, r.path, r.communities) for r in corpus.rib],
    )


def _shm_entries():
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        return set()
    return {f for f in os.listdir("/dev/shm") if f.startswith("repro_rg_")}


class TestSharedRelGraphCodec:
    def test_round_trip_adjacency(self, graph, index):
        packed = SharedRelGraph.pack(index.rel, via_ixp=graph.via_ixp)
        try:
            attached = SharedRelGraph.attach(packed.name)
            view = SharedGraphIndex(attached)
            assert view.asns == index.asns
            assert view.index == index.index
            for rows, packed_rows in (
                (index.providers, view.providers),
                (index.customers, view.customers),
                (index.peers, view.peers),
            ):
                assert len(packed_rows) == len(rows) == len(index)
                assert packed_rows.tolist() == rows.tolist()
            assert view.via_ixp == graph.via_ixp
            attached.close()
        finally:
            packed.unlink()

    def test_closure_not_packed_by_default(self, index):
        packed = SharedRelGraph.pack(index.rel)
        try:
            assert packed.via_ixp() == {}
        finally:
            packed.unlink()

    def test_sections_are_read_only(self, index):
        packed = SharedRelGraph.pack(index.rel)
        try:
            arr = packed.section("asns")
            with pytest.raises(ValueError):
                arr[0] = 0
        finally:
            packed.unlink()

    def test_attach_rejects_foreign_segment(self):
        from multiprocessing import shared_memory

        alien = shared_memory.SharedMemory(create=True, size=64)
        try:
            with pytest.raises(ValueError, match="not a packed RelGraph"):
                SharedRelGraph.attach(alien.name)
        finally:
            alien.close()
            alien.unlink()

    def test_unlink_removes_dev_shm_entry(self, index):
        packed = SharedRelGraph.pack(index.rel)
        name = packed.name
        assert name in _shm_entries()
        packed.unlink()
        assert name not in _shm_entries()
        packed.unlink()  # idempotent

    def test_unlink_all_sweeps_owned_segments(self, index):
        names = [SharedRelGraph.pack(index.rel).name for _ in range(3)]
        assert set(names) <= _shm_entries()
        shm_module.unlink_all()
        assert not (set(names) & _shm_entries())


class TestSharedMemoryCollection:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_parallel_bit_identical_to_serial(self, graph, workers):
        base = CollectorConfig(n_vps=8, seed=11, n_route_leakers=2)
        serial = Collector(graph, base).run()
        col = Collector(graph, replace(base, workers=workers))
        assert _corpus_key(col.run()) == _corpus_key(serial)
        if workers > 1:
            # the zero-copy transport actually ran
            assert col._shared_segment is not None

    def test_noise_free_shared_matches_serial(self, graph):
        base = CollectorConfig(n_vps=8, seed=3, noise=NoiseConfig.none())
        serial = Collector(graph, base).run()
        parallel = Collector(graph, replace(base, workers=2)).run()
        assert _corpus_key(parallel) == _corpus_key(serial)

    def test_segment_reused_across_runs(self, graph):
        col = Collector(graph, CollectorConfig(n_vps=8, seed=11, workers=2))
        col.run()
        first = col._shared_segment
        assert first is not None
        col.run()
        assert col._shared_segment == first

    def test_collector_gc_unlinks_segment(self, graph):
        col = Collector(graph, CollectorConfig(n_vps=8, seed=11, workers=2))
        col.run()
        name = col._shared_segment
        assert name in _shm_entries()
        # the segment finalizer must not keep the collector alive
        ref = weakref.ref(col)
        del col
        gc.collect()
        assert ref() is None
        assert name not in _shm_entries()

    def test_release_shared_is_explicit_and_idempotent(self, graph):
        col = Collector(graph, CollectorConfig(n_vps=8, seed=11, workers=2))
        col.run()
        name = col._shared_segment
        col.release_shared()
        assert name not in _shm_entries()
        col.release_shared()  # no-op
        # the collector still works after releasing (repacks lazily)
        corpus = col.run()
        assert len(corpus.paths) > 0

    def test_shutdown_pool_leaves_no_segments(self, graph):
        Collector(graph, CollectorConfig(n_vps=8, seed=11, workers=2)).run()
        shutdown_pool()
        assert not _shm_entries()


class TestGracefulFallback:
    def test_weakref_finalizer_survives_fallback(self, graph):
        # workers=1 falls back to in-process collection: no segment is
        # packed, and the collector must still be collectable
        col = Collector(graph, CollectorConfig(n_vps=8, seed=11, workers=1))
        col.run()
        assert col._shared_segment is None
        ref = weakref.ref(col)
        del col
        gc.collect()
        assert ref() is None
