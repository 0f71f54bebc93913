"""Batched propagation engine vs the reference sweeps — bit identity.

The batched engine (``propagate_batch``) must reproduce the
single-origin oracle ``repro.qa.oracles.propagate_origin`` exactly —
same route classes, next hops, path lengths and therefore identical
reconstructed paths — on every graph shape, including the leak pass
and the restricted (IPv6) routing plane.  With ``observers`` it must
do so on the observers' upward provider closure.
"""

from __future__ import annotations

import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.collector import CollectionKernel, Collector, CollectorConfig
from repro.bgp.propagation import (
    CLS_PROVIDER,
    NO_ROUTE,
    GraphIndex,
    PropagationConfig,
    propagate_batch,
    propagate_blocks,
)
from repro.qa.oracles import list_rows, propagate_origin
from repro.topology.generator import GeneratorConfig, generate_topology
from repro.topology.model import AS, ASGraph, ASType
from tests.engines import provider_closure


def random_graph(seed: int, n: int = 50) -> ASGraph:
    """A random multihomed DAG plus peering links."""
    rng = random.Random(seed)
    graph = ASGraph()
    asns = [100 + i for i in range(n)]
    for asn in asns:
        graph.add_as(AS(asn=asn, type=ASType.SMALL_TRANSIT))
    for i, asn in enumerate(asns[1:], start=1):
        for provider in rng.sample(asns[:i], rng.randint(1, min(3, i))):
            try:
                graph.add_p2c(provider, asn)
            except Exception:
                pass
    for _ in range(n):
        a, b = rng.sample(asns, 2)
        try:
            graph.add_p2p(a, b)
        except Exception:
            pass
    return graph


def assert_equivalent(index, origins, leakers_by_origin=None, batch_size=128):
    """Batched states must match the reference origin by origin."""
    leakers_by_origin = leakers_by_origin or {}
    batched = propagate_batch(
        index,
        origins,
        leakers_by_origin,
        PropagationConfig(batch_size=batch_size),
    )
    assert len(batched) == len(origins)
    for asn, state in zip(origins, batched):
        reference = propagate_origin(
            index, asn, leakers=leakers_by_origin.get(asn)
        )
        assert state.origin == reference.origin
        assert list(state.cls) == list(reference.cls)
        assert list(state.nexthop) == list(reference.nexthop)
        assert list(state.pathlen) == list(reference.pathlen)
        for i in range(len(index)):
            assert state.path_from(index, i) == reference.path_from(index, i)


class TestEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_graphs(self, seed):
        index = GraphIndex(random_graph(seed))
        assert_equivalent(index, index.asns)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_leak_pass_active(self, seed):
        graph = random_graph(seed)
        index = GraphIndex(graph)
        rng = random.Random(seed + 99)
        multihomed = [
            asn for asn in index.asns if len(graph.providers[asn]) >= 2
        ]
        assert multihomed, "fixture graph must have multihomed ASes"
        leakers_by_origin = {
            asn: set(rng.sample(multihomed, min(2, len(multihomed))))
            for asn in index.asns[::3]
        }
        assert_equivalent(index, index.asns, leakers_by_origin)

    def test_generated_topology(self):
        graph = generate_topology(GeneratorConfig(n_ases=150, seed=7))
        index = GraphIndex(graph)
        assert_equivalent(index, index.asns)

    def test_v6_restricted_plane(self):
        graph = generate_topology(GeneratorConfig(n_ases=150, seed=7))
        index = GraphIndex(graph, restrict=graph.v6_asns())
        assert 0 < len(index) < len(graph)
        assert_equivalent(index, index.asns)

    def test_odd_batch_size(self):
        graph = generate_topology(GeneratorConfig(n_ases=120, seed=3))
        index = GraphIndex(graph)
        assert_equivalent(index, index.asns, batch_size=17)


class TestEdgeShapes:
    def test_origin_with_no_route_anywhere(self):
        """An isolated AS routes only to itself in every engine."""
        graph = random_graph(4, n=20)
        graph.add_as(AS(asn=999, type=ASType.STUB))  # no links at all
        index = GraphIndex(graph)
        assert_equivalent(index, index.asns)
        state = propagate_batch(index, [999])[0]
        isolated = index.index[999]
        assert state.path_from(index, isolated) == (999,)
        assert all(
            state.cls[i] == 0 for i in range(len(index)) if i != isolated
        )

    def test_single_as_graph(self):
        graph = ASGraph()
        graph.add_as(AS(asn=42, type=ASType.STUB))
        index = GraphIndex(graph)
        assert_equivalent(index, [42])

    def test_batch_size_larger_than_origin_count(self):
        graph = random_graph(5, n=30)
        index = GraphIndex(graph)
        assert_equivalent(index, index.asns[:4], batch_size=512)

    def test_empty_origin_list(self):
        index = GraphIndex(random_graph(6, n=10))
        assert propagate_batch(index, []) == []


class TestUnroutedNexthop:
    """The engine leaves a block's unrouted next-hop cells unset;
    :func:`propagate_batch`'s rows must still read -1 on every one."""

    @staticmethod
    def world():
        graph = random_graph(11, n=40)
        for asn in (900, 901, 902):
            graph.add_as(AS(asn=asn, type=ASType.STUB))
        graph.add_p2c(900, 901)  # a second component; 902 is isolated
        return graph

    @pytest.mark.parametrize("array_state", [False, True])
    @pytest.mark.parametrize("with_leakers", [False, True])
    @pytest.mark.parametrize("observed", [False, True])
    def test_unrouted_cells_read_minus_one(self, array_state, with_leakers,
                                           observed):
        graph = self.world()
        index = GraphIndex(graph)
        leakers_by_origin = {}
        if with_leakers:
            multihomed = [
                asn for asn in index.asns if len(graph.providers[asn]) >= 2
            ]
            leakers_by_origin = {asn: set(multihomed[:3])
                                 for asn in index.asns[::2]}
        observers = [index.index[asn] for asn in index.asns[-8::3]]
        config = PropagationConfig(batch_size=16, array_state=array_state)
        states = propagate_batch(
            index, index.asns, leakers_by_origin, config,
            observers=observers if observed else None,
        )
        unrouted = 0
        for state in states:
            assert state.nexthop[state.origin] == -1
            for i in range(len(index)):
                if state.cls[i] == NO_ROUTE:
                    assert state.nexthop[i] == -1, (state.origin, i)
                    unrouted += 1
        assert unrouted > 0
        if with_leakers:
            plain = propagate_batch(
                index, index.asns, None, config,
                observers=observers if observed else None,
            )
            assert any(
                list(a.nexthop) != list(b.nexthop)
                for a, b in zip(states, plain)
            ), "no leak pass changed a table"


class TestFallback:
    def test_batched_rows_are_plain_python(self):
        """Row extraction yields plain ints, same types as the reference."""
        index = GraphIndex(random_graph(9, n=25))
        state = propagate_batch(index, index.asns[:1])[0]
        assert type(state.cls) is list
        assert all(type(v) is int for v in state.cls)
        assert all(type(v) is int for v in state.nexthop)

    def test_csr_is_built_once_and_cached(self):
        index = GraphIndex(random_graph(10, n=15))
        assert index.csr() is index.csr()


def assert_closure_exact(index, origins, observers, leakers_by_origin=None,
                         batch_size=128):
    """Every closure cell of the observer run equals the full tables
    and the oracle; returns ``(full, observed, closure)``."""
    leakers_by_origin = leakers_by_origin or {}
    config = PropagationConfig(batch_size=batch_size)
    full = propagate_batch(index, origins, leakers_by_origin, config)
    observed = propagate_batch(
        index, origins, leakers_by_origin, config, observers=observers
    )
    ids = index.index
    closure = provider_closure(index, set(observers) | {
        ids[leaker]
        for origin in origins
        for leaker in leakers_by_origin.get(origin, ())
        if leaker in ids
    })
    rows = list_rows(index)
    for asn, want, got in zip(origins, full, observed):
        oracle = propagate_origin(
            index, asn, leakers=leakers_by_origin.get(asn), rows=rows
        )
        assert got.origin == want.origin == oracle.origin
        for i in sorted(closure):
            cell = (got.cls[i], got.nexthop[i], got.pathlen[i])
            assert cell == (want.cls[i], want.nexthop[i], want.pathlen[i])
            assert cell == (oracle.cls[i], oracle.nexthop[i],
                            oracle.pathlen[i])
            assert got.path_from(index, i) == want.path_from(index, i)
    return full, observed, closure


@st.composite
def observed_worlds(draw):
    """A random graph, observer ids, per-origin leakers and a block size."""
    index = GraphIndex(random_graph(draw(st.integers(0, 10**6)),
                                    n=draw(st.integers(2, 40))))
    n = len(index)
    observers = draw(st.lists(st.integers(0, n - 1), max_size=n))
    asns = st.sampled_from(index.asns)
    leakers = draw(st.dictionaries(
        asns, st.sets(asns, min_size=1, max_size=3), max_size=n
    ))
    return index, observers, leakers, draw(st.integers(1, 9))


class TestObservers:
    @settings(max_examples=120, deadline=None)
    @given(observed_worlds())
    def test_closure_cells_match_full_tables(self, world):
        index, observers, leakers, batch_size = world
        assert_closure_exact(
            index, index.asns, observers, leakers, batch_size
        )

    def test_empty_observers(self):
        index = GraphIndex(random_graph(11))
        full, observed, closure = assert_closure_exact(
            index, index.asns, []
        )
        assert closure == set()
        for want, got in zip(full, observed):
            # the up and peer sweeps stay whole; nothing descends
            assert CLS_PROVIDER not in got.cls
            for i, cls in enumerate(want.cls):
                if cls != CLS_PROVIDER:
                    assert got.cls[i] == cls
                    assert got.nexthop[i] == want.nexthop[i]
                    assert got.pathlen[i] == want.pathlen[i]

    def test_every_node_observing_gives_full_tables(self):
        graph = random_graph(12)
        index = GraphIndex(graph)
        multihomed = [a for a in index.asns if len(graph.providers[a]) >= 2]
        leakers = {asn: set(multihomed[:2]) for asn in index.asns[::2]}
        full, observed, _ = assert_closure_exact(
            index, index.asns, range(len(index)), leakers, batch_size=7
        )
        for want, got in zip(full, observed):
            assert (got.cls, got.nexthop, got.pathlen) == (
                want.cls, want.nexthop, want.pathlen)

    def test_leaker_on_a_provider_route(self):
        """The leaker sits outside the observer's closure and holds a
        provider route; its leak still reaches the observer."""
        graph = ASGraph()
        for asn in (1, 2, 3, 4, 5, 6, 7):
            graph.add_as(AS(asn=asn, type=ASType.SMALL_TRANSIT))
        graph.add_p2c(1, 2)
        graph.add_p2c(1, 3)
        graph.add_p2c(1, 4)
        graph.add_p2c(2, 5)  # 5 is the origin
        graph.add_p2c(3, 6)  # 6 leaks: multihomed under 3 and 4
        graph.add_p2c(4, 6)
        graph.add_p2c(4, 7)  # 7 is the observer
        index = GraphIndex(graph)
        ids = index.index
        plain = propagate_batch(index, [5])[0]
        assert plain.cls[ids[6]] == CLS_PROVIDER
        assert plain.path_from(index, ids[7]) == (7, 4, 1, 2, 5)
        _, observed, closure = assert_closure_exact(
            index, [5], [ids[7]], {5: {6}}
        )
        assert ids[6] in closure and ids[3] in closure
        assert observed[0].path_from(index, ids[7]) == (7, 4, 6, 3, 1, 2, 5)

    def test_v6_plane_with_absent_vantage_points(self):
        graph = generate_topology(GeneratorConfig(n_ases=150, seed=7))
        index = GraphIndex(graph, restrict=graph.v6_asns())
        vps = random.Random(3).sample(sorted(a.asn for a in graph.ases()), 30)
        observers = [index.index[a] for a in vps if a in index.index]
        assert 0 < len(observers) < len(vps)
        absent = next(a for a in sorted(graph.ases(), key=lambda a: a.asn)
                      if a.asn not in index.index).asn
        leakers = {
            asn: {absent, index.asns[k % len(index)]}
            for k, asn in enumerate(index.asns[::5])
        }
        assert_closure_exact(index, index.asns, observers, leakers, 16)


    def test_fresh_process_leaves_numpy_ma_unimported(self):
        """The closure walk's distinct-id passes are sort-based: a plain
        ``numpy.unique`` imports ``numpy.ma`` on its first call in a
        process, ~10 ms that a one-op run would pay every time."""
        script = (
            "import sys\n"
            "from repro.bgp.collector import Collector, CollectorConfig\n"
            "from repro.topology.generator import GeneratorConfig, "
            "generate_topology\n"
            "graph = generate_topology(GeneratorConfig(n_ases=60, seed=1))\n"
            "corpus = Collector(graph, CollectorConfig(n_vps=5)).run()\n"
            "assert corpus.paths\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        src = Path(__file__).resolve().parents[1] / "src"
        out = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
        )
        assert out.stdout.strip() == "False"


class FullTableKernel(CollectionKernel):
    """Collects like the production kernel over full route tables."""

    def _propagate(self, block, leakers):
        return list(propagate_blocks(
            self.index, block, leakers, self.config.propagation
        ))


def full_table_collector(graph, config, plane="v4"):
    collector = Collector(graph, config, plane=plane)
    kernel = collector.kernel
    collector.kernel = FullTableKernel(
        kernel.config, kernel.index, kernel.vps, kernel.tagger_nodes,
        kernel.sibling_nodes, kernel.leakers, kernel.clique, kernel.via_ixp,
    )
    return collector


class TestCollectorObservers:
    @pytest.mark.parametrize("plane", ["v4", "v6"])
    @pytest.mark.parametrize("array_state", [False, True])
    def test_corpus_matches_full_tables(self, plane, array_state):
        graph = generate_topology(GeneratorConfig(n_ases=200, seed=5))
        config = CollectorConfig(
            n_vps=12, seed=5, n_route_leakers=4, leak_origin_fraction=0.5,
            propagation=PropagationConfig(
                batch_size=16, array_state=array_state
            ),
        )
        observed = Collector(graph, config, plane=plane).run()
        full = full_table_collector(graph, config, plane).run()
        assert observed.paths
        assert observed.paths == full.paths
        assert observed.path_counts == full.path_counts
        assert observed.rib == full.rib
