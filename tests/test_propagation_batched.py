"""Batched propagation engine vs the reference sweeps — bit identity.

The batched engine (``propagate_batch``) must reproduce the
single-origin oracle ``repro.qa.oracles.propagate_origin`` exactly —
same route classes, next hops, path lengths and therefore identical
reconstructed paths — on every graph shape, including the leak pass
and the restricted (IPv6) routing plane.
"""

from __future__ import annotations

import random

import pytest

from repro.bgp.propagation import GraphIndex, PropagationConfig, propagate_batch
from repro.qa.oracles import propagate_origin
from repro.topology.generator import GeneratorConfig, generate_topology
from repro.topology.model import AS, ASGraph, ASType


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
