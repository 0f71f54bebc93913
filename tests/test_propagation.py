"""Unit and property tests for Gao–Rexford route propagation.

Every hand-checked route runs through the production (batched) engine
and the single-origin oracle alike (:func:`tests.engines.propagate`).
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bgp.propagation import (
    CLS_CUSTOMER,
    CLS_ORIGIN,
    CLS_PEER,
    CLS_PROVIDER,
    NO_ROUTE,
    GraphIndex,
)
from repro.relationships import Relationship
from repro.topology.model import AS, ASGraph, ASType
from tests.engines import propagate


def make_graph(p2c=(), p2p=()):
    graph = ASGraph()
    asns = {a for link in list(p2c) + list(p2p) for a in link}
    for asn in sorted(asns):
        graph.add_as(AS(asn=asn, type=ASType.SMALL_TRANSIT))
    for provider, customer in p2c:
        graph.add_p2c(provider, customer)
    for a, b in p2p:
        graph.add_p2p(a, b)
    return graph


def path_of(graph, origin, at):
    index = GraphIndex(graph)
    state = propagate(index, origin)
    return state.path_from(index, index.index[at])


class TestBasicPropagation:
    def test_direct_customer(self):
        graph = make_graph(p2c=[(1, 2)])
        assert path_of(graph, 2, 1) == (1, 2)

    def test_customer_chain(self):
        graph = make_graph(p2c=[(1, 2), (2, 3)])
        assert path_of(graph, 3, 1) == (1, 2, 3)

    def test_provider_route(self):
        graph = make_graph(p2c=[(1, 2), (1, 3)])
        # 2 and 3 are both customers of 1; they reach each other via 1
        assert path_of(graph, 3, 2) == (2, 1, 3)

    def test_peer_route(self):
        graph = make_graph(p2c=[(1, 2), (3, 4)], p2p=[(1, 3)])
        assert path_of(graph, 4, 2) == (2, 1, 3, 4)

    def test_origin_has_empty_suffix(self):
        graph = make_graph(p2c=[(1, 2)])
        assert path_of(graph, 2, 2) == (2,)

    def test_unreachable_when_valley_required(self):
        # 2 and 3 peer; origin 4 is 3's provider: 3 won't export the
        # provider route to peer 2, so 2 has no route
        graph = make_graph(p2c=[(4, 3)], p2p=[(2, 3)])
        assert path_of(graph, 4, 2) is None

    def test_peer_route_not_reexported_to_provider(self):
        # 1 provides for 2; 2 peers with 3: 1 must not learn 3 via 2
        graph = make_graph(p2c=[(1, 2)], p2p=[(2, 3)])
        assert path_of(graph, 3, 1) is None


class TestPreference:
    def test_customer_beats_shorter_peer(self):
        # 1 can reach 5 via customer chain 2,3 (len 3) or via peer 4 (len 2)
        graph = make_graph(
            p2c=[(1, 2), (2, 3), (3, 5), (4, 5)],
            p2p=[(1, 4)],
        )
        assert path_of(graph, 5, 1) == (1, 2, 3, 5)

    def test_peer_beats_provider(self):
        # 6 reaches 5 via peer 4 or via provider 1; peer wins
        graph = make_graph(
            p2c=[(1, 6), (1, 2), (2, 5), (4, 5)],
            p2p=[(6, 4)],
        )
        path = path_of(graph, 5, 6)
        assert path == (6, 4, 5)

    def test_shorter_customer_route_wins(self):
        graph = make_graph(p2c=[(1, 2), (2, 4), (1, 3), (3, 5), (5, 4)])
        assert path_of(graph, 4, 1) == (1, 2, 4)

    def test_tie_breaks_to_lowest_asn(self):
        # two equal-length customer routes: via 2 or via 3
        graph = make_graph(p2c=[(1, 2), (1, 3), (2, 4), (3, 4)])
        assert path_of(graph, 4, 1) == (1, 2, 4)


class TestRouteClasses:
    def test_classes_assigned(self):
        graph = make_graph(p2c=[(1, 2), (3, 4)], p2p=[(1, 3)])
        index = GraphIndex(graph)
        state = propagate(index, 4)
        assert state.cls[index.index[4]] == CLS_ORIGIN
        assert state.cls[index.index[3]] == CLS_CUSTOMER
        assert state.cls[index.index[1]] == CLS_PEER
        assert state.cls[index.index[2]] == CLS_PROVIDER

    def test_no_route_class(self):
        graph = make_graph(p2c=[(1, 2)], p2p=[(2, 3)])
        index = GraphIndex(graph)
        state = propagate(index, 3)
        assert state.cls[index.index[1]] == NO_ROUTE
        assert state.path_from(index, index.index[1]) is None

    def test_ixp_rs_excluded_from_routing(self):
        graph = make_graph(p2c=[(1, 2)])
        graph.add_as(AS(asn=99, type=ASType.IXP_RS))
        index = GraphIndex(graph)
        assert 99 not in index.index


def _valley_free(graph, path):
    """Check the GR shape: ascend, at most one peer crossing, descend."""
    state = "up"
    for a, b in zip(path, path[1:]):
        rel = graph.relationship(a, b)
        provider = graph.provider_of(a, b)
        if rel is Relationship.P2C and provider == b:
            hop = "up"
        elif rel is Relationship.P2C and provider == a:
            hop = "down"
        elif rel is Relationship.P2P:
            hop = "peer"
        else:
            return False
        # in collector order the path ascends first (toward the peak),
        # may cross one peer link, then descends
        if state == "up":
            if hop in ("peer", "down"):
                state = "down"
        elif hop != "down":
            return False
    return True


class TestValleyFreedom:
    def test_random_graphs_all_paths_valley_free(self):
        rng = random.Random(7)
        for trial in range(5):
            graph = ASGraph()
            n = 40
            for asn in range(1, n + 1):
                graph.add_as(AS(asn=asn, type=ASType.SMALL_TRANSIT))
            # random DAG-ish hierarchy: provider always lower ASN
            for asn in range(2, n + 1):
                provider = rng.randint(1, asn - 1)
                graph.add_p2c(provider, asn)
            for _ in range(15):
                a, b = rng.sample(range(1, n + 1), 2)
                if graph.relationship(a, b) is None:
                    graph.add_p2p(a, b)
            index = GraphIndex(graph)
            for origin in range(1, n + 1):
                state = propagate(index, origin)
                for i in range(len(index)):
                    path = state.path_from(index, i)
                    if path is not None and len(path) > 1:
                        # collector order: reverse to propagation order
                        # is unnecessary; _valley_free handles collector
                        # order directly
                        assert _valley_free(graph, path), (origin, path)

    def test_paths_are_loop_free(self):
        rng = random.Random(11)
        graph = ASGraph()
        n = 30
        for asn in range(1, n + 1):
            graph.add_as(AS(asn=asn, type=ASType.SMALL_TRANSIT))
        for asn in range(2, n + 1):
            graph.add_p2c(rng.randint(1, asn - 1), asn)
        for _ in range(10):
            a, b = rng.sample(range(1, n + 1), 2)
            if graph.relationship(a, b) is None:
                graph.add_p2p(a, b)
        index = GraphIndex(graph)
        for origin in (1, 7, 15, n):
            state = propagate(index, origin)
            for i in range(len(index)):
                path = state.path_from(index, i)
                if path:
                    assert len(path) == len(set(path))

    def test_everyone_reaches_origin_in_connected_hierarchy(self):
        # pure hierarchy (no peering): every AS must have a route to
        # every origin via the provider tree
        rng = random.Random(3)
        graph = ASGraph()
        n = 25
        for asn in range(1, n + 1):
            graph.add_as(AS(asn=asn, type=ASType.SMALL_TRANSIT))
        for asn in range(2, n + 1):
            graph.add_p2c(rng.randint(1, asn - 1), asn)
        index = GraphIndex(graph)
        for origin in range(1, n + 1):
            state = propagate(index, origin)
            for i in range(len(index)):
                assert state.cls[i] != NO_ROUTE


class TestDeterminism:
    def test_same_input_same_routes(self):
        graph = make_graph(
            p2c=[(1, 2), (1, 3), (2, 4), (3, 4), (2, 5), (3, 5)],
            p2p=[(4, 5)],
        )
        index = GraphIndex(graph)
        a = propagate(index, 5)
        b = propagate(index, 5)
        assert a.cls == b.cls
        assert a.nexthop == b.nexthop
        assert a.pathlen == b.pathlen
