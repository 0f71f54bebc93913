"""Tests for route-leak modeling and the pipeline's robustness to it."""

import pytest

from repro.bgp.collector import Collector, CollectorConfig
from repro.bgp.noise import NoiseConfig
from repro.bgp.propagation import CLS_CUSTOMER, GraphIndex, propagate_batch
from repro.core.inference import infer_relationships
from repro.core.paths import PathSet
from repro.relationships import Relationship
from repro.topology.generator import GeneratorConfig, generate_topology
from repro.topology.model import AS, ASGraph, ASType
from repro.qa.oracles import propagate_origin
from repro.validation.validator import validate_against_truth
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


class TestLeakPass:
    def test_leak_exposes_provider_route_upward(self):
        # x(=3) buys from p1(=1) and p2(=2); origin 9 is reachable only
        # via p2.  Without a leak, p1 never hears about 9 through 3.
        graph = make_graph(p2c=[(1, 3), (2, 3), (2, 9)])
        index = GraphIndex(graph)

        clean = propagate(index, 9)
        # without the leak, p1 reaches 9 via... nothing (1 has no route)
        assert clean.cls[index.index[1]] == 0

        leaked = propagate(index, 9, leakers={3})
        i1 = index.index[1]
        assert leaked.cls[i1] == CLS_CUSTOMER  # the leak looks like one
        assert leaked.path_from(index, i1) == (1, 3, 2, 9)

    def test_leaked_path_contains_valley(self):
        graph = make_graph(p2c=[(1, 3), (2, 3), (2, 9), (1, 5)])
        index = GraphIndex(graph)
        leaked = propagate(index, 9, leakers={3})
        path = leaked.path_from(index, index.index[5])
        assert path == (5, 1, 3, 2, 9)
        # 3 is a customer of both 1 and 2: the path goes down into 3
        # and back up — a valley
        assert graph.provider_of(1, 3) == 1
        assert graph.provider_of(2, 3) == 2

    def test_leaker_keeps_its_own_route(self):
        graph = make_graph(p2c=[(1, 3), (2, 3), (2, 9)])
        index = GraphIndex(graph)
        leaked = propagate(index, 9, leakers={3})
        i3 = index.index[3]
        assert leaked.path_from(index, i3) == (3, 2, 9)

    def test_no_leak_when_route_is_customer(self):
        # the leaker's route to the origin is a customer route: exporting
        # it upward is legitimate, so nothing changes
        graph = make_graph(p2c=[(1, 3), (2, 3), (3, 9)])
        index = GraphIndex(graph)
        clean = propagate(index, 9)
        leaked = propagate(index, 9, leakers={3})
        assert clean.cls == leaked.cls
        assert clean.nexthop == leaked.nexthop

    def test_paths_remain_loop_free_under_leaks(self):
        graph = generate_topology(GeneratorConfig(n_ases=150, seed=8))
        index = GraphIndex(graph)
        multihomed = [
            a.asn for a in graph.ases() if len(graph.providers[a.asn]) >= 2
        ][:5]
        origins = [a.asn for a in graph.ases() if a.prefixes][:40]
        for origin in origins:
            state = propagate(index, origin, leakers=set(multihomed))
            for i in range(len(index)):
                path = state.path_from(index, i)
                if path:
                    assert len(path) == len(set(path)), (origin, path)

    def test_list_state_holds_python_ints_after_a_leak(self):
        # the world's rows are CSR views; the leak pass must still
        # write plain ints into list-form state
        graph = generate_topology(GeneratorConfig(n_ases=150, seed=8))
        index = GraphIndex(graph)
        multihomed = {
            a.asn for a in graph.ases() if len(graph.providers[a.asn]) >= 2
        }
        origins = [a.asn for a in graph.ases() if a.prefixes][:40]
        leaked = 0
        for origin in origins:
            state = propagate_batch(index, [origin], {origin: multihomed})[0]
            oracle = propagate_origin(index, origin, leakers=multihomed)
            for column in (state.cls, state.nexthop, state.pathlen):
                assert type(column) is list
                assert all(type(v) is int for v in column)
            assert (state.cls, state.nexthop, state.pathlen) == (
                oracle.cls, oracle.nexthop, oracle.pathlen
            )
            baseline = propagate_batch(index, [origin])[0]
            leaked += baseline.nexthop != state.nexthop
        assert leaked  # the leak pass really rewrote some routes

    def test_deterministic(self):
        graph = make_graph(p2c=[(1, 3), (2, 3), (2, 9), (1, 5)])
        index = GraphIndex(graph)
        a = propagate(index, 9, leakers={3})
        b = propagate(index, 9, leakers={3})
        assert a.cls == b.cls and a.nexthop == b.nexthop


class TestCollectorLeaks:
    @pytest.fixture(scope="class")
    def graph(self):
        return generate_topology(GeneratorConfig(n_ases=200, seed=15))

    def test_leakers_chosen_multihomed(self, graph):
        config = CollectorConfig(n_vps=10, seed=2, n_route_leakers=3)
        collector = Collector(graph, config)
        assert len(collector.leakers) == 3
        for leaker in collector.leakers:
            assert len(graph.providers[leaker]) >= 2

    def test_no_leakers_by_default(self, graph):
        collector = Collector(graph, CollectorConfig(n_vps=10, seed=2))
        assert collector.leakers == []

    def test_leaks_change_observed_paths(self, graph):
        base = CollectorConfig(n_vps=12, seed=2, noise=NoiseConfig.none())
        leaky = CollectorConfig(
            n_vps=12, seed=2, noise=NoiseConfig.none(),
            n_route_leakers=5, leak_origin_fraction=0.3,
        )
        clean_paths = set(Collector(graph, base).run().paths)
        leaky_paths = set(Collector(graph, leaky).run().paths)
        assert clean_paths != leaky_paths

    def test_inference_survives_moderate_leaks(self, graph):
        config = CollectorConfig(
            n_vps=16, seed=2, n_route_leakers=3, leak_origin_fraction=0.1,
        )
        corpus = Collector(graph, config).run()
        paths = PathSet.sanitize(corpus.paths, ixp_asns=graph.ixp_asns())
        result = infer_relationships(paths)
        report = validate_against_truth(result, graph)
        # leaks cost accuracy but must not break the pipeline
        assert report.ppv(Relationship.P2C) > 0.9
        assert report.overall_ppv > 0.85
