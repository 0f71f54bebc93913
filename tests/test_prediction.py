"""Unit tests for path prediction from inferred relationships."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import infer_degree, infer_gao
from repro.baselines.common import RelationshipMap
from repro.core.prediction import PredictionReport, predict_paths
from repro.qa.oracles import graph_from_inference
from repro.relationships import Relationship


class TestGraphFromInference:
    def test_rebuild_labels(self):
        m = RelationshipMap()
        m.set_p2c(1, 2)
        m.set_p2p(2, 3)
        m.set_s2s(3, 4)
        graph = graph_from_inference(m)
        assert graph.relationship(1, 2) is Relationship.P2C
        assert graph.provider_of(1, 2) == 1
        assert graph.relationship(2, 3) is Relationship.P2P
        assert graph.relationship(3, 4) is Relationship.S2S

    def test_cycle_demoted_to_p2p(self):
        # baselines can emit provider cycles; the rebuild keeps the
        # adjacency as peering instead of crashing or dropping it
        m = RelationshipMap()
        m.set_p2c(1, 2)
        m.set_p2c(2, 3)
        m.set_p2c(3, 1)
        graph = graph_from_inference(m)
        rels = [graph.relationship(1, 2), graph.relationship(2, 3),
                graph.relationship(3, 1)]
        assert rels.count(Relationship.P2P) >= 1
        assert graph.num_links() == 3


class TestPredictPaths:
    def test_perfect_inference_perfect_prediction(self):
        """Predicting with the exact relationships reproduces the paths
        exactly (the propagation engine is deterministic both times)."""
        m = RelationshipMap()
        m.set_p2c(1, 2)
        m.set_p2c(1, 3)
        m.set_p2c(2, 4)
        observed = [(4, 2, 1, 3), (3, 1, 2, 4)]
        report = predict_paths(m, observed)
        assert report.compared == 2
        assert report.exact == 2
        assert report.exact_rate == 1.0
        assert report.reachability == 1.0

    def test_wrong_direction_breaks_prediction(self):
        # invert the 2-4 link: now 4 looks like 2's provider, and the
        # observed path 4,2,1,3 cannot be re-derived (valley)
        m = RelationshipMap()
        m.set_p2c(1, 2)
        m.set_p2c(1, 3)
        m.set_p2c(4, 2)
        observed = [(4, 2, 1, 3)]
        report = predict_paths(m, observed)
        assert report.exact == 0

    def test_unreachable_counted(self):
        m = RelationshipMap()
        m.set_p2p(1, 2)
        m.set_p2c(2, 3)
        # path 1,2,3 observed but predicted routing can deliver it: 2
        # exports customer route to peer 1 — fine.  Make a valley: 3's
        # route to a peer-of-peer
        m2 = RelationshipMap()
        m2.set_p2c(2, 1)  # 2 provider of 1
        m2.set_p2p(2, 3)
        report = predict_paths(m2, [(3, 2, 1)])  # 3 hears 1 via peer 2: ok
        # now claim 1-2 is peer too: peer route not exported to a peer
        m3 = RelationshipMap()
        m3.set_p2p(2, 1)
        m3.set_p2p(2, 3)
        report3 = predict_paths(m3, [(3, 2, 1)])
        assert report3.unreachable == 1
        assert report3.reachability == 0.0

    def test_max_origins_bounds_work(self, small_run):
        report = predict_paths(
            small_run.result, small_run.paths.paths, max_origins=20
        )
        assert report.compared > 0

    def test_empty_observations(self):
        m = RelationshipMap()
        m.set_p2p(1, 2)
        report = predict_paths(m, [])
        assert report.compared == 0
        assert report.exact_rate == 0.0


class TestEndToEndOrdering:
    def test_asrank_predicts_better_than_baselines(self, small_run):
        """The paper-grade check: better relationships predict real
        paths better."""
        observed = small_run.paths.paths
        asrank = predict_paths(small_run.result, observed, max_origins=60)
        gao = predict_paths(
            infer_gao(small_run.paths), observed, max_origins=60
        )
        degree = predict_paths(
            infer_degree(small_run.paths), observed, max_origins=60
        )
        assert asrank.exact_rate > gao.exact_rate
        assert asrank.exact_rate > degree.exact_rate
        assert asrank.reachability >= gao.reachability

    def test_asrank_prediction_quality_floor(self, clean_run):
        report = predict_paths(
            clean_run.result, clean_run.paths.paths, max_origins=60
        )
        assert report.reachability > 0.95
        assert report.exact_rate > 0.6


class TestBatchedRefactorIdentity:
    """predict_paths on the batched engine must reproduce the serial
    ASGraph-based implementation bit for bit."""

    @staticmethod
    def _serial_report(inference, observations, max_origins=None):
        # the pre-refactor implementation: mutable ASGraph + one
        # reference sweep per origin
        from repro.bgp.propagation import GraphIndex
        from repro.qa.oracles import propagate_origin

        index = GraphIndex(graph_from_inference(inference))
        by_origin = {}
        for path in observations:
            if len(path) < 2:
                continue
            vp, origin = path[0], path[-1]
            if vp not in index.index or origin not in index.index:
                continue
            by_origin.setdefault(origin, {}).setdefault(vp, path)
        report = PredictionReport()
        origins = sorted(by_origin)
        if max_origins is not None:
            origins = origins[:max_origins]
        for origin in origins:
            state = propagate_origin(index, origin)
            for vp, observed in sorted(by_origin[origin].items()):
                predicted = state.path_from(index, index.index[vp])
                report.compared += 1
                if predicted is None:
                    report.unreachable += 1
                    continue
                if predicted == observed:
                    report.exact += 1
                    report.same_length += 1
                elif len(predicted) == len(observed):
                    report.same_length += 1
        return report

    def test_identical_report_on_inferred_world(self, small_run):
        observed = list(small_run.paths)
        batched = predict_paths(small_run.result, observed, max_origins=40)
        serial = self._serial_report(
            small_run.result, observed, max_origins=40
        )
        assert (batched.compared, batched.exact, batched.same_length,
                batched.unreachable) == (
            serial.compared, serial.exact, serial.same_length,
            serial.unreachable)

    def test_identical_report_on_baseline_with_cycles(self, small_run):
        # baseline inferences exercise the cycle-demotion path
        baseline = infer_gao(small_run.paths)
        observed = list(small_run.paths)
        batched = predict_paths(baseline, observed, max_origins=25)
        serial = self._serial_report(baseline, observed, max_origins=25)
        assert (batched.compared, batched.exact, batched.same_length,
                batched.unreachable) == (
            serial.compared, serial.exact, serial.same_length,
            serial.unreachable)

    def test_rel_graph_matches_asgraph_compilation(self):
        # cycle-closing p2c demotes to p2p identically in both builders
        from repro.core.prediction import rel_graph_from_inference
        from repro.graph.relgraph import RelGraph

        m = RelationshipMap()
        m.set_p2c(1, 2)
        m.set_p2c(2, 3)
        m.set_p2c(3, 1)
        m.set_p2p(2, 4)
        m.set_s2s(4, 5)
        direct = rel_graph_from_inference(m)
        via_asgraph = RelGraph.from_as_graph(graph_from_inference(m))
        assert direct.index.asns == via_asgraph.index.asns
        assert direct.providers == via_asgraph.providers.tolist()
        assert direct.customers == via_asgraph.customers.tolist()
        assert direct.peers == via_asgraph.peers.tolist()
        for mine, theirs in zip(
            (direct.csr().providers, direct.csr().customers,
             direct.csr().peers),
            (via_asgraph.csr().providers, via_asgraph.csr().customers,
             via_asgraph.csr().peers),
        ):
            for a, b in zip(mine, theirs):
                assert a.dtype == b.dtype
                assert a.tolist() == b.tolist()


def _report_key(report):
    return (report.compared, report.exact, report.same_length,
            report.unreachable)


def _full_table_report(inference, observations, max_origins=None):
    """``predict_paths`` with the engine computing every AS's route
    (``observers`` dropped), the reference for the VP-only reads."""
    from repro.bgp.propagation import propagate_batch

    def full_tables(index, origins, *args, observers=None, **kwargs):
        return propagate_batch(index, origins, *args, **kwargs)

    with mock.patch("repro.core.prediction.propagate_batch", full_tables):
        return predict_paths(inference, observations, max_origins)


@st.composite
def inferred_worlds(draw):
    """Random labels over a few ASes (p2c cycles included, which the
    predictor demotes) and random observed paths over them."""
    n = draw(st.integers(2, 14))
    m = RelationshipMap()
    for a, b, kind in draw(st.lists(
        st.tuples(st.integers(1, n), st.integers(1, n),
                  st.sampled_from(["p2c", "p2p", "s2s"])),
        max_size=40,
    )):
        if a == b or m.relationship(a, b) is not None:
            continue
        {"p2c": m.set_p2c, "p2p": m.set_p2p, "s2s": m.set_s2s}[kind](a, b)
    observations = draw(st.lists(
        st.lists(st.integers(1, n), min_size=2, max_size=6).map(tuple),
        max_size=30,
    ))
    return m, observations


class TestVantagePointObservers:
    """predict_paths reads only the VPs' rows; its report must equal
    the one computed over full route tables."""

    @pytest.mark.parametrize("run", ["tiny_run", "small_run"])
    def test_scenario_reports_match_full_tables(self, run, request):
        result = request.getfixturevalue(run)
        observed = list(result.paths)
        for inference in (result.result, infer_gao(result.paths)):
            report = predict_paths(inference, observed)
            assert report.compared > 0
            assert _report_key(report) == _report_key(
                _full_table_report(inference, observed)
            )

    @settings(max_examples=150, deadline=None)
    @given(inferred_worlds(), st.one_of(st.none(), st.integers(1, 5)))
    def test_drawn_reports_match_full_tables(self, world, max_origins):
        inference, observations = world
        assert _report_key(
            predict_paths(inference, observations, max_origins)
        ) == _report_key(
            _full_table_report(inference, observations, max_origins)
        )
