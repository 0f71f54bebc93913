"""Unit tests for cone-overlap and path-length analyses."""

import pytest

from repro.analysis.metrics import (
    cone_overlap,
    exclusive_cone,
    mean_path_length,
    path_length_distribution,
)
from repro.core.cone import ConeDefinition, CustomerCones
from repro.core.paths import PathSet
from repro.graph import RelGraph


class TestConeOverlap:
    @pytest.fixture
    def cones(self):
        members = {1: {1, 10, 11, 12}, 2: {2, 11, 12, 13}, 3: {3}}
        graph = RelGraph.from_links(
            [1, 2, 3, 10, 11, 12, 13],
            p2c=[(asn, member) for asn, cone in members.items()
                 for member in cone - {asn}],
        )
        return CustomerCones(
            ConeDefinition.RECURSIVE,
            graph,
            [graph.family.encode(members.get(asn, {asn}))
             for asn in graph.index.asns],
        )

    def test_jaccard(self, cones):
        overlap = cone_overlap(cones, [1, 2])
        # intersection {11, 12} = 2; union {1,2,10,11,12,13} = 6
        assert overlap[(1, 2)] == pytest.approx(2 / 6)

    def test_disjoint(self, cones):
        overlap = cone_overlap(cones, [1, 3])
        assert overlap[(1, 3)] == 0.0

    def test_all_pairs_present(self, cones):
        overlap = cone_overlap(cones, [1, 2, 3])
        assert set(overlap) == {(1, 2), (1, 3), (2, 3)}

    def test_exclusive_cone(self, cones):
        exclusive = exclusive_cone(cones, 1, [2, 3])
        assert exclusive == {1, 10}

    def test_exclusive_ignores_self_in_others(self, cones):
        assert exclusive_cone(cones, 1, [1, 2]) == {1, 10}

    def test_scenario_overlaps_bounded(self, small_run):
        cones = CustomerCones.compute(small_run.result)
        top = [asn for asn, _ in cones.top(5)]
        overlap = cone_overlap(cones, top)
        assert all(0.0 <= v <= 1.0 for v in overlap.values())
        # big transit cones genuinely intersect (multihoming)
        assert max(overlap.values()) > 0.05


class TestPathLengths:
    def test_distribution(self):
        ps = PathSet.sanitize([(1, 2), (1, 2, 3), (4, 5, 6)])
        assert path_length_distribution(ps) == {2: 1, 3: 2}

    def test_mean_unweighted(self):
        ps = PathSet.sanitize([(1, 2), (1, 2, 3, 4)])
        assert mean_path_length(ps) == 3.0

    def test_mean_weighted_by_multiplicity(self):
        ps = PathSet.sanitize([(1, 2), (1, 2), (1, 2), (3, 4, 5)])
        # (2*3 + 3*1) / 4
        assert mean_path_length(ps) == pytest.approx(9 / 4)

    def test_empty(self):
        ps = PathSet.sanitize([])
        assert mean_path_length(ps) == 0.0
        assert path_length_distribution(ps) == {}

    def test_scenario_paths_are_short(self, small_run):
        """The hierarchical Internet has short paths: mean under 7."""
        assert 2.0 < mean_path_length(small_run.paths) < 7.0
