"""Unit tests for tier-1 clique inference."""

import pytest

from repro.core.clique import bron_kerbosch, infer_clique
from repro.core.paths import PathSet
from repro.qa import build_world, world_spec
from repro.qa.oracles import reference_infer_clique


class TestBronKerbosch:
    def test_triangle(self):
        adjacency = {1: {2, 3}, 2: {1, 3}, 3: {1, 2}}
        cliques = bron_kerbosch([1, 2, 3], adjacency)
        assert frozenset({1, 2, 3}) in cliques

    def test_disconnected_vertices(self):
        adjacency = {1: set(), 2: set()}
        cliques = bron_kerbosch([1, 2], adjacency)
        assert sorted(cliques, key=sorted) == [frozenset({1}), frozenset({2})]

    def test_two_overlapping_triangles(self):
        adjacency = {
            1: {2, 3},
            2: {1, 3, 4},
            3: {1, 2, 4},
            4: {2, 3},
        }
        cliques = bron_kerbosch([1, 2, 3, 4], adjacency)
        assert frozenset({1, 2, 3}) in cliques
        assert frozenset({2, 3, 4}) in cliques

    def test_restricted_to_given_vertices(self):
        adjacency = {1: {2, 9}, 2: {1, 9}, 9: {1, 2}}
        cliques = bron_kerbosch([1, 2], adjacency)
        assert cliques == [frozenset({1, 2})]


def paths_with_planted_clique():
    """Three clique members (1,2,3) with customer trees below them.

    Clique links appear in cross-paths; customers 10..15 provide the
    transit-degree signal that ranks 1,2,3 on top.
    """
    paths = []
    # each clique member transits for its customers to the others' trees
    customers = {1: [10, 11], 2: [12, 13], 3: [14, 15]}
    for top, kids in customers.items():
        for other, other_kids in customers.items():
            if top == other:
                continue
            for kid in kids:
                for other_kid in other_kids:
                    # kid -> top -> other -> other_kid (collector order)
                    paths.append((kid, top, other, other_kid))
    return PathSet.sanitize(paths)


class TestInferClique:
    def test_planted_clique_recovered(self):
        result = infer_clique(paths_with_planted_clique(), seed_size=3)
        assert result.members == [1, 2, 3]

    def test_seed_members_recorded(self):
        result = infer_clique(paths_with_planted_clique(), seed_size=3)
        assert set(result.seed_members) <= set(result.members)

    def test_rank_walk_admits_fully_connected(self):
        # 4 peers with all of 1,2,3 but has lower transit degree
        ps = paths_with_planted_clique()
        extra = [(10, 1, 4, 16), (12, 2, 4, 16), (14, 3, 4, 16),
                 (16, 4, 1, 10), (16, 4, 2, 12), (16, 4, 3, 14)]
        combined = PathSet.sanitize(ps.paths + extra)
        result = infer_clique(combined, seed_size=3)
        assert 4 in result.members
        assert 4 in result.added_members

    def test_partial_peer_not_admitted(self):
        # 5 peers with only 1 and 2, never 3 → cannot join the clique
        ps = paths_with_planted_clique()
        extra = [(10, 1, 5, 17), (12, 2, 5, 17)]
        combined = PathSet.sanitize(ps.paths + extra)
        result = infer_clique(combined, seed_size=3)
        assert 5 not in result.members

    def test_empty_paths(self):
        result = infer_clique(PathSet.sanitize([]))
        assert result.members == []

    def test_membership_test(self):
        result = infer_clique(paths_with_planted_clique(), seed_size=3)
        assert 1 in result
        assert 99 not in result

    def test_scenario_clique_recovered(self, small_run):
        inferred = set(small_run.result.clique.members)
        true = set(small_run.graph.clique_asns())
        # at small scale visibility may cost a member or two, never more
        assert len(true & inferred) >= len(true) - 2
        assert not (inferred - true), "no false clique members"


class TestTripleColumns:
    """The clique against the set-based oracle of ``repro.qa``."""

    @pytest.mark.parametrize("seed", [0, 8, 9, 13])
    def test_infer_clique_equals_the_oracle(self, seed):
        # worlds 8, 9 and 13 carry paths over three clique members, the
        # paths a customer-witness rule would hold against a member
        paths = build_world(world_spec(seed)).paths
        got = infer_clique(paths)
        want = reference_infer_clique(paths)
        assert (got.members, got.seed_members, got.added_members,
                got.considered) == (want.members, want.seed_members,
                                    want.added_members, want.considered)
