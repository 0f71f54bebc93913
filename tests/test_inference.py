"""Unit tests for the ASRank inference pipeline, step by step.

Each test builds a tiny hand-crafted path corpus that isolates one
heuristic, then checks the resulting labels and attribution.
"""

import pytest

from hypothesis import given, settings, strategies as st

from repro import perf
from repro.core.clique import CliqueResult
from repro.core.inference import (
    LINK_UNKNOWN,
    InferenceConfig,
    InferenceResult,
    Step,
    _Engine,
    _peak_order,
    _step_partial_vp,
    infer_relationships,
)
from repro.core.paths import PathSet
from repro.qa.oracles import reference_partial_vp
from repro.relationships import Relationship


def run(paths, **config_kwargs):
    defaults = dict(
        clique_seed_size=3,
        enable_partial_vp=False,  # most unit corpora are tiny; avoid the
        # partial-feed detector seeing every synthetic VP as partial
    )
    defaults.update(config_kwargs)
    return infer_relationships(
        PathSet.sanitize(paths), InferenceConfig(**defaults)
    )


# a reusable backbone: clique {1,2,3} with two customer trees
BACKBONE = [
    # kid, top, other-top, other-kid (collector order: ascend then descend)
    (10, 1, 2, 12),
    (10, 1, 3, 14),
    (12, 2, 1, 10),
    (12, 2, 3, 14),
    (14, 3, 1, 10),
    (14, 3, 2, 12),
]


class TestCliqueStep:
    def test_clique_links_p2p(self):
        result = run(BACKBONE)
        assert result.relationship(1, 2) is Relationship.P2P
        assert result.step_of(1, 2) is Step.S3_CLIQUE
        assert result.relationship(2, 3) is Relationship.P2P

    def test_clique_disabled(self):
        result = run(BACKBONE, enable_clique=False)
        assert result.clique.members == []


class TestPoisonedFilter:
    def test_nonadjacent_clique_members_discarded(self):
        # 1 and 3 separated by non-clique 50: poisoned
        poisoned = (10, 1, 50, 3, 14)
        result = run(BACKBONE + [poisoned])
        assert result.discarded_poisoned == 1
        assert poisoned not in result.paths.paths

    def test_three_clique_members_discarded(self):
        leak = (10, 1, 2, 3, 14)
        result = run(BACKBONE + [leak])
        assert result.discarded_poisoned == 1

    def test_filter_disabled(self):
        poisoned = (10, 1, 50, 3, 14)
        result = run(BACKBONE + [poisoned], enable_poisoned_filter=False)
        assert result.discarded_poisoned == 0


class TestTopDown:
    def test_descent_beyond_peak_neighbor_is_p2c(self):
        # path 10,1,2,12: peak is 1 or 2 (clique); link 2-12 descends
        result = run(BACKBONE)
        assert result.relationship(2, 12) is Relationship.P2C
        assert result.provider_of(2, 12) == 2

    def test_vp_side_descends_toward_vp(self):
        # link 10-1: 10 is one hop from peak → handled; but a longer
        # tail 9,10,1,... makes 10 provide for 9
        paths = BACKBONE + [(9, 10, 1, 2, 12), (12, 2, 1, 10, 9)]
        result = run(paths)
        assert result.provider_of(9, 10) == 10

    def test_peak_adjacent_link_resolved_by_fold_crossing(self):
        # 1 (clique) provides for 20; paths crossing 2→1→20 descend into
        # 20 because the route entered 1 from a peer
        paths = BACKBONE + [(12, 2, 1, 20), (10, 1, 20)]
        result = run(paths)
        assert result.provider_of(1, 20) == 1


class _EveryDescent(_Engine):
    """The top-down sweep as a walk of every descent in peak order,
    counting the descents that meet an unknown link at their turn."""

    def _topdown(self, result, paths, rank):
        lstate, hop_lid = result._lstate, result._hop_lid
        path_off, nodes = result._path_off, result._node_asn
        order, peaks = _peak_order(result, paths, rank)
        self.meets_unknown = 0
        for pi in order:
            n0, n1 = path_off[pi], path_off[pi + 1]
            i = n0 + peaks[pi]
            right = [(j, nodes[j], nodes[j + 1]) for j in range(i + 1, n1 - 1)]
            left = [(j, nodes[j + 1], nodes[j])
                    for j in range(i - 2, n0 - 1, -1)]
            for descent in (right, left):
                states = [lstate[hop_lid[j - pi]] for j, _, _ in descent]
                self.meets_unknown += LINK_UNKNOWN in states
                for (_, upper, lower), state in zip(descent, states):
                    if state == upper:
                        continue
                    if state != LINK_UNKNOWN or not result.set_p2c(
                        upper, lower, Step.S5_TOPDOWN
                    ):
                        break


def _counted(paths):
    recorder = perf.PerfRecorder()
    with perf.use_recorder(recorder):
        result = infer_relationships(paths)
    return result, recorder.counters()


class TestVoteFollowing:
    """S5 and S6 visit a path only when it can still cast a vote."""

    @pytest.mark.parametrize("name", ["tiny", "small"])
    def test_topdown_walks_the_descents_that_meet_an_unknown_link(
        self, name, request
    ):
        paths = request.getfixturevalue(f"{name}_run").paths
        fast, counters = _counted(paths)
        engine = _EveryDescent(paths, InferenceConfig())
        every = engine.run()
        assert counters["infer/topdown/visits"] == engine.meets_unknown > 0
        assert every._lstate == fast._lstate
        assert every.conflicts == fast.conflicts

    # before the fold followed the votes, its first pass scanned every
    # path with a forced hop: 147 paths on tiny, 881 on small
    @pytest.mark.parametrize("name, queued", [("tiny", 147), ("small", 881)])
    def test_fold_scans_fewer_paths_than_its_old_first_pass(
        self, name, queued, request
    ):
        _, counters = _counted(request.getfixturevalue(f"{name}_run").paths)
        assert 0 < counters["infer/fold/scans"] < queued


class TestFold:
    def test_descent_propagates_forward(self):
        # after the peer crossing everything descends: 2-12 p2c known,
        # then 12-40 must also be p2c
        paths = BACKBONE + [(10, 1, 2, 12, 40)]
        result = run(paths)
        assert result.provider_of(12, 40) == 12
        # the deep link is attributed to topdown or fold depending on
        # sweep order; both are descent inferences
        assert result.step_of(12, 40) in (Step.S5_TOPDOWN, Step.S6_FOLD)

    def test_ascent_propagates_backward(self):
        paths = BACKBONE + [(41, 10, 1, 2, 12)]
        result = run(paths)
        assert result.provider_of(41, 10) == 10

    def test_fold_disabled_leaves_link_open(self):
        paths = [(50, 60, 70), (70, 60, 50)]
        without = run(paths, enable_clique=False, enable_fold=False,
                      enable_topdown=False, enable_providerless=False,
                      enable_degree_gap=False, enable_stub=False)
        # with no heuristics at all the links default to p2p
        assert without.relationship(50, 60) is Relationship.P2P


class TestStub:
    def test_stub_attached_to_clique_is_customer(self):
        # 30 appears only at path ends next to clique member 1
        paths = BACKBONE + [(12, 2, 1, 30), (14, 3, 1, 30)]
        result = run(paths, enable_fold=False, enable_topdown=False,
                     enable_degree_gap=False, enable_providerless=False)
        assert result.provider_of(1, 30) == 1
        assert result.step_of(1, 30) is Step.S7_STUB

    def test_stub_next_to_nonclique_not_labeled_by_stub_step(self):
        paths = BACKBONE + [(12, 2, 1, 10, 31)]
        result = run(paths, enable_fold=False, enable_topdown=False,
                     enable_degree_gap=False, enable_providerless=False)
        assert result.step_of(10, 31) is not Step.S7_STUB


class TestDegreeGap:
    def test_huge_ratio_implies_transit(self):
        # 100 transits for many; 200 is tiny and unclassified
        paths = [(i, 100, 200) for i in range(1, 12)]
        paths += [(i, 100, j) for i in range(1, 12) for j in range(300, 306)]
        result = run(paths, enable_clique=False, enable_topdown=False,
                     enable_fold=False, enable_stub=False,
                     enable_providerless=False)
        assert result.provider_of(100, 200) == 100
        assert result.step_of(100, 200) is Step.S7B_GAP

    def test_comparable_sizes_untouched(self):
        paths = [(1, 100, 200), (2, 200, 100)]
        result = run(paths, enable_clique=False, enable_topdown=False,
                     enable_fold=False, enable_stub=False,
                     enable_providerless=False)
        assert result.step_of(100, 200) is Step.S9_REMAINING_P2P


class TestProviderless:
    def test_orphan_gets_highest_ranked_neighbor(self):
        # 77 only ever appears at the VP end: no provider inferred for it
        paths = BACKBONE + [(77, 10, 1, 2, 12)]
        result = run(paths, enable_degree_gap=False)
        if result.step_of(77, 10) is Step.S8_PROVIDERLESS:
            assert result.provider_of(77, 10) == 10

    def test_clique_members_never_get_providers(self):
        result = run(BACKBONE)
        for member in result.clique.members:
            assert not result.providers_of_asn(member)


class TestRemaining:
    def test_unclassified_defaults_to_p2p(self):
        paths = [(50, 60), (60, 50)]
        result = run(paths, enable_clique=False, enable_providerless=False,
                     enable_degree_gap=False)
        assert result.relationship(50, 60) is Relationship.P2P
        assert result.step_of(50, 60) is Step.S9_REMAINING_P2P

    def test_every_observed_link_labeled(self):
        result = run(BACKBONE + [(9, 10, 1, 3, 14, 15)])
        for a, b in result.paths.links():
            assert result.relationship(a, b) is not None


class TestPartialVp:
    def test_partial_vp_paths_are_customer_chains(self):
        # VP 5 sees only its own tiny cone; VPs 10/12/14 see everything
        full = BACKBONE + [
            (10, 1, 2, 12), (10, 1, 3, 14),
            (10, 1, 60), (12, 2, 60), (14, 3, 60),
        ]
        partial = [(5, 6), (5, 6, 7)]
        result = infer_relationships(
            PathSet.sanitize(full + partial),
            InferenceConfig(clique_seed_size=3, enable_partial_vp=True,
                            partial_vp_coverage=0.4),
        )
        assert result.provider_of(5, 6) == 5
        assert result.step_of(5, 6) is Step.S4B_PARTIAL_VP
        assert result.provider_of(6, 7) == 6


def _partial_vp_votes(step, paths, coverage, preset=()):
    """Labels (in vote order) and conflicts after S4B alone, over a
    result that already holds the ``preset`` provider→customer links."""
    result = InferenceResult(
        paths,
        CliqueResult(members=[], seed_members=[], added_members=[]),
        InferenceConfig(partial_vp_coverage=coverage),
    )
    for provider, customer in preset:
        result.set_p2c(provider, customer, Step.S5_TOPDOWN)
    step(result, paths, result.config)
    labels = [
        (pair, rel, result.provider_of(*pair), result.step_of(*pair))
        for pair, rel in result._rel.items()
    ]
    return labels, result.conflicts


class TestPartialVpColumns:
    """S4B over columns against the three-scan oracle."""

    def test_coverage_boundary_is_strict(self):
        # four origins (40, 50, 60, 70) at coverage 0.5: VP 5 reaches
        # exactly two, which is not fewer than 0.5 x 4, so it is a full
        # VP; VP 8 reaches one and is partial.  (9, 70) is preset with
        # 70 as provider, so 8's second vote is refused and logged
        paths = PathSet([
            (10, 1, 40), (10, 1, 50), (10, 1, 60), (10, 1, 70),
            (5, 6, 40), (5, 6, 50),
            (8, 9, 70),
        ])
        got = _partial_vp_votes(_step_partial_vp, paths, 0.5, [(70, 9)])
        want = _partial_vp_votes(reference_partial_vp, paths, 0.5, [(70, 9)])
        assert got == want
        labels, conflicts = got
        assert [(pair, step) for pair, _, _, step in labels] == [
            ((9, 70), Step.S5_TOPDOWN), ((8, 9), Step.S4B_PARTIAL_VP),
        ]
        assert [c.pair for c in conflicts] == [(9, 70)]

    def test_empty_corpus_votes_nothing(self):
        empty = PathSet([])
        assert _partial_vp_votes(_step_partial_vp, empty, 0.5) == ([], [])

    @settings(max_examples=150, deadline=None)
    @given(
        paths=st.lists(
            st.lists(st.integers(1, 12), min_size=1, max_size=5, unique=True)
            .map(tuple),
            max_size=25,
        ),
        coverage=st.sampled_from((0.25, 0.5, 0.75, 1.0)),
        picks=st.lists(st.tuples(st.integers(0, 99), st.booleans())),
    )
    def test_equals_the_three_scan_oracle(self, paths, coverage, picks):
        corpus = PathSet(set(paths))
        # preset votes land on corpus links, either way round
        links = sorted(corpus.links())
        preset = [
            links[i % len(links)][::-1 if flip else 1] for i, flip in picks
        ] if links else []
        assert _partial_vp_votes(
            _step_partial_vp, corpus, coverage, preset
        ) == _partial_vp_votes(reference_partial_vp, corpus, coverage, preset)


class TestSafety:
    def test_no_provider_cycles(self, small_run):
        result = small_run.result
        # walk the inferred p2c DAG: must be acyclic
        WHITE, GRAY, BLACK = 0, 1, 2
        state = {}

        def dfs(start):
            stack = [(start, iter(result.customers.get(start, ())))]
            state[start] = GRAY
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    mark = state.get(nxt, WHITE)
                    assert mark != GRAY, "provider cycle inferred"
                    if mark == WHITE:
                        state[nxt] = GRAY
                        stack.append((nxt, iter(result.customers.get(nxt, ()))))
                        advanced = True
                        break
                if not advanced:
                    state[node] = BLACK
                    stack.pop()

        for asn in result.paths.asns():
            if state.get(asn, WHITE) == WHITE:
                dfs(asn)

    def test_conflicts_recorded_not_silent(self):
        # two paths claiming opposite directions for 60-70
        paths = [(50, 60, 70), (80, 70, 60)] * 3
        paths += [(50, 60, i) for i in range(100, 110)]
        paths += [(80, 70, i) for i in range(200, 210)]
        result = run(paths, enable_clique=False)
        total_claims = len(result) + len(result.conflicts)
        assert total_claims >= len(result)

    def test_complex_candidates_surface_conflicted_pairs(self):
        paths = [(50, 60, 70), (80, 70, 60)] * 3
        paths += [(50, 60, i) for i in range(100, 110)]
        paths += [(80, 70, i) for i in range(200, 210)]
        result = run(paths, enable_clique=False)
        candidates = result.complex_candidates()
        assert sum(candidates.values()) == len(result.conflicts)
        if candidates:
            assert (60, 70) in candidates

    def test_clique_members_refuse_providers(self):
        """The transit-free assumption is enforced: no vote can give a
        clique member a provider."""
        result = run(BACKBONE + [(9, 10, 1, 2, 12)])
        for member in result.clique.members:
            assert not result.providers_of_asn(member)
        # and it holds on realistic data too (regression: a fold vote
        # once gave a clique member a provider)

    def test_counts_by_step_partition(self, small_run):
        result = small_run.result
        assert sum(result.counts_by_step().values()) == len(result)

    def test_counts_by_relationship_partition(self, small_run):
        result = small_run.result
        assert sum(result.counts_by_relationship().values()) == len(result)

    def test_every_sanitized_link_labeled(self, small_run):
        result = small_run.result
        for a, b in result.paths.links():
            assert result.relationship(a, b) is not None
