"""Unit tests for the measurement-noise model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.noise import (
    ColumnNoiser,
    NoiseConfig,
    RESERVED_ASN,
    _prepend_memo,
    prepend_count,
)
from repro.qa.oracles import PathNoiser
from repro.relationships import canonical_pair
from repro.topology.model import AS, ASGraph, ASType


def bare_graph(clique_asns=(1, 2, 3)):
    graph = ASGraph()
    for asn in clique_asns:
        graph.add_as(AS(asn=asn, type=ASType.CLIQUE))
    for i, a in enumerate(clique_asns):
        for b in clique_asns[i + 1:]:
            graph.add_p2p(a, b)
    graph.via_ixp = {}
    return graph


class TestNone:
    def test_none_is_identity(self):
        noiser = PathNoiser(bare_graph(), NoiseConfig.none())
        path = (10, 11, 12, 13)
        assert noiser.apply(path) == path


class TestPrepending:
    def test_prepend_adds_adjacent_duplicates(self):
        config = NoiseConfig(seed=3, prepend_prob=1.0, max_prepend=2,
                             poison_prob=0, loop_prob=0, reserved_asn_prob=0,
                             ixp_insertion=False)
        noiser = PathNoiser(bare_graph(), config)
        observed = noiser.apply((10, 11, 12))
        # compressing duplicates recovers the original path
        compressed = [observed[0]]
        for asn in observed[1:]:
            if asn != compressed[-1]:
                compressed.append(asn)
        assert tuple(compressed) == (10, 11, 12)
        assert len(observed) > 3

    def test_prepend_deterministic_per_adjacency(self):
        config = NoiseConfig(seed=3, prepend_prob=0.5, poison_prob=0,
                             loop_prob=0, reserved_asn_prob=0,
                             ixp_insertion=False)
        a = PathNoiser(bare_graph(), config)
        b = PathNoiser(bare_graph(), config)
        for path in ((10, 11, 12), (10, 11, 13), (11, 12, 14)):
            assert a.apply(path) == b.apply(path)

    def test_first_hop_never_prepended(self):
        config = NoiseConfig(seed=1, prepend_prob=1.0, max_prepend=3,
                             poison_prob=0, loop_prob=0, reserved_asn_prob=0,
                             ixp_insertion=False)
        noiser = PathNoiser(bare_graph(), config)
        observed = noiser.apply((10, 11))
        assert observed[0] == 10
        assert observed.count(10) == 1


class TestIxpInsertion:
    def test_rs_inserted_between_peers(self):
        graph = bare_graph()
        graph.add_as(AS(asn=20, type=ASType.SMALL_TRANSIT))
        graph.add_as(AS(asn=21, type=ASType.SMALL_TRANSIT))
        graph.add_as(AS(asn=99, type=ASType.IXP_RS))
        graph.add_p2p(20, 21)
        graph.via_ixp = {canonical_pair(20, 21): 99}
        config = NoiseConfig(seed=1, prepend_prob=0, poison_prob=0,
                             loop_prob=0, reserved_asn_prob=0)
        noiser = PathNoiser(graph, config)
        assert noiser.apply((10, 20, 21)) == (10, 20, 99, 21)

    def test_rs_skipped_when_disabled(self):
        graph = bare_graph()
        graph.via_ixp = {canonical_pair(10, 11): 99}
        noiser = PathNoiser(graph, NoiseConfig.none())
        assert noiser.apply((10, 11)) == (10, 11)


class TestInjections:
    def test_poison_inserts_clique_asn(self):
        config = NoiseConfig(seed=2, prepend_prob=0, poison_prob=1.0,
                             loop_prob=0, reserved_asn_prob=0,
                             ixp_insertion=False)
        noiser = PathNoiser(bare_graph(), config)
        observed = noiser.apply((10, 11, 12))
        extras = [asn for asn in observed if asn not in (10, 11, 12)]
        if extras:  # poison may collide and be skipped; usually present
            assert extras[0] in (1, 2, 3)
            assert len(observed) == 4

    def test_loop_duplicates_origin(self):
        config = NoiseConfig(seed=2, prepend_prob=0, poison_prob=0,
                             loop_prob=1.0, reserved_asn_prob=0,
                             ixp_insertion=False)
        noiser = PathNoiser(bare_graph(), config)
        observed = noiser.apply((10, 11, 12))
        assert observed.count(12) == 2

    def test_reserved_asn_injected(self):
        config = NoiseConfig(seed=2, prepend_prob=0, poison_prob=0,
                             loop_prob=0, reserved_asn_prob=1.0,
                             ixp_insertion=False)
        noiser = PathNoiser(bare_graph(), config)
        observed = noiser.apply((10, 11, 12))
        assert RESERVED_ASN in observed

    def test_short_paths_not_poisoned(self):
        config = NoiseConfig(seed=2, prepend_prob=0, poison_prob=1.0,
                             loop_prob=1.0, reserved_asn_prob=0,
                             ixp_insertion=False)
        noiser = PathNoiser(bare_graph(), config)
        assert noiser.apply((10, 11)) == (10, 11)


class TestPrependMemo:
    """The column noiser reads prepend counts through a process-wide
    memo; the pure :func:`prepend_count` the oracle calls stays
    uncached, so they must agree draw for draw."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        prepend_prob=st.sampled_from([0.0, 0.03, 0.5, 1.0]),
        max_prepend=st.integers(0, 4),
        asn=st.integers(1, 2**32 - 1),
        toward=st.integers(1, 2**32 - 1),
    )
    def test_memo_equals_fresh_draw(self, seed, prepend_prob, max_prepend,
                                    asn, toward):
        config = NoiseConfig(seed=seed, prepend_prob=prepend_prob,
                             max_prepend=max_prepend)
        want = prepend_count(config, asn, toward)
        for _ in range(2):  # a miss, then a hit
            assert _prepend_memo(
                seed, prepend_prob, max_prepend, asn, toward
            ) == want

    def test_second_noiser_misses_nothing(self):
        config = NoiseConfig(seed=918_273_645, prepend_prob=0.5,
                             poison_prob=0, loop_prob=0,
                             reserved_asn_prob=0, ixp_insertion=False)
        flat = np.array([10, 11, 12, 10, 13], dtype=np.int64)
        off = np.array([0, 3, 5], dtype=np.int64)
        outs = []
        misses = []
        for _ in range(2):
            noiser = ColumnNoiser(config, [], {})
            outs.append(noiser.apply(flat, off, [12, 13],
                                     np.array([1, 1], dtype=np.int64)))
            misses.append(noiser.misses)
        assert misses == [3, 0]  # 11->10, 12->11 and 13->10
        for got, want in zip(outs[1], outs[0]):
            assert np.array_equal(got, want)
        oracle = PathNoiser(None, config)
        for i, path in enumerate(((10, 11, 12), (10, 13))):
            row = outs[0][0][outs[0][1][i]:outs[0][1][i + 1]]
            assert tuple(row.tolist()) == oracle.apply(path)
