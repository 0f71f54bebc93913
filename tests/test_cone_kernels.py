"""The array kernels behind the observed cones and the rank table,
checked against the one-path-at-a-time and one-AS-at-a-time oracles of
:mod:`repro.qa.oracles`."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asrank import ASRank
from repro.core.clique import CliqueResult
from repro.core.cone import ConeDefinition, CustomerCones, compute_cones
from repro.core.inference import (
    InferenceConfig,
    InferenceResult,
    Step,
    infer_relationships,
)
from repro.core.paths import PathSet
from repro.core.rank import cone_prefix_sizes, rank_ases, rank_table
from repro.graph.bitset import pack_bits, unpack_bits
from repro.graph.index import DenseIndex
from repro.net.prefix import Prefix
from repro.net.prefix6 import Prefix6
from repro.qa.oracles import (
    REFERENCE_CONES,
    reference_rank_ases,
    summarize_address_space,
)

OBSERVED = (ConeDefinition.BGP_OBSERVED, ConeDefinition.PROVIDER_PEER_OBSERVED)

#: per link: unknown, peer, sibling, lower ASN provides, higher provides
_LABELS = ("unknown", "p2p", "s2s", "lo", "hi")


@st.composite
def _labeled(draw, labels=_LABELS):
    """A corpus (single-AS paths allowed) indexed into a result whose
    links carry drawn labels, cycles refused as the engine refuses
    them."""
    paths = draw(st.lists(
        st.lists(st.integers(1, 12), min_size=1, max_size=7, unique=True)
        .map(tuple),
        min_size=1,
        max_size=25,
        unique=True,
    ))
    corpus = PathSet(paths)
    result = InferenceResult(
        corpus,
        CliqueResult(members=[], seed_members=[], added_members=[]),
        InferenceConfig(),
    )
    for a, b in sorted(corpus.links()):
        label = draw(st.sampled_from(labels))
        if label == "p2p":
            result.set_p2p(a, b, Step.S9_REMAINING_P2P)
        elif label == "s2s":
            result.set_s2s(a, b, Step.S2B_SIBLING)
        elif label == "lo":
            result.set_p2c(a, b, Step.S5_TOPDOWN)
        elif label == "hi":
            result.set_p2c(b, a, Step.S5_TOPDOWN)
    return result


def _assert_observed_match(result):
    for definition in OBSERVED:
        assert compute_cones(result, definition) == (
            REFERENCE_CONES[definition](result)
        ), definition


class TestObservedKernels:
    @settings(max_examples=200, deadline=None)
    @given(result=_labeled())
    def test_equal_the_oracles(self, result):
        _assert_observed_match(result)

    @settings(max_examples=50, deadline=None)
    @given(result=_labeled(labels=("unknown",)))
    def test_all_links_unknown(self, result):
        for definition in OBSERVED:
            cones = compute_cones(result, definition)
            assert cones == {asn: {asn} for asn in result.paths.asns()}
        _assert_observed_match(result)

    @settings(max_examples=50, deadline=None)
    @given(result=_labeled(labels=("unknown", "p2p", "s2s")))
    def test_no_descending_hop(self, result):
        # no p2c link, so no descending hop; peer links still enter
        # nodes, which get their suffixes
        assert compute_cones(result, ConeDefinition.BGP_OBSERVED) == {
            asn: {asn} for asn in result.paths.asns()
        }
        _assert_observed_match(result)

    @settings(max_examples=50, deadline=None)
    @given(result=_labeled(labels=("unknown", "s2s")))
    def test_no_entered_node(self, result):
        assert compute_cones(
            result, ConeDefinition.PROVIDER_PEER_OBSERVED
        ) == {asn: {asn} for asn in result.paths.asns()}
        _assert_observed_match(result)

    def test_single_as_paths_only(self):
        result = infer_relationships(PathSet([(3,), (5,), (9,)]))
        _assert_observed_match(result)
        for definition in OBSERVED:
            assert compute_cones(result, definition) == {
                3: {3}, 5: {5}, 9: {9}
            }


class TestPackedRows:
    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(0, 40),
        pairs=st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39))),
    )
    def test_pack_then_unpack(self, n, pairs):
        pairs = [(u, m) for u, m in pairs if u < n and m < n]
        upper = np.array([u for u, _ in pairs], dtype=np.int64)
        member = np.array([m for _, m in pairs], dtype=np.int64)
        bits = pack_bits(n, upper, member)
        want = [1 << i for i in range(n)]
        for u, m in pairs:
            want[u] |= 1 << m
        assert bits == want
        rows, members = unpack_bits(bits, n)
        assert sorted(zip(rows.tolist(), members.tolist())) == sorted(
            {(u, m) for u, m in pairs} | {(i, i) for i in range(n)}
        )

    def test_blocks_bound_the_memory(self):
        # 6,000 ids take two row blocks: an n x n bool matrix would be
        # 36 MB, the packed output ints ~2.3 MB and one block 4 MB
        n = 6000
        rng = np.random.default_rng(1)
        upper = rng.integers(0, n, 20000)
        member = rng.integers(0, n, 20000)
        tracemalloc.start()
        try:
            bits = pack_bits(n, upper, member)
            rows, members = unpack_bits(bits, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20, peak
        want = [1 << i for i in range(n)]
        for u, m in zip(upper.tolist(), member.tolist()):
            want[u] |= 1 << m
        assert bits == want
        assert sum(mask.bit_count() for mask in want) == len(rows)
        assert all(
            bits[r] >> m & 1 for r, m in zip(rows.tolist(), members.tolist())
        )


# prefixes that nest, touch, repeat across origins, and IPv6 ones over
# the same integers as IPv4 ones (which must not merge with them)
_V4 = [
    Prefix.parse(text) for text in (
        "10.0.0.0/22", "10.0.0.0/23", "10.0.0.0/24", "10.0.1.0/24",
        "10.0.2.0/24", "10.0.3.0/25", "10.0.3.128/25", "10.0.3.128/26",
        "0.0.0.0/0", "192.0.2.0/24",
    )
]
_V6 = [
    Prefix6.parse(text) for text in (
        "::/96", "::a00:0/120", "2001:db8::/32", "2001:db8::/48",
        "2001:db8:1::/48", "::/0",
    )
]


@st.composite
def _prefix_maps(draw, asns):
    """Origin ASN -> prefix list, some ASes with none, duplicates and
    MOAS prefixes allowed."""
    return {
        asn: draw(st.lists(st.sampled_from(_V4 + _V6), max_size=4))
        for asn in asns
        if draw(st.booleans())
    }


class TestConePrefixSizes:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_equal_set_and_summarize(self, data):
        asns = list(range(100, 110))
        prefixes = data.draw(_prefix_maps(asns))
        masks = data.draw(st.lists(st.integers(0, (1 << 10) - 1), max_size=8))
        index = DenseIndex.from_sorted(asns)
        got = cone_prefix_sizes(index, masks, prefixes)
        listed = [
            [p for i in range(10) if mask >> i & 1
             for p in prefixes.get(asns[i], ())]
            for mask in masks
        ]
        assert got == (
            [len(set(cone)) for cone in listed],
            [summarize_address_space(cone) for cone in listed],
        )

    @pytest.mark.parametrize(
        "listed, prefixes, addresses",
        [
            # a covered prefix adds no addresses
            (["10.0.0.0/22", "10.0.1.0/24"], 2, 1024),
            # adjacent halves are both counted
            (["10.0.3.0/25", "10.0.3.128/25"], 2, 256),
            # a duplicate counts once
            (["192.0.2.0/24", "192.0.2.0/24"], 1, 256),
            # addresses are IPv4 only: ::/96 covers no IPv4 prefix
            (["::/96", "10.0.0.0/22"], 2, 1024),
            # 0.0.0.0/0 and ::/96 are two prefixes, one of them IPv4
            (["0.0.0.0/0", "::/96"], 2, 1 << 32),
            (["2001:db8::/32", "2001:db8:1::/48"], 2, 0),
            (["10.0.0.0/8", "::/96"], 2, 1 << 24),
        ],
    )
    def test_cases(self, listed, prefixes, addresses):
        parsed = [
            (Prefix6 if ":" in text else Prefix).parse(text)
            for text in listed
        ]
        index = DenseIndex.from_sorted([1, 2])
        # split over two origins so the join meets both
        by_asn = {1: parsed[:1], 2: parsed[1:], 3: parsed}
        assert cone_prefix_sizes(index, [0b11], by_asn) == (
            [prefixes], [addresses]
        )
        assert summarize_address_space(parsed) == addresses

    def test_no_prefixes(self):
        index = DenseIndex.from_sorted([1, 2])
        assert cone_prefix_sizes(index, [1, 3], {}) == ([0, 0], [0, 0])
        assert cone_prefix_sizes(index, [1, 3], {7: _V4}) == (
            [0, 0], [0, 0]
        )


class TestIpv6Prefixes:
    def test_ipv6_origin_builds_a_snapshot(self):
        # an IPv6 /32 once summed 2**96 addresses into the int64 rank row
        facade = ASRank.from_paths(
            [(10, 1, 2, 20), (20, 2, 1, 10)],
            prefixes_by_asn={20: [Prefix6.parse("2001:db8::/32")]},
        )
        rows = {row.asn: row for row in facade.snapshot().ranks()}
        assert rows[20].cone_prefixes == 1
        assert rows[20].cone_addresses == 0


PPDC = ConeDefinition.PROVIDER_PEER_OBSERVED


class TestRankAgainstOracle:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_rows_equal(self, data):
        result = data.draw(_labeled())
        asns = sorted(result.paths.asns())
        prefixes = data.draw(_prefix_maps(asns + [999]))
        definition = data.draw(st.sampled_from(list(ConeDefinition)))
        cones = CustomerCones.compute(result, definition, prefixes)
        sets = REFERENCE_CONES[definition](result)
        for limit in (None, 3):
            assert rank_ases(result, cones, limit) == reference_rank_ases(
                result, sets, prefixes, limit
            )

    def test_engine_result_with_scenario_prefixes(self, tiny_run, small_run):
        for run in (tiny_run, small_run):
            result = run.result
            ases = list(run.graph.ases())
            assert any(a.prefixes6 for a in ases)
            prefixes = {a.asn: a.prefixes + a.prefixes6 for a in ases}
            cones = CustomerCones.compute(result, PPDC, prefixes)
            sets = REFERENCE_CONES[PPDC](result)
            for limit in (None, 10):
                got = rank_ases(result, cones, limit)
                assert got == reference_rank_ases(
                    result, sets, prefixes, limit
                )
                assert got[0].cone_addresses > 0

    def test_without_prefixes(self, small_run):
        cones = CustomerCones.compute(small_run.result)
        assert rank_ases(small_run.result, cones) == reference_rank_ases(
            small_run.result, REFERENCE_CONES[PPDC](small_run.result)
        )


class TestRankIdSpace:
    def test_cones_of_another_result_are_refused(self, tiny_run, small_run):
        cones = CustomerCones.compute(tiny_run.result)
        with pytest.raises(ValueError):
            rank_table(small_run.result, cones)
        with pytest.raises(ValueError):
            rank_ases(small_run.result, cones)
        # a re-run on the same corpus indexes the same ASes, but its
        # cones are not this result's either
        rerun = infer_relationships(tiny_run.result.paths)
        assert rerun.index.asns == tiny_run.result.index.asns
        with pytest.raises(ValueError):
            rank_table(rerun, cones)
