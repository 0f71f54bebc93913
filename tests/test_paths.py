"""Unit tests for path sanitization and degree computation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.paths import (
    PathSet,
    is_reserved_asn,
    sort_unique,
)
from repro.qa.oracles import (
    compress_prepending,
    has_loop,
    reference_degrees,
    reference_ranked_asns,
    reference_sanitize,
)


class TestReservedAsns:
    @pytest.mark.parametrize(
        "asn", [0, 23456, 64496, 64511, 64512, 65000, 65534, 65535,
                65536, 65551, 4200000000, 4294967295, 2**32, -5]
    )
    def test_reserved(self, asn):
        assert is_reserved_asn(asn)

    @pytest.mark.parametrize("asn", [1, 100, 3356, 64495, 65552, 100000])
    def test_not_reserved(self, asn):
        assert not is_reserved_asn(asn)


class TestCompress:
    def test_removes_adjacent_duplicates(self):
        assert compress_prepending((1, 1, 2, 2, 2, 3)) == (1, 2, 3)

    def test_identity_when_clean(self):
        assert compress_prepending((1, 2, 3)) == (1, 2, 3)

    def test_keeps_nonadjacent_duplicates(self):
        assert compress_prepending((1, 2, 1)) == (1, 2, 1)

    def test_empty(self):
        assert compress_prepending(()) == ()

    @given(st.lists(st.integers(min_value=1, max_value=50), max_size=20))
    def test_idempotent(self, path):
        once = compress_prepending(path)
        assert compress_prepending(once) == once


class TestLoops:
    def test_loop_detected(self):
        assert has_loop((1, 2, 3, 1))

    def test_clean_path(self):
        assert not has_loop((1, 2, 3))


class TestSanitize:
    def test_clean_paths_kept(self):
        ps = PathSet.sanitize([(1, 2, 3), (1, 2, 4)])
        assert len(ps) == 2
        assert ps.stats.kept == 2

    def test_prepending_compressed_and_counted(self):
        ps = PathSet.sanitize([(1, 2, 2, 3)])
        assert ps.paths == [(1, 2, 3)]
        assert ps.stats.prepending_compressed == 1

    def test_loops_discarded(self):
        ps = PathSet.sanitize([(1, 2, 1, 3)])
        assert len(ps) == 0
        assert ps.stats.discarded_loops == 1

    def test_reserved_asn_discarded(self):
        ps = PathSet.sanitize([(1, 64512, 3)])
        assert len(ps) == 0
        assert ps.stats.discarded_reserved_asn == 1

    def test_asn_beyond_32_bits_discarded(self):
        # packed 32-bit link keys would wrap 2**33+5 to 5
        ps = PathSet.sanitize([(10, 2**33 + 5, 20)])
        assert len(ps) == 0
        assert ps.links() == set()
        assert ps.stats.discarded_reserved_asn == 1

    @pytest.mark.parametrize(
        "path, prepending",
        [
            ((10, 2**64, 20), 0),
            ((10, -1, 20), 0),
            ((10, 2**64, 2**64, 20), 1),  # prepending still counted
            ((10, 2**64, 2**65, 20), 0),  # distinct huge hops: no run
        ],
    )
    def test_out_of_range_asn_discarded(self, path, prepending):
        # values outside int64 never reach the kernel's arrays as such
        ps = PathSet.sanitize([path, (1, 2)])
        assert ps.paths == [(1, 2)]
        assert ps.stats.discarded_reserved_asn == 1
        assert ps.stats.prepending_compressed == prepending
        assert ps.stats == reference_sanitize([path, (1, 2)]).stats

    def test_ixp_hop_spliced(self):
        ps = PathSet.sanitize([(1, 99, 2)], ixp_asns=frozenset({99}))
        assert ps.paths == [(1, 2)]
        assert ps.stats.ixp_hops_removed == 1

    def test_ixp_splice_may_expose_prepending(self):
        # 1 99 1 2 → removing 99 leaves 1 1 2 → compressed to 1 2
        ps = PathSet.sanitize([(1, 99, 1, 2)], ixp_asns=frozenset({99}))
        assert ps.paths == [(1, 2)]

    def test_duplicates_merged(self):
        ps = PathSet.sanitize([(1, 2, 3), (1, 2, 3)])
        assert len(ps) == 1
        assert ps.counts[(1, 2, 3)] == 2
        assert ps.stats.duplicates_merged == 1

    def test_single_hop_dropped(self):
        ps = PathSet.sanitize([(1,), (1, 1)])
        assert len(ps) == 0

    def test_empty_input(self):
        ps = PathSet.sanitize([])
        assert len(ps) == 0
        assert ps.stats.input_paths == 0

    def test_stats_rows_cover_all_counters(self):
        ps = PathSet.sanitize([(1, 2, 3)])
        names = [name for name, _ in ps.stats.as_rows()]
        assert "input paths" in names and "kept (unique)" in names


#: hops covering every stage-1 outcome: public, reserved, IXP, and
#: values outside 32 bits and int64
_HOPS = st.sampled_from(
    (1, 2, 3, 4, 5, 99, 0, 23456, 64512, 4200000000, 2**32, 2**64, -1)
)
_RAW_PATHS = st.lists(st.lists(_HOPS, max_size=8), max_size=12)
_IXPS = st.frozensets(st.sampled_from((3, 99, 64512, 2**70)), max_size=2)


class TestSanitizeKernel:
    """The vectorized stage 1 against the scalar oracle."""

    @settings(max_examples=200, deadline=None)
    @given(
        raw=_RAW_PATHS,
        ixp=_IXPS,
        times=st.lists(st.integers(min_value=1, max_value=5), min_size=12),
    )
    def test_equals_oracle(self, raw, ixp, times):
        got = PathSet.sanitize(raw, ixp_asns=ixp)
        want = reference_sanitize(raw, ixp_asns=ixp)
        assert got.paths == want.paths
        assert got.counts == want.counts
        assert got.stats == want.stats
        # weighted: each distinct raw path once, weighted by its rows,
        # equals the oracle over the rows expanded
        distinct = list(dict.fromkeys(map(tuple, raw)))
        weights = times[:len(distinct)]
        got = PathSet.sanitize(distinct, ixp_asns=ixp, weights=weights)
        want = reference_sanitize(
            [path for path, n in zip(distinct, weights) for _ in range(n)],
            ixp_asns=ixp,
        )
        assert got.paths == want.paths
        assert got.counts == want.counts
        assert got.stats == want.stats

    @settings(max_examples=50, deadline=None)
    @given(raw=_RAW_PATHS, ixp=_IXPS)
    def test_numpy_view_equals_rebuilt(self, raw, ixp):
        built = PathSet.sanitize(raw, ixp_asns=ixp).numpy_view()
        rebuilt = PathSet(PathSet.sanitize(raw, ixp_asns=ixp).paths)
        for got, want in zip(built, rebuilt.numpy_view()):
            assert got.dtype == want.dtype == np.int64
            assert np.array_equal(got, want)

    def test_duplicates_merge_in_tuple_order(self):
        # (1, 4) and (2, 3) share a hop sum and a length, the key a weak
        # hash would collide on; sorting keeps them apart
        raw = [(1, 4), (2, 3), (1, 4), (3, 2), (2, 3)]
        ps = PathSet.sanitize(raw)
        assert ps.paths == [(1, 4), (2, 3), (3, 2)]
        assert ps.counts == {(1, 4): 2, (2, 3): 2, (3, 2): 1}
        assert ps.stats == reference_sanitize(raw).stats


class TestDegrees:
    @pytest.fixture
    def ps(self):
        return PathSet.sanitize(
            [
                (10, 20, 30),  # 20 transits between 10 and 30
                (10, 20, 40),
                (50, 20, 30),
                (10, 60),  # 60 only at the edge
            ]
        )

    def test_node_degree(self, ps):
        assert ps.node_degree(20) == 4  # 10, 30, 40, 50
        assert ps.node_degree(10) == 2  # 20, 60

    def test_transit_degree_counts_middle_only(self, ps):
        assert ps.transit_degree(20) == 4
        assert ps.transit_degree(60) == 0
        assert ps.transit_degree(10) == 0

    def test_transit_degrees_mapping(self, ps):
        td = ps.transit_degrees()
        assert td[20] == 4 and td[60] == 0

    def test_ranked_order(self, ps):
        ranked = ps.ranked_asns()
        assert ranked[0] == 20
        # ties broken by node degree then ASN
        assert ranked.index(10) < ranked.index(50)

    def test_asns_and_links(self, ps):
        assert ps.asns() == {10, 20, 30, 40, 50, 60}
        assert (10, 20) in ps.links()
        assert (10, 60) in ps.links()

    def test_filtered_shares_stats(self, ps):
        # row mask over (10, 20, 30), (10, 20, 40), (10, 60), (50, 20, 30)
        sub = ps.filtered([True, False, False, False])
        assert len(sub) == 1
        assert sub.stats is ps.stats
        assert sub.transit_degree(20) == 2


class TestSortUnique:
    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(st.one_of(
            st.integers(0, 40), st.integers(0, 2**63 - 1),
            st.integers(-(2**63), 2**63 - 1),
        ), max_size=40),
        dtype=st.sampled_from((np.int64, np.uint64)),
    )
    def test_equals_numpy_unique(self, values, dtype):
        # small values take the packed sort, large or negative ones the
        # argsort
        if dtype is np.uint64:
            values = [v % 2**64 for v in values]
        array = np.array(values, dtype=dtype)
        unique, inverse = np.unique(array, return_inverse=True)
        assert np.array_equal(sort_unique(array), unique)
        got, got_inverse, order = sort_unique(array, return_inverse=True)
        assert got.dtype == array.dtype
        assert np.array_equal(got, unique)
        assert np.array_equal(got_inverse, inverse)
        assert np.array_equal(order, np.argsort(array, kind="stable"))


#: ASNs from both halves of the 32-bit space: ones at or above 2**31
#: overflow a signed 32-bit shift, so packed keys must stay uint64
_DEGREE_ASNS = st.sampled_from(
    (1, 2, 3, 70, 2**31 - 1, 2**31, 3_000_000_000, 4_199_999_999)
)


class TestDegreeOracle:
    """Degrees and ranking from the columns against neighbour sets
    built one path at a time."""

    @staticmethod
    def _assert_matches_oracle(ps):
        node, transit = reference_degrees(ps)
        assert ps.asns() == set(node)
        assert ps.links() == {
            (a, b) for a, neighbors in node.items() for b in neighbors
            if a <= b
        }
        assert sorted(ps.links()) == [
            (int(k) >> 32, int(k) & 0xFFFFFFFF) for k in ps.link_index.keys
        ]
        for asn, neighbors in node.items():
            assert ps.node_degree(asn) == len(neighbors)
            assert ps.neighbors(asn) == sorted(neighbors)
            assert ps.transit_degree(asn) == len(transit.get(asn, ()))
        assert ps.transit_degrees() == {
            asn: len(transit.get(asn, ())) for asn in node
        }
        assert ps.ranked_asns() == reference_ranked_asns(ps)

    @settings(max_examples=200, deadline=None)
    @given(
        paths=st.lists(
            st.lists(_DEGREE_ASNS, min_size=1, max_size=6, unique=True)
            .map(tuple),
            max_size=12,
        ),
        data=st.data(),
    )
    def test_columns_equal_the_oracle(self, paths, data):
        # single-AS and single-hop paths included, and the empty corpus
        ps = PathSet(paths)
        self._assert_matches_oracle(ps)
        keep = data.draw(st.lists(
            st.booleans(), min_size=len(ps), max_size=len(ps)
        ))
        self._assert_matches_oracle(ps.filtered(keep))

    def test_hop_outside_int64_is_refused(self):
        # stage 1's stand-in codes are for raw paths only: a corpus
        # built from such a path must not carry them as ASNs
        with pytest.raises(OverflowError):
            PathSet([(1, 2**64, 3)])

    def test_absent_asn_has_no_degree(self):
        ps = PathSet([(1, 2, 3)])
        assert ps.node_degree(9) == ps.transit_degree(9) == 0
        assert ps.neighbors(9) == []


def _index_fields(ps):
    """Everything a corpus indexes about itself, as comparable values."""
    asns, ids = ps.asn_index
    fields = [("asns", asns), ("ids", ids)]
    fields += [(name, getattr(ps.link_index, name))
               for name in ps.link_index._fields]
    position, transit, node, start, neighbors, pairs, multiplicity = (
        ps._degrees
    )
    fields += [("start", start), ("neighbors", neighbors),
               ("pairs", pairs), ("multiplicity", multiplicity)]
    return fields, (position, transit, node, ps.ranked_asns())


def _fresh(ps):
    """``ps``'s columns as a root corpus, indexed by its own sorts."""
    return PathSet._from_columns(
        ps.flat, ps.plen, ps.off, ps.path_counts, ps.stats
    )


class TestFilteredInheritance:
    """A filtered copy derives its indexes from its parent's; they must
    equal those of a root corpus over the same columns, bit for bit."""

    @staticmethod
    def _assert_inherits(sub):
        assert sub._parent is not None
        got, got_lists = _index_fields(sub)
        want, want_lists = _index_fields(_fresh(sub))
        for (name, a), (_, b) in zip(got, want):
            assert a.dtype == b.dtype, name
            assert np.array_equal(a, b), name
        assert got_lists == want_lists
        for asn in sub.asns():
            assert sub.neighbors(asn) == _fresh(sub).neighbors(asn)

    @settings(max_examples=300, deadline=None)
    @given(
        paths=st.lists(
            st.lists(_DEGREE_ASNS, min_size=1, max_size=6, unique=True)
            .map(tuple),
            max_size=12,
        ),
        data=st.data(),
    )
    def test_random_masks_and_a_copy_of_a_copy(self, paths, data):
        # single-AS and 2-hop paths, ASNs >= 2**31, the empty corpus,
        # all rows and no rows are all in the drawn space
        ps = PathSet(paths)
        keep = data.draw(st.lists(
            st.booleans(), min_size=len(ps), max_size=len(ps)
        ))
        sub = ps.filtered(keep)
        self._assert_inherits(sub)
        again = data.draw(st.lists(
            st.booleans(), min_size=len(sub), max_size=len(sub)
        ))
        self._assert_inherits(sub.filtered(again))

    # rows in tuple order: (1, 2, 3), (3, 2, 4), (5, 2, 3)
    @pytest.mark.parametrize("keep, gone", [
        # AS 4 is only in the dropped path
        ([True, False, True], "as"),
        # link 1-2 is only in the first path
        ([False, True, True], "link"),
        # (mid 2, neighbour 1) is carried by the first path alone
        ([False, True, True], "pair"),
        ([True, True, True], None),
        ([False, False, False], None),
    ])
    def test_hand_picked_drops(self, keep, gone):
        ps = PathSet([(1, 2, 3), (5, 2, 3), (3, 2, 4)])
        ps.ranked_asns()
        sub = ps.filtered(keep)
        self._assert_inherits(sub)
        if gone == "as":
            assert 4 not in sub.asns()
        elif gone == "link":
            assert (1, 2) not in sub.links()
        elif gone == "pair":
            assert sub.transit_degree(2) == ps.transit_degree(2) - 1

    def test_indexing_a_filtered_copy_sorts_no_hops(self, monkeypatch):
        import repro.core.paths as paths_module

        ps = PathSet([(1, 2, 3), (5, 2, 3), (3, 2, 4), (7, 8)])
        ps.ranked_asns()

        def no_sort(*args, **kwargs):
            raise AssertionError("a filtered copy sorted its hops")

        monkeypatch.setattr(paths_module, "sort_unique", no_sort)
        monkeypatch.setattr(paths_module, "count_unique", no_sort)
        sub = ps.filtered([False, True, True, False])
        sub.ranked_asns()
        sub.filtered([True, False]).ranked_asns()
        monkeypatch.undo()
        self._assert_inherits(sub)


class TestMemoization:
    """PathSet is immutable: corpus-wide scans are computed once."""

    @pytest.fixture
    def ps(self):
        return PathSet([(10, 20, 30), (10, 20, 40)])

    def test_asns_cached(self, ps):
        assert ps.asns() is ps.asns()

    def test_links_cached(self, ps):
        assert ps.links() is ps.links()

    def test_ranked_cached(self, ps):
        assert ps.ranked_asns() is ps.ranked_asns()

    def test_filtered_does_not_share_caches(self, ps):
        ps.asns()
        ps.links()
        sub = ps.filtered([True, False])
        assert sub.paths == [(10, 20, 30)]
        assert sub.asns() == {10, 20, 30}
        assert sub.links() == {(10, 20), (20, 30)}
        # and the parent's caches are untouched
        assert ps.asns() == {10, 20, 30, 40}

    def test_empty_corpus(self):
        empty = PathSet([])
        assert empty.asns() == set()
        assert empty.links() == set()
        assert empty.ranked_asns() == []
