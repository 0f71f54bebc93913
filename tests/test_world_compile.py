"""The propagation world's compile: ASGraph neighbour sets straight to CSR.

:meth:`RelGraph.from_as_graph` reads the neighbour sets into pair
columns and sorts them into CSR arrays; these tests hold it to the
per-AS sorted-list compile it replaced (kept here as the reference),
arrays and dtypes alike, on worlds whose AS table is out of ASN order
(the neighbour column's argsort mapping) and whose links were partly
removed (the customers view is the providers pairs transposed).  The
compile is kept per graph until an edit: after every mutator it must
equal a fresh compile of a deep copy.
"""

from __future__ import annotations

import copy
import gc
import pickle
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import (
    MAX_INT32,
    CsrOverflowError,
    CsrRows,
    csr_arrays,
    csr_from_pairs,
)
from repro.graph.index import DenseIndex
from repro.graph import relgraph
from repro.graph.relgraph import RelGraph
from repro.topology.model import AS, ASGraph, ASType


def list_compile(graph, restrict=None):
    """The per-AS sorted-list compile: index plus three row lists."""
    index = DenseIndex(
        asys.asn
        for asys in graph.ases()
        if asys.type is not ASType.IXP_RS
        and (restrict is None or asys.asn in restrict)
    )
    ids = index.ids
    n = len(index)
    providers = [[] for _ in range(n)]
    customers = [[] for _ in range(n)]
    peers = [[] for _ in range(n)]
    for asn in index.asns:
        i = ids[asn]
        providers[i] = sorted(
            ids[p] for p in graph.providers[asn] if p in ids
        )
        customers[i] = sorted(
            ids[c] for c in graph.customers[asn] if c in ids
        )
        peerish = graph.peers[asn] | graph.siblings[asn]
        peers[i] = sorted(ids[p] for p in peerish if p in ids)
    return index, providers, customers, peers


def assert_compiles_alike(graph, restrict=None):
    rel = RelGraph.from_as_graph(graph, restrict=restrict)
    index, providers, customers, peers = list_compile(graph, restrict)
    assert rel.index.asns == index.asns
    csr = rel.csr()
    for view, rows, lists in (
        (csr.providers, rel.providers, providers),
        (csr.customers, rel.customers, customers),
        (csr.peers, rel.peers, peers),
    ):
        for got, want in zip(view, csr_arrays(lists)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert isinstance(rows, CsrRows)
        assert rows.tolist() == lists
    return rel


_TYPES = [
    ASType.CLIQUE,
    ASType.SMALL_TRANSIT,
    ASType.ACCESS,
    ASType.STUB,
    ASType.IXP_RS,
]


@st.composite
def worlds(draw):
    """A small ASGraph with every link kind, IXP route servers, isolated
    ASes and sparse ASNs inserted in a drawn (not ascending) order, some
    links removed again, plus an optional ``restrict`` set."""
    asns = draw(st.lists(
        st.integers(1, 2**32 - 1), min_size=0, max_size=24, unique=True
    ))
    graph = ASGraph()
    for asn in draw(st.permutations(asns)):
        graph.add_as(AS(asn=asn, type=draw(st.sampled_from(_TYPES))))
    if len(asns) >= 2:
        pairs = draw(st.lists(
            st.tuples(
                st.integers(0, len(asns) - 1),
                st.integers(0, len(asns) - 1),
                st.sampled_from(["p2c", "p2p", "s2s"]),
            ),
            max_size=60,
        ))
        for i, j, kind in pairs:
            if i == j or graph.relationship(asns[i], asns[j]) is not None:
                continue
            a, b = asns[min(i, j)], asns[max(i, j)]
            if kind == "p2c":
                # providers come first in draw order: a DAG by construction
                graph.add_p2c_unchecked(a, b)
            elif kind == "p2p":
                graph.add_p2p(a, b)
            else:
                graph.add_s2s(a, b)
        links = sorted((a, b) for a, b, _ in graph.links())
        if links:
            for a, b in draw(st.lists(st.sampled_from(links), unique=True)):
                graph.remove_link(a, b)
    restrict = None
    if draw(st.booleans()):
        restrict = set(draw(st.lists(st.sampled_from(asns), unique=True))
                       if asns else [])
    return graph, restrict


class TestFromAsGraph:
    @settings(max_examples=200, deadline=None)
    @given(worlds())
    def test_matches_list_compile(self, world):
        graph, restrict = world
        assert_compiles_alike(graph, restrict)

    def test_descending_insertion_and_removed_links(self):
        graph = ASGraph()
        for asn in (70, 50, 30, 10):
            graph.add_as(AS(asn=asn, type=ASType.SMALL_TRANSIT))
        graph.add_p2c(10, 30)
        graph.add_p2c(10, 50)
        graph.add_p2c(30, 70)
        graph.add_p2c(50, 70)
        graph.add_p2p(30, 50)
        graph.remove_link(10, 50)
        graph.remove_link(50, 30)
        rel = assert_compiles_alike(graph)
        assert rel.index.asns == [10, 30, 50, 70]
        assert rel.customers.tolist() == [[1], [3], [3], []]
        assert rel.providers.tolist() == [[], [0], [], [1, 2]]
        assert rel.peers.tolist() == [[], [], [], []]

    def test_adopts_a_given_index(self):
        graph = ASGraph()
        for asn in (3, 1, 2):
            graph.add_as(AS(asn=asn, type=ASType.SMALL_TRANSIT))
        graph.add_p2c(1, 2)
        graph.add_p2c(2, 3)
        index = DenseIndex.from_sorted([2, 3])
        rel = RelGraph.from_as_graph(graph, index=index)
        assert rel.index is index
        assert rel.customers.tolist() == [[1], []]
        assert rel.providers.tolist() == [[], [0]]

    def test_empty_graph(self):
        rel = assert_compiles_alike(ASGraph())
        assert len(rel) == 0
        assert rel.csr().providers[0].tolist() == [0]

    def test_route_servers_siblings_and_excluded_neighbours(self):
        graph = ASGraph()
        graph.add_as(AS(asn=10, type=ASType.CLIQUE))
        graph.add_as(AS(asn=20, type=ASType.SMALL_TRANSIT))
        graph.add_as(AS(asn=30, type=ASType.STUB))
        graph.add_as(AS(asn=40, type=ASType.STUB))  # isolated
        graph.add_as(AS(asn=50, type=ASType.STUB))
        graph.add_as(AS(asn=99, type=ASType.IXP_RS))
        graph.add_p2c(10, 20)
        graph.add_p2c(20, 30)
        graph.add_s2s(20, 50)
        # 50's other neighbour is a route server: once it is excluded
        # its only row entry is the sibling, merged into peers
        graph.add_p2p(50, 99)
        rel = assert_compiles_alike(graph)
        ids = rel.index.ids
        assert 99 not in ids
        assert rel.peers[ids[50]].tolist() == [ids[20]]
        assert rel.peers[ids[20]].tolist() == [ids[50]]
        assert len(rel.providers[ids[40]]) == 0
        # restrict to ASes whose neighbours are all outside: empty rows
        rel = assert_compiles_alike(graph, restrict={30, 40, 50})
        assert rel.csr().providers[1].size == 0
        assert rel.csr().peers[1].size == 0

    def test_closure_over_csr_rows(self):
        graph = ASGraph()
        for asn in (1, 2, 3):
            graph.add_as(AS(asn=asn, type=ASType.SMALL_TRANSIT))
        graph.add_p2c(1, 2)
        graph.add_p2c(2, 3)
        rel = RelGraph.from_as_graph(graph)
        assert rel.closure() == [0b111, 0b110, 0b100]
        assert all(type(bits) is int for bits in rel.closure())


def memo_world():
    """Two transit ASes over three stubs, a peering and a sibling."""
    graph = ASGraph()
    for asn, kind in ((10, ASType.SMALL_TRANSIT), (20, ASType.SMALL_TRANSIT),
                      (30, ASType.STUB), (40, ASType.STUB),
                      (50, ASType.STUB)):
        graph.add_as(AS(asn=asn, type=kind))
    graph.add_p2c(10, 30)
    graph.add_p2c(20, 40)
    graph.add_p2p(10, 20)
    graph.add_s2s(30, 40)
    return graph


def assert_same_compile(got, want):
    assert got.index.asns == want.index.asns
    for view in ("providers", "customers", "peers"):
        for a, b in zip(getattr(got.csr(), view), getattr(want.csr(), view)):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)


#: every ASGraph method that changes the AS table or a link
MUTATORS = {
    "add_as": lambda g: g.add_as(AS(asn=60, type=ASType.STUB)),
    "add_p2c": lambda g: g.add_p2c(20, 50),
    "add_p2c_unchecked": lambda g: g.add_p2c_unchecked(10, 50),
    "add_p2p": lambda g: g.add_p2p(30, 50),
    "add_p2p_if_absent": lambda g: g.add_p2p_if_absent(40, 50),
    "add_s2s": lambda g: g.add_s2s(10, 50),
    "remove_link": lambda g: g.remove_link(10, 20),
}


class TestCompileMemo:
    def test_unchanged_graph_reuses_its_compile(self):
        graph = memo_world()
        rel = RelGraph.from_as_graph(graph)
        assert RelGraph.from_as_graph(graph) is rel
        given = DenseIndex.from_sorted(list(rel.index.asns))
        assert RelGraph.from_as_graph(graph, index=given) is rel

    @pytest.mark.parametrize("mutator", sorted(MUTATORS))
    def test_each_mutator_recompiles(self, mutator):
        graph = memo_world()
        before = RelGraph.from_as_graph(graph)
        edits = graph.edits
        MUTATORS[mutator](graph)
        assert graph.edits == edits + 1
        after = RelGraph.from_as_graph(graph)
        assert after is not before
        assert_same_compile(after, RelGraph.from_as_graph(copy.deepcopy(graph)))
        assert_compiles_alike(graph)

    def test_absent_peering_insert_only_counts_when_it_inserts(self):
        graph = memo_world()
        rel = RelGraph.from_as_graph(graph)
        assert graph.add_p2p_if_absent(20, 10) is False
        assert RelGraph.from_as_graph(graph) is rel

    def test_in_place_route_server_changes_the_routing_list(self):
        # AS.type is edited in place (topology.evolution promotes
        # clique entrants that way), which the edit count does not see
        graph = memo_world()
        rel = RelGraph.from_as_graph(graph)
        graph.get_as(50).type = ASType.IXP_RS
        again = RelGraph.from_as_graph(graph)
        assert again is not rel and 50 not in again.index.ids
        assert_same_compile(again, RelGraph.from_as_graph(copy.deepcopy(graph)))

    def test_restricted_plane_is_compiled_on_its_own(self):
        graph = memo_world()
        full = RelGraph.from_as_graph(graph)
        plane = RelGraph.from_as_graph(graph, restrict={10, 20, 30})
        assert plane.index.asns == [10, 20, 30]
        assert RelGraph.from_as_graph(graph) is not full
        assert_same_compile(RelGraph.from_as_graph(graph), full)

    def test_copies_and_pickles_carry_no_compile(self):
        graph = memo_world()
        rel = RelGraph.from_as_graph(graph)
        for clone in (copy.deepcopy(graph),
                      pickle.loads(pickle.dumps(graph))):
            assert clone.edits == graph.edits
            again = RelGraph.from_as_graph(clone)
            assert again is not rel
            assert_same_compile(again, rel)

    def test_memo_does_not_keep_a_dead_graph_alive(self):
        graph = memo_world()
        rel = RelGraph.from_as_graph(graph)
        alive = weakref.ref(graph)
        assert graph in relgraph._COMPILED
        del graph
        gc.collect()
        assert alive() is None
        assert len(rel) == 5  # the compile itself outlives its graph

    def test_compiled_arrays_reject_writes(self):
        rel = RelGraph.from_as_graph(memo_world())
        csr = rel.csr()
        for view in (csr.providers, csr.customers, csr.peers):
            for array in view:
                with pytest.raises(ValueError):
                    array[0] = 1
        with pytest.raises(ValueError):
            rel.customers[0][:] = 0


class TestCsrFromPairs:
    def test_rows_sorted_and_duplicates_collapse(self):
        rows = np.array([2, 0, 2, 2, 0], dtype=np.int64)
        cols = np.array([1, 2, 0, 1, 2], dtype=np.int64)
        indptr, indices = csr_from_pairs(rows, cols, 4)
        want = csr_arrays([[2], [], [0, 1], []])
        assert indptr.dtype == want[0].dtype == np.int32
        assert indices.dtype == want[1].dtype == np.int32
        assert indptr.tolist() == want[0].tolist()
        assert indices.tolist() == want[1].tolist()

    def test_no_pairs(self):
        empty = np.empty(0, dtype=np.int64)
        indptr, indices = csr_from_pairs(empty, empty, 3)
        assert indptr.tolist() == [0, 0, 0, 0]
        assert indices.size == 0 and indices.dtype == np.int32

    def test_row_count_beyond_int32_refused(self):
        empty = np.empty(0, dtype=np.int64)
        with pytest.raises(CsrOverflowError):
            csr_from_pairs(empty, empty, MAX_INT32 + 1)


class TestCsrRows:
    def test_views_rows(self):
        rows = CsrRows(csr_arrays([[1, 2], [], [0]]))
        assert len(rows) == 3
        assert rows[0].tolist() == [1, 2]
        assert rows[1].size == 0
        assert [row.tolist() for row in rows] == [[1, 2], [], [0]]
        assert rows.tolist() == [[1, 2], [], [0]]
        assert all(type(v) is int for row in rows.tolist() for v in row)
