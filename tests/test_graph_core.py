"""Tests for the shared columnar graph core (repro.graph).

The core's contract is *one* id space per world: the property tests
here assert that inference, cones, propagation and the snapshot store
all address the same world through literally the same (or bit-equal)
``DenseIndex``, and that the bitset/CSR structures built over it are
deterministic.  QA worlds (repro.qa) supply realistic topologies;
hypothesis drives the index/closure edge cases.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.asrank import ASRank
from repro.bgp.propagation import GraphIndex
from repro.core.cone import ConeDefinition, CustomerCones, compute_cones
from repro.core.inference import infer_relationships
from repro.graph import (
    BitsetFamily,
    ClosureBitsets,
    Csr,
    CsrRows,
    DenseIndex,
    RelGraph,
    closure_bits,
    csr_arrays,
    decode_bits,
)
from repro.qa.generator import build_world, world_spec
from repro.serve.snapshot import Snapshot


# ---------------------------------------------------------------------------
# DenseIndex
# ---------------------------------------------------------------------------


class TestDenseIndex:
    def test_sorts_and_dedupes(self):
        index = DenseIndex([30, 10, 20, 10])
        assert index.asns == [10, 20, 30]
        assert index.ids == {10: 0, 20: 1, 30: 2}

    def test_from_sorted_adopts_verbatim(self):
        asns = [1, 5, 9]
        index = DenseIndex.from_sorted(asns)
        assert index.asns is asns
        assert [index.id_of(asn) for asn in asns] == [0, 1, 2]

    def test_lookup_api(self):
        index = DenseIndex([10, 20])
        assert 10 in index and 15 not in index
        assert index.get(15) is None
        assert index.asn_of(1) == 20
        assert list(index) == [10, 20]
        with pytest.raises(KeyError):
            index.id_of(15)

    @given(st.lists(st.integers(min_value=1, max_value=1 << 31)))
    @settings(max_examples=50, deadline=None)
    def test_sorted_construction_is_canonical(self, asns):
        """Any permutation of the same AS set yields bit-equal indexes."""
        forward = DenseIndex(asns)
        backward = DenseIndex(reversed(asns))
        assert forward.asns == backward.asns
        assert forward.ids == backward.ids


# ---------------------------------------------------------------------------
# bitsets and closures
# ---------------------------------------------------------------------------


class TestBitsets:
    def test_family_round_trip(self):
        family = BitsetFamily(DenseIndex([5, 10, 15]))
        bits = family.encode({5, 15})
        assert family.decode(bits) == {5, 15}
        assert family.contains(bits, 15)
        assert not family.contains(bits, 10)
        assert not family.contains(bits, 999)  # unknown AS: False, no raise
        assert family.singleton(10) == 0b010
        assert family.union([0b001, 0b100]) == 0b101

    def test_decode_bits_empty(self):
        assert decode_bits(0, [1, 2, 3]) == set()

    def test_closure_empty_graph(self):
        assert closure_bits(0, {}) == []

    def test_closure_single_as(self):
        assert closure_bits(1, {}) == [0b1]

    def test_closure_chain_and_diamond(self):
        # 0 -> 1 -> 3, 0 -> 2 -> 3
        bits = closure_bits(4, {0: [1, 2], 1: [3], 2: [3]})
        assert bits[0] == 0b1111
        assert bits[1] == 0b1010
        assert bits[2] == 0b1100
        assert bits[3] == 0b1000

    def test_closure_deep_chain_does_not_recurse(self):
        n = 5000
        bits = closure_bits(n, {i: [i + 1] for i in range(n - 1)})
        assert bits[0].bit_count() == n

    def test_incremental_closure_matches_batch(self):
        edges = [(0, 1), (1, 2), (0, 3), (3, 2), (2, 4)]
        incremental = ClosureBitsets(5)
        for parent, child in edges:
            incremental.add_edge(parent, child)
        children = {}
        for parent, child in edges:
            children.setdefault(parent, []).append(child)
        batch = closure_bits(5, children)
        for i in range(5):
            # batch closure includes self; incremental desc is strict
            assert (incremental.desc[i] | (1 << i)) == batch[i]

    def test_incremental_closure_cycle_detection(self):
        closure = ClosureBitsets(3)
        closure.add_edge(0, 1)
        closure.add_edge(1, 2)
        assert closure.descends(0, 2)
        assert not closure.descends(2, 0)  # adding 2->0 would cycle

    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=19),
                st.integers(min_value=0, max_value=19),
            ),
            max_size=40,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_incremental_equals_batch_on_random_dags(self, raw_edges):
        # keep only forward edges so the input is a DAG
        edges = [(a, b) for a, b in raw_edges if a < b]
        incremental = ClosureBitsets(20)
        for parent, child in edges:
            incremental.add_edge(parent, child)
        children = {}
        for parent, child in edges:
            children.setdefault(parent, []).append(child)
        batch = closure_bits(20, children)
        for i in range(20):
            assert (incremental.desc[i] | (1 << i)) == batch[i]


# ---------------------------------------------------------------------------
# CSR
# ---------------------------------------------------------------------------


class TestCsr:
    def test_layout(self):
        indptr, indices = csr_arrays([[1, 2], [], [0]])
        assert list(indptr) == [0, 2, 2, 3]
        assert list(indices) == [1, 2, 0]

    def test_deterministic_across_builds(self):
        adjacency = [[2, 3], [0], [], [1, 2]]
        first = csr_arrays(adjacency)
        second = csr_arrays([list(row) for row in adjacency])
        assert list(first[0]) == list(second[0])
        assert list(first[1]) == list(second[1])

    def test_neighbors_helper(self):
        csr = Csr(providers=[[1], []], customers=[[], [0]], peers=[[], []])
        assert list(CsrRows(csr.providers)[0]) == [1]
        assert list(CsrRows(csr.customers)[1]) == [0]
        assert list(CsrRows(csr.peers)[0]) == []


# ---------------------------------------------------------------------------
# RelGraph
# ---------------------------------------------------------------------------


class TestRelGraph:
    def test_from_links(self):
        graph = RelGraph.from_links(
            [1, 2, 3], p2c=[(1, 2), (2, 3)], p2p=[(1, 3)]
        )
        ids = graph.index.ids
        assert graph.customers[ids[1]] == [ids[2]]
        assert graph.providers[ids[3]] == [ids[2]]
        assert graph.peers[ids[1]] == [ids[3]]
        assert graph.closure()[ids[1]] == 0b111

    def test_of_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            RelGraph.of(object())

    def test_from_inference_is_cached(self):
        world = build_world(world_spec(0))
        result = infer_relationships(world.paths)
        assert RelGraph.of(result) is RelGraph.of(result)


# ---------------------------------------------------------------------------
# one id space across every layer (the tentpole property)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_dense_index_identical_across_layers(seed):
    """Inference, cones, propagation and the snapshot of one QA world
    all see the same ASN -> dense id mapping."""
    world = build_world(world_spec(seed))

    asrank = ASRank(world.paths)
    result = asrank.result
    graph = asrank.rel_graph()

    # inference's engine index is the graph's index (zero-copy)
    assert result.index is graph.index

    # cones share the graph (and therefore the index) exactly
    cones = asrank.cones(ConeDefinition.RECURSIVE)
    assert cones.graph is graph

    # the snapshot adopts it without re-indexing
    snapshot = asrank.snapshot()
    assert snapshot.index is graph.index

    # propagation over the true topology uses its own AS universe
    # (the full generated graph, not just observed ASes) but maps any
    # shared AS set to ids the same canonical way
    prop = GraphIndex(world.graph)
    observed = [asn for asn in snapshot.asns if asn in prop.index]
    rebuilt = DenseIndex(observed)
    assert rebuilt.asns == sorted(observed)
    for asn in observed[:50]:
        assert prop.index[asn] == prop.rel.index.id_of(asn)

    # and the propagation wrapper exposes the RelGraph's own columns
    assert prop.asns is prop.rel.index.asns
    assert prop.providers is prop.rel.providers


@pytest.mark.parametrize("seed", [1, 4])
def test_cone_bitsets_flow_to_snapshot_unexpanded(seed):
    """Snapshot.build adopts the facade's cone bitsets zero-copy."""
    world = build_world(world_spec(seed))
    asrank = ASRank(world.paths)
    snapshot = asrank.snapshot()
    for definition in ConeDefinition:
        cones = asrank.cones(definition)
        assert snapshot._cones[definition.value] is cones.bits

    # and the adopted bitsets answer identically to the dict view
    ppdc = asrank.cones(ConeDefinition.PROVIDER_PEER_OBSERVED)
    for asn in list(snapshot.asns)[:25]:
        assert snapshot.cone(asn) == ppdc.cone(asn)
        assert snapshot.cone_size(asn) == ppdc.size_ases(asn)


def test_compute_cones_dict_api_matches_customer_cones():
    """The dict-returning compute_cones stays equivalent to the
    bitset-backed CustomerCones for every definition."""
    world = build_world(world_spec(2))
    result = infer_relationships(world.paths)
    for definition in ConeDefinition:
        expected = compute_cones(result, definition)
        via_class = CustomerCones.compute(result, definition)
        assert via_class.cones == expected
        assert via_class.sizes() == {
            asn: len(cone) for asn, cone in expected.items()
        }


def test_customer_cones_accepts_relgraph_and_result():
    world = build_world(world_spec(5))
    result = infer_relationships(world.paths)
    graph = RelGraph.of(result)
    from_graph = CustomerCones.compute(graph)
    from_result = CustomerCones.compute(result)
    assert from_graph.graph is from_result.graph
    assert from_graph.bits == from_result.bits
