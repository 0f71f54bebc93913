"""The frozen columnar AS graph every layer consumes.

A :class:`RelGraph` is one immutable view of a relationship-labeled AS
graph: a :class:`~repro.graph.index.DenseIndex`, per-id sorted
adjacency rows split by relationship type, a
:class:`~repro.graph.csr.Csr`, a :class:`~repro.graph.bitset.BitsetFamily`
over the id space, and the lazily computed p2c transitive closure.

It is built **once** per world and then shared:

* :meth:`from_inference` compiles an
  :class:`~repro.core.inference.InferenceResult` (cached on the result,
  so the facade, cones and snapshot all get the *same* object) over
  the result's own corpus index, adopted without copying;
* :meth:`from_as_graph` compiles a topology-model
  :class:`~repro.topology.model.ASGraph` for route propagation (this
  is what :class:`~repro.bgp.propagation.GraphIndex` wraps) straight
  into read-only CSR arrays, its rows served as
  :class:`~repro.graph.csr.CsrRows` views over them, and keeps the
  compile until the graph's edit count moves;
* :meth:`from_links` compiles bare relationship rows (CAIDA as-rel
  files) for file-built snapshots.

The inference and :meth:`from_links` graphs keep per-id sorted lists
as rows, built lazily into CSR on first :meth:`csr`: the closure and
the what-if scenarios iterate and copy those rows element by element.

Immutability is the point: the dense-id space of a RelGraph can never
shift, so bitsets and CSR arrays built against it stay valid for the
object's whole life.
"""

from __future__ import annotations

import weakref
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as _np

from repro.graph.bitset import BitsetFamily, closure_bits
from repro.graph.csr import Csr, CsrRows, csr_from_pairs
from repro.graph.index import DenseIndex

#: one relationship's rows: per-id sorted lists, or views over a CSR
Rows = Sequence[Sequence[int]]

#: each live ASGraph's last compile, as ``(graph.edits, RelGraph)``.
#: Weak keys: the memo never keeps a graph alive, and a copy or a
#: pickle of a graph carries none of it.
_COMPILED: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


class RelGraph:
    """Immutable columnar graph: index + typed adjacency + bitsets."""

    __slots__ = (
        "index",
        "family",
        "providers",
        "customers",
        "peers",
        "result",
        "_csr",
        "_closure",
    )

    def __init__(
        self,
        index: DenseIndex,
        providers: Rows,
        customers: Rows,
        peers: Rows,
        result=None,
    ):
        self.index = index
        self.family = BitsetFamily(index)
        self.providers = providers
        self.customers = customers
        self.peers = peers
        # the InferenceResult this graph was compiled from, when any:
        # the observed-cone computations need its path/link-state index
        self.result = result
        self._csr: Optional[Csr] = None
        self._closure: Optional[List[int]] = None

    # ------------------------------------------------------------------
    # builders
    # ------------------------------------------------------------------

    @classmethod
    def of(cls, source) -> "RelGraph":
        """Coerce: a RelGraph passes through, an InferenceResult
        compiles (cached), anything else is a type error."""
        if isinstance(source, cls):
            return source
        from repro.core.inference import InferenceResult

        if isinstance(source, InferenceResult):
            return cls.from_inference(source)
        raise TypeError(
            f"cannot build a RelGraph from {type(source).__name__}"
        )

    @classmethod
    def from_inference(cls, result) -> "RelGraph":
        """Compile an inference result; cached on the result object.

        The id space is the result's own index, the sorted corpus AS
        set (every vote is on a corpus link), adopted as-is — the
        zero-copy case the snapshot build relies on.
        """
        cached = getattr(result, "_rel_graph", None)
        if cached is not None:
            return cached

        index = result.index
        graph = cls(
            index,
            providers=_id_adjacency(index, result.providers),
            customers=_id_adjacency(index, result.customers),
            peers=_id_adjacency(index, result.peers),
            result=result,
        )
        result._rel_graph = graph
        return graph

    @classmethod
    def from_as_graph(
        cls,
        graph,
        restrict: Optional[Set[int]] = None,
        *,
        index: Optional[DenseIndex] = None,
    ) -> "RelGraph":
        """Compile a topology-model graph for route propagation.

        IXP route-server ASes do not route and are excluded;
        ``restrict`` limits the id space further (the IPv6 plane).
        ``index`` names the routing ASes instead, for a caller that has
        already walked the AS table (the collector's set-up pass).
        Sibling links behave as peering links for propagation, so they
        merge into the peer adjacency here.

        The compile is kept per graph: while ``graph.edits`` is
        unchanged and the routing ASNs equal the kept graph's, the kept
        graph is returned, over its own (equal) index.  The routing
        list catches the in-place edits the count does not see: an AS
        whose type or IPv6 space changed joins or leaves it.  The CSR
        arrays are read-only, since every later compile of the graph
        shares them.

        Each relationship's neighbor sets are read once into an
        ``(owner id, neighbor ASN)`` column pair (:func:`_id_pairs`);
        the neighbor column maps to ids by one sort, pairs with an
        endpoint outside the index drop out, and
        :func:`~repro.graph.csr.csr_from_pairs` sorts each view.  The
        customers view is the providers pairs with the columns swapped,
        since :class:`~repro.topology.model.ASGraph` keeps the two
        relations mirror images.  The arrays equal sorting every row
        into a list and flattening those, without a Python container
        per AS.
        """
        if index is None:
            from repro.topology.model import ASType

            ixp_rs = ASType.IXP_RS
            index = DenseIndex.from_sorted(sorted(
                asys.asn
                for asys in graph.ases()
                if asys.type is not ixp_rs
                and (restrict is None or asys.asn in restrict)
            ))
        edits = graph.edits
        kept = _COMPILED.get(graph)
        if kept is not None and kept[0] == edits and (
            kept[1].index.asns == index.asns
        ):
            return kept[1]

        n = len(index)
        asns = _np.array(index.asns, dtype=_np.int64)
        customers, providers = _id_pairs(asns, graph.providers)
        csr = Csr.from_arrays(
            csr_from_pairs(customers, providers, n),
            csr_from_pairs(providers, customers, n),
            csr_from_pairs(*_id_pairs(asns, graph.peers, graph.siblings), n),
        )
        for view in (csr.providers, csr.customers, csr.peers):
            for array in view:
                array.flags.writeable = False
        rel = cls(
            index,
            CsrRows(csr.providers),
            CsrRows(csr.customers),
            CsrRows(csr.peers),
        )
        rel._csr = csr
        _COMPILED[graph] = (edits, rel)
        return rel

    @classmethod
    def from_links(
        cls,
        asns: Iterable[int],
        p2c: Iterable[Tuple[int, int]] = (),
        p2p: Iterable[Tuple[int, int]] = (),
    ) -> "RelGraph":
        """Compile bare ``(provider, customer)`` / ``(a, b)`` rows."""
        index = DenseIndex(asns)
        ids = index.ids
        n = len(index)
        providers: List[List[int]] = [[] for _ in range(n)]
        customers: List[List[int]] = [[] for _ in range(n)]
        peers: List[List[int]] = [[] for _ in range(n)]
        for provider, customer in p2c:
            customers[ids[provider]].append(ids[customer])
            providers[ids[customer]].append(ids[provider])
        for a, b in p2p:
            peers[ids[a]].append(ids[b])
            peers[ids[b]].append(ids[a])
        for rows in (providers, customers, peers):
            for row in rows:
                row.sort()
        return cls(index, providers, customers, peers)

    # ------------------------------------------------------------------
    # columnar views
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.index)

    def csr(self) -> Csr:
        """The CSR adjacency (built once)."""
        if self._csr is None:
            self._csr = Csr(self.providers, self.customers, self.peers)
        return self._csr

    def closure(self) -> List[int]:
        """Recursive customer-cone bitsets, one per dense id (cached).

        Entry ``i`` is the transitive closure over customer edges from
        id ``i``, including ``i`` itself — the ``recursive`` cone
        definition, and the system's only closure computation.
        """
        if self._closure is None:
            rows = self.customers
            if isinstance(rows, CsrRows):
                rows = rows.tolist()
            self._closure = closure_bits(
                len(self.index),
                {i: row for i, row in enumerate(rows) if row},
            )
        return self._closure


def _id_pairs(asns, *relations: Dict[int, Set[int]]):
    """``(owner id, neighbor id)`` int64 columns of ASN-keyed neighbor
    sets, over the sorted ASN array ``asns``; a pair with either
    endpoint outside ``asns`` is dropped.

    Each relation's keys map once and repeat by row size; the neighbor
    column maps with one argsort, a binary search of the sorted
    needles and a scatter back (sorted needles keep the search
    cache-friendly, where random ones miss on every probe)."""
    owners = []
    neighbors = []
    for rel in relations:
        sizes = _np.fromiter(map(len, rel.values()), dtype=_np.int64,
                             count=len(rel))
        owners.append(_np.repeat(
            _lookup(asns, _np.fromiter(rel, dtype=_np.int64,
                                       count=len(rel))),
            sizes,
        ))
        neighbors.append(_np.fromiter(
            chain.from_iterable(rel.values()), dtype=_np.int64,
            count=int(sizes.sum()),
        ))
    owners = _np.concatenate(owners)
    neighbors = _np.concatenate(neighbors)
    order = _np.argsort(neighbors)
    ids = _np.empty_like(neighbors)
    ids[order] = _lookup(asns, neighbors[order])
    keep = (owners >= 0) & (ids >= 0)
    return owners[keep], ids[keep]


def _lookup(asns, needles):
    """Position of each needle in the sorted array ``asns``, -1 for a
    needle it does not hold."""
    if not asns.size:
        return _np.full(needles.size, -1, dtype=_np.int64)
    ids = _np.searchsorted(asns, needles)
    found = asns[_np.minimum(ids, asns.size - 1)] == needles
    return _np.where(found, ids, -1)


def _id_adjacency(
    index: DenseIndex, by_asn: Dict[int, Set[int]]
) -> List[List[int]]:
    """ASN-keyed neighbor sets -> per-id sorted id lists."""
    ids = index.ids
    out: List[List[int]] = [[] for _ in range(len(index))]
    for asn, neighbors in by_asn.items():
        out[ids[asn]] = sorted(ids[n] for n in neighbors)
    return out
