"""The frozen columnar AS graph every layer consumes.

A :class:`RelGraph` is one immutable view of a relationship-labeled AS
graph: a :class:`~repro.graph.index.DenseIndex`, per-id sorted
adjacency lists split by relationship type, a lazily built
:class:`~repro.graph.csr.Csr`, a :class:`~repro.graph.bitset.BitsetFamily`
over the id space, and the lazily computed p2c transitive closure.

It is built **once** per world and then shared:

* :meth:`from_inference` compiles an
  :class:`~repro.core.inference.InferenceResult` (cached on the result,
  so the facade, cones and snapshot all get the *same* object) over
  the result's own corpus index, adopted without copying;
* :meth:`from_as_graph` compiles a topology-model
  :class:`~repro.topology.model.ASGraph` for route propagation (this
  is what :class:`~repro.bgp.propagation.GraphIndex` wraps);
* :meth:`from_links` compiles bare relationship rows (CAIDA as-rel
  files) for file-built snapshots.

Immutability is the point: the dense-id space of a RelGraph can never
shift, so bitsets and CSR arrays built against it stay valid for the
object's whole life.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.graph.bitset import BitsetFamily, closure_bits
from repro.graph.csr import Csr
from repro.graph.index import DenseIndex


class RelGraph:
    """Immutable columnar graph: index + typed adjacency + bitsets."""

    __slots__ = (
        "index",
        "family",
        "providers",
        "customers",
        "peers",
        "siblings",
        "result",
        "_csr",
        "_closure",
    )

    def __init__(
        self,
        index: DenseIndex,
        providers: List[List[int]],
        customers: List[List[int]],
        peers: List[List[int]],
        siblings: Optional[List[List[int]]] = None,
        result=None,
    ):
        self.index = index
        self.family = BitsetFamily(index)
        self.providers = providers
        self.customers = customers
        self.peers = peers
        self.siblings = siblings or [[] for _ in range(len(index))]
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
            siblings=_id_adjacency(index, result.siblings),
            result=result,
        )
        result._rel_graph = graph
        return graph

    @classmethod
    def from_as_graph(cls, graph, restrict: Optional[Set[int]] = None
                      ) -> "RelGraph":
        """Compile a topology-model graph for route propagation.

        IXP route-server ASes do not route and are excluded;
        ``restrict`` limits the id space further (the IPv6 plane).
        Sibling links behave as peering links for propagation, so they
        merge into the peer adjacency here.
        """
        from repro.topology.model import ASType

        index = DenseIndex(
            asys.asn
            for asys in graph.ases()
            if asys.type is not ASType.IXP_RS
            and (restrict is None or asys.asn in restrict)
        )
        ids = index.ids
        n = len(index)
        providers: List[List[int]] = [[] for _ in range(n)]
        customers: List[List[int]] = [[] for _ in range(n)]
        peers: List[List[int]] = [[] for _ in range(n)]
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
        return cls(index, providers, customers, peers)

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
            self._closure = closure_bits(
                len(self.index),
                {i: row for i, row in enumerate(self.customers) if row},
            )
        return self._closure


def _id_adjacency(
    index: DenseIndex, by_asn: Dict[int, Set[int]]
) -> List[List[int]]:
    """ASN-keyed neighbor sets -> per-id sorted id lists."""
    ids = index.ids
    out: List[List[int]] = [[] for _ in range(len(index))]
    for asn, neighbors in by_asn.items():
        out[ids[asn]] = sorted(ids[n] for n in neighbors)
    return out
