"""Customer cones under the paper's three definitions.

The *customer cone* of an AS is the set of ASes it can reach through
customer links alone — its "market share" of the routing system.  The
paper contrasts three ways of computing it:

* **RECURSIVE** — transitive closure over all inferred p2c links.
  Over-counts: an AS need not announce every customer route to every
  provider, so not all closure members are actually reachable.
* **BGP_OBSERVED** — B is in A's cone if some observed path contains a
  contiguous descending (all-p2c) segment from A to B.  Conservative:
  bounded by where the vantage points happen to look from.
* **PROVIDER_PEER_OBSERVED** ("PPDC", the paper's preferred definition
  and CAIDA's published dataset) — B is in A's cone if some path
  enters A from one of A's providers or peers and later reaches B.
  By the export rules, everything A announces to a provider or peer is
  a customer route, so the whole observed suffix is in A's cone.

All cones include the AS itself, matching CAIDA's convention.  Cones
can be sized in ASes, announced prefixes, or IPv4 addresses.

Cones are bitsets over the shared columnar core
(:mod:`repro.graph`): :meth:`CustomerCones.compute` takes a
:class:`~repro.graph.relgraph.RelGraph` (or an
:class:`~repro.core.inference.InferenceResult`, which compiles to its
cached RelGraph) and keeps the per-dense-id bitsets; ASN-set views
materialize lazily at the API boundary, so the snapshot store can
adopt the bitsets without ever expanding them.  The two observed
definitions are numpy passes that emit ``(upper, member)`` dense-id
pairs and pack them into one bitset per AS
(:func:`~repro.graph.bitset.pack_bits`).
"""

from __future__ import annotations

import enum
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as _np

from repro import perf
from repro.core.inference import InferenceResult
from repro.graph.bitset import decode_bits, pack_bits
from repro.graph.csr import gather_rows
from repro.graph.relgraph import RelGraph
from repro.net.prefix import Prefix, summarize_address_space


class ConeDefinition(enum.Enum):
    RECURSIVE = "recursive"
    BGP_OBSERVED = "bgp-observed"
    PROVIDER_PEER_OBSERVED = "provider/peer-observed"


# ---------------------------------------------------------------------------
# cone membership as Python-int bitsets over the shared dense index
# (repro.graph); converted back to sets only at the API boundary.  The
# set-based oracles these are checked against live in repro.qa.oracles
# ---------------------------------------------------------------------------


def _hop_states(result: InferenceResult):
    """Per-hop numpy columns of the indexed paths: link state, left
    ASN, path number, and the position of the hop's left node in
    ``_node_pid``."""
    lid, left, right, path = result._hop_cols
    state = _np.array(result._lstate, dtype=_np.int64)[lid]
    node = _np.arange(len(lid), dtype=_np.int64) + path
    return state, left, path, node


def _bgp_observed_bits(result: InferenceResult) -> List[int]:
    """BGP-observed cone bits, one bitset per dense id."""
    state, left, path, node = _hop_states(result)
    pid = result._node_pid
    # a p2c hop with its left end as provider extends a descending run;
    # the run goes on if the path's next hop descends too
    down = state == left
    more = _np.zeros(len(down), dtype=bool)
    more[:-1] = down[1:] & (path[1:] == path[:-1])
    hops = _np.flatnonzero(down)
    # each descending hop's upper node gets the lower nodes of every
    # hop from it to the end of its run: consecutive node positions
    stops = hops[~more[hops]]
    counts = stops[_np.searchsorted(stops, hops)] - hops + 1
    return pack_bits(
        len(result.index),
        _np.repeat(pid[node[hops]], counts),
        gather_rows(pid, node[hops] + 1, counts)[0],
    )


def _ppdc_bits(result: InferenceResult) -> List[int]:
    """Provider/peer-observed cone bits, one bitset per dense id."""
    state, left, path, node = _hop_states(result)
    pid = result._node_pid
    # an interior node entered from a peer or a provider gets the whole
    # observed suffix: everything it exports upward is a customer route
    interior = _np.zeros(len(state), dtype=bool)
    interior[:-1] = path[1:] == path[:-1]
    hops = _np.flatnonzero(interior & ((state == -1) | (state == left)))
    enter = node[hops] + 1
    counts = result.paths.off[1:][path[hops]] - enter - 1
    return pack_bits(
        len(result.index),
        _np.repeat(pid[enter], counts),
        gather_rows(pid, enter + 1, counts)[0],
    )


def _cone_bits(
    result: InferenceResult, definition: ConeDefinition
) -> List[int]:
    """Per-dense-id cone bitsets over the engine-built corpus index."""
    if definition is ConeDefinition.RECURSIVE:
        # the one transitive closure of the system, cached on the graph
        return RelGraph.of(result).closure()
    if definition is ConeDefinition.BGP_OBSERVED:
        return _bgp_observed_bits(result)
    return _ppdc_bits(result)


def _bits_to_cones(bits: List[int], id_asns: List[int]) -> Dict[int, Set[int]]:
    return {
        id_asns[i]: decode_bits(mask, id_asns)
        for i, mask in enumerate(bits)
    }


def compute_cones(
    result: InferenceResult, definition: ConeDefinition
) -> Dict[int, Set[int]]:
    """Customer cone (including self) for every AS, under ``definition``."""
    if not isinstance(definition, ConeDefinition):
        raise ValueError(f"unknown cone definition {definition!r}")
    with perf.stage("cones"):
        with perf.stage(definition.value):
            bits = _cone_bits(result, definition)
            return _bits_to_cones(bits, result.index.asns)


class CustomerCones:
    """Cones under one definition, sizable in ASes/prefixes/addresses.

    Backed either by per-dense-id bitsets over a shared
    :class:`~repro.graph.relgraph.RelGraph` (what :meth:`compute`
    builds and the snapshot store adopts zero-copy) or by plain ASN-set
    mappings (the hand-construction path used in tests).  Whichever
    representation is absent materializes lazily from the other, so
    both views answer identically.
    """

    def __init__(
        self,
        definition: ConeDefinition,
        cones: Optional[Dict[int, Set[int]]] = None,
        prefixes_by_asn: Optional[Mapping[int, Sequence[Prefix]]] = None,
        graph: Optional[RelGraph] = None,
        bits: Optional[List[int]] = None,
    ):
        if cones is None and (bits is None or graph is None):
            raise ValueError(
                "CustomerCones needs either a cone mapping or "
                "graph-indexed bitsets"
            )
        self.definition = definition
        self.prefixes_by_asn = prefixes_by_asn
        self.graph = graph
        self._cones = cones
        self._bits = bits

    @classmethod
    def compute(
        cls,
        source,
        definition: ConeDefinition = ConeDefinition.PROVIDER_PEER_OBSERVED,
        prefixes_by_asn: Optional[Mapping[int, Sequence[Prefix]]] = None,
    ) -> "CustomerCones":
        """Compute cones over a :class:`RelGraph` (or an
        :class:`InferenceResult`, which compiles to its cached graph)."""
        if not isinstance(definition, ConeDefinition):
            raise ValueError(f"unknown cone definition {definition!r}")
        graph = RelGraph.of(source)
        result = graph.result
        if result is None:
            raise ValueError(
                "this RelGraph carries no inference result; cones need "
                "the path corpus"
            )
        with perf.stage("cones"):
            with perf.stage(definition.value):
                bits = _cone_bits(result, definition)
        return cls(
            definition,
            prefixes_by_asn=prefixes_by_asn,
            graph=graph,
            bits=bits,
        )

    # ------------------------------------------------------------------
    # representations
    # ------------------------------------------------------------------

    @property
    def bits(self) -> Optional[List[int]]:
        """Per-dense-id cone bitsets over ``graph.index`` (None when no
        graph is attached to convert against)."""
        if self._bits is None and self.graph is not None:
            assert self._cones is not None
            encode = self.graph.family.encode
            self._bits = [
                encode(self._cones.get(asn, (asn,)))
                for asn in self.graph.index.asns
            ]
        return self._bits

    @property
    def cones(self) -> Dict[int, Set[int]]:
        """ASN -> cone member set (materialized lazily from bitsets)."""
        if self._cones is None:
            assert self._bits is not None and self.graph is not None
            self._cones = _bits_to_cones(self._bits, self.graph.index.asns)
        return self._cones

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def cone(self, asn: int) -> Set[int]:
        if self._cones is None:
            assert self._bits is not None and self.graph is not None
            dense_id = self.graph.index.get(asn)
            if dense_id is None:
                return {asn}
            return self.graph.family.decode(self._bits[dense_id])
        return set(self._cones.get(asn, {asn}))

    def size_ases(self, asn: int) -> int:
        if self._cones is None:
            assert self._bits is not None and self.graph is not None
            dense_id = self.graph.index.get(asn)
            if dense_id is None:
                return 1
            return self._bits[dense_id].bit_count()
        return len(self._cones.get(asn, {asn}))

    def _cone_prefixes(self, asn: int) -> List[Prefix]:
        if self.prefixes_by_asn is None:
            raise ValueError("prefix data not attached to these cones")
        prefixes: List[Prefix] = []
        for member in self.cone(asn):
            prefixes.extend(self.prefixes_by_asn.get(member, ()))
        return prefixes

    def size_prefixes(self, asn: int) -> int:
        return len(set(self._cone_prefixes(asn)))

    def size_addresses(self, asn: int) -> int:
        return summarize_address_space(self._cone_prefixes(asn))

    def sizes(self) -> Dict[int, int]:
        """AS-count cone size for every AS."""
        if self._cones is None:
            assert self._bits is not None and self.graph is not None
            id_asns = self.graph.index.asns
            return {
                id_asns[i]: mask.bit_count()
                for i, mask in enumerate(self._bits)
            }
        return {asn: len(cone) for asn, cone in self._cones.items()}

    def top(self, k: int = 15) -> List[Tuple[int, int]]:
        """The ``k`` largest cones as ``(asn, size_in_ases)`` rows."""
        return sorted(
            self.sizes().items(), key=lambda item: (-item[1], item[0])
        )[:k]
