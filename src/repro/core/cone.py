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
are sized in ASes here, and in announced prefixes and IPv4 addresses
by the rank table (:func:`repro.core.rank.cone_prefix_sizes`).

Cones are bitsets over the shared columnar core
(:mod:`repro.graph`): :meth:`CustomerCones.compute` takes a
:class:`~repro.graph.relgraph.RelGraph` (or an
:class:`~repro.core.inference.InferenceResult`, which compiles to its
cached RelGraph) and keeps the per-dense-id bitsets; ASN-set views
are decoded at the API boundary, so the snapshot store and the rank
table adopt the bitsets without ever expanding them.  The two observed
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
from repro.net.prefix import Prefix


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


def compute_cones(
    result: InferenceResult, definition: ConeDefinition
) -> Dict[int, Set[int]]:
    """Customer cone (including self) for every AS, under ``definition``."""
    return CustomerCones.compute(result, definition).cones


class CustomerCones:
    """Cones under one definition: one bitset per dense id of
    ``graph.index`` (what :meth:`compute` builds and the snapshot store
    adopts zero-copy), with ASN-set views decoded on demand.

    ``prefixes_by_asn`` rides along for the rank table
    (:func:`~repro.core.rank.rank_table`), which sizes the cones in
    prefixes and addresses.
    """

    def __init__(
        self,
        definition: ConeDefinition,
        graph: RelGraph,
        bits: List[int],
        prefixes_by_asn: Optional[Mapping[int, Sequence[Prefix]]] = None,
    ):
        self.definition = definition
        self.graph = graph
        self.bits = bits
        self.prefixes_by_asn = prefixes_by_asn
        self._cones: Optional[Dict[int, Set[int]]] = None

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
        if graph.result is None:
            raise ValueError(
                "this RelGraph carries no inference result; cones need "
                "the path corpus"
            )
        with perf.stage("cones"):
            with perf.stage(definition.value):
                bits = _cone_bits(graph.result, definition)
        return cls(definition, graph, bits, prefixes_by_asn)

    @property
    def cones(self) -> Dict[int, Set[int]]:
        """ASN -> cone member set (decoded once, on first use)."""
        if self._cones is None:
            id_asns = self.graph.index.asns
            self._cones = {
                id_asns[i]: decode_bits(mask, id_asns)
                for i, mask in enumerate(self.bits)
            }
        return self._cones

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def cone(self, asn: int) -> Set[int]:
        dense_id = self.graph.index.get(asn)
        if dense_id is None:
            return {asn}
        return self.graph.family.decode(self.bits[dense_id])

    def size_ases(self, asn: int) -> int:
        dense_id = self.graph.index.get(asn)
        if dense_id is None:
            return 1
        return self.bits[dense_id].bit_count()

    def sizes(self) -> Dict[int, int]:
        """AS-count cone size for every AS."""
        id_asns = self.graph.index.asns
        return {
            id_asns[i]: mask.bit_count() for i, mask in enumerate(self.bits)
        }

    def top(self, k: int = 15) -> List[Tuple[int, int]]:
        """The ``k`` largest cones as ``(asn, size_in_ases)`` rows."""
        return sorted(
            self.sizes().items(), key=lambda item: (-item[1], item[0])
        )[:k]
