"""AS rank: ordering ASes by customer cone size.

asrank.caida.org orders ASes by the size of their provider/peer
observed customer cone, breaking ties by transit degree and then ASN.
This module produces that ranking together with the per-AS metrics the
paper's top-k tables report.

The table is a handful of array passes over the result's dense index:
one ``lexsort`` orders it, cone sizes come from the bitsets, degrees
and neighbour counts from per-id columns, and the prefix and address
sizes from one join of the ranked cones' ``(row, member)`` pairs with
the members' ``(origin, prefix)`` pairs.  The per-AS loop it replaces
lives on as the QA oracle
:func:`repro.qa.oracles.reference_rank_ases`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as _np

from repro import perf
from repro.core.cone import CustomerCones
from repro.core.inference import InferenceResult
from repro.core.paths import sort_unique
from repro.graph.bitset import unpack_bits
from repro.graph.csr import gather_rows
from repro.graph.index import DenseIndex
from repro.net.prefix import Prefix


@dataclass(frozen=True)
class ASRankEntry:
    """One row of the AS ranking."""

    rank: int
    asn: int
    cone_ases: int
    cone_prefixes: Optional[int]
    cone_addresses: Optional[int]
    transit_degree: int
    node_degree: int
    num_customers: int
    num_peers: int
    num_providers: int


def rank_ases(
    result: InferenceResult,
    cones: CustomerCones,
    limit: Optional[int] = None,
) -> List[ASRankEntry]:
    """Rank every observed AS by cone size (desc), transit degree, ASN."""
    return [ASRankEntry(*row) for row in rank_table(result, cones, limit)]


def rank_table(
    result: InferenceResult,
    cones: CustomerCones,
    limit: Optional[int] = None,
) -> List[Tuple[Optional[int], ...]]:
    """:func:`rank_ases`'s rows as plain tuples in
    :class:`ASRankEntry` field order (what the snapshot packs)."""
    with perf.stage("rank"):
        paths = result.paths
        asns = paths.asn_index[0]
        if cones.graph.index is not result.index:
            raise ValueError(
                "cones were computed over another inference result's "
                "index; compute them from this result"
            )
        bits = cones.bits
        size = _np.fromiter(
            (mask.bit_count() for mask in bits),
            dtype=_np.int64,
            count=len(bits),
        )
        transit, node = paths.degree_columns()
        order = _np.lexsort((asns, -transit, -size))[:limit]
        customers, peers, providers = _neighbor_counts(result)
        if cones.prefixes_by_asn is None:
            prefixes = addresses = [None] * len(order)
        else:
            prefixes, addresses = cone_prefix_sizes(
                result.index,
                [bits[i] for i in order.tolist()],
                cones.prefixes_by_asn,
            )
        return list(zip(
            range(1, len(order) + 1),
            asns[order].tolist(),
            size[order].tolist(),
            prefixes,
            addresses,
            transit[order].tolist(),
            node[order].tolist(),
            customers[order].tolist(),
            peers[order].tolist(),
            providers[order].tolist(),
        ))


def _neighbor_counts(result: InferenceResult):
    """Customers, peers and providers per dense id, from the labeled
    links' states."""
    n = len(result.index)
    lo, hi, state = result.link_states()
    peer = state == -1
    p2c = state >= 0
    lo_provides = state[p2c] == result.paths.asn_index[0][lo[p2c]]
    provider = _np.where(lo_provides, lo[p2c], hi[p2c])
    customer = _np.where(lo_provides, hi[p2c], lo[p2c])
    return (
        _np.bincount(provider, minlength=n),
        _np.bincount(_np.concatenate((lo[peer], hi[peer])), minlength=n),
        _np.bincount(customer, minlength=n),
    )


def _prefix_table(
    index: DenseIndex, prefixes_by_asn: Mapping[int, Sequence[Prefix]]
):
    """The indexed origins' prefixes, numbered IPv4 first, in span
    order, then IPv6.

    Returns ``(origin, prefix, n_prefixes, reach, size)``: the distinct
    ``(origin id, prefix id)`` pairs ascending; how many distinct
    prefixes there are; and per IPv4 prefix id the last IPv4 prefix id
    starting inside its address range and its address count (IPv6
    prefixes count no addresses).  IPv4 ids sort ``(first address,
    -size)``, and aligned power-of-two ranges nest or are disjoint, so
    in one cone a prefix is covered by another exactly when an earlier
    prefix's ``reach`` is at least its id.
    """
    ids = index.ids
    owners: List[int] = []
    listed: List[Prefix] = []
    for asn, prefixes in prefixes_by_asn.items():
        i = ids.get(asn)
        if i is not None:
            owners.extend([i] * len(prefixes))
            listed.extend(prefixes)
    is_v4 = [isinstance(prefix, Prefix) for prefix in listed]
    v4 = _np.flatnonzero(_np.array(is_v4, dtype=bool))
    network = _np.array(
        [p.network for p, four in zip(listed, is_v4) if four], dtype=_np.int64
    )
    # log2 of the address count
    bits = 32 - _np.array(
        [p.length for p, four in zip(listed, is_v4) if four], dtype=_np.int64
    )
    order = _np.lexsort((-bits, network))
    network, bits = network[order], bits[order]
    new = _np.ones(len(order), dtype=bool)
    new[1:] = (network[1:] != network[:-1]) | (bits[1:] != bits[:-1])
    prefix_of = _np.empty(len(listed), dtype=_np.int64)
    prefix_of[v4[order]] = _np.cumsum(new) - 1
    network, bits = network[new], bits[new]
    size = _np.left_shift(1, bits)
    reach = _np.searchsorted(network, network + size - 1, "right") - 1
    n_v4 = len(bits)
    v6: Dict[object, int] = {}
    for k, four in enumerate(is_v4):
        if not four:
            prefix_of[k] = n_v4 + v6.setdefault(listed[k], len(v6))
    n_prefixes = n_v4 + len(v6)
    width = max(n_prefixes, 1)
    pairs = sort_unique(_np.array(owners, dtype=_np.int64) * width + prefix_of)
    return pairs // width, pairs % width, n_prefixes, reach, size


def cone_prefix_sizes(
    index: DenseIndex,
    masks: Sequence[int],
    prefixes_by_asn: Mapping[int, Sequence[Prefix]],
) -> Tuple[List[int], List[int]]:
    """Distinct prefixes and distinct addresses originated inside each
    cone of ``masks`` (bitsets over ``index``), as two lists.

    Equal to ``len(set(...))`` and the QA oracle's
    :func:`~repro.qa.oracles.summarize_address_space` over each cone's
    members' prefixes: MOAS and duplicate prefixes count once, and a
    prefix covered by another prefix in the same cone adds no
    addresses.
    """
    rows = len(masks)
    origin, prefix, n_prefixes, reach, size = _prefix_table(
        index, prefixes_by_asn
    )
    if not len(origin):
        return [0] * rows, [0] * rows
    n = len(index)
    # (row, member) pairs: a one-member cone (most ASes' cone is the AS
    # alone) without unpacking, the rest a block of rows at a time
    single = _np.fromiter(
        (mask.bit_length() - 1 if not mask & (mask - 1) else -1
         for mask in masks),
        dtype=_np.int64,
        count=rows,
    )
    multi = _np.flatnonzero(single < 0)
    k, members = unpack_bits([masks[r] for r in multi.tolist()], n)
    one = _np.flatnonzero(single >= 0)
    row = _np.concatenate((one, multi[k]))
    member = _np.concatenate((single[one], members))
    # join with the members' (origin, prefix) pairs, then keep each
    # row's distinct prefixes, the IPv4 ones ascending in span order
    start = _np.zeros(n + 1, dtype=_np.int64)
    _np.cumsum(_np.bincount(origin, minlength=n), out=start[1:])
    counts = start[member + 1] - start[member]
    keys = sort_unique(
        _np.repeat(row, counts) * n_prefixes
        + gather_rows(prefix, start[member], counts)[0]
    )
    row, span = keys // n_prefixes, keys % n_prefixes
    prefixes = _np.bincount(row, minlength=rows)
    # each row's IPv4 prefixes add their addresses unless an earlier
    # one of the row reaches over them
    n_spans = len(reach)
    v4 = span < n_spans
    row, span = row[v4], span[v4]
    covered = _np.zeros(len(row), dtype=bool)
    reached = _np.maximum.accumulate(row * n_spans + reach[span])
    covered[1:] = reached[:-1] >= row[1:] * n_spans + span[1:]
    addresses = _np.zeros(rows, dtype=size.dtype)
    _np.add.at(addresses, row[~covered], size[span[~covered]])
    return prefixes.tolist(), addresses.tolist()
