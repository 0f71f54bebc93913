"""Gao–Rexford route propagation.

For one origin AS, computes the route every other AS selects under the
standard policy model:

* **preference** — customer-learned routes beat peer-learned routes
  beat provider-learned routes; within a class, shorter AS paths win,
  and ties break on the lowest next-hop ASN (deterministic);
* **export** — routes learned from customers (or originated) are
  exported to everyone; routes learned from peers or providers are
  exported only to customers.

These two rules produce exactly the valley-free paths whose shape the
paper's inference algorithm exploits, and the limited-visibility
artifacts (peering links seen only from below) its heuristics survive.

The implementation is three deterministic sweeps:

1. customer routes climb provider edges (level-synchronous BFS);
2. peer routes hop one peering edge off any AS with a customer route;
3. selected routes descend customer edges (bucketed by path length).

Results are flat arrays indexed by a dense AS index, so a full
propagation is O(V + E) per origin with small constants.  A caller
that reads only some rows (a collector reads its vantage points'
next-hop chains) names them as ``observers``: the first two sweeps stay
whole, and the third descends only the customer edges into the
observers' upward provider closure, so its cost follows that closure
instead of the world.

:func:`propagate_blocks` implements those sweeps for K origins at
once, over ``(K, n)`` numpy route-class / path-length / next-hop
matrices and a CSR adjacency built once per :class:`GraphIndex`.  Each
sweep level processes every origin's frontier in one set of vectorized
scatter/gather passes, and AS paths are reconstructed lazily (only at
the rows a caller walks, e.g. vantage points) instead of for every AS.

It yields each block's arrays as they are (the collector walks them in
place); :func:`propagate_batch` copies them out as one
:class:`RouteState` per origin.

The engine is bit-for-bit equivalent to the one-origin-at-a-time
pure-Python sweeps kept as an oracle in :mod:`repro.qa.oracles` — same
classes, next hops, path lengths and therefore same reconstructed
paths — which the equivalence tests and the QA ``propagation/*``
invariant family assert on every generated world shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Dict,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as _np

from repro import perf
from repro.graph.csr import (
    MAX_INT32,
    Csr,
    CsrOverflowError,
    CsrRows,
    gather_rows,
    sort_unique,
)
from repro.graph.relgraph import RelGraph, Rows
from repro.relationships import RelClass
from repro.topology.model import ASGraph

# route classes as small ints for the flat arrays
NO_ROUTE = 0
CLS_ORIGIN = 1
CLS_CUSTOMER = 2
CLS_PEER = 3
CLS_PROVIDER = 4

_CLASS_TO_RELCLASS = {
    CLS_ORIGIN: RelClass.ORIGIN,
    CLS_CUSTOMER: RelClass.CUSTOMER,
    CLS_PEER: RelClass.PEER,
    CLS_PROVIDER: RelClass.PROVIDER,
}


@dataclass(frozen=True)
class PropagationConfig:
    """How per-origin route state is computed.

    Origins propagate in blocks of ``batch_size``; block size never
    changes results.

    ``max_block_cells`` caps the cell-array footprint of one block
    (``origins × stride``): at internet scale a full ``batch_size``
    block would allocate gigabytes, so the engine shrinks the block
    instead — block size never changes results, only memory.

    ``array_state`` only shapes the :class:`RouteState` rows
    :func:`propagate_batch` returns: ``True`` copies them out as int32
    arrays, ``False`` as Python lists; both hold identical values.  The
    collector no longer reads it: it walks the block arrays of
    :func:`propagate_blocks` directly.
    """

    batch_size: int = 128
    # 2^23 cells ≈ 32 MB of int32 state per array: big enough that a
    # 100k-AS stride still gets 64-origin blocks (the measured sweet
    # spot there), small enough to stay cache-friendly at every scale
    max_block_cells: int = 1 << 23
    array_state: bool = False


class GraphIndex:
    """Dense-integer view of an :class:`ASGraph` for fast propagation.

    A thin wrapper over a :class:`~repro.graph.relgraph.RelGraph`
    compiled by :meth:`RelGraph.from_as_graph`: ASNs map to indexes
    ``0..n-1`` in ascending ASN order (so *lowest ASN* tie-breaks are
    exactly *lowest node index* tie-breaks), adjacency is the graph's
    per-id sorted rows (:class:`~repro.graph.csr.CsrRows` views for a
    compiled world, lists for an adopted inference or snapshot graph),
    and :meth:`csr` exposes its shared CSR arrays.  Sibling links are
    treated as peering links for propagation purposes (the generator
    defaults to zero siblings).  IXP route-server ASes do not
    participate in routing at all — they are data-plane artifacts
    injected later by the noise model.
    """

    def __init__(
        self,
        graph: Optional[ASGraph] = None,
        restrict: Optional[Set[int]] = None,
        *,
        rel: Optional[RelGraph] = None,
    ):
        """``restrict`` limits routing to a subset of ASNs — used for the
        IPv6 plane, where only v6-enabled networks participate.

        ``rel`` adopts an already-compiled :class:`RelGraph` without
        re-indexing — the path the snapshot query service and the
        prediction engine use, where the columnar graph already exists
        and rebuilding an :class:`ASGraph` would only copy it."""
        if rel is None:
            if graph is None:
                raise TypeError("GraphIndex needs an ASGraph or a RelGraph")
            rel = RelGraph.from_as_graph(graph, restrict=restrict)
        self.graph = graph
        self.rel = rel
        self.asns: List[int] = self.rel.index.asns
        self.index: Dict[int, int] = self.rel.index.ids
        self.providers: Rows = self.rel.providers
        self.customers: Rows = self.rel.customers
        self.peers: Rows = self.rel.peers

    def __len__(self) -> int:
        return len(self.asns)

    def csr(self) -> Csr:
        """The flat-array adjacency view (built once)."""
        return self.rel.csr()


@dataclass
class RouteState:
    """Per-AS selected route for a single origin.

    ``cls[i]`` is one of the ``CLS_*``/``NO_ROUTE`` constants,
    ``nexthop[i]`` the index of the neighbor the route was learned from
    (-1 for the origin and for every AS without a route),
    ``pathlen[i]`` the AS-path length in edges.

    A state computed with ``observers`` (:func:`propagate_batch`) is
    exact on the observers' upward provider closure, and so is every
    cell :meth:`path_from` walks from there; the values of any other
    cell are unspecified.
    """

    origin: int  # dense index of the origin
    cls: List[int]
    nexthop: List[int]
    pathlen: List[int]

    def relclass(self, i: int) -> Optional[RelClass]:
        code = self.cls[i]
        if code == NO_ROUTE:
            return None
        return _CLASS_TO_RELCLASS[code]

    def path_from(self, index: GraphIndex, i: int) -> Optional[Tuple[int, ...]]:
        """AS path (ASNs, collector order: ``i`` first, origin last)."""
        if self.cls[i] == NO_ROUTE:
            return None
        hops: List[int] = []
        node = i
        while node != -1:
            hops.append(index.asns[node])
            if node == self.origin:
                break
            node = self.nexthop[node]
        return tuple(hops)


def propagate_batch(
    index: GraphIndex,
    origin_asns: Sequence[int],
    leakers_by_origin: Optional[Mapping[int, Set[int]]] = None,
    config: Optional[PropagationConfig] = None,
    *,
    observers: Optional[Sequence[int]] = None,
) -> List[RouteState]:
    """Route state for a block of origins, one :class:`RouteState` each.

    The rows of :func:`propagate_blocks`, copied out per origin (as
    lists, or as int32 arrays with ``config.array_state``), so paths
    are materialized only where a caller walks them.
    """
    config = config or PropagationConfig()
    n = len(index)
    states: List[RouteState] = []
    for block in propagate_blocks(
        index, origin_asns, leakers_by_origin, config, observers=observers
    ):
        cls = block.cls[:, :n]
        for origin, *rows in zip(
            block.origins.tolist(), cls,
            _routed_nexthop(cls, block.nexthop[:, :n]), block.pathlen[:, :n],
        ):
            # detached int32 rows skip the per-cell Python ints (the
            # internet-scale path); list rows walk at list speed
            rows = [
                row.copy() if config.array_state else row.tolist()
                for row in rows
            ]
            states.append(RouteState(origin, *rows))
    return states


class BlockState(NamedTuple):
    """One engine block's route state: row ``k`` is origin ``k``'s.

    ``origins`` holds each row's origin (dense id); ``cls``,
    ``nexthop`` and ``pathlen`` are ``(K, stride)`` int32 arrays laid
    out like :class:`RouteState` rows, ``stride`` being the index size
    rounded up to a power of two (columns past ``len(index)`` are
    padding).  Unlike a :class:`RouteState`, ``nexthop`` is unspecified
    on cells without a route: a reader follows it only from routed
    cells, whose chains end at the origin's -1.
    """

    origins: "_np.ndarray"
    cls: "_np.ndarray"
    nexthop: "_np.ndarray"
    pathlen: "_np.ndarray"


def propagate_blocks(
    index: GraphIndex,
    origin_asns: Sequence[int],
    leakers_by_origin: Optional[Mapping[int, Set[int]]] = None,
    config: Optional[PropagationConfig] = None,
    *,
    observers: Optional[Sequence[int]] = None,
) -> Iterator[BlockState]:
    """Route state for ``origin_asns``, one :class:`BlockState` per
    engine block, in origin order.

    All origins of a block propagate simultaneously over ``(K, n)``
    arrays.  The collector reads these arrays directly;
    :func:`propagate_batch` copies them out per origin.

    ``leakers_by_origin`` maps an origin to the ASNs that leak its
    routes: they violate export policy by re-announcing their selected
    route to their providers even when it was learned from a peer or
    provider — the classic *route leak*.  Because leaked routes arrive
    at the provider looking like customer routes, they are highly
    preferred and can hijack selection far beyond the leaker; the
    resulting observed paths contain valleys, which is exactly the
    artifact the inference pipeline must survive.  Origins with active
    leakers get the sequential :func:`_leak_pass` applied to their row
    after the shared sweeps — the leak perturbation is rare and
    inherently sequential, and running it per row keeps it
    bit-identical to the single-origin oracle.

    ``observers`` are the dense ids whose routes the caller will read.
    When given, the down sweep and the leak pass's descent expand only
    customer edges into the upward provider closure of the observers
    and of the call's leakers (which join them: the leak pass starts
    at a leaker's own route).  A provider route depends only on the
    node's providers, so every closure cell equals the full sweep's,
    and next-hop chains from the closure stay on closure cells or on
    customer and peer routes, which the whole first two sweeps compute.
    Cells outside the closure are unspecified.  The closure and its
    edge set are built once per call and reported as the ``closure``
    and ``kept-edges`` counters of the open stage.  ``None`` computes
    full tables.
    """
    config = config or PropagationConfig()
    leakers_by_origin = leakers_by_origin or {}
    if not origin_asns:
        return

    csr = index.csr()
    customers = csr.customers
    if observers is not None:
        ids = index.index
        seeds = list(observers)
        seeds.extend(
            ids[leaker]
            for asn in origin_asns
            for leaker in leakers_by_origin.get(asn, ())
            if leaker in ids
        )
        customers, closure = _observer_customers(csr, len(index), seeds)
        perf.counter("closure", closure)
        perf.counter("kept-edges", customers[1].size)

    # cap the per-block cell footprint: a 100k-AS world at the default
    # batch size would allocate origins × stride ≈ 1.7e7 cells per
    # array; shrinking the block trades nothing but wall-clock shape
    stride = 1 << max(1, (len(index) - 1).bit_length())
    step = max(1, min(config.batch_size, config.max_block_cells // stride))
    for start in range(0, len(origin_asns), step):
        yield _propagate_block(
            index, origin_asns[start: start + step], leakers_by_origin,
            customers,
        )


def _observer_customers(
    csr: Csr, n: int, observers: Sequence[int]
) -> Tuple[Tuple["_np.ndarray", "_np.ndarray"], int]:
    """``csr.customers`` cut to the edges into the observers' closure.

    The closure is every observer plus, transitively, its providers:
    one level-synchronous walk over ``csr.providers``.  Returns the cut
    ``(indptr, indices)`` pair (every row keeps its kept customers in
    order) and the closure's size.
    """
    indptr, indices = csr.providers
    inside = _np.zeros(n, dtype=bool)
    frontier = sort_unique(_np.asarray(observers, dtype=_np.int64))
    inside[frontier] = True
    while frontier.size:
        starts = indptr[frontier]
        above, _ = gather_rows(indices, starts, indptr[frontier + 1] - starts)
        frontier = sort_unique(above[~inside[above]])
        inside[frontier] = True
    indptr, indices = csr.customers
    keep = inside[indices]
    before = _np.zeros(keep.size + 1, dtype=indptr.dtype)
    _np.cumsum(keep, out=before[1:])
    return (before[indptr], indices[keep]), int(inside.sum())


def _propagate_block(
    index: GraphIndex,
    origin_asns: Sequence[int],
    leakers_by_origin: Mapping[int, Set[int]],
    customers: Tuple["_np.ndarray", "_np.ndarray"],
) -> BlockState:
    """One block of the batched engine: K origins over flat cell arrays.

    ``customers`` is the adjacency the down sweep and the leak pass's
    descent expand: ``csr.customers`` itself, or its observer cut.

    A cell ``(k, node)`` lives at key ``k * stride + node`` where
    ``stride`` is n rounded up to a power of two, so splitting a cell
    key into batch row and node is a shift/mask instead of a div/mod.

    Dtypes narrow independently: the class/next-hop/length state is
    always int32 (node indexes are bounded by :data:`MAX_INT32`), cell
    keys span ``K * stride``, and the ``(cell, source)`` sort
    composites additionally shift by ``shift`` — each widens to int64
    only when its own range demands it, so internet-scale blocks keep
    the state and cell traffic at 4 bytes while only the transient
    sort keys pay for 8.
    """
    csr = index.csr()
    n = len(index)
    K = len(origin_asns)
    stride = 1 << max(1, (n - 1).bit_length())
    shift = stride.bit_length() - 1
    cells = K * stride
    if (cells << shift) >= 2**63:
        raise CsrOverflowError(
            f"batch of {K} origins over stride {stride} overflows the "
            f"64-bit composite key space; lower batch_size"
        )
    cell_dtype = _np.int32 if cells <= MAX_INT32 else _np.int64
    comp_dtype = _np.int32 if (cells << shift) <= MAX_INT32 else _np.int64
    origins = _np.asarray(
        [index.index[asn] for asn in origin_asns], dtype=cell_dtype
    )
    cls = _np.zeros(cells, dtype=_np.int32)
    # a claim writes each routed cell's next hop; the rest stay unset
    nexthop = _np.empty(cells, dtype=_np.int32)
    pathlen = _np.zeros(cells, dtype=_np.int32)

    origin_cells = _np.arange(K, dtype=cell_dtype) * stride + origins
    cls[origin_cells] = CLS_ORIGIN
    nexthop[origin_cells] = -1
    geom = _Geometry(stride, shift, stride - 1, cell_dtype, comp_dtype)
    holders = _batch_sweep_up(csr, geom, origin_cells, cls, nexthop, pathlen)
    _batch_sweep_peers(csr, geom, holders, cls, nexthop, pathlen)
    _batch_sweep_down(customers, geom, cls, nexthop, pathlen)

    cls = cls.reshape(K, stride)
    nexthop = nexthop.reshape(K, stride)
    pathlen = pathlen.reshape(K, stride)
    for k, asn in enumerate(origin_asns):
        leakers = leakers_by_origin.get(asn)
        if leakers:
            # the sequential pass runs over list rows (numpy scalar
            # access is ~2.5x slower), written back into the block;
            # its next hops read -1 on unrouted cells
            leak_indexes = {
                index.index[a] for a in leakers if a in index.index
            }
            rows = [
                cls[k, :n].tolist(),
                _routed_nexthop(cls[k, :n], nexthop[k, :n]).tolist(),
                pathlen[k, :n].tolist(),
            ]
            _leak_pass(index, leak_indexes, *rows, customers)
            cls[k, :n], nexthop[k, :n], pathlen[k, :n] = rows
    return BlockState(origins, cls, nexthop, pathlen)


def _routed_nexthop(cls: "_np.ndarray", nexthop: "_np.ndarray"):
    """A copy of block ``nexthop`` cells reading -1 wherever ``cls``
    holds no route, as :class:`RouteState` rows do."""
    return _np.where(cls == NO_ROUTE, _np.int32(-1), nexthop)


@dataclass(frozen=True)
class _Geometry:
    """Cell-key layout of one batch block: ``cell = row * stride + node``.

    ``cell_dtype`` covers plain cell keys, ``comp_dtype`` the shifted
    ``(cell << shift) | source`` sort composites; they differ exactly
    when the composite range outgrows int32 but the cell range has not.
    """

    stride: int
    shift: int
    mask: int
    cell_dtype: object = None
    comp_dtype: object = None

    def compose(self, cell: "_np.ndarray", src_node: "_np.ndarray"):
        """``(cell << shift) | src_node`` in the composite dtype —
        widening *before* the shift, where int32 cells would wrap."""
        if cell.dtype != self.comp_dtype and self.comp_dtype is not None:
            cell = cell.astype(self.comp_dtype)
        return (cell << self.shift) | src_node


def _expand(
    adjacency: Tuple["_np.ndarray", "_np.ndarray"],
    frontier: "_np.ndarray",
    geom: _Geometry,
) -> Tuple["_np.ndarray", "_np.ndarray"]:
    """Expand frontier cells along a CSR adjacency.

    Returns ``(src, targets)``: one entry per (frontier cell, neighbor)
    pair — the source *cell key* and the neighbor *node index*.
    """
    indptr, indices = adjacency
    fn = frontier & geom.mask
    starts = indptr[fn]
    counts = indptr[fn + 1] - starts
    total = int(counts.sum())
    if total == 0:
        empty = _np.empty(0, dtype=frontier.dtype)
        return empty, empty
    ends = _np.cumsum(counts, dtype=_np.int64)
    offsets = _np.arange(total, dtype=_np.int64) - _np.repeat(
        ends - counts, counts
    )
    targets = indices[_np.repeat(starts, counts) + offsets]
    return _np.repeat(frontier, counts), targets


def _claim(
    comp: "_np.ndarray",
    geom: _Geometry,
    cls: "_np.ndarray",
    nexthop: "_np.ndarray",
    pathlen: "_np.ndarray",
    route_cls: int,
    depth: int,
) -> "_np.ndarray":
    """Assign the best offer per still-unrouted cell; returns the cells won.

    ``comp`` packs ``(target cell << shift) | source node``; one
    in-place sort groups each cell's offers with the lowest source node
    (== lowest ASN, dense indexes being ASN-ordered) first, so group
    heads are the winners.  Cells already holding a route are dropped
    *after* head selection — cheaper than masking every candidate, and
    equivalent because offers only ever come from the current frontier.
    """
    comp.sort()
    key = comp >> geom.shift
    head = _np.empty(key.size, dtype=bool)
    head[0] = True
    _np.not_equal(key[1:], key[:-1], out=head[1:])
    heads = key[head]
    open_ = cls[heads] == NO_ROUTE
    wkey = heads[open_]
    if wkey.size == 0:
        return wkey
    cls[wkey] = route_cls
    nexthop[wkey] = comp[head][open_] & geom.mask
    pathlen[wkey] = depth
    return wkey


def _batch_sweep_up(
    csr: Csr,
    geom: _Geometry,
    frontier: "_np.ndarray",
    cls: "_np.ndarray",
    nexthop: "_np.ndarray",
    pathlen: "_np.ndarray",
) -> "_np.ndarray":
    """Phase 1, batched: all K frontiers climb provider edges per level.

    Returns every cell holding an origin or customer route: the
    origin cells and each level's claims.
    """
    claimed = [frontier]
    depth = 0
    while frontier.size:
        depth += 1
        src, targets = _expand(csr.providers, frontier, geom)
        if targets.size == 0:
            break
        src_node = src & geom.mask
        comp = geom.compose(src - src_node + targets, src_node)
        frontier = _claim(
            comp, geom, cls, nexthop, pathlen, CLS_CUSTOMER, depth
        )
        claimed.append(frontier)
    return _np.concatenate(claimed)


def _batch_sweep_peers(
    csr: Csr,
    geom: _Geometry,
    holders: "_np.ndarray",
    cls: "_np.ndarray",
    nexthop: "_np.ndarray",
    pathlen: "_np.ndarray",
) -> None:
    """Phase 2, batched: one peering hop off every customer-route cell.

    ``holders`` are the cells holding an origin or customer route, as
    the up sweep claimed them; their order does not matter, since the
    offers are sorted.  The composite here also packs the *offered
    length* between cell and source node — the peer preference order
    is (shortest path, lowest peer ASN).  Lengths vary per offer, so
    this one sweep carries them in the sort key; it runs once per
    block, so the int64 composites cost nothing measurable.
    """
    src, targets = _expand(csr.peers, holders, geom)
    if targets.size == 0:
        return
    src_node = src & geom.mask
    # this one sweep runs once per block, so its composites are plain
    # int64 regardless of the block geometry
    key = (src - src_node + targets).astype(_np.int64)
    offer_len = pathlen[src].astype(_np.int64) + 1
    lbits = int(offer_len.max()).bit_length()
    if (int(key.max()) << (lbits + geom.shift)) >= 2**62:
        raise CsrOverflowError(
            "peer-sweep composite would overflow 64 bits; lower batch_size"
        )
    comp = (((key << lbits) | offer_len) << geom.shift) | src_node
    comp.sort()
    cell = comp >> (geom.shift + lbits)
    head = _np.empty(cell.size, dtype=bool)
    head[0] = True
    _np.not_equal(cell[1:], cell[:-1], out=head[1:])
    heads = cell[head]
    # a cell holding an origin/customer route never takes a peer route;
    # filtering the few heads beats masking every candidate
    open_ = cls[heads] == NO_ROUTE
    wkey = heads[open_]
    if wkey.size == 0:
        return
    wcomp = comp[head][open_]
    cls[wkey] = CLS_PEER
    nexthop[wkey] = wcomp & geom.mask
    pathlen[wkey] = (wcomp >> geom.shift) & ((1 << lbits) - 1)


def _batch_sweep_down(
    customers: Tuple["_np.ndarray", "_np.ndarray"],
    geom: _Geometry,
    cls: "_np.ndarray",
    nexthop: "_np.ndarray",
    pathlen: "_np.ndarray",
) -> None:
    """Phase 3, batched: routed cells descend customer edges by depth.

    Only cells whose node has a customer edge in ``customers`` can
    offer anything, so the first frontier is gathered from those
    nodes' cells rather than from every routed cell.
    """
    cell_dtype = geom.cell_dtype or cls.dtype
    parents = _np.nonzero(_np.diff(customers[0]))[0].astype(cell_dtype)
    rows = _np.arange(cls.size // geom.stride, dtype=cell_dtype)
    routed = (rows[:, None] * geom.stride + parents).ravel()
    routed = routed[cls[routed] != NO_ROUTE]
    order = _np.argsort(pathlen[routed])
    routed = routed[order]
    depths = pathlen[routed]
    max_initial = int(depths[-1]) if depths.size else -1

    depth = 0
    carry = _np.empty(0, dtype=cell_dtype)
    while depth <= max_initial or carry.size:
        lo = _np.searchsorted(depths, depth, side="left")
        hi = _np.searchsorted(depths, depth, side="right")
        frontier = _np.concatenate((routed[lo:hi], carry))
        depth += 1
        carry = _np.empty(0, dtype=cell_dtype)
        if frontier.size == 0:
            continue
        src, targets = _expand(customers, frontier, geom)
        if targets.size == 0:
            continue
        src_node = src & geom.mask
        comp = geom.compose(src - src_node + targets, src_node)
        carry = _claim(
            comp, geom, cls, nexthop, pathlen, CLS_PROVIDER, depth
        )


def _better(
    index: GraphIndex,
    offer_cls: int,
    offer_len: int,
    offer_via: int,
    cls: List[int],
    pathlen: List[int],
    nexthop: List[int],
    node: int,
) -> bool:
    """Does the offered route beat ``node``'s current selection?

    Preference: route class (origin/customer/peer/provider), then path
    length, then lowest next-hop ASN — the same total order the normal
    sweeps implement implicitly.
    """
    current_cls = cls[node]
    if current_cls == NO_ROUTE:
        return True
    if current_cls == CLS_ORIGIN:
        return False
    if offer_cls != current_cls:
        return offer_cls < current_cls
    if offer_len != pathlen[node]:
        return offer_len < pathlen[node]
    current_via = nexthop[node]
    return index.asns[offer_via] < index.asns[current_via]


def _leak_pass(
    index: GraphIndex,
    leakers: Set[int],
    cls: List[int],
    nexthop: List[int],
    pathlen: List[int],
    customers: Optional[Tuple["_np.ndarray", "_np.ndarray"]] = None,
) -> None:
    """One round of route-leak convergence.

    Each leaker holding a peer- or provider-learned route exports it
    upward; receivers treat it as a customer route (they cannot tell),
    re-export it everywhere a customer route goes, and better routes
    displace worse ones.  A single deterministic pass (up, then peers,
    then down) is sufficient to materialize the leak's footprint.

    Neighbors are read from the index's CSR one row at a time as
    Python ints, so list-form state never stores a numpy scalar
    whatever shape the index serves its rows in.  ``customers``
    replaces ``csr.customers`` for the descent (an observer cut; see
    :func:`propagate_batch`).
    """
    seeds = sorted(
        node
        for node in leakers
        if cls[node] in (CLS_PEER, CLS_PROVIDER)
    )
    if not seeds:
        return
    seed_set = set(seeds)
    csr = index.csr()
    providers = CsrRows(csr.providers)
    peers = CsrRows(csr.peers)
    customers = CsrRows(csr.customers if customers is None else customers)

    def on_chain(node: int, via: int) -> bool:
        """Is ``node`` already on the route ``via`` would hand it?

        BGP's loop prevention: a router rejects paths containing its
        own ASN.  Chains are short; walk with a hard cap for safety.
        """
        current = via
        for _ in range(len(cls) + 1):
            if current == node:
                return True
            if current == -1:
                return False
            current = nexthop[current]
        return True  # cap hit: treat as looped, refuse

    # upward: leaked routes climb provider chains as customer routes
    updated: List[int] = []
    frontier = list(seeds)
    while frontier:
        next_frontier: List[int] = []
        for node in sorted(frontier, key=lambda i: index.asns[i]):
            offer_len = pathlen[node] + 1
            for provider in providers[node].tolist():
                if provider in seed_set:
                    continue  # the leaker keeps its original route
                if on_chain(provider, node):
                    continue
                if _better(index, CLS_CUSTOMER, offer_len, node,
                           cls, pathlen, nexthop, provider):
                    cls[provider] = CLS_CUSTOMER
                    nexthop[provider] = node
                    pathlen[provider] = offer_len
                    updated.append(provider)
                    next_frontier.append(provider)
        frontier = next_frontier

    # sideways: the (apparent) customer routes go to peers too
    peer_updated: List[int] = []
    for node in sorted(set(updated) | seed_set, key=lambda i: index.asns[i]):
        offer_len = pathlen[node] + 1
        for peer in peers[node].tolist():
            if peer in seed_set or on_chain(peer, node):
                continue
            if _better(index, CLS_PEER, offer_len, node,
                       cls, pathlen, nexthop, peer):
                cls[peer] = CLS_PEER
                nexthop[peer] = node
                pathlen[peer] = offer_len
                peer_updated.append(peer)

    # downward: every AS whose selection changed re-exports to customers
    frontier = sorted(set(updated) | set(peer_updated) | seed_set,
                      key=lambda i: index.asns[i])
    while frontier:
        next_frontier = []
        for node in frontier:
            offer_len = pathlen[node] + 1
            for customer in customers[node].tolist():
                if customer in seed_set or on_chain(customer, node):
                    continue
                if _better(index, CLS_PROVIDER, offer_len, node,
                           cls, pathlen, nexthop, customer):
                    cls[customer] = CLS_PROVIDER
                    nexthop[customer] = node
                    pathlen[customer] = offer_len
                    next_frontier.append(customer)
        frontier = sorted(set(next_frontier), key=lambda i: index.asns[i])
