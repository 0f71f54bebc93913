"""RouteViews-style collection: vantage points, RIBs, path corpora.

A :class:`Collector` peers with a set of vantage-point ASes.  Each full
feed exports the VP's entire best-route table; each partial feed
exports only customer-learned and originated routes (many real VPs
peer with collectors and send only what they would send a peer — this
is the visibility artifact behind the paper's discussion of partial
views).

Collection propagates the origin ASes in blocks and materializes, per
vantage point, the observed AS path (with measurement noise applied)
and per-prefix RIB entries carrying relationship-encoding BGP
communities for the ASes that tag (the validation substrate).  Both
are array passes over a block's route-state arrays, and the corpus
keeps its paths as columns.

The per-origin work all lives in :class:`CollectionKernel`, which is
deliberately detached from the topology object: it needs only a dense
graph index (real or shared-memory-attached), the VP/tagger/leaker
choices, the clique and the IXP link map.  Serial runs drive one
kernel over the collector's own :class:`GraphIndex`; parallel runs
ship a small :class:`_ChunkSpec` to pool workers which rebuild the
kernel over a :class:`~repro.graph.shm.SharedGraphIndex` mapped
zero-copy from a :class:`~repro.graph.shm.SharedRelGraph` segment.
Kernel code is identical on both paths, so the worker count never
changes a single emitted path.
"""

from __future__ import annotations

import atexit
import multiprocessing
import random
import time
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, compress, filterfalse, islice
from typing import (
    Dict,
    FrozenSet,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as _np

from repro import perf
from repro.bgp.noise import ColumnNoiser, NoiseConfig
from repro.bgp.propagation import (
    CLS_CUSTOMER,
    CLS_PEER,
    CLS_PROVIDER,
    NO_ROUTE,
    BlockState,
    GraphIndex,
    PropagationConfig,
    propagate_blocks,
)
from repro.core.paths import (
    PathColumns,
    row_tuples,
    split_tuples,
    take_rows,
    unique_rows,
)
from repro.graph import shm
from repro.graph.csr import gather_rows
from repro.graph.index import DenseIndex
from repro.graph.relgraph import RelGraph
from repro.net.prefix import Prefix
from repro.relationships import RelClass
from repro.topology.model import ASGraph, ASType, TopologyError

# community encoding used by tagging ASes: (tagger_asn, _REL_CODE[relclass])
REL_CODE = {
    RelClass.CUSTOMER: 1001,
    RelClass.PEER: 1002,
    RelClass.PROVIDER: 1003,
}
CODE_REL = {code: rel for rel, code in REL_CODE.items()}
# the same encoding indexed by the propagation engine's route-class
# ints (0 for no route and for the origin, which tag nothing)
_CLS_CODE = _np.zeros(CLS_PROVIDER + 1, dtype=_np.int64)
_CLS_CODE[CLS_CUSTOMER] = REL_CODE[RelClass.CUSTOMER]
_CLS_CODE[CLS_PEER] = REL_CODE[RelClass.PEER]
_CLS_CODE[CLS_PROVIDER] = REL_CODE[RelClass.PROVIDER]
# the AS types a vantage point is drawn from (bound once: an enum
# member lookup per AS costs more than the rest of the filter)
_VP_TYPES = (
    ASType.CLIQUE, ASType.LARGE_TRANSIT, ASType.SMALL_TRANSIT, ASType.ACCESS
)


@dataclass(frozen=True)
class VantagePoint:
    """An AS exporting its table to the collector."""

    asn: int
    full_feed: bool = True


@dataclass(frozen=True)
class RibEntry:
    """One collector RIB row: who said it, for what, via which path."""

    vp: int
    prefix: Prefix
    path: Tuple[int, ...]  # collector order: VP first, origin last
    communities: Tuple[Tuple[int, int], ...] = ()

    @property
    def origin(self) -> int:
        return self.path[-1]


def _empty(size: int):
    return _np.zeros(size, dtype=_np.int64)


@dataclass(eq=False)
class PathCorpus:
    """Everything collected in one snapshot.

    The deduplicated observed AS paths (the inference input) are held
    as columns in first-seen order: path ``i`` is
    ``flat[off[i]:off[i + 1]]`` (int64 ASNs, VP first, origin last),
    observed ``counts[i]`` times.  ``paths`` and ``path_counts`` are
    tuple and dict views built on first read.  ``rib`` holds the
    prefix-level entries (the MRT and communities substrate).
    """

    vps: List[VantagePoint]
    flat: "_np.ndarray"
    off: "_np.ndarray"
    counts: "_np.ndarray"
    rib: List[RibEntry]

    @cached_property
    def paths(self) -> PathColumns:
        """The distinct observed paths, as a sequence of tuples."""
        return PathColumns(self.flat, self.off)

    @cached_property
    def path_counts(self) -> Dict[Tuple[int, ...], int]:
        """How often each distinct path was observed, by tuple."""
        return dict(zip(self.paths, self.counts.tolist()))

    def __len__(self) -> int:
        return len(self.counts)


class Collected(NamedTuple):
    """What collecting a run of origins yields, origin after origin and
    each origin's paths in VP order.

    ``(flat, off)`` holds every observed path (int64 ASNs);
    ``per_origin`` counts each origin's paths, ``rib_per_origin`` its
    rows of ``rib``.
    """

    flat: "_np.ndarray"
    off: "_np.ndarray"
    per_origin: "_np.ndarray"
    rib: List[RibEntry]
    rib_per_origin: "_np.ndarray"

    @staticmethod
    def concat(parts: Sequence["Collected"]) -> "Collected":
        """The parts one after the other."""
        if not parts:
            return Collected(_empty(0), _empty(1), _empty(0), [], _empty(0))
        if len(parts) == 1:
            return parts[0]
        lengths = _np.concatenate([_np.diff(part.off) for part in parts])
        off = _empty(len(lengths) + 1)
        _np.cumsum(lengths, out=off[1:])
        return Collected(
            _np.concatenate([part.flat for part in parts]),
            off,
            _np.concatenate([part.per_origin for part in parts]),
            [entry for part in parts for entry in part.rib],
            _np.concatenate([part.rib_per_origin for part in parts]),
        )

    def reordered(self, order) -> "Collected":
        """The origins in the order ``order`` lists them."""
        starts = _np.cumsum(self.per_origin) - self.per_origin
        rows, _ = gather_rows(
            _np.arange(len(self.off) - 1), starts[order],
            self.per_origin[order],
        )
        flat, _, off = take_rows(self.flat, self.off, rows)
        starts = _np.cumsum(self.rib_per_origin) - self.rib_per_origin
        entries, _ = gather_rows(
            _np.arange(len(self.rib)), starts[order],
            self.rib_per_origin[order],
        )
        return Collected(
            flat, off, self.per_origin[order],
            list(map(self.rib.__getitem__, entries.tolist())),
            self.rib_per_origin[order],
        )


class _Walk(NamedTuple):
    """Every exported ``(origin, VP)`` chain of one propagated block.

    Path ``p`` is origin row ``row[p]`` seen from VP ``vp[p]`` (a
    position in the kernel's VP arrays); its hops, VP first, are the
    dense ids ``nodes[off[p]:off[p + 1]]``.  ``per_origin`` counts each
    row's paths.
    """

    row: "_np.ndarray"
    vp: "_np.ndarray"
    per_origin: "_np.ndarray"
    nodes: "_np.ndarray"
    off: "_np.ndarray"


@dataclass
class CollectorConfig:
    """How many VPs to deploy and how they are chosen.

    Mirrors reality: collectors preferentially attract feeds from large
    transit networks, with a minority of partial feeds.
    """

    n_vps: int = 20
    partial_feed_fraction: float = 0.25
    seed: int = 99
    # chance per (tagging AS) of attaching relationship communities
    community_tagger_fraction: float = 0.3
    noise: NoiseConfig = field(default_factory=NoiseConfig)
    # when False, skip per-prefix RIB materialization (path corpus only)
    build_rib: bool = True
    # route leaks: this many multihomed ASes mis-export routes upward,
    # each for ``leak_origin_fraction`` of origins (a partial-table leak)
    n_route_leakers: int = 0
    leak_origin_fraction: float = 0.05
    # >1: fan per-origin propagation across this many worker processes.
    # The merge is deterministic (strided chunks reassembled in origin
    # order) and per-path noise is drawn from per-origin RNGs in serial
    # and parallel runs alike, so every worker count (including 0/1,
    # i.e. serial) yields the same corpus bit for bit.  Workers come
    # from a process-wide persistent pool reused across runs; the
    # frozen graph reaches them as one shared-memory segment, and each
    # chunk pickles only a small spec.
    workers: int = 0
    # which propagation engine computes per-origin route state
    propagation: PropagationConfig = field(default_factory=PropagationConfig)


class CollectionKernel:
    """Per-origin collection over a dense graph index.

    Holds exactly what materializing the observations needs — the
    config, a :class:`GraphIndex`-shaped adjacency (real or attached
    from shared memory), the VP set, tagger/sibling node ids, the
    leaker list, the clique, and the IXP link map — plus its column
    noiser.  Serial runs and shared-memory
    workers both run this same code, which is what makes the corpus
    worker-count-invariant.

    Each propagated block is materialized by array passes over its
    ``(K, stride)`` route-state arrays: one mask picks the exported
    ``(origin, VP)`` pairs, the chains are followed one hop level at a
    time for all of them at once, and communities, noise and RIB rows
    are computed from the resulting columns.
    """

    def __init__(
        self,
        config: CollectorConfig,
        index,
        vps: Sequence[VantagePoint],
        tagger_nodes: Set[int],
        sibling_nodes: Dict[int, Set[int]],
        leakers: Sequence[int],
        clique: Sequence[int],
        via_ixp: Dict[Tuple[int, int], int],
    ):
        self.config = config
        self.index = index
        self.vps = list(vps)
        self.tagger_nodes = tagger_nodes
        self.sibling_nodes = sibling_nodes
        self.leakers = list(leakers)
        self.clique = clique
        self.via_ixp = via_ixp
        index_of = index.index
        routed = [vp for vp in self.vps if vp.asn in index_of]
        # every route collection reads lies on a VP's next-hop chain
        self.observers = [index_of[vp.asn] for vp in routed]
        self._vp_nodes = _np.array(self.observers, dtype=_np.int64)
        self._vp_asns = _np.array(
            [vp.asn for vp in routed], dtype=_np.int64
        )
        self._vp_partial = _np.array(
            [not vp.full_feed for vp in routed], dtype=bool
        )
        n = len(index)
        self._asns = _np.array(index.asns, dtype=_np.int64)
        self._is_tagger = _np.zeros(n, dtype=bool)
        self._is_tagger[list(tagger_nodes)] = True
        # the sibling sessions as packed ``node * n + sibling`` keys
        self._sibling_keys = _np.sort(_np.array(
            [node * n + sib for node, sibs in sibling_nodes.items()
             for sib in sibs],
            dtype=_np.int64,
        ))
        self.noise = ColumnNoiser(config.noise, clique, via_ixp)

    def _leakers_for_origin(self, origin_asn: int) -> Set[int]:
        """Which leakers mis-export this origin's routes (deterministic)."""
        if not self.leakers:
            return set()
        active = set()
        for leaker in self.leakers:
            draw = random.Random(
                (self.config.seed << 20) ^ (origin_asn << 8) ^ leaker
            ).random()
            if draw < self.config.leak_origin_fraction:
                active.add(leaker)
        return active

    def collect_block(
        self,
        origin_list: Sequence[int],
        by_origin: Dict[int, List[Prefix]],
    ) -> Collected:
        """Collect ``origin_list`` in engine-sized blocks, in order.

        One batched propagation per block, then per block three array
        phases (chain walk, noise, RIB) whose time lands on the
        ``collect/propagate|paths|noise|rib`` substages.  The noise
        draws each origin's paths from that origin's RNG in VP order,
        as the one-origin oracle (:mod:`repro.qa.oracles`) does, so the
        corpus is bit-identical to it.
        """
        build_rib = self.config.build_rib
        clock = time.perf_counter
        parts: List[Collected] = []
        block_size = max(1, self.config.propagation.batch_size)
        for start in range(0, len(origin_list), block_size):
            block = list(origin_list[start: start + block_size])
            t0 = clock()
            leakers = {
                asn: active
                for asn in block
                if (active := self._leakers_for_origin(asn))
            }
            states = self._propagate(block, leakers)
            perf.add_seconds("propagate", clock() - t0)
            t_paths = t_noise = t_rib = 0.0
            misses = self.noise.misses
            for state in states:
                asns = self._asns[state.origins].tolist()
                t0 = clock()
                walk = self._walk(state)
                true_flat = self._asns[walk.nodes]
                t1 = clock()
                flat, off = self.noise.apply(
                    true_flat, walk.off, asns, walk.per_origin
                )
                t2 = clock()
                rib: List[RibEntry] = []
                rib_per_origin = _np.zeros(len(asns), dtype=_np.int64)
                if build_rib:
                    rib, rib_per_origin = self._rib_rows(
                        state, walk, flat, off, asns, by_origin
                    )
                t_paths += t1 - t0
                t_noise += t2 - t1
                t_rib += clock() - t2
                parts.append(
                    Collected(flat, off, walk.per_origin, rib, rib_per_origin)
                )
            perf.add_seconds("paths", t_paths)
            perf.add_seconds(
                "noise", t_noise, misses=self.noise.misses - misses
            )
            perf.add_seconds("rib", t_rib)
        return Collected.concat(parts)

    def _propagate(
        self, block: List[int], leakers: Dict[int, Set[int]]
    ) -> List[BlockState]:
        """One block's route state, exact wherever a VP's path can go.

        The VPs are the propagation's ``observers`` (the block's
        active leakers join them inside :func:`propagate_blocks`).
        """
        return list(propagate_blocks(
            self.index, block, leakers, self.config.propagation,
            observers=self.observers,
        ))

    def _walk(self, state: BlockState) -> _Walk:
        """The exported chains of ``state``, one gather per hop level.

        A VP exports a route it holds; a partial feed only a customer
        or originated one.  A chain runs from the VP along ``nexthop``
        to the origin, in row-major ``(origin, VP)`` order.
        """
        stride = state.cls.shape[1]
        at_vps = state.cls[:, self._vp_nodes]
        export = (at_vps != NO_ROUTE) & (
            ~self._vp_partial | (at_vps <= CLS_CUSTOMER)
        )
        row, vp = _np.nonzero(export)
        nexthop = state.nexthop.ravel()
        base = row * stride
        end = state.origins.astype(_np.int64)[row]
        lengths = _np.zeros(len(row), dtype=_np.int64)
        ids = _np.arange(len(row))
        node = self._vp_nodes[vp]
        levels = []
        while ids.size:
            if len(levels) > stride:
                raise RuntimeError("a next-hop chain misses its origin")
            levels.append((ids, node))
            lengths[ids] += 1
            walking = node != end[ids]
            ids, node = ids[walking], node[walking]
            node = nexthop[base[ids] + node].astype(_np.int64)
            walking = node != -1
            ids, node = ids[walking], node[walking]
        off = _empty(len(row) + 1)
        _np.cumsum(lengths, out=off[1:])
        nodes = _empty(int(off[-1]))
        for depth, (ids, node) in enumerate(levels):
            nodes[off[ids] + depth] = node
        return _Walk(
            row, vp, _np.count_nonzero(export, axis=1), nodes, off
        )

    def _communities(
        self, state: BlockState, walk: _Walk
    ) -> List[Tuple[Tuple[int, int], ...]]:
        """Relationship communities accumulated along each true path.

        Each tagging AS on the path, the origin aside, marks the class
        of the session its route entered on — exactly the convention
        community-based validation mines — unless it learned the route
        from a sibling (an internal session carries no external
        relationship community).
        """
        nodes, off = walk.nodes, walk.off
        paths = len(off) - 1
        path = _np.repeat(_np.arange(paths), _np.diff(off))
        # the origin's own class has code 0, so it tags nothing
        code = _CLS_CODE[
            state.cls.ravel()[walk.row[path] * state.cls.shape[1] + nodes]
        ]
        hop = _np.flatnonzero(self._is_tagger[nodes] & (code > 0))
        if self._sibling_keys.size:
            # a hop's next hop is the next node of its chain
            inner = hop + 1 < off[path[hop] + 1]
            after = nodes[_np.minimum(hop + 1, len(nodes) - 1)]
            session = nodes[hop] * len(self._asns) + after
            hop = hop[~(inner & _np.isin(session, self._sibling_keys))]
        bounds = _empty(paths + 1)
        _np.cumsum(_np.bincount(path[hop], minlength=paths), out=bounds[1:])
        tags = list(zip(self._asns[nodes[hop]].tolist(), code[hop].tolist()))
        return split_tuples(tags, bounds.tolist())

    def _rib_rows(
        self,
        state: BlockState,
        walk: _Walk,
        flat,
        off,
        asns: List[int],
        by_origin: Dict[int, List[Prefix]],
    ) -> Tuple[List[RibEntry], "_np.ndarray"]:
        """Per-prefix RIB entries for every observed path ``(flat,
        off)`` of ``walk``, and how many each origin row gets."""
        communities = self._communities(state, walk)
        paths = row_tuples(flat, off)
        prefixes = [by_origin[asn] for asn in asns]
        count = _np.fromiter(map(len, prefixes), _np.int64, len(prefixes))
        first = _np.cumsum(count) - count
        per_path = count[walk.row]
        path = _np.repeat(_np.arange(len(paths)), per_path)
        within = _np.arange(len(path)) - _np.repeat(
            _np.cumsum(per_path) - per_path, per_path
        )
        flat_prefixes = list(chain.from_iterable(prefixes))
        path_list = path.tolist()
        rib = list(map(
            RibEntry,
            self._vp_asns[walk.vp][path].tolist(),
            map(flat_prefixes.__getitem__,
                (first[walk.row][path] + within).tolist()),
            map(paths.__getitem__, path_list),
            map(communities.__getitem__, path_list),
        ))
        return rib, walk.per_origin * count


def _survey(
    graph: ASGraph, v6: bool
) -> Tuple[List[int], List[int], List[int], List[int]]:
    """One pass over the AS table: ``(non-IXP ASNs in table order,
    sorted routing ASNs, sorted VP-typed ASNs, sorted clique ASNs)``.

    Table order is the tagger draw order.  The routing ASes are the
    non-IXP ones, on the v6 plane only those with IPv6 space.
    """
    ixp_rs = ASType.IXP_RS
    clique_type = ASType.CLIQUE
    taggable: List[int] = []
    routing: List[int] = []
    vp_typed: List[int] = []
    clique: List[int] = []
    for asys in graph.ases():
        kind = asys.type
        if kind is ixp_rs:
            continue
        asn = asys.asn
        taggable.append(asn)
        if v6 and asys.prefixes6:
            routing.append(asn)
        if kind in _VP_TYPES:
            vp_typed.append(asn)
            if kind is clique_type:
                clique.append(asn)
    routing = sorted(routing if v6 else taggable)
    return taggable, routing, sorted(vp_typed), sorted(clique)


@dataclass(frozen=True)
class _ChunkSpec:
    """What a shared-memory worker needs besides the mapped segment.

    Everything here is small — the graph itself travels as the segment
    name.  Workers rebuild a :class:`CollectionKernel` from this spec
    plus the cached attachment.
    """

    segment: str
    config: CollectorConfig
    vps: Tuple[VantagePoint, ...]
    tagger_nodes: FrozenSet[int]
    sibling_nodes: Dict[int, Set[int]]
    leakers: Tuple[int, ...]
    clique: Tuple[int, ...]


class Collector:
    """Runs the propagation and assembles the snapshot corpus.

    ``preset_vps`` lets a longitudinal caller keep the same feeds across
    snapshots (as RouteViews peers persist for years): existing VPs are
    retained when their AS still exists, and new ones are recruited only
    to reach the configured count.
    """

    def __init__(
        self,
        graph: ASGraph,
        config: Optional[CollectorConfig] = None,
        preset_vps: Optional[Sequence[VantagePoint]] = None,
        plane: str = "v4",
    ):
        """``plane`` selects the address family: ``"v6"`` routes over the
        subgraph of v6-enabled ASes and announces IPv6 prefixes."""
        if plane not in ("v4", "v6"):
            raise ValueError(f"unknown plane {plane!r}")
        self.graph = graph
        self.plane = plane
        self.config = config or CollectorConfig()
        with perf.stage("collect-setup"):
            with perf.stage("compile"):
                # the one pass over the AS table every set-up step reads
                self._taggable, routing, self._vp_pool, clique = _survey(
                    graph, plane == "v6"
                )
                index = DenseIndex.from_sorted(routing)
                rel = RelGraph.from_as_graph(graph, index=index)
                # a kept compile comes back over its own, equal index
                perf.counter("reused", int(rel.index is not index))
                self.index = GraphIndex(graph, rel=rel)
            with perf.stage("draws"):
                self._rng = random.Random(self.config.seed)
                ids = self.index.index
                retained = [
                    vp for vp in (preset_vps or []) if vp.asn in ids
                ]
                needed = max(0, self.config.n_vps - len(retained))
                exclude = {vp.asn for vp in retained}
                self.vps = sorted(
                    retained + self._choose_vps(needed, exclude),
                    key=lambda vp: vp.asn,
                )
                self.taggers = self._choose_taggers()
                self.leakers = self._choose_leakers()
                tagger_nodes = {
                    ids[asn] for asn in self.taggers if asn in ids
                }
                # only routing taggers with a routing sibling get an
                # entry; the filter skips the taggers without siblings
                sibling_nodes: Dict[int, Set[int]] = {}
                siblings = graph.siblings
                for asn in filter(siblings.__getitem__, self.taggers):
                    routed = {ids[s] for s in siblings[asn] if s in ids}
                    if asn in ids and routed:
                        sibling_nodes[ids[asn]] = routed
            self.kernel = CollectionKernel(
                config=self.config,
                index=self.index,
                vps=self.vps,
                tagger_nodes=tagger_nodes,
                sibling_nodes=sibling_nodes,
                leakers=self.leakers,
                clique=clique,
                via_ixp=getattr(graph, "via_ixp", {}),
            )
        # lazily packed shared-memory segment, unlinked when this
        # collector is collected (plus the module atexit backstop)
        self._shared_segment: Optional[str] = None
        self._segment_finalizer: Optional[weakref.finalize] = None

    # ------------------------------------------------------------------
    # setup
    # ------------------------------------------------------------------

    def _choose_vps(self, count: int, exclude: Set[int]) -> List[VantagePoint]:
        """Prefer transit networks (weighted by customer count), mimic the
        RouteViews feed mix; deterministic under the seed.

        Each draw picks the first candidate whose running weight total
        reaches ``uniform(0, total)`` (ascending ASN order) and removes
        it from the pool.
        """
        # the routing VP-typed ASes (v6 plane: v6 VPs only), unexcluded
        candidates = list(filterfalse(
            exclude.__contains__,
            filter(self.index.index.__contains__, self._vp_pool),
        ))
        weights = _np.fromiter(
            map(len, map(self.graph.customers.__getitem__, candidates)),
            dtype=_np.int64, count=len(candidates),
        ) + 1
        candidates = _np.array(candidates, dtype=_np.int64)
        chosen: List[int] = []
        for _ in range(min(count, candidates.size)):
            running = _np.cumsum(weights)
            pick = self._rng.uniform(0, int(running[-1]))
            i = int(_np.searchsorted(running, pick, side="left"))
            chosen.append(int(candidates[i]))
            candidates = _np.delete(candidates, i)
            weights = _np.delete(weights, i)
        vps = []
        for asn in sorted(chosen):
            partial = self._rng.random() < self.config.partial_feed_fraction
            vps.append(VantagePoint(asn=asn, full_feed=not partial))
        return vps

    def _choose_taggers(self) -> FrozenSet[int]:
        """ASes that attach relationship-encoding communities at ingress:
        one ``random()`` draw per non-IXP AS, in AS-table order."""
        taggable = self._taggable
        draws = _np.fromiter(
            islice(iter(self._rng.random, None), len(taggable)),
            dtype=_np.float64, count=len(taggable),
        )
        return frozenset(compress(
            taggable,
            (draws < self.config.community_tagger_fraction).tolist(),
        ))

    def _choose_leakers(self) -> List[int]:
        """Multihomed ASes that mis-export routes to their providers
        (``graph.providers`` holds one set per AS of the table)."""
        if self.config.n_route_leakers <= 0:
            return []
        candidates = sorted(
            asn for asn, ups in self.graph.providers.items() if len(ups) >= 2
        )
        count = min(self.config.n_route_leakers, len(candidates))
        return sorted(self._rng.sample(candidates, count))

    # ------------------------------------------------------------------
    # collection
    # ------------------------------------------------------------------

    def run(self, origins: Optional[Sequence[int]] = None) -> PathCorpus:
        """Collect one snapshot.

        ``origins`` restricts which ASes announce (defaults to every
        routing AS with at least one prefix).  With
        ``CollectorConfig(workers=N)`` (N > 1) the per-origin
        propagations fan out across worker processes; results merge in
        origin order and noise is drawn from per-origin RNGs either
        way, so every worker count yields exactly the serial corpus.

        A prefix originated twice raises
        :class:`~repro.topology.model.TopologyError`.  The check guards
        the prefixes this run reads: those of the given ``origins``
        that route, or, with ``origins=None``, every prefix of the
        world.
        """
        with perf.stage("collect"):
            with perf.stage("prefixes"):
                by_origin = self._announced(origins)
            origin_list = sorted(by_origin)
            perf.counter("origins", len(origin_list))
            perf.counter("vps", len(self.vps))

            workers = self.config.workers
            if workers and workers > 1 and origin_list:
                got = self._run_parallel(workers, origin_list, by_origin)
            else:
                got = self.kernel.collect_block(origin_list, by_origin)
            flat, off = got.flat, got.off
            counts = _np.ones(len(off) - 1, dtype=_np.int64)
            if len({vp.asn for vp in self.vps}) < len(self.vps):
                # a path starts at its VP and ends at its origin, so
                # only a VP listed twice can observe a path twice
                rows, counts = unique_rows(flat, off)
                flat, _, off = take_rows(flat, off, rows)
            corpus = PathCorpus(
                vps=list(self.vps), flat=flat, off=off, counts=counts,
                rib=got.rib,
            )
            perf.counter("paths", len(corpus))
            return corpus

    def _announced(
        self, origins: Optional[Sequence[int]]
    ) -> Dict[int, List[Prefix]]:
        """The prefix list of each announcing AS: each routing AS of
        ``origins`` (of the whole AS table when ``None``) with at least
        one prefix on this plane.  Only the listed ASes' own prefixes
        are read."""
        graph = self.graph
        ids = self.index.index
        field_name = "prefixes6" if self.plane == "v6" else "prefixes"
        if origins is None:
            announcing = graph.ases()
        else:
            announcing = map(graph.get_as,
                             sorted(set(origins).intersection(ids)))
        owner: Dict[Prefix, int] = {}
        by_origin: Dict[int, List[Prefix]] = {}
        for asys in announcing:
            prefixes = getattr(asys, field_name)
            for prefix in prefixes:
                if prefix in owner:
                    raise TopologyError(
                        f"{prefix} originated by both AS{owner[prefix]} "
                        f"and AS{asys.asn}"
                    )
                owner[prefix] = asys.asn
            if prefixes and asys.asn in ids:
                by_origin[asys.asn] = list(prefixes)
        return by_origin

    def _chunk_spec(self) -> _ChunkSpec:
        """The worker spec, packing the graph segment on first use."""
        if self._shared_segment is None:
            packed = shm.SharedRelGraph.pack(
                self.index.rel, via_ixp=self.kernel.via_ixp
            )
            self._shared_segment = packed.name
            self._segment_finalizer = weakref.finalize(
                self, shm.release, packed.name
            )
        return _ChunkSpec(
            segment=self._shared_segment,
            config=self.config,
            vps=tuple(self.vps),
            tagger_nodes=frozenset(self.kernel.tagger_nodes),
            sibling_nodes=self.kernel.sibling_nodes,
            leakers=tuple(self.leakers),
            clique=tuple(self.kernel.clique),
        )

    def _run_parallel(
        self,
        workers: int,
        origin_list: List[int],
        by_origin: Dict[int, List[Prefix]],
    ) -> Collected:
        """Fan origin blocks across the persistent pool, preserving order.

        Each worker gets one strided chunk ``origin_list[w::workers]``
        — every stride interleaves cheap and expensive origins, so no
        worker is left holding a heavy tail.  The chunks come back in
        worker order and are re-interleaved the same way, which is
        exactly origin order.

        The graph crosses the process boundary once as a named
        shared-memory segment; each task pickles only a
        :class:`_ChunkSpec` and its origin slice.
        """
        workers = min(workers, len(origin_list))
        pool = _worker_pool(workers)
        spec = self._chunk_spec()
        payloads = [
            (spec, [(o, by_origin[o]) for o in origin_list[w::workers]])
            for w in range(workers)
        ]
        chunks = pool.map(_pool_collect_shared, payloads)
        # origin i sits at position i // workers of chunk i % workers
        first = _np.cumsum([0] + [len(c.per_origin) for c in chunks])
        i = _np.arange(len(origin_list))
        return Collected.concat(chunks).reordered(
            first[i % workers] + i // workers
        )

    def release_shared(self) -> None:
        """Unlink this collector's graph segment now (idempotent)."""
        if self._segment_finalizer is not None:
            self._segment_finalizer()
            self._segment_finalizer = None
        self._shared_segment = None


# ---------------------------------------------------------------------------
# multiprocessing plumbing: one persistent worker pool per process,
# reused across every Collector.run() (each era of a timeseries, each
# plane of a congruence run) instead of forking a fresh pool per call.
# Each task ships a small spec and the workers map the one packed graph
# segment.
# ---------------------------------------------------------------------------

_WORKER_POOL: Optional[multiprocessing.pool.Pool] = None
_WORKER_POOL_SIZE = 0


def _worker_pool(workers: int) -> multiprocessing.pool.Pool:
    """The persistent pool, grown (never shrunk) to ``workers`` processes.

    A run needing fewer workers than the pool holds just submits fewer
    chunks — idle processes cost nothing — so alternating worker counts
    does not thrash fork/teardown.
    """
    global _WORKER_POOL, _WORKER_POOL_SIZE
    if _WORKER_POOL is not None and _WORKER_POOL_SIZE < workers:
        shutdown_worker_pool()
    if _WORKER_POOL is None:
        _WORKER_POOL = multiprocessing.Pool(processes=workers)
        _WORKER_POOL_SIZE = workers
    return _WORKER_POOL


def shutdown_worker_pool() -> None:
    """Tear down the persistent collection pool (no-op when absent)."""
    global _WORKER_POOL, _WORKER_POOL_SIZE
    if _WORKER_POOL is not None:
        _WORKER_POOL.terminate()
        _WORKER_POOL.join()
        _WORKER_POOL = None
        _WORKER_POOL_SIZE = 0


def shutdown_pool() -> None:
    """Public teardown hook: the pool *and* any graph segments this
    process still owns — leaves no semaphores or ``/dev/shm`` entries
    behind (also registered via ``atexit``)."""
    shutdown_worker_pool()
    shm.unlink_all()


atexit.register(shutdown_worker_pool)


def _pool_collect_shared(
    payload: Tuple[_ChunkSpec, List[Tuple[int, List[Prefix]]]],
) -> Collected:
    """Collect one strided chunk over the mapped graph segment.

    The attachment is cached per worker process per segment name, so a
    longitudinal run attaches each era's graph once no matter how many
    ``run()`` calls fan out over it.
    """
    spec, items = payload
    index = shm.attach_index(spec.segment)
    kernel = CollectionKernel(
        config=spec.config,
        index=index,
        vps=spec.vps,
        tagger_nodes=spec.tagger_nodes,
        sibling_nodes=spec.sibling_nodes,
        leakers=spec.leakers,
        clique=spec.clique,
        via_ixp=index.via_ixp,
    )
    by_origin = dict(items)
    return kernel.collect_block([o for o, _ in items], by_origin)


def collect(
    graph: ASGraph, config: Optional[CollectorConfig] = None
) -> PathCorpus:
    """One-call convenience: build a collector and run a full snapshot."""
    return Collector(graph, config).run()
