"""Pure-Python reference implementations: the oracles QA checks against.

Every hot algorithm of the pipeline has exactly one production
implementation.  The seed's pure-Python versions live on here, and only
here, as independent oracles: QA family 1 (:func:`check_differential`)
compares inference and cones against them, QA family 6
(:func:`check_propagation`) compares collection, and the equivalence
tests and the benchmark calibration run use them too.  Nothing in the
production pipeline imports this module, and no config field, function
parameter or environment variable selects it.

* :func:`clean_path` and :func:`reference_sanitize` — stage 1 one raw
  path at a time (QA family 1 and the sanitize tests compare
  ``PathSet.sanitize`` against it);
* :func:`reference_degrees` and :func:`reference_ranked_asns` — node
  and transit degrees and the S2 ranking as neighbour sets built one
  path at a time (QA family 1's ``differential/degrees``);
* :func:`reference_infer_clique` — the clique over the neighbour sets
  of :func:`reference_degrees` (QA family 1's ``differential/clique``);
* :func:`reference_infer_relationships` — the ASRank pipeline with the
  reference clique, the per-vote BFS cycle check, the three-scan
  partial-VP step, the scalar top-down peak scan and the full-rescan
  fold, none of which reads the result's corpus link index;
* ``reference_*_cones`` — the three cone definitions over plain ASN
  sets;
* :func:`reference_rank_ases` — the rank table one AS at a time over
  plain ASN-set cones, each cone's prefixes gathered into a set and its
  addresses summed by :func:`summarize_address_space` (QA family 1's
  ``differential/rank``);
* :func:`graph_from_inference` — inferred labels materialized as a
  mutable :class:`~repro.topology.model.ASGraph`, cycle-closing p2c
  edges demoted to p2p (the path-prediction tests compare
  :func:`~repro.core.prediction.rel_graph_from_inference` and the
  batched predictor against routing over it);
* :func:`propagate_origin` — the one-origin-at-a-time Gao–Rexford
  sweeps;
* :class:`PathNoiser` — the measurement noise one path at a time;
* :class:`ReferenceCollector` — serial collection that propagates
  every origin through :func:`propagate_origin` and materializes,
  noises and tags one path at a time.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import replace
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as np

from repro.bgp.collector import (
    REL_CODE,
    CollectionKernel,
    Collected,
    Collector,
    CollectorConfig,
    RibEntry,
    VantagePoint,
)
from repro.bgp.noise import RESERVED_ASN, NoiseConfig, prepend_count
from repro.bgp.propagation import (
    CLS_CUSTOMER,
    CLS_ORIGIN,
    CLS_PEER,
    CLS_PROVIDER,
    NO_ROUTE,
    GraphIndex,
    RouteState,
    _leak_pass,
)
from repro.core.clique import CliqueResult, bron_kerbosch
from repro.core.cone import ConeDefinition
from repro.core.inference import (
    InferenceConfig,
    InferenceResult,
    Step,
    _Engine,
)
from repro.core.paths import PathSet, SanitizeStats, is_reserved_asn
from repro.core.rank import ASRankEntry
from repro.graph.csr import CsrRows
from repro.net.prefix import Prefix
from repro.relationships import RelClass, Relationship, canonical_pair
from repro.topology.model import AS, ASGraph, ASType, TopologyError

#: the community code of each route class an AS can tag
_REFERENCE_CLS_CODE = {
    CLS_CUSTOMER: REL_CODE[RelClass.CUSTOMER],
    CLS_PEER: REL_CODE[RelClass.PEER],
    CLS_PROVIDER: REL_CODE[RelClass.PROVIDER],
}


# ---------------------------------------------------------------------------
# sanitization (stage 1)
# ---------------------------------------------------------------------------


class CleanedPath(NamedTuple):
    """One raw path through stage 1: the cleaned path (``None`` when
    discarded) and a 0/1 increment per :class:`SanitizeStats` counter."""

    path: Optional[Tuple[int, ...]]
    prepending_compressed: int = 0
    discarded_reserved_asn: int = 0
    ixp_hops_removed: int = 0
    discarded_loops: int = 0
    discarded_short: int = 0


def _record(stats: SanitizeStats, cleaned: CleanedPath) -> None:
    """Count one input path that cleaned to ``cleaned``.  ``kept`` and
    ``duplicates_merged`` depend on the whole corpus, so the caller
    sets them."""
    _, prepending, reserved, ixp_removed, loop, short = cleaned
    stats.input_paths += 1
    stats.prepending_compressed += prepending
    stats.discarded_reserved_asn += reserved
    stats.ixp_hops_removed += ixp_removed
    stats.discarded_loops += loop
    stats.discarded_short += short


def compress_prepending(path: Sequence[int]) -> Tuple[int, ...]:
    """Collapse runs of the same ASN into a single hop."""
    out: List[int] = []
    for asn in path:
        if not out or out[-1] != asn:
            out.append(asn)
    return tuple(out)


def has_loop(path: Sequence[int]) -> bool:
    """True when any ASN appears more than once (after compression)."""
    return len(set(path)) != len(path)


def clean_path(
    raw: Sequence[int], ixp_asns: FrozenSet[int] = frozenset()
) -> CleanedPath:
    """The paper's stage-1 cleaning of one raw observed path.

    Compress prepending, discard paths with reserved ASNs, splice out
    IXP route-server hops, then discard loops and paths shorter than
    two hops.
    """
    raw = tuple(raw)
    if not raw:
        return CleanedPath(None, discarded_short=1)
    # most paths repeat no ASN: nothing to compress, no loop possible
    # (splicing hops out below cannot create a repeat either)
    repeats = len(set(raw)) != len(raw)
    path = compress_prepending(raw) if repeats else raw
    prepending = int(len(path) != len(raw))
    if any(map(is_reserved_asn, path)):
        return CleanedPath(None, prepending, discarded_reserved_asn=1)
    ixp_removed = 0
    if ixp_asns and not ixp_asns.isdisjoint(path):
        path = compress_prepending(
            asn for asn in path if asn not in ixp_asns
        )
        ixp_removed = 1
    if repeats and has_loop(path):
        return CleanedPath(
            None, prepending, 0, ixp_removed, discarded_loops=1
        )
    if len(path) < 2:
        return CleanedPath(
            None, prepending, 0, ixp_removed, discarded_short=1
        )
    return CleanedPath(path, prepending, 0, ixp_removed)


def reference_sanitize(
    raw_paths: Iterable[Sequence[int]],
    ixp_asns: FrozenSet[int] = frozenset(),
) -> PathSet:
    """``PathSet.sanitize`` one raw path at a time through
    :func:`clean_path`."""
    stats = SanitizeStats()
    kept: List[Tuple[int, ...]] = []
    counts: Dict[Tuple[int, ...], int] = {}
    for raw in raw_paths:
        cleaned = clean_path(raw, ixp_asns)
        _record(stats, cleaned)
        path = cleaned.path
        if path is None:
            continue
        if path in counts:
            counts[path] += 1
            stats.duplicates_merged += 1
        else:
            counts[path] = 1
            kept.append(path)
    stats.kept = len(kept)
    return PathSet(kept, counts, stats)


# ---------------------------------------------------------------------------
# inference
# ---------------------------------------------------------------------------


class ReferenceInferenceResult(InferenceResult):
    """An inference result whose cycle check walks the customer
    adjacency per vote instead of consulting the closure bitsets."""

    def _would_cycle(self, provider: int, customer: int) -> bool:
        """Per-vote BFS over the customer adjacency (the seed check)."""
        if provider == customer:
            return True
        queue = deque([customer])
        seen = {customer}
        while queue:
            node = queue.popleft()
            for nxt in self.customers.get(node, ()):
                if nxt == provider:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return False


class _ReferenceEngine(_Engine):
    """The seed pipeline: same step order, reference step bodies."""

    result_type = ReferenceInferenceResult

    def _clique(self, paths: PathSet, config: InferenceConfig) -> CliqueResult:
        return reference_infer_clique(
            paths,
            seed_size=config.clique_seed_size,
            stop_after=config.clique_stop_after,
        )

    def _partial_vp(
        self, result: InferenceResult, paths: PathSet, config: InferenceConfig
    ) -> None:
        reference_partial_vp(result, paths, config)

    def _topdown(
        self, result: InferenceResult, paths: PathSet, rank: Dict[int, int]
    ) -> None:
        _step_topdown_reference(result, paths, rank)

    def _fold(self, result: InferenceResult, paths: PathSet) -> None:
        _step_fold_reference(result, paths)


def reference_infer_relationships(
    paths: PathSet, config: Optional[InferenceConfig] = None
) -> InferenceResult:
    """Run the reference ASRank pipeline over a sanitized corpus."""
    return _ReferenceEngine(paths, config or InferenceConfig()).run()


def reference_infer_clique(
    paths: PathSet,
    seed_size: int = 10,
    stop_after: int = 10,
    max_walk: int = 50,
) -> CliqueResult:
    """:func:`~repro.core.clique.infer_clique` over the neighbour sets
    of :func:`reference_degrees`."""
    node, transit = reference_degrees(paths)
    ranking = _ranked(node, transit)
    if not ranking:
        return CliqueResult(members=[], seed_members=[], added_members=[])
    seeds = ranking[:seed_size]
    cliques = bron_kerbosch(seeds, {asn: node[asn] for asn in seeds})
    if not cliques:
        return CliqueResult(members=[], seed_members=[], added_members=[])
    best = max(cliques, key=lambda members: (
        sum(len(transit.get(m, ())) for m in members),
        len(members),
        tuple(sorted(members)),
    ))
    clique = set(best)

    added: List[int] = []
    failures = considered = 0
    for asn in ranking[seed_size:]:
        if failures >= stop_after or considered >= max_walk:
            break
        considered += 1
        if (
            clique <= node[asn]
            and asn in transit
        ):
            clique.add(asn)
            added.append(asn)
            failures = 0
        else:
            failures += 1
    return CliqueResult(
        members=sorted(clique),
        seed_members=sorted(best),
        added_members=added,
        considered=considered,
    )


def reference_degrees(
    paths: PathSet,
) -> Tuple[Dict[int, Set[int]], Dict[int, Set[int]]]:
    """Node and transit neighbour sets per AS, one path at a time.

    Every AS of the corpus has a node entry (possibly empty); only ASes
    seen between two others have a transit entry.
    """
    node: Dict[int, Set[int]] = {}
    transit: Dict[int, Set[int]] = {}
    for path in paths.paths:
        for asn in path:
            node.setdefault(asn, set())
        for a, b in zip(path, path[1:]):
            node[a].add(b)
            node[b].add(a)
        for left, mid, right in zip(path, path[1:], path[2:]):
            transit.setdefault(mid, set()).update((left, right))
    return node, transit


def reference_ranked_asns(paths: PathSet) -> List[int]:
    """The S2 ranking: transit degree desc, node degree desc, ASN asc."""
    return _ranked(*reference_degrees(paths))


def _ranked(
    node: Dict[int, Set[int]], transit: Dict[int, Set[int]]
) -> List[int]:
    return sorted(
        node,
        key=lambda asn: (-len(transit.get(asn, ())), -len(node[asn]), asn),
    )


def reference_partial_vp(
    result: InferenceResult, paths: PathSet, config: InferenceConfig
) -> None:
    """S4B as three scans over the path tuples: all origins, origins per
    VP, then the votes of the partial VPs' paths."""
    origins_total = {path[-1] for path in paths}
    if not origins_total:
        return
    by_vp: Dict[int, Set[int]] = {}
    for path in paths:
        by_vp.setdefault(path[0], set()).add(path[-1])
    partial_vps = {
        vp
        for vp, origins in by_vp.items()
        if len(origins) < config.partial_vp_coverage * len(origins_total)
    }
    for path in paths:
        if path[0] not in partial_vps:
            continue
        for j in range(len(path) - 1):
            if not result.set_p2c(path[j], path[j + 1], Step.S4B_PARTIAL_VP):
                break


def _step_topdown_reference(
    result: InferenceResult, paths: PathSet, rank: Dict[int, int]
) -> None:
    """S5 with a scalar peak scan and no link-state shortcuts."""
    big = 1 << 30
    order: List[Tuple[int, Tuple[int, ...], int, int]] = []
    rank_get = rank.get
    for pi, path in enumerate(paths):
        best, best_rank = 0, rank_get(path[0], big)
        for i, asn in enumerate(path):
            r = rank_get(asn, big)
            if r < best_rank:
                best, best_rank = i, r
        order.append((best_rank, path, best, pi))
    order.sort()
    set_p2c = result.set_p2c
    for _, path, i, _pi in order:
        for j in range(i + 1, len(path) - 1):
            if not set_p2c(path[j], path[j + 1], Step.S5_TOPDOWN):
                break
        for j in range(i - 2, -1, -1):
            if not set_p2c(path[j + 1], path[j], Step.S5_TOPDOWN):
                break


# link direction codes used while folding along a path
_UNKNOWN, _UP, _DOWN, _PEERLINK, _SIBLINK = 0, 1, 2, 3, 4


def _link_state(result: InferenceResult, left: int, right: int) -> int:
    rel = result.relationship(left, right)
    if rel is None:
        return _UNKNOWN
    if rel is Relationship.P2P:
        return _PEERLINK
    if rel is Relationship.S2S:
        return _SIBLINK
    provider = result.provider_of(left, right)
    return _DOWN if provider == left else _UP


def _step_fold_reference(result: InferenceResult, paths: PathSet) -> None:
    """S6 as a full rescan of every path per round (the seed fold)."""
    for _ in range(result.config.max_fold_rounds):
        changed = False
        for path in paths:
            states = [
                _link_state(result, path[j], path[j + 1])
                for j in range(len(path) - 1)
            ]
            # forward: after the first DOWN or PEER everything descends —
            # but a sibling link is a wildcard that resets the constraint
            # (siblings re-export anything in any direction)
            seen_descent = False
            for j, state in enumerate(states):
                if state == _SIBLINK:
                    seen_descent = False
                    continue
                if seen_descent and state == _UNKNOWN:
                    if result.set_p2c(path[j], path[j + 1], Step.S6_FOLD):
                        states[j] = _DOWN
                        changed = True
                if state in (_DOWN, _PEERLINK):
                    seen_descent = True
            # backward: before the last UP or PEER everything ascends
            seen_ascent = False
            for j in range(len(states) - 1, -1, -1):
                state = states[j]
                if state == _SIBLINK:
                    seen_ascent = False
                    continue
                if seen_ascent and state == _UNKNOWN:
                    if result.set_p2c(path[j + 1], path[j], Step.S6_FOLD):
                        states[j] = _UP
                        changed = True
                if state in (_UP, _PEERLINK):
                    seen_ascent = True
        if not changed:
            return


# ---------------------------------------------------------------------------
# cones
# ---------------------------------------------------------------------------


def reference_recursive_cones(result: InferenceResult) -> Dict[int, Set[int]]:
    """Transitive closure over the inferred p2c DAG, memoized bottom-up."""
    customers = result.customers
    asns = result.paths.asns()
    cones: Dict[int, Set[int]] = {}
    # iterative post-order over the DAG
    WHITE, GRAY, BLACK = 0, 1, 2
    color: Dict[int, int] = {}
    for root in asns:
        if color.get(root, WHITE) is not WHITE:
            continue
        stack: List[Tuple[int, bool]] = [(root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                cone = {node}
                for child in customers.get(node, ()):
                    cone |= cones[child]
                cones[node] = cone
                color[node] = BLACK
                continue
            if color.get(node, WHITE) is not WHITE:
                continue
            color[node] = GRAY
            stack.append((node, True))
            for child in customers.get(node, ()):
                if color.get(child, WHITE) is WHITE:
                    stack.append((child, False))
    for asn in asns:
        cones.setdefault(asn, {asn})
    return cones


def _descending_runs(
    result: InferenceResult, path: Tuple[int, ...]
) -> List[int]:
    """For each link index j, 1 if the link is inferred p2c descending
    toward the origin (left endpoint is the provider), else 0."""
    flags: List[int] = []
    for j in range(len(path) - 1):
        provider = result.provider_of(path[j], path[j + 1])
        flags.append(1 if provider == path[j] else 0)
    return flags


def reference_bgp_observed_cones(
    result: InferenceResult,
) -> Dict[int, Set[int]]:
    cones: Dict[int, Set[int]] = {asn: {asn} for asn in result.paths.asns()}
    for path in result.paths:
        descending = _descending_runs(result, path)
        # for each start, extend while links keep descending
        for i in range(len(path) - 1):
            j = i
            while j < len(descending) and descending[j]:
                cones[path[i]].add(path[j + 1])
                j += 1
    return cones


def reference_ppdc_cones(result: InferenceResult) -> Dict[int, Set[int]]:
    cones: Dict[int, Set[int]] = {asn: {asn} for asn in result.paths.asns()}
    for path in result.paths:
        for i in range(1, len(path) - 1):
            upstream, here = path[i - 1], path[i]
            rel = result.relationship(upstream, here)
            if rel is Relationship.P2P or (
                rel is Relationship.P2C
                and result.provider_of(upstream, here) == upstream
            ):
                # the route entered `here` from above: the whole suffix
                # is an observed customer chain
                cones[here].update(path[i + 1:])
    return cones


REFERENCE_CONES: Dict[
    ConeDefinition, Callable[[InferenceResult], Dict[int, Set[int]]]
] = {
    ConeDefinition.RECURSIVE: reference_recursive_cones,
    ConeDefinition.BGP_OBSERVED: reference_bgp_observed_cones,
    ConeDefinition.PROVIDER_PEER_OBSERVED: reference_ppdc_cones,
}


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------


def summarize_address_space(prefixes: Iterable[Prefix]) -> int:
    """Count distinct IPv4 addresses covered by ``prefixes``.

    Overlapping and duplicate announcements are merged first so each
    address counts once — the unit the paper uses when sizing cones by
    address space.  Prefixes of other families add nothing.  The
    oracle of production's :func:`~repro.core.rank.cone_prefix_sizes`.
    """
    spans: List[Tuple[int, int]] = sorted(
        (p.network, p.broadcast) for p in set(prefixes)
        if isinstance(p, Prefix)
    )
    total = 0
    current_start = current_end = -1
    for start, end in spans:
        if start > current_end + 1 or current_end < 0:
            if current_end >= 0:
                total += current_end - current_start + 1
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end >= 0:
        total += current_end - current_start + 1
    return total


def reference_rank_ases(
    result: InferenceResult,
    cones: Dict[int, Set[int]],
    prefixes_by_asn: Optional[Mapping[int, Sequence[object]]] = None,
    limit: Optional[int] = None,
) -> List[ASRankEntry]:
    """Rank every observed AS by cone size (desc), transit degree, ASN,
    one AS at a time over plain ASN-set ``cones`` (an AS missing from
    them is its own cone): each cone's members' prefixes gathered into
    a set and its addresses summed by :func:`summarize_address_space`."""
    paths = result.paths

    def cone(asn: int) -> Set[int]:
        return cones.get(asn, {asn})

    order = sorted(
        paths.asns(),
        key=lambda asn: (-len(cone(asn)), -paths.transit_degree(asn), asn),
    )
    if limit is not None:
        order = order[:limit]
    entries: List[ASRankEntry] = []
    for position, asn in enumerate(order, start=1):
        n_prefixes = n_addresses = None
        if prefixes_by_asn is not None:
            prefixes = [
                prefix
                for member in cone(asn)
                for prefix in prefixes_by_asn.get(member, ())
            ]
            n_prefixes = len(set(prefixes))
            n_addresses = summarize_address_space(prefixes)
        entries.append(
            ASRankEntry(
                rank=position,
                asn=asn,
                cone_ases=len(cone(asn)),
                cone_prefixes=n_prefixes,
                cone_addresses=n_addresses,
                transit_degree=paths.transit_degree(asn),
                node_degree=paths.node_degree(asn),
                num_customers=len(result.customers_of_asn(asn)),
                num_peers=len(result.peers_of_asn(asn)),
                num_providers=len(result.providers_of_asn(asn)),
            )
        )
    return entries


# ---------------------------------------------------------------------------
# path prediction
# ---------------------------------------------------------------------------


def graph_from_inference(inference) -> ASGraph:
    """Materialize an :class:`ASGraph` from inferred relationships.

    ``inference`` is anything with ``links()`` / ``relationship()`` /
    ``provider_of()``.  Inferred p2c edges that would close a provider
    cycle (possible for baseline algorithms, which lack a cycle guard)
    are demoted to p2p rather than dropped, so the predicted topology
    keeps every adjacency.
    """
    graph = ASGraph()
    asns: Set[int] = set()
    for a, b in inference.links():
        asns.add(a)
        asns.add(b)
    for asn in sorted(asns):
        graph.add_as(AS(asn=asn, type=ASType.SMALL_TRANSIT))
    for a, b in sorted(inference.links()):
        rel = inference.relationship(a, b)
        if rel is Relationship.P2C:
            provider = inference.provider_of(a, b)
            customer = b if provider == a else a
            try:
                graph.add_p2c(provider, customer)
            except TopologyError:
                graph.add_p2p(a, b)  # cycle: keep the adjacency as peering
        elif rel is Relationship.S2S:
            graph.add_s2s(a, b)
        else:
            graph.add_p2p(a, b)
    return graph


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------


class ListRows(NamedTuple):
    """An index's three adjacencies as per-id lists of Python ints."""

    providers: List[List[int]]
    customers: List[List[int]]
    peers: List[List[int]]


def list_rows(index: GraphIndex) -> ListRows:
    """Convert ``index``'s CSR views for the sweeps (one pass each).

    A caller sweeping many origins over one index converts once and
    passes the result to every :func:`propagate_origin` call.
    """
    csr = index.csr()
    return ListRows(
        CsrRows(csr.providers).tolist(),
        CsrRows(csr.customers).tolist(),
        CsrRows(csr.peers).tolist(),
    )


def propagate_origin(
    index: GraphIndex,
    origin_asn: int,
    leakers: Optional[Set[int]] = None,
    rows: Optional[ListRows] = None,
) -> RouteState:
    """Compute every AS's selected route toward ``origin_asn``.

    ``leakers`` (ASNs) violate export policy: they re-announce their
    selected route to their providers even when it was learned from a
    peer or provider — the classic *route leak*.  Because leaked routes
    arrive at the provider looking like customer routes, they are
    highly preferred and can hijack selection far beyond the leaker;
    the resulting observed paths contain valleys, which is exactly the
    artifact the inference pipeline must survive.

    ``rows`` is :func:`list_rows` of ``index``, converted here when
    absent.
    """
    n = len(index)
    origin = index.index[origin_asn]
    cls = [NO_ROUTE] * n
    nexthop = [-1] * n
    pathlen = [0] * n
    rows = rows or list_rows(index)

    _sweep_up(index, rows.providers, origin, cls, nexthop, pathlen)
    _sweep_peers(index, rows.peers, cls, nexthop, pathlen)
    _sweep_down(index, rows.customers, cls, nexthop, pathlen)
    if leakers:
        leak_indexes = {
            index.index[asn] for asn in leakers if asn in index.index
        }
        _leak_pass(index, leak_indexes, cls, nexthop, pathlen)
    return RouteState(origin=origin, cls=cls, nexthop=nexthop, pathlen=pathlen)


def _sweep_up(
    index: GraphIndex,
    providers: List[List[int]],
    origin: int,
    cls: List[int],
    nexthop: List[int],
    pathlen: List[int],
) -> None:
    """Phase 1: customer routes climb provider edges, BFS by level.

    At each level every newly reached provider picks, among its
    customers reached at the previous level, the one with the lowest
    ASN — the deterministic tie-break.
    """
    cls[origin] = CLS_ORIGIN
    frontier = [origin]
    depth = 0
    while frontier:
        depth += 1
        candidates: Dict[int, int] = {}  # provider index -> best customer index
        for node in frontier:
            node_asn = index.asns[node]
            for provider in providers[node]:
                if cls[provider] != NO_ROUTE:
                    continue
                best = candidates.get(provider)
                if best is None or node_asn < index.asns[best]:
                    candidates[provider] = node
        next_frontier: List[int] = []
        for provider, via in candidates.items():
            cls[provider] = CLS_CUSTOMER
            nexthop[provider] = via
            pathlen[provider] = depth
            next_frontier.append(provider)
        frontier = next_frontier


def _sweep_peers(
    index: GraphIndex,
    peers: List[List[int]],
    cls: List[int],
    nexthop: List[int],
    pathlen: List[int],
) -> None:
    """Phase 2: one peering hop off every AS holding a customer route.

    Peer-learned routes are not re-exported to peers or providers, so a
    single relaxation suffices.  An AS prefers the peer route with the
    shortest path, then the lowest peer ASN.
    """
    n = len(index)
    best: Dict[int, Tuple[int, int]] = {}  # node -> (pathlen, peer index)
    for node in range(n):
        if cls[node] not in (CLS_ORIGIN, CLS_CUSTOMER):
            continue
        offer = (pathlen[node] + 1, node)
        for peer in peers[node]:
            if cls[peer] in (CLS_ORIGIN, CLS_CUSTOMER):
                continue  # peer prefers its customer route
            current = best.get(peer)
            if current is None or _offer_beats(index, offer, current):
                best[peer] = offer
    for node, (length, via) in best.items():
        cls[node] = CLS_PEER
        nexthop[node] = via
        pathlen[node] = length


def _offer_beats(
    index: GraphIndex, offer: Tuple[int, int], current: Tuple[int, int]
) -> bool:
    if offer[0] != current[0]:
        return offer[0] < current[0]
    return index.asns[offer[1]] < index.asns[current[1]]


def _sweep_down(
    index: GraphIndex,
    customers: List[List[int]],
    cls: List[int],
    nexthop: List[int],
    pathlen: List[int],
) -> None:
    """Phase 3: selected routes descend customer edges.

    Every AS holding a route (customer, peer, or — recursively —
    provider class) exports it to its customers; a customer adopts a
    provider route only when it has nothing better.  Routes descend in
    order of path length (a bucket queue), so each AS settles on its
    shortest provider route, ties broken by lowest provider ASN.
    """
    n = len(index)
    buckets: List[List[int]] = []

    def put(length: int, node: int) -> None:
        while len(buckets) <= length:
            buckets.append([])
        buckets[length].append(node)

    for node in range(n):
        if cls[node] != NO_ROUTE:
            put(pathlen[node], node)

    depth = 0
    while depth < len(buckets):
        candidates: Dict[int, int] = {}  # customer -> best provider index
        for node in buckets[depth]:
            if pathlen[node] != depth:
                continue  # stale entry
            node_asn = index.asns[node]
            for customer in customers[node]:
                if cls[customer] != NO_ROUTE:
                    continue
                best = candidates.get(customer)
                if best is None or node_asn < index.asns[best]:
                    candidates[customer] = node
        for customer, via in candidates.items():
            cls[customer] = CLS_PROVIDER
            nexthop[customer] = via
            pathlen[customer] = depth + 1
            put(depth + 1, customer)
        depth += 1


# ---------------------------------------------------------------------------
# collection
# ---------------------------------------------------------------------------


class PathNoiser:
    """Applies IXP insertion, prepending, poisoning and loop artifacts
    to one path at a time (the oracle of
    :class:`~repro.bgp.noise.ColumnNoiser`).

    Prepend behaviour is a deterministic function of the (AS, next-hop)
    pair, mirroring per-session prepend policy; the per-path artifacts
    (poison/loop/reserved) are drawn from the noiser's RNG.
    """

    def __init__(
        self,
        graph: Optional[ASGraph],
        config: NoiseConfig,
        rng_seed: Optional[int] = None,
        clique: Optional[Sequence[int]] = None,
        via_ixp: Optional[Dict[Tuple[int, int], int]] = None,
    ):
        """``rng_seed`` overrides the seed of the per-path artifact RNG
        only (collection derives one per origin); the per-adjacency
        prepend policy always hashes ``config.seed``.  ``clique`` and
        ``via_ixp`` default to the graph's, which may then be ``None``.
        """
        self._config = config
        self._rng = random.Random(
            config.seed if rng_seed is None else rng_seed
        )
        if via_ixp is None:
            via_ixp = getattr(graph, "via_ixp", {}) if graph is not None else {}
        self._via_ixp = via_ixp if config.ixp_insertion else {}
        if clique is None:
            clique = graph.clique_asns() if graph is not None else []
        self._clique = clique

    def apply(self, path: Tuple[int, ...]) -> Tuple[int, ...]:
        """Return the observed form of a true AS path."""
        if not path:
            return ()
        cfg = self._config
        observed: List[int] = [path[0]]
        for prev, asn in zip(path, path[1:]):
            rs = self._via_ixp.get(canonical_pair(prev, asn))
            if rs is not None:
                observed.append(rs)
            observed.append(asn)
            if cfg.prepend_prob > 0:
                # prepends show up after the first occurrence in
                # collector order
                observed.extend([asn] * prepend_count(cfg, asn, prev))

        if cfg.poison_prob > 0 and len(observed) >= 3 and self._clique:
            if self._rng.random() < cfg.poison_prob:
                spot = self._rng.randrange(1, len(observed) - 1)
                poison = self._rng.choice(self._clique)
                if poison not in observed:
                    observed.insert(spot, poison)
        if cfg.loop_prob > 0 and len(observed) >= 3:
            if self._rng.random() < cfg.loop_prob:
                # origin ASN re-appears earlier in the path (loop artifact)
                observed.insert(self._rng.randrange(1, len(observed) - 1),
                                observed[-1])
        if cfg.reserved_asn_prob > 0 and len(observed) >= 2:
            if self._rng.random() < cfg.reserved_asn_prob:
                observed.insert(self._rng.randrange(1, len(observed)),
                                RESERVED_ASN)
        return tuple(observed)


class ReferenceCollectionKernel(CollectionKernel):
    """A collection kernel that materializes one origin and one path at
    a time: each origin's route state comes from :meth:`states`
    (:func:`propagate_origin` over list rows converted once per
    kernel), each VP's path from :meth:`RouteState.path_from`, its
    noise from :class:`PathNoiser` and its communities from a walk of
    the chain."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.rows = list_rows(self.index)

    def states(self, origin_list: Sequence[int]) -> Iterable[RouteState]:
        """One full route table per origin, in order."""
        for asn in origin_list:
            yield propagate_origin(
                self.index, asn,
                leakers=self._leakers_for_origin(asn), rows=self.rows,
            )

    def collect_block(
        self,
        origin_list: Sequence[int],
        by_origin: Dict[int, List[Prefix]],
    ) -> Collected:
        paths: List[Tuple[int, ...]] = []
        rib: List[RibEntry] = []
        per_origin: List[int] = []
        rib_per_origin: List[int] = []
        for asn, state in zip(origin_list, self.states(origin_list)):
            observed, rows = self.collect_origin(
                asn, state, by_origin[asn]
            )
            paths.extend(observed)
            rib.extend(rows)
            per_origin.append(len(observed))
            rib_per_origin.append(len(rows))
        off = np.zeros(len(paths) + 1, dtype=np.int64)
        np.cumsum(np.fromiter(map(len, paths), np.int64, len(paths)),
                  out=off[1:])
        return Collected(
            np.array([asn for path in paths for asn in path], dtype=np.int64),
            off,
            np.array(per_origin, dtype=np.int64),
            rib,
            np.array(rib_per_origin, dtype=np.int64),
        )

    def collect_origin(
        self,
        origin_asn: int,
        state: RouteState,
        prefixes: List[Prefix],
    ) -> Tuple[List[Tuple[int, ...]], List[RibEntry]]:
        """Materialize what every VP exports of one origin's routes."""
        cfg = self.config.noise
        noiser = PathNoiser(
            None, cfg, rng_seed=(cfg.seed << 20) ^ origin_asn,
            clique=self.clique, via_ixp=self.via_ixp,
        )
        observed = [
            (vp_asn, vp_idx, noiser.apply(path))
            for vp_asn, vp_idx, path in self._exported_paths(state)
        ]
        rib_rows: List[RibEntry] = []
        if self.config.build_rib:
            rib_rows = self._rib_rows(state, observed, prefixes)
        return [path for _, _, path in observed], rib_rows

    def _exported_paths(
        self, state: RouteState
    ) -> List[Tuple[int, int, Tuple[int, ...]]]:
        """``(vp_asn, vp_index, true_path)`` per VP exporting this route."""
        out: List[Tuple[int, int, Tuple[int, ...]]] = []
        index_of = self.index.index
        cls = state.cls
        for vp in self.vps:
            vp_idx = index_of.get(vp.asn)
            if vp_idx is None:
                continue
            route_cls = cls[vp_idx]
            if route_cls == NO_ROUTE:
                continue  # no route at this VP
            if not vp.full_feed and route_cls not in (
                CLS_ORIGIN, CLS_CUSTOMER
            ):
                continue  # partial feeds export only customer/originated
            true_path = state.path_from(self.index, vp_idx)
            assert true_path is not None
            out.append((vp.asn, vp_idx, true_path))
        return out

    def _rib_rows(
        self,
        state: RouteState,
        observed: List[Tuple[int, int, Tuple[int, ...]]],
        prefixes: List[Prefix],
    ) -> List[RibEntry]:
        """Per-prefix RIB entries for every exported (noised) path."""
        rib_rows: List[RibEntry] = []
        for vp_asn, vp_idx, path in observed:
            communities = self._communities_for(state, vp_idx)
            for prefix in prefixes:
                rib_rows.append(
                    RibEntry(
                        vp=vp_asn,
                        prefix=prefix,
                        path=path,
                        communities=communities,
                    )
                )
        return rib_rows

    def _communities_for(
        self, state: RouteState, vp_idx: int
    ) -> Tuple[Tuple[int, int], ...]:
        """Relationship communities accumulated along the selected path:
        each tagging AS marks the class of the session the route entered
        on, unless it entered over a sibling session."""
        tags: List[Tuple[int, int]] = []
        node = vp_idx
        origin = state.origin
        cls = state.cls
        nexthop = state.nexthop
        asns = self.index.asns
        while node != -1 and node != origin:
            nh = nexthop[node]
            if node in self.tagger_nodes:
                code = _REFERENCE_CLS_CODE.get(cls[node])
                if code is not None and (
                    nh == -1 or nh not in self.sibling_nodes.get(node, ())
                ):
                    tags.append((asns[node], code))
            node = nh
        return tuple(tags)


class ReferenceCollector(Collector):
    """Serial collection through the per-origin reference sweeps.

    Chooses vantage points, taggers and leakers exactly like
    :class:`~repro.bgp.collector.Collector` over the same graph and
    config, so its corpus must equal the production one bit for bit.
    """

    def __init__(
        self,
        graph: ASGraph,
        config: Optional[CollectorConfig] = None,
        preset_vps: Optional[Sequence[VantagePoint]] = None,
        plane: str = "v4",
    ):
        config = replace(config or CollectorConfig(), workers=0)
        super().__init__(graph, config, preset_vps, plane)
        kernel = self.kernel
        self.kernel = ReferenceCollectionKernel(
            config=kernel.config,
            index=kernel.index,
            vps=kernel.vps,
            tagger_nodes=kernel.tagger_nodes,
            sibling_nodes=kernel.sibling_nodes,
            leakers=kernel.leakers,
            clique=kernel.clique,
            via_ixp=kernel.via_ixp,
        )
