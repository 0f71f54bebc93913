"""ASRank relationship inference (the paper's core algorithm).

Given a sanitized AS-path corpus, label every observed AS link as
customer-to-provider (c2p) or peer-to-peer (p2p) under the paper's
three assumptions: (1) a clique of large transit providers sits at the
top of the hierarchy, (2) ASes buy transit to be globally reachable,
and (3) provider links form no cycles.

The pipeline runs ordered, individually attributable steps (the exact
step wording of the paper is reconstructed — see DESIGN.md — but each
heuristic here is the published system's known mechanism):

* **S3_CLIQUE** — adjacent clique members are peers.
* **S4_POISONED** — discard paths that traverse the clique other than
  as one contiguous run of ≤ 2 members (valley or poisoning artifact).
* **S5_TOPDOWN** — for each path, locate the highest-ranked AS (the
  "peak"); every link not adjacent to the peak descends away from it,
  so its upper endpoint is the provider.  The two peak-adjacent links
  are left open (either may be the path's single p2p crossing).
  Paths are processed in order of peak rank, so inferences made by the
  largest networks take precedence.
* **S6_FOLD** — valley-free constraint propagation to fixpoint: in any
  path, once a link descends (or peers), every later link descends;
  while a link ascends (or peers), every earlier link ascends.
* **S7_STUB** — an AS that never appears to transit (transit degree 0)
  is the customer on its unclassified links.
* **S8_PROVIDERLESS** — a non-clique AS with no inferred provider gets
  one: the highest-ranked neighbor on an unclassified link
  (reachability assumption).
* **S9_REMAINING_P2P** — everything still unclassified is p2p.

Provider cycles are refused at every step, and every conflicting vote
is recorded for diagnostics rather than silently dropped.
"""

from __future__ import annotations

import enum
import heapq
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

import numpy as _np

from repro import perf
from repro.core.clique import CliqueResult, infer_clique, member_ids
from repro.core.paths import PathSet, sort_unique
from repro.graph.bitset import ClosureBitsets
from repro.graph.index import DenseIndex
from repro.relationships import Relationship, canonical_pair

#: link state of a corpus link no step has labeled yet; the other states
#: are -1 (peer), -2 (sibling) and the provider's ASN (never negative)
LINK_UNKNOWN = -3


class Step(enum.Enum):
    """Attribution tag: which pipeline stage labeled a link."""

    S2B_SIBLING = "sibling"
    S3_CLIQUE = "clique"
    S4B_PARTIAL_VP = "partial VP"
    S5_TOPDOWN = "top-down"
    S6_FOLD = "valley-free fold"
    S7_STUB = "stub"
    S7B_GAP = "degree gap"
    S8_PROVIDERLESS = "provider-less"
    S9_REMAINING_P2P = "remaining p2p"


@dataclass
class InferenceConfig:
    """Pipeline knobs; the disables exist for the E12 ablations."""

    clique_seed_size: int = 10
    clique_stop_after: int = 10
    # canonical AS pairs known to be under one organization (from WHOIS
    # org data, see repro.topology.orgs); labeled s2s before any other
    # inference, as CAIDA's sibling handling does
    known_siblings: FrozenSet[Tuple[int, int]] = frozenset()
    enable_clique: bool = True
    enable_poisoned_filter: bool = True
    enable_partial_vp: bool = True
    # a VP whose paths reach fewer than this fraction of all observed
    # origins is inferred to export only customer routes
    partial_vp_coverage: float = 0.5
    enable_topdown: bool = True
    enable_fold: bool = True
    enable_stub: bool = True
    enable_degree_gap: bool = True
    enable_providerless: bool = True
    max_fold_rounds: int = 10
    # S7B: a network this many times larger (by transit degree) than its
    # neighbor is its provider, not its peer — settlement-free peering
    # presumes comparable size.  Applied only when the smaller side is
    # itself small in absolute terms.
    gap_factor: float = 8.0
    gap_small_max: int = 12


@dataclass(frozen=True)
class InferredRelationship:
    """One labeled link.  For P2C, ``provider``/``customer`` are set."""

    a: int
    b: int
    relationship: Relationship
    step: Step
    provider: Optional[int] = None

    @property
    def customer(self) -> Optional[int]:
        if self.provider is None:
            return None
        return self.b if self.provider == self.a else self.a


@dataclass
class Conflict:
    """A vote that contradicted an existing inference (kept for audit)."""

    pair: Tuple[int, int]
    existing: Relationship
    existing_provider: Optional[int]
    attempted_provider: Optional[int]
    step: Step


class InferenceResult:
    """All inferred relationships plus provenance and diagnostics.

    Building one indexes ``paths``: ``index`` is its sorted AS set, the
    one id space of every vote, bitset and cone over this result.
    """

    def __init__(
        self,
        paths: PathSet,
        clique: CliqueResult,
        config: InferenceConfig,
    ):
        self.paths = paths
        self.clique = clique
        self.config = config
        self._clique_set = set(clique.members)
        self._rel: Dict[Tuple[int, int], Relationship] = {}
        self._provider: Dict[Tuple[int, int], int] = {}
        self._step: Dict[Tuple[int, int], Step] = {}
        self.conflicts: List[Conflict] = []
        self.discarded_poisoned = 0
        # provider -> customers adjacency for cycle checks / cones
        self.customers: Dict[int, Set[int]] = {}
        self.providers: Dict[int, Set[int]] = {}
        self.peers: Dict[int, Set[int]] = {}
        self.siblings: Dict[int, Set[int]] = {}
        # --- corpus index ------------------------------------------------
        # Everything is flat: no container is built per path or per link.
        # The shared dense ASN index (repro.graph) is the sorted corpus AS
        # set; the cycle bitsets, the fold link-state array and the cone
        # bitsets all use it, and every vote is on a corpus link
        flat, plen, off = paths.numpy_view()
        asns, pid_flat = paths.asn_index
        self.index = DenseIndex.from_sorted(asns.tolist())
        # incremental transitive closure of the p2c DAG (cycle refusal)
        self._closure = ClosureBitsets(len(self.index))
        # corpus link index: canonical (a<<32|b) key -> link id, link
        # state per id (LINK_UNKNOWN, -1 peer, -2 sibling, else the
        # provider's ASN, which is never negative)
        links = paths.link_index
        n_links = len(links.keys)
        self._key_lid = dict(zip(links.keys.tolist(), range(n_links)))
        self._lstate = [LINK_UNKNOWN] * n_links
        # path p's nodes are positions _path_off[p] .. _path_off[p + 1] - 1
        # of _node_asn (ASNs) and _node_pid (dense ids), and its hops
        # positions _path_off[p] - p onwards of _hop_lid (link ids).  The
        # scalar loops index memoryviews of the per-hop and per-node
        # columns, so no int object per hop or node stays resident; the
        # two offset columns stay lists, which S5 and S6 read faster
        # (docs/PERFORMANCE.md)
        self._path_off = off.tolist()
        self._hop_lid = memoryview(links.link_of_hop)
        self._node_asn = memoryview(flat)
        self._node_pid = pid_flat
        # link -> paths, CSR: the paths carrying link l are
        # _lpath_pid[_lpath_off[l]:_lpath_off[l + 1]]
        path_of_hop = _np.repeat(
            _np.arange(len(plen), dtype=_np.int64), plen - 1
        )
        self._lpath_pid = path_of_hop[links.by_link]
        lpath_off = _np.zeros(n_links + 1, dtype=_np.int64)
        _np.cumsum(
            _np.bincount(links.link_of_hop, minlength=n_links),
            out=lpath_off[1:],
        )
        self._lpath_off = lpath_off.tolist()
        # numpy (lid, left ASN, right ASN, path) per hop; hop h joins
        # node positions h + path[h] and h + path[h] + 1
        self._hop_cols = (
            links.link_of_hop,
            flat[:-1][links.starts],
            flat[1:][links.starts],
            path_of_hop,
        )
        # fold bookkeeping: links whose state changed (append-only log),
        # the consumed prefix, paths awaiting a fold pass, and per path
        # whether its last scan was refused a vote (None before the
        # first fold call)
        self._dirty_lids: List[int] = []
        self._fold_cursor = 0
        self._fold_pending: Set[int] = set()
        self._fold_stuck = None

    # ------------------------------------------------------------------
    # corpus index
    # ------------------------------------------------------------------

    def _mark_link(self, a: int, b: int, state: int) -> None:
        """Record a link's new fold state and flag it dirty."""
        lid = self._key_lid[(a << 32) | b if a <= b else (b << 32) | a]
        self._lstate[lid] = state
        self._dirty_lids.append(lid)

    def _note_p2c(self, provider: int, customer: int) -> None:
        """Maintain the transitive-closure bitsets on an accepted edge."""
        ids = self.index.ids
        self._closure.add_edge(ids[provider], ids[customer])

    # ------------------------------------------------------------------
    # mutation (used by the engine)
    # ------------------------------------------------------------------

    def _would_cycle(self, provider: int, customer: int) -> bool:
        """Would ``provider→customer`` close a loop in the p2c DAG?"""
        if provider == customer:
            return True
        ids = self.index.ids
        return self._closure.descends(ids[customer], ids[provider])

    def set_p2c(self, provider: int, customer: int, step: Step) -> bool:
        """Record ``provider→customer``; False if refused or conflicting.

        Clique members are transit-free by assumption: any vote that
        would give one a provider is refused (and logged)."""
        pair = canonical_pair(provider, customer)
        if customer in self._clique_set:
            self.conflicts.append(
                Conflict(
                    pair=pair,
                    existing=Relationship.P2P,
                    existing_provider=None,
                    attempted_provider=provider,
                    step=step,
                )
            )
            return False
        existing = self._rel.get(pair)
        if existing is not None:
            if (
                existing is Relationship.P2C
                and self._provider[pair] == provider
            ):
                return True  # agreeing vote
            self.conflicts.append(
                Conflict(
                    pair=pair,
                    existing=existing,
                    existing_provider=self._provider.get(pair),
                    attempted_provider=provider,
                    step=step,
                )
            )
            return False
        if self._would_cycle(provider, customer):
            self.conflicts.append(
                Conflict(
                    pair=pair,
                    existing=Relationship.P2C,
                    existing_provider=None,
                    attempted_provider=provider,
                    step=step,
                )
            )
            return False
        self._rel[pair] = Relationship.P2C
        self._provider[pair] = provider
        self._step[pair] = step
        self.customers.setdefault(provider, set()).add(customer)
        self.providers.setdefault(customer, set()).add(provider)
        self._note_p2c(provider, customer)
        self._mark_link(provider, customer, provider)
        return True

    def set_p2p(self, a: int, b: int, step: Step) -> bool:
        """Record a peer link; False if the pair is already labeled c2p."""
        pair = canonical_pair(a, b)
        existing = self._rel.get(pair)
        if existing is not None:
            if existing is Relationship.P2P:
                return True
            self.conflicts.append(
                Conflict(
                    pair=pair,
                    existing=existing,
                    existing_provider=self._provider.get(pair),
                    attempted_provider=None,
                    step=step,
                )
            )
            return False
        self._rel[pair] = Relationship.P2P
        self._step[pair] = step
        self.peers.setdefault(a, set()).add(b)
        self.peers.setdefault(b, set()).add(a)
        self._mark_link(a, b, -1)
        return True

    def set_s2s(self, a: int, b: int, step: Step) -> bool:
        """Record a sibling link (always applied first, so never conflicts
        unless the caller mixes orders)."""
        pair = canonical_pair(a, b)
        existing = self._rel.get(pair)
        if existing is not None:
            return existing is Relationship.S2S
        self._rel[pair] = Relationship.S2S
        self._step[pair] = step
        self.siblings.setdefault(a, set()).add(b)
        self.siblings.setdefault(b, set()).add(a)
        self._mark_link(a, b, -2)
        return True

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def relationship(self, a: int, b: int) -> Optional[Relationship]:
        return self._rel.get(canonical_pair(a, b))

    def links(self) -> List[Tuple[int, int]]:
        """All labeled links as canonical pairs."""
        return list(self._rel)

    def provider_of(self, a: int, b: int) -> Optional[int]:
        pair = canonical_pair(a, b)
        if self._rel.get(pair) is not Relationship.P2C:
            return None
        return self._provider[pair]

    def step_of(self, a: int, b: int) -> Optional[Step]:
        return self._step.get(canonical_pair(a, b))

    def __len__(self) -> int:
        return len(self._rel)

    def __iter__(self) -> Iterator[InferredRelationship]:
        for pair, rel in self._rel.items():
            provider = self._provider.get(pair)
            yield InferredRelationship(
                a=pair[0],
                b=pair[1],
                relationship=rel,
                step=self._step[pair],
                provider=provider,
            )

    def counts_by_relationship(self) -> Dict[Relationship, int]:
        counts: Dict[Relationship, int] = {}
        for rel in self._rel.values():
            counts[rel] = counts.get(rel, 0) + 1
        return counts

    def counts_by_step(self) -> Dict[Step, int]:
        counts: Dict[Step, int] = {}
        for step in self._step.values():
            counts[step] = counts.get(step, 0) + 1
        return counts

    def complex_candidates(self) -> Dict[Tuple[int, int], int]:
        """Links with contradicting votes: candidates for *complex*
        relationships (hybrid/partial transit), which the paper flags
        as future work.  Returns pair → number of conflicting votes."""
        counts: Dict[Tuple[int, int], int] = {}
        for conflict in self.conflicts:
            counts[conflict.pair] = counts.get(conflict.pair, 0) + 1
        return counts

    def link_states(self):
        """The labeled corpus links as numpy columns ``(lo, hi,
        state)``, ascending: the endpoints' dense ids (``lo < hi``) and
        the link state (-1 peer, -2 sibling, else the provider's ASN)."""
        links = self.paths.link_index
        state = _np.array(self._lstate, dtype=_np.int64)
        labeled = state != LINK_UNKNOWN
        return links.lo[labeled], links.hi[labeled], state[labeled]

    def providers_of_asn(self, asn: int) -> Set[int]:
        return set(self.providers.get(asn, ()))

    def customers_of_asn(self, asn: int) -> Set[int]:
        return set(self.customers.get(asn, ()))

    def peers_of_asn(self, asn: int) -> Set[int]:
        return set(self.peers.get(asn, ()))


class _Engine:
    """Runs the pipeline; kept separate so the result object stays lean.

    The result type and the partial-VP/top-down/fold steps are
    overridable methods so that the reference oracle in
    :mod:`repro.qa.oracles` can run the same step order with the seed's
    step bodies.
    """

    result_type = InferenceResult

    def __init__(self, paths: PathSet, config: InferenceConfig):
        self.config = config
        self.raw_paths = paths

    def _clique(self, paths: PathSet, config: InferenceConfig) -> CliqueResult:
        return infer_clique(
            paths,
            seed_size=config.clique_seed_size,
            stop_after=config.clique_stop_after,
        )

    def _partial_vp(
        self, result: InferenceResult, paths: PathSet, config: InferenceConfig
    ) -> None:
        _step_partial_vp(result, paths, config)

    def _topdown(
        self, result: InferenceResult, paths: PathSet, rank: Dict[int, int]
    ) -> None:
        _step_topdown(result, paths, rank)

    def _fold(self, result: InferenceResult, paths: PathSet) -> None:
        _step_fold_fast(result)

    def run(self) -> InferenceResult:
        config = self.config
        with perf.stage("clique"):
            clique = (
                self._clique(self.raw_paths, config)
                if config.enable_clique
                else CliqueResult(members=[], seed_members=[], added_members=[])
            )
            perf.counter("considered", clique.considered)

        paths = self.raw_paths
        discarded = 0
        if config.enable_poisoned_filter and clique.members:
            with perf.stage("filter-poisoned"):
                paths, discarded = _discard_poisoned(paths, clique.members)
                perf.counter("discarded", discarded)

        with perf.stage("index"):
            result = self.result_type(
                paths=paths, clique=clique, config=config
            )
        result.discarded_poisoned = discarded

        with perf.stage("rank"):
            # position in transit-degree order, not a graph id space
            ranked = paths.ranked_asns()
            rank = dict(zip(ranked, range(len(ranked))))
        perf.counter("paths", len(paths))

        if config.known_siblings:
            with perf.stage("siblings"):
                _step_siblings(result, paths, config)
        if config.enable_clique:
            with perf.stage("clique-peers"):
                _step_clique(result, paths, clique)
        if config.enable_partial_vp:
            with perf.stage("partial-vp"):
                self._partial_vp(result, paths, config)
        if config.enable_topdown:
            with perf.stage("topdown"):
                self._topdown(result, paths, rank)
        if config.enable_fold:
            with perf.stage("fold"):
                self._fold(result, paths)
        if config.enable_stub:
            with perf.stage("stub"):
                _step_stub(result, paths)
            if config.enable_fold:
                with perf.stage("fold"):
                    self._fold(result, paths)
        if config.enable_degree_gap:
            with perf.stage("degree-gap"):
                _step_degree_gap(result, paths, config)
            if config.enable_fold:
                with perf.stage("fold"):
                    self._fold(result, paths)
        if config.enable_providerless:
            with perf.stage("providerless"):
                _step_providerless(result, paths, rank)
            if config.enable_fold:
                with perf.stage("fold"):
                    self._fold(result, paths)
        with perf.stage("remaining-p2p"):
            _step_remaining_p2p(result, paths)
        perf.counter("links", len(result))
        return result


def infer_relationships(
    paths: PathSet, config: Optional[InferenceConfig] = None
) -> InferenceResult:
    """Run the full ASRank pipeline over a sanitized path corpus."""
    with perf.stage("infer"):
        return _Engine(paths, config or InferenceConfig()).run()


# ---------------------------------------------------------------------------
# pipeline steps
# ---------------------------------------------------------------------------


def _discard_poisoned(
    paths: PathSet, clique: Iterable[int]
) -> Tuple[PathSet, int]:
    """Drop paths that traverse the clique illegally (S4).

    A clean valley-free path crosses the top of the hierarchy at most
    once, so clique members must appear as one contiguous run of length
    ≤ 2.  Anything else is a poisoned announcement or a route leak.
    """
    asns, ids = paths.asn_index
    off = paths.off
    member = _np.zeros(len(asns), dtype=bool)
    member[member_ids(paths, clique)] = True
    member = member[ids]
    counts = _np.add.reduceat(member, off[:-1])
    bad = counts > 2
    twos = _np.flatnonzero(counts == 2)
    if len(twos):
        # the two clique hops must be adjacent; compare the flat
        # positions of each such path's first and second member hop
        member_idx = _np.flatnonzero(member)
        member_path = _np.searchsorted(off[1:], member_idx,
                                       side="right")
        starts = _np.searchsorted(member_path, twos)
        gap = member_idx[starts + 1] - member_idx[starts]
        bad[twos[gap != 1]] = True
    discarded = int(bad.sum())
    if not discarded:
        return paths, 0  # keep the original object (and its caches)
    return paths.filtered(~bad), discarded


def _step_siblings(
    result: InferenceResult, paths: PathSet, config: InferenceConfig
) -> None:
    """S2B: links between ASes of one organization are siblings.

    Applied before everything else, as CAIDA does with WHOIS org data —
    a sibling link must never be mistaken for transit or peering, and
    it carries no valley-free information (siblings exchange all
    routes in both directions)."""
    for a, b in sorted(paths.links()):
        if canonical_pair(a, b) in config.known_siblings:
            result.set_s2s(a, b, Step.S2B_SIBLING)


def _step_clique(
    result: InferenceResult, paths: PathSet, clique: CliqueResult
) -> None:
    """S3: adjacent clique members are peers."""
    members = clique.member_set
    for a, b in paths.links():
        if a in members and b in members:
            result.set_p2p(a, b, Step.S3_CLIQUE)


def _step_partial_vp(
    result: InferenceResult, paths: PathSet, config: InferenceConfig
) -> None:
    """S4B: paths from partial-feed VPs are pure customer chains.

    Some vantage points export only the routes they would send a peer:
    customer-learned and originated ones.  Such a VP is recognizable
    because its paths reach only a small fraction of all observed
    origins.  Every path it exports descends from the first hop, so
    every link on it is p2c with the left endpoint as provider.

    One pass over the first-hop and last-hop columns of the corpus
    index finds the partial VPs; the votes then walk only their paths,
    in corpus order.
    """
    ids, n = result._node_pid, len(result.index)
    vp, origin = ids[paths.off[:-1]], ids[paths.off[1:] - 1]
    # the distinct (vp, origin) pairs count each VP's origins
    pairs = sort_unique(vp * n + origin)
    reach = _np.bincount(pairs // max(n, 1), minlength=n)
    coverage = config.partial_vp_coverage * len(sort_unique(origin))
    nodes, path_off = result._node_asn, result._path_off
    set_p2c = result.set_p2c
    for p in _np.flatnonzero((reach < coverage)[vp]).tolist():
        for j in range(path_off[p], path_off[p + 1] - 1):
            if not set_p2c(nodes[j], nodes[j + 1], Step.S4B_PARTIAL_VP):
                break


def _peak_order(
    result: InferenceResult, paths: PathSet, rank: Dict[int, int]
):
    """S5's visiting order and each path's peak position, as int64
    arrays.

    The order sorts paths by (peak rank, path); the peak is a path's
    first hop of minimum rank.  The corpus is already in tuple order,
    so a stable sort on peak rank alone gives the visiting order.  An
    AS missing from ``rank`` ranks after every ranked one.
    """
    big = 1 << 30
    # each dense id's rank: the rank map's ASNs located in the sorted
    # index by one searchsorted (ASNs outside the corpus dropped)
    asns = paths.asn_index[0]
    ranked = _np.array(list(rank), dtype=_np.int64)
    at = _np.searchsorted(asns, ranked)
    inside = at < len(asns)
    inside[inside] = asns[at[inside]] == ranked[inside]
    rank_arr = _np.full(len(asns), big, dtype=_np.int64)
    rank_arr[at[inside]] = _np.array(
        list(rank.values()), dtype=_np.int64
    )[inside]
    # pack (rank, position) so a single segmented minimum yields both
    # the peak rank and its first index per path (first minimum wins,
    # like a left-to-right scan)
    flat, plen, off = paths.numpy_view()
    pos = _np.arange(len(flat), dtype=_np.int64)
    pos -= _np.repeat(off[:-1], plen)
    packed = (rank_arr[result._node_pid] << 20) | pos
    mins = _np.minimum.reduceat(packed, off[:-1])
    _, _, order = sort_unique(mins >> 20, return_inverse=True)
    return order, mins & ((1 << 20) - 1)


def _descent_chains(result: InferenceResult, paths: PathSet, order, peaks):
    """S5's descent hops as ``link * span + key`` (``span`` twice the
    path count), ascending, so a link's descents are one run in key
    order; and the first key of each run whose link is still unknown,
    ascending (a sorted list is a heap)."""
    lid, _, _, path = result._hop_cols
    span = 2 * len(order)
    key = _np.empty(len(order), dtype=_np.int64)
    key[order] = _np.arange(0, span, 2, dtype=_np.int64)
    # each hop's place after its path's peak: the hops at -1 and 0
    # touch the peak and are on no descent, those below -1 are on the
    # left walk
    at = _np.arange(len(path), dtype=_np.int64)
    at += path
    at -= paths.off[path]
    at -= peaks[path]
    left = at < -1
    code = lid * span
    code += key[path]
    code += left
    chain = _np.sort(code[left | (at > 0)])
    link = chain // span
    head = _np.ones(len(chain), dtype=bool)
    _np.not_equal(link[1:], link[:-1], out=head[1:])
    head &= _np.array(result._lstate, dtype=_np.int64)[link] == LINK_UNKNOWN
    return chain, sort_unique(chain[head] % span).tolist()


def _step_topdown(
    result: InferenceResult, paths: PathSet, rank: Dict[int, int]
) -> None:
    """S5: peak-relative sweep, highest peaks first.

    A descent is one path's walk away from its peak: the k-th path in
    peak order walks right under key 2k, then left under key 2k + 1.  A
    walk skips a link already labeled with its vote's provider and ends
    at any other label, so a descent that meets no unknown link at its
    turn casts no vote.  Each link unknown at the start therefore has a
    chain, its descents in key order, of which only the next is queued:
    a walk hands every link it covers that is still unknown (not
    reached, or its vote refused) on to the link's next descent.  The
    sweep walks exactly the descents that meet an unknown link at their
    turn, in key order, and casts the votes a walk of every descent
    would.
    """
    unknown = LINK_UNKNOWN
    lstate = result._lstate
    hop_lid = result._hop_lid
    path_off = result._path_off
    nodes = result._node_asn
    conflicts, dirty = result.conflicts, result._dirty_lids
    votes = len(conflicts) + len(dirty)
    order, peaks = _peak_order(result, paths, rank)
    span = 2 * len(order)
    chain, heap = _descent_chains(result, paths, order, peaks)
    chain = memoryview(chain)
    order, peaks = memoryview(order), memoryview(peaks)
    set_p2c = result.set_p2c
    visits, last = 0, -1
    while heap:
        k = heapq.heappop(heap)
        if k == last:
            continue  # queued by two of its links
        last = k
        visits += 1
        pi = order[k >> 1]
        # node positions: the path runs from n0 to n1 - 1 and peaks at
        # i; the hop leaving node position j is hop j - pi
        n0, n1 = path_off[pi], path_off[pi + 1]
        i = n0 + peaks[pi]
        # a link already labeled with the vote's provider is an agreeing
        # vote (a guaranteed no-op), any other label is a refusal: both
        # are readable straight off the link-state array
        if k & 1:
            # descend left of the peak: node j+1 provides for node j
            for j in range(i - 2, n0 - 1, -1):
                s = lstate[hop_lid[j - pi]]
                if s == nodes[j + 1]:
                    continue
                if s != unknown:
                    break
                if not set_p2c(nodes[j + 1], nodes[j], Step.S5_TOPDOWN):
                    break
            hops = range(n0 - pi, i - 1 - pi)
        else:
            # descend right of the peak: node j provides for node j+1;
            # stop at the first contradiction — the path's shape no
            # longer matches our peak assumption beyond that point
            for j in range(i + 1, n1 - 1):
                s = lstate[hop_lid[j - pi]]
                if s == nodes[j]:
                    continue
                if s != unknown:
                    break
                if not set_p2c(nodes[j], nodes[j + 1], Step.S5_TOPDOWN):
                    break
            hops = range(i + 1 - pi, n1 - 1 - pi)
        # hand each link still unknown on to its next descent
        for h in hops:
            l = hop_lid[h]
            if lstate[l] == unknown:
                c = bisect_right(chain, l * span + k)
                if c < len(chain) and chain[c] < (l + 1) * span:
                    heapq.heappush(heap, chain[c] - l * span)
    perf.counter("visits", visits)
    perf.counter("votes", len(conflicts) + len(dirty) - votes)


def _forced_chains(result: InferenceResult, state, at, owner):
    """The first fold pass's queue, and its hand-on links.

    ``at`` lists the unknown hops (``owner`` their paths) under the
    link ``state``s.  An unknown hop is forced when the last
    DOWN/PEER-or-sibling hop before it in its path, or the first
    UP/PEER-or-sibling hop after it, is not a sibling.  Returns the set
    of paths first forced on some link, and a memoryview giving each
    forced hop the next path forced on its link (-1 for none or for a
    hop that is not forced).
    """
    lid, left, right, path = result._hop_cols
    n_hops = len(lid)
    s = state[lid]
    sibling = s == -2
    peer = s == -1
    descent = peer | (s == left)
    ascent = peer | (s == right)
    # index 0 and the last hop pad the event lists; neither is an event
    # where it stands in
    event = descent | sibling
    before = _np.concatenate(([0], _np.flatnonzero(event)))
    before = before[_np.cumsum(event)[at]]
    event = ascent | sibling
    after = _np.append(_np.flatnonzero(event), n_hops - 1)
    after = after[_np.cumsum(event)[at]]
    forced = at[
        descent[before] & (path[before] == owner)
        | ascent[after] & (path[after] == owner)
    ]
    # a link's forced hops in corpus order
    runs = _np.sort(lid[forced] * n_hops + forced)
    forced = runs % n_hops
    same = runs[1:] // n_hops == runs[:-1] // n_hops
    head = _np.ones(len(runs), dtype=bool)
    head[1:] = ~same
    chain_next = _np.full(n_hops, -1, dtype=_np.int64)
    chain_next[forced[:-1][same]] = path[forced[1:][same]]
    return set(path[forced[head]].tolist()), memoryview(chain_next)


def _step_fold_fast(result: InferenceResult) -> None:
    """S6: valley-free constraint propagation to fixpoint.

    In collector order a clean path ascends, crosses at most one peer
    link, then descends.  So any link after a DOWN/PEER link must be
    DOWN, and any link before an UP/PEER link must be UP.

    Rounds scan paths in corpus order, and a vote cast at path ``i``
    queues a dirtied path ``j > i`` into the *same* round — exactly when
    a full rescan (the QA oracle) would reach ``j`` and see the new
    state — and a path ``j <= i`` into the next.  A path whose link
    states are unchanged since its last scan is a guaranteed no-op:
    every vote it would cast was already cast and either succeeded (so
    a state changed — contradiction) or was refused for a reason that
    cannot un-happen (clique membership is fixed, and the p2c DAG only
    grows, so cycle refusals are permanent).  Dropping those scans
    keeps the exact label/step outcome of the full rescan; only
    duplicate refusal entries in ``conflicts`` are elided.

    A scan votes on a *forced* hop: an unknown hop with a DOWN/PEER hop
    before it, or an UP/PEER hop after it, and no sibling hop between.
    The fold scans only the queued paths that can have one at their
    turn, so it casts the same votes and refusals, in the same order, as
    scanning every dirtied path would:

    * the first round of the first call starts from one numpy pass that
      finds the forced hops; it queues only the first path forced on
      each link, and hands a link on to its next forced path when that
      path's vote on it is refused;
    * a vote queues a path carrying its link only when the path's last
      scan was refused a vote (that hop stays forced), or when the path
      has an unknown hop on the side the new label forces.  Each path's
      first and last unknown hop are taken once per call; later votes
      only shrink that span, so the stale test only admits more paths.
    """
    lstate = result._lstate
    node_asn = result._node_asn
    path_off = result._path_off
    hop_lid = result._hop_lid
    lpath, lpath_off = result._lpath_pid, result._lpath_off
    by_link = result.paths.link_index.by_link
    dirty = result._dirty_lids
    conflicts = result.conflicts
    set_p2c = result.set_p2c
    unknown = LINK_UNKNOWN
    votes = len(conflicts) + len(dirty)

    if result._fold_stuck is not None and not (
        result._fold_pending or result._fold_cursor < len(dirty)
    ):
        return  # nothing queued and nothing labeled since the last call
    lid, left, _, path = result._hop_cols
    n_hops, n_paths = len(lid), len(path_off) - 1
    state = _np.array(lstate, dtype=_np.int64)
    # each path's first and last unknown hop (global hop numbers order
    # a path's hops as their positions do)
    at = _np.flatnonzero(state[lid] == unknown)
    owner = path[at]
    first = _np.ones(len(at), dtype=bool)
    _np.not_equal(owner[1:], owner[:-1], out=first[1:])
    last = _np.roll(first, -1)
    first_unknown = _np.full(n_paths, n_hops, dtype=_np.int64)
    first_unknown[owner[first]] = at[first]
    last_unknown = _np.full(n_paths, -1, dtype=_np.int64)
    last_unknown[owner[last]] = at[last]

    def forced_by(hops, carriers, new_state):
        """The ``carriers`` (the paths of ``hops``) to which a link's
        ``new_state`` may give a forced hop, or whose last scan was
        refused a vote."""
        down = left[hops] == new_state
        peer = new_state == -1
        keep = (last_unknown[carriers] > hops) & (down | peer)
        keep |= (first_unknown[carriers] < hops) & (~down | peer)
        keep |= stuck[carriers]
        return carriers[keep].tolist()

    chain_next = None
    if result._fold_stuck is None:
        result._fold_stuck = stuck = _np.zeros(n_paths, dtype=bool)
        pending, chain_next = _forced_chains(result, state, at, owner)
    else:
        stuck = result._fold_stuck
        pending = result._fold_pending
        if result._fold_cursor < len(dirty):
            # the paths of the links other steps labeled since the last
            # call, under the same test as a fold vote
            since = _np.zeros(len(state), dtype=bool)
            since[dirty[result._fold_cursor:]] = True
            hops = _np.flatnonzero(since[lid])
            pending.update(forced_by(hops, path[hops], state[lid[hops]]))
    result._fold_cursor = len(dirty)

    def scan(i: int) -> None:
        """One forward+backward constraint pass over path ``i``."""
        n0, n1 = path_off[i], path_off[i + 1]
        nodes = node_asn[n0:n1]
        states = [lstate[l] for l in hop_lid[n0 - i:n1 - i - 1]]
        # forward: after the first DOWN or PEER everything descends
        # (sibling links reset the constraint, as in the reference)
        seen_descent = False
        for j, s in enumerate(states):
            if s == -2:
                seen_descent = False
                continue
            if s == unknown:
                if seen_descent and set_p2c(
                    nodes[j], nodes[j + 1], Step.S6_FOLD
                ):
                    states[j] = nodes[j]
                continue
            if s == -1 or s == nodes[j]:
                seen_descent = True
        # backward: before the last UP or PEER everything ascends
        seen_ascent = False
        for j in range(len(states) - 1, -1, -1):
            s = states[j]
            if s == -2:
                seen_ascent = False
                continue
            if s == unknown:
                if seen_ascent and set_p2c(
                    nodes[j + 1], nodes[j], Step.S6_FOLD
                ):
                    states[j] = nodes[j + 1]
                continue
            if s == -1 or s == nodes[j + 1]:
                seen_ascent = True

    scans = 0
    for _ in range(result.config.max_fold_rounds):
        if not pending:
            break
        next_pending: Set[int] = set()
        # min-heap in corpus order (a path queued twice pops twice in a
        # row); a vote cast at path i queues paths j > i into this same
        # round, while paths j <= i wait for the next round
        heap = sorted(pending)
        last = -1
        while heap:
            i = heapq.heappop(heap)
            if i == last:
                continue
            last = i
            scans += 1
            watermark, refused = len(dirty), len(conflicts)
            scan(i)
            stuck[i] = len(conflicts) > refused
            if chain_next is not None:
                for h in range(path_off[i] - i, path_off[i + 1] - i - 1):
                    j = chain_next[h]
                    if j >= 0 and lstate[hop_lid[h]] == unknown:
                        heapq.heappush(heap, j)
            for l in dirty[watermark:]:
                entries = slice(lpath_off[l], lpath_off[l + 1])
                for j in forced_by(
                    by_link[entries], lpath[entries], lstate[l]
                ):
                    if j > i:
                        heapq.heappush(heap, j)
                    else:
                        next_pending.add(j)
        pending = next_pending
        chain_next = None
        result._fold_cursor = len(dirty)
    result._fold_pending = pending
    perf.counter("scans", scans)
    perf.counter("votes", len(conflicts) + len(dirty) - votes)


def _step_stub(result: InferenceResult, paths: PathSet) -> None:
    """S7: a stub attached to a clique member is its customer.

    Restricted to the clique on purpose: a tier-1 does not peer with a
    network that never transits, but two mid-size networks where one
    merely *looks* transit-free from the vantage points might well be
    peers — the paper keeps this heuristic narrow for that reason.
    """
    clique = result.clique.member_set
    for a, b in sorted(paths.links()):
        if result.relationship(a, b) is not None:
            continue
        ta, tb = paths.transit_degree(a), paths.transit_degree(b)
        if ta == 0 and b in clique:
            result.set_p2c(b, a, Step.S7_STUB)
        elif tb == 0 and a in clique:
            result.set_p2c(a, b, Step.S7_STUB)


def _step_degree_gap(
    result: InferenceResult, paths: PathSet, config: InferenceConfig
) -> None:
    """S7B: vastly mismatched neighbors are provider and customer.

    Settlement-free peering presumes roughly comparable networks; when
    one side's transit degree dwarfs the other's *and* the smaller side
    is small in absolute terms, the link is transit.  This reconstructs
    the paper's stub↔clique reasoning in a degree-ratio form (a clique
    member does not peer with a regional stub)."""
    for a, b in sorted(paths.links()):
        if result.relationship(a, b) is not None:
            continue
        ta, tb = paths.transit_degree(a), paths.transit_degree(b)
        big, small = (a, b) if ta >= tb else (b, a)
        t_big, t_small = max(ta, tb), min(ta, tb)
        if t_small > config.gap_small_max:
            continue
        if t_big >= config.gap_factor * max(1, t_small):
            result.set_p2c(big, small, Step.S7B_GAP)


def _step_providerless(
    result: InferenceResult, paths: PathSet, rank: Dict[int, int]
) -> None:
    """S8: give every provider-less non-clique AS its best provider."""
    clique = result.clique.member_set
    for asn in paths.ranked_asns():
        if asn in clique or result.providers.get(asn):
            continue
        open_neighbors = [
            n
            for n in paths.neighbors(asn)
            if result.relationship(asn, n) is None
        ]
        if not open_neighbors:
            continue
        open_neighbors.sort(key=lambda n: (rank.get(n, 1 << 30), n))
        for candidate in open_neighbors:
            if result.set_p2c(candidate, asn, Step.S8_PROVIDERLESS):
                break


def _step_remaining_p2p(result: InferenceResult, paths: PathSet) -> None:
    """S9: unclassified links default to peer-to-peer."""
    for a, b in sorted(paths.links()):
        if result.relationship(a, b) is None:
            result.set_p2p(a, b, Step.S9_REMAINING_P2P)
