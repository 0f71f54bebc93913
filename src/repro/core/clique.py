"""Tier-1 clique inference (the algorithm's anchor step).

The paper assumes a clique of transit-free providers at the top of the
hierarchy and infers it from the path data itself:

1. take the top ``seed_size`` ASes by transit degree;
2. among them, find the largest clique in the observed adjacency graph
   (Bron–Kerbosch with pivoting; ties broken by total transit degree);
3. walk the remaining ranking in order, admitting any AS adjacent to
   every current member, and stop after ``stop_after`` consecutive
   candidates fail — large transit providers that peer with everyone at
   the top are in, regional networks are out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as _np

from repro.core.paths import PathSet, in_one_path

#: ``mid -> [(left, right, multiplicity), ...]`` over the corpus's hops
TripleIndex = Dict[int, List[Tuple[int, int, int]]]


@dataclass
class CliqueResult:
    """The inferred clique plus provenance for diagnostics."""

    members: List[int]
    seed_members: List[int]  # found by Bron–Kerbosch among the top ASes
    added_members: List[int]  # admitted during the rank-order walk
    considered: int = 0  # candidates examined during the walk

    def __contains__(self, asn: int) -> bool:
        return asn in self._member_set

    def __post_init__(self) -> None:
        self._member_set = set(self.members)

    @property
    def member_set(self) -> Set[int]:
        return set(self._member_set)


def bron_kerbosch(
    vertices: Sequence[int], adjacency: Dict[int, Set[int]]
) -> List[FrozenSet[int]]:
    """All maximal cliques of the graph induced on ``vertices``.

    Classic Bron–Kerbosch with pivoting; fine for the small candidate
    sets this module feeds it (tens of vertices).
    """
    vertex_set = set(vertices)
    neighbors = {v: adjacency.get(v, set()) & vertex_set for v in vertex_set}
    cliques: List[FrozenSet[int]] = []

    def expand(r: Set[int], p: Set[int], x: Set[int]) -> None:
        if not p and not x:
            cliques.append(frozenset(r))
            return
        pivot = max(p | x, key=lambda v: len(neighbors[v] & p))
        for v in sorted(p - neighbors[pivot]):
            expand(r | {v}, p & neighbors[v], x & neighbors[v])
            p = p - {v}
            x = x | {v}

    expand(set(), set(vertex_set), set())
    return cliques


def _index_triples(paths: PathSet, mids: Iterable[int]) -> TripleIndex:
    """Index the corpus's ``(left, mid, right)`` hops by middle AS.

    Every evidence query below filters on ``mid in clique``, and the
    clique only ever holds ASes from the head of the ranking, so only
    triples whose middle AS is in ``mids`` are indexed.  Repeated
    triples collapse to one entry carrying their multiplicity.
    """
    asns, ids = paths.asn_index
    n = max(len(asns), 1)
    wanted = _np.isin(asns, list(mids))
    # window i is (flat[i], flat[i + 1], flat[i + 2]): keep the ones
    # inside one path whose middle is wanted, as one int64 key of dense
    # ids (the middle as its rank among the wanted; ``len(mids) * n**2``
    # stays far below 2**63 for any corpus that fits in memory)
    at = _np.flatnonzero(in_one_path(paths.off, 3) & wanted[ids[1:-1]])
    keys = (_np.cumsum(wanted) - 1)[ids[at + 1]] * n + ids[at]
    triples, counts = _np.unique(keys * n + ids[at + 2], return_counts=True)
    middle, pair = _np.divmod(triples, n * n)
    by_mid: TripleIndex = {}
    for mid, left, right, count in zip(
        asns[_np.flatnonzero(wanted)[middle]].tolist(),
        asns[pair // n].tolist(),
        asns[pair % n].tolist(),
        counts.tolist(),
    ):
        by_mid.setdefault(mid, []).append((left, right, count))
    return by_mid


def _customer_evidence(by_mid: TripleIndex, clique: Set[int]) -> Dict[int, int]:
    """Count, per AS, path evidence that it is a *customer* of a clique
    member rather than a peer.

    The pattern ``[x, y, cand]`` (or its mirror) with ``x`` and ``y``
    both clique members proves ``y`` exported cand's route to its peer
    ``x`` — only customer routes are exported to peers, so cand buys
    transit from ``y``.  A true clique member can never appear in this
    pattern: it would require a route to cross two peer links in a row.

    ``by_mid`` is the :func:`_index_triples` index; counts are sums
    over an order-independent filter, so indexed iteration returns
    exactly what a full scan would.
    """
    evidence: Dict[int, int] = {}
    for mid in clique:
        for left, right, n in by_mid.get(mid, ()):
            if left in clique and right not in clique:
                evidence[right] = evidence.get(right, 0) + n
            elif right in clique and left not in clique:
                evidence[left] = evidence.get(left, 0) + n
    return evidence


def _prune_customers(clique: Set[int], by_mid: TripleIndex) -> Set[int]:
    """Iteratively drop clique members that the path data shows buying
    transit from other members (multihomed-to-the-whole-clique transit
    networks survive Bron–Kerbosch but fail this test)."""
    clique = set(clique)
    while len(clique) > 2:
        evidence = _customer_evidence(by_mid, clique)
        guilty = {m: n for m, n in evidence.items() if m in clique}
        if not guilty:
            break
        worst = max(sorted(guilty), key=lambda m: guilty[m])
        clique.discard(worst)
    return clique


def infer_clique(
    paths: PathSet,
    seed_size: int = 10,
    stop_after: int = 10,
    max_walk: int = 50,
) -> CliqueResult:
    """Infer the tier-1 clique from a sanitized path corpus."""
    ranking = paths.ranked_asns()
    if not ranking:
        return CliqueResult(members=[], seed_members=[], added_members=[])
    seeds = ranking[:seed_size]
    cliques = bron_kerbosch(
        seeds, {asn: set(paths.neighbors(asn)) for asn in seeds}
    )
    if not cliques:
        return CliqueResult(members=[], seed_members=[], added_members=[])

    def clique_weight(members: FrozenSet[int]) -> Tuple[int, int, Tuple[int, ...]]:
        # transit-degree mass first: a large clique of middleweights
        # (e.g. a transit network plus the subset of tier-1s it buys
        # from) must not outrank the true heavyweight clique
        return (
            sum(paths.transit_degree(m) for m in members),
            len(members),
            tuple(sorted(members)),
        )

    # the walk below considers at most ``max_walk`` ASes past the seeds
    by_mid = _index_triples(paths, ranking[: seed_size + max_walk])
    best = max(cliques, key=clique_weight)
    clique: Set[int] = _prune_customers(set(best), by_mid)

    added: List[int] = []
    failures = 0
    considered = 0
    for asn in ranking[seed_size:]:
        if failures >= stop_after or considered >= max_walk:
            break
        considered += 1
        if (
            clique.issubset(paths.neighbors(asn))
            and paths.transit_degree(asn) > 0  # a tier-1 transits, always
            and _customer_evidence(by_mid, clique | {asn}).get(asn, 0) == 0
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
