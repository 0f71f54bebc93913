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
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Sequence, Set, Tuple

import numpy as _np

from repro.core.paths import PathSet, count_unique, in_one_path


class Triples(NamedTuple):
    """The corpus's distinct ``(left, mid, right)`` hops as dense-id
    columns, with how many paths carry each."""

    mid: object
    left: object
    right: object
    count: object


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


def member_ids(paths: PathSet, asns: Iterable[int]):
    """The dense ids of ``asns`` (each an AS of the corpus)."""
    return _np.searchsorted(
        paths.asn_index[0], _np.fromiter(asns, dtype=_np.int64)
    )


def _index_triples(paths: PathSet, mids: Iterable[int]) -> Triples:
    """Index the corpus's ``(left, mid, right)`` hops by middle AS.

    Every evidence query below filters on ``mid in clique``, and the
    clique only ever holds ASes from the head of the ranking, so only
    triples whose middle AS is in ``mids`` are indexed.  Repeated
    triples collapse to one entry carrying their multiplicity.
    """
    asns, ids = paths.asn_index
    n = max(len(asns), 1)
    wanted = _np.zeros(len(asns), dtype=bool)
    wanted[member_ids(paths, mids)] = True
    # window i is (flat[i], flat[i + 1], flat[i + 2]): keep the ones
    # inside one path whose middle is wanted, as one int64 key of dense
    # ids (the middle as its rank among the wanted; ``len(mids) * n**2``
    # stays far below 2**63 for any corpus that fits in memory)
    at = _np.flatnonzero(in_one_path(paths.off, 3) & wanted[ids[1:-1]])
    keys = (_np.cumsum(wanted) - 1)[ids[at + 1]] * n + ids[at]
    triples, counts = count_unique(keys * n + ids[at + 2])
    middle, pair = _np.divmod(triples, n * n)
    left, right = _np.divmod(pair, n)
    return Triples(_np.flatnonzero(wanted)[middle], left, right, counts)


def _customer_evidence(triples: Triples, member):
    """Count, per dense id, path evidence that the AS is a *customer*
    of a clique member rather than a peer (``member`` is the clique's
    mask over dense ids).

    The pattern ``[x, y, cand]`` (or its mirror) with ``x`` and ``y``
    both clique members proves ``y`` exported cand's route to its peer
    ``x`` — only customer routes are exported to peers, so cand buys
    transit from ``y``.  A true clique member can never appear in this
    pattern: it would require a route to cross two peer links in a row.
    """
    mid, left, right, count = triples
    on_left = member[left]
    hit = member[mid] & (on_left != member[right])
    return _np.bincount(
        _np.where(on_left[hit], right[hit], left[hit]),
        weights=count[hit],
        minlength=len(member),
    )


def _prune_customers(member, triples: Triples):
    """Iteratively drop clique members that the path data shows buying
    transit from other members (multihomed-to-the-whole-clique transit
    networks survive Bron–Kerbosch but fail this test).  ``member`` is
    the clique's mask over dense ids; returns the pruned mask."""
    member = member.copy()
    while member.sum() > 2:
        guilty = _customer_evidence(triples, member) * member
        if not guilty.any():
            break
        # the most evidence, the lowest ASN among ties
        member[guilty.argmax()] = False
    return member


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
    triples = _index_triples(paths, ranking[: seed_size + max_walk])
    best = max(cliques, key=clique_weight)
    member = _np.zeros(len(paths.asn_index[0]), dtype=bool)
    member[member_ids(paths, best)] = True
    member = _prune_customers(member, triples)
    clique: Set[int] = set(paths.asn_index[0][member].tolist())

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
        ):
            i = member_ids(paths, (asn,))[0]
            trial = member.copy()
            trial[i] = True
            if not _customer_evidence(triples, trial)[i]:
                clique.add(asn)
                member = trial
                added.append(asn)
                failures = 0
                continue
        failures += 1

    return CliqueResult(
        members=sorted(clique),
        seed_members=sorted(best),
        added_members=added,
        considered=considered,
    )
