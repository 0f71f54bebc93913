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

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

import numpy as _np

from repro.core.paths import PathSet


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

    best = max(cliques, key=clique_weight)
    clique: Set[int] = set(best)

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
