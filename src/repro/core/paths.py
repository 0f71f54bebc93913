"""AS-path corpus and sanitization (the algorithm's stage 1).

The paper sanitizes raw BGP paths before inference: compress AS-path
prepending, discard paths with loops or reserved/private ASNs, and
splice out IXP route-server ASNs.  Every action is counted so the
sanitization table (experiment E11) can be regenerated.

The sanitized :class:`PathSet` also precomputes the two degree notions
the algorithm ranks ASes by:

* **node degree** — distinct neighbors in any path;
* **transit degree** — distinct neighbors across the positions where
  the AS appears *between* two other ASes, i.e. where it demonstrably
  provides transit.  Transit degree is the paper's primary ranking key
  because node degree conflates peering richness with transit size.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

import numpy as _np

from repro.graph.index import MAX_ASN

# Reserved / private ASN space (RFC 6996, RFC 5398, AS_TRANS, 32-bit
# private).  Paths carrying these are measurement artifacts.
_RESERVED_RANGES: Tuple[Tuple[int, int], ...] = (
    (0, 0),
    (23456, 23456),  # AS_TRANS
    (64496, 64511),  # documentation
    (64512, 65534),  # 16-bit private use
    (65535, 65535),
    (65536, 65551),  # documentation (32-bit)
    (4200000000, 4294967295),  # 32-bit private use + reserved
)


def _public_bounds() -> Tuple[int, ...]:
    """The public ASN ranges (the 32-bit ASN space minus the reserved
    ranges) as one sorted sequence ``low, high + 1, ...``."""
    bounds: List[int] = []
    start = 0
    for low, high in _RESERVED_RANGES:
        if start < low:
            bounds += (start, low)
        start = high + 1
    if start <= MAX_ASN:
        bounds += (start, MAX_ASN + 1)
    return tuple(bounds)


#: a public ASN has an odd number of these bounds at or below it;
#: reserved ASNs and values outside ``[0, MAX_ASN]`` have an even number
_PUBLIC_BOUNDS = _public_bounds()


def is_reserved_asn(asn: int) -> bool:
    """True for ASNs that must never appear in a clean public path,
    including values outside the 32-bit ASN space."""
    return bisect_right(_PUBLIC_BOUNDS, asn) % 2 == 0


@dataclass
class SanitizeStats:
    """Counters for every sanitization action (experiment E11)."""

    input_paths: int = 0
    prepending_compressed: int = 0  # paths that had prepending removed
    discarded_loops: int = 0
    discarded_reserved_asn: int = 0
    discarded_short: int = 0  # fewer than two hops after cleaning
    ixp_hops_removed: int = 0  # paths that had an IXP RS spliced out
    duplicates_merged: int = 0
    kept: int = 0

    def as_rows(self) -> List[Tuple[str, int]]:
        return [
            ("input paths", self.input_paths),
            ("prepending compressed", self.prepending_compressed),
            ("discarded: loop", self.discarded_loops),
            ("discarded: reserved ASN", self.discarded_reserved_asn),
            ("discarded: short", self.discarded_short),
            ("IXP hop removed", self.ixp_hops_removed),
            ("duplicates merged", self.duplicates_merged),
            ("kept (unique)", self.kept),
        ]

    def record(self, cleaned: "CleanedPath", times: int = 1) -> None:
        """Count ``times`` input paths that cleaned to ``cleaned``
        (a negative ``times`` takes them back out).  ``kept`` and
        ``duplicates_merged`` depend on the whole corpus, so the caller
        sets them."""
        _, prepending, reserved, ixp_removed, loop, short = cleaned
        self.input_paths += times
        self.prepending_compressed += prepending * times
        self.discarded_reserved_asn += reserved * times
        self.ixp_hops_removed += ixp_removed * times
        self.discarded_loops += loop * times
        self.discarded_short += short * times


class CleanedPath(NamedTuple):
    """One raw path through stage 1: the cleaned path (``None`` when
    discarded) and a 0/1 increment per :class:`SanitizeStats` counter."""

    path: Optional[Tuple[int, ...]]
    prepending_compressed: int = 0
    discarded_reserved_asn: int = 0
    ixp_hops_removed: int = 0
    discarded_loops: int = 0
    discarded_short: int = 0


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
    two hops.  The outcome depends only on ``raw`` and ``ixp_asns``, so
    callers may memoize it per distinct raw path.
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


class PathSet:
    """A deduplicated corpus of sanitized AS paths with degree indexes."""

    def __init__(
        self,
        paths: Iterable[Tuple[int, ...]],
        counts: Optional[Dict[Tuple[int, ...], int]] = None,
        stats: Optional[SanitizeStats] = None,
    ):
        self.paths: List[Tuple[int, ...]] = list(paths)
        self.counts: Dict[Tuple[int, ...], int] = counts or {
            p: 1 for p in self.paths
        }
        self.stats = stats or SanitizeStats(
            input_paths=len(self.paths), kept=len(self.paths)
        )
        self._node_neighbors: Optional[Dict[int, Set[int]]] = None
        self._transit_neighbors: Optional[Dict[int, Set[int]]] = None
        # a PathSet is immutable after construction, so the corpus-wide
        # scans below are computed once and cached (callers treat the
        # returned collections as read-only)
        self._asns: Optional[Set[int]] = None
        self._links: Optional[Set[Tuple[int, int]]] = None
        self._ranked: Optional[List[int]] = None
        # flat numpy encoding of the corpus (``numpy_view``), shared by
        # every vectorized pass over the hops
        self._np_view: Optional[Tuple[object, object, object]] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def sanitize(
        cls,
        raw_paths: Iterable[Sequence[int]],
        ixp_asns: FrozenSet[int] = frozenset(),
    ) -> "PathSet":
        """Apply the paper's stage-1 cleaning to raw observed paths."""
        stats = SanitizeStats()
        kept: List[Tuple[int, ...]] = []
        counts: Dict[Tuple[int, ...], int] = {}
        for raw in raw_paths:
            cleaned = clean_path(raw, ixp_asns)
            stats.record(cleaned)
            path = cleaned[0]
            if path is None:
                continue
            if path in counts:
                counts[path] += 1
                stats.duplicates_merged += 1
            else:
                counts[path] = 1
                kept.append(path)
        stats.kept = len(kept)
        return cls(kept, counts, stats)

    def filtered(self, keep: Iterable[Tuple[int, ...]]) -> "PathSet":
        """A new PathSet restricted to ``keep`` (shares the stats object)."""
        keep_list = list(keep)
        keep_set = set(keep_list)
        counts = {p: self.counts.get(p, 1) for p in keep_set}
        return PathSet(keep_list, counts, self.stats)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self) -> Iterator[Tuple[int, ...]]:
        return iter(self.paths)

    def numpy_view(self):
        """The corpus as flat numpy arrays ``(flat, plen, off)``.

        ``flat`` concatenates every path, ``plen`` holds each path's
        length and ``off`` the start offset of each path (with a final
        sentinel), so a vectorized pass can address any hop or window.
        An empty corpus gives empty arrays (``off`` is ``[0]``).  Built
        once and cached (the corpus is immutable).
        """
        if self._np_view is None:
            plen = _np.fromiter(
                (len(p) for p in self.paths),
                dtype=_np.int64,
                count=len(self.paths),
            )
            total = int(plen.sum())
            flat = _np.fromiter(
                chain.from_iterable(self.paths),
                dtype=_np.int64,
                count=total,
            )
            off = _np.empty(len(plen) + 1, dtype=_np.int64)
            off[0] = 0
            _np.cumsum(plen, out=off[1:])
            self._np_view = (flat, plen, off)
        return self._np_view

    def _hop_keys(self):
        """Packed ``(lo << 32) | hi`` key per hop, plus a validity mask
        (False where the "hop" would span two different paths)."""
        flat, plen, off = self.numpy_view()
        a, b = flat[:-1], flat[1:]
        valid = _np.ones(len(a), dtype=bool)
        valid[off[1:-1] - 1] = False
        lo = _np.minimum(a, b).astype(_np.uint64)
        hi = _np.maximum(a, b).astype(_np.uint64)
        return (lo << _np.uint64(32)) | hi, valid

    def asns(self) -> Set[int]:
        if self._asns is None:
            flat = self.numpy_view()[0]
            self._asns = set(_np.unique(flat).tolist())
        return self._asns

    def links(self) -> Set[Tuple[int, int]]:
        """Unordered adjacencies across the corpus."""
        if self._links is None:
            keys, valid = self._hop_keys()
            self._links = {
                (k >> 32, k & 0xFFFFFFFF)
                for k in _np.unique(keys[valid]).tolist()
            }
        return self._links

    # ------------------------------------------------------------------
    # degrees
    # ------------------------------------------------------------------

    def _transit_pairs(self) -> Iterable[Tuple[int, int]]:
        """Distinct ``(mid, neighbor)`` pairs over all interior hops."""
        flat, plen, off = self.numpy_view()
        if len(flat) >= 3:
            mid = flat[1:-1].astype(_np.uint64)
            left = flat[:-2].astype(_np.uint64)
            right = flat[2:].astype(_np.uint64)
            valid = _np.ones(len(flat) - 2, dtype=bool)
            bounds = off[1:-1]
            valid[bounds - 1] = False
            valid[_np.maximum(bounds - 2, 0)] = False
            shift = _np.uint64(32)
            keys = _np.concatenate(
                (
                    ((mid << shift) | left)[valid],
                    ((mid << shift) | right)[valid],
                )
            )
            for k in _np.unique(keys).tolist():
                yield k >> 32, k & 0xFFFFFFFF

    def _build_degrees(self) -> None:
        # node adjacency straight from the (much smaller) link set
        node: Dict[int, Set[int]] = {}
        for a, b in self.links():
            node.setdefault(a, set()).add(b)
            node.setdefault(b, set()).add(a)
        for asn in self.asns():
            node.setdefault(asn, set())
        transit: Dict[int, Set[int]] = {}
        transit_get = transit.get
        for mid, neighbor in self._transit_pairs():
            neighbors = transit_get(mid)
            if neighbors is None:
                neighbors = transit[mid] = set()
            neighbors.add(neighbor)
        self._node_neighbors = node
        self._transit_neighbors = transit

    @property
    def node_neighbors(self) -> Dict[int, Set[int]]:
        if self._node_neighbors is None:
            self._build_degrees()
        assert self._node_neighbors is not None
        return self._node_neighbors

    def node_degree(self, asn: int) -> int:
        return len(self.node_neighbors.get(asn, ()))

    def transit_degree(self, asn: int) -> int:
        if self._transit_neighbors is None:
            self._build_degrees()
        assert self._transit_neighbors is not None
        return len(self._transit_neighbors.get(asn, ()))

    def transit_degrees(self) -> Dict[int, int]:
        """Transit degree for every AS in the corpus (0 for pure edges)."""
        return {asn: self.transit_degree(asn) for asn in self.asns()}

    def ranked_asns(self) -> List[int]:
        """ASes sorted by the paper's ranking: transit degree desc, then
        node degree desc, then ASN asc (determinism)."""
        if self._ranked is None:
            self._ranked = sorted(
                self.asns(),
                key=lambda asn: (
                    -self.transit_degree(asn), -self.node_degree(asn), asn
                ),
            )
        return self._ranked
