"""AS-path corpus and sanitization (the algorithm's stage 1).

The paper sanitizes raw BGP paths before inference: compress AS-path
prepending, discard paths with loops or reserved/private ASNs, and
splice out IXP route-server ASNs.  Every action is counted so the
sanitization table (experiment E11) can be regenerated.

Stage 1 has one implementation, a numpy kernel over raw paths given as
columns (int64 ``flat`` hops plus row ``offsets``):
:meth:`PathSet.sanitize_columns`.  :meth:`PathSet.sanitize` flattens
tuples into it, and :func:`clean_paths` returns its per-path outcomes
for the stream layer's memo.  The scalar ``clean_path`` it replaced is
the QA oracle in :mod:`repro.qa.oracles`.

A :class:`PathSet` keeps its paths in tuple order, whatever order the
raw rows came in, so a corpus depends only on the multiset of rows.
The kernel gets that order and its dedup from one row sort.

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

from repro.graph.csr import gather_rows
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


#: ``_PUBLIC_BOUNDS`` as an array, for ``np.searchsorted``
_PUBLIC_BOUNDS_ARRAY = _np.array(_PUBLIC_BOUNDS, dtype=_np.int64)

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


def take_rows(flat, offsets, rows):
    """Gather ``rows`` of the ragged array ``(flat, offsets)``, in the
    order ``rows`` lists them; returns ``(flat, lengths, offsets)``."""
    starts = offsets[rows]
    lengths = offsets[rows + 1] - starts
    out_flat, out_offsets = gather_rows(flat, starts, lengths)
    return out_flat, lengths, out_offsets


def _flatten(raw_paths: Iterable[Sequence[int]]):
    """Raw paths as one int64 ``flat`` array plus row ``offsets``."""
    paths = raw_paths if isinstance(raw_paths, list) else list(raw_paths)
    offsets = _np.zeros(len(paths) + 1, dtype=_np.int64)
    _np.cumsum(
        _np.fromiter(map(len, paths), dtype=_np.int64, count=len(paths)),
        out=offsets[1:],
    )
    try:
        flat = _np.fromiter(
            chain.from_iterable(paths), dtype=_np.int64, count=int(offsets[-1])
        )
    except OverflowError:
        flat = _np.fromiter(
            chain.from_iterable(map(_int64_stand_in, paths)),
            dtype=_np.int64,
            count=int(offsets[-1]),
        )
    return flat, offsets


def _int64_stand_in(path: Sequence[int]) -> Sequence[int]:
    """``path`` itself when every hop fits int64; else negative codes,
    one per run of equal hops.

    Such a path is discarded as reserved, and stage 1 reports nothing
    else about it but whether it had prepending, which equal adjacent
    codes preserve.
    """
    if all(_INT64_MIN <= asn <= _INT64_MAX for asn in path):
        return path
    codes: List[int] = []
    for i, asn in enumerate(path):
        codes.append(-1 - len(codes) if i == 0 or asn != path[i - 1]
                     else codes[-1])
    return codes


def _any_per_row(mask, rows, n: int):
    """Per row: does ``mask`` hold for any of its elements?"""
    return _np.bincount(rows[mask], minlength=n) > 0


def _run_starts(flat, rows):
    """Mask of the first hop of every run of equal hops within a row."""
    keep = _np.ones(len(flat), dtype=bool)
    _np.not_equal(flat[1:], flat[:-1], out=keep[1:])
    keep[1:] |= rows[1:] != rows[:-1]
    return keep


class _Stage1(NamedTuple):
    """Stage 1 over a batch of raw paths, one entry per row.

    ``(flat, offsets)`` holds each row's cleaned path (meaningless for
    discarded rows); the flags are the :class:`SanitizeStats` counter
    increments, and ``kept`` marks the rows that survive.
    """

    flat: object
    offsets: object
    kept: object
    prepending: object
    reserved: object
    ixp: object
    loop: object
    short: object


def _stage1(flat, offsets, ixp_asns: FrozenSet[int]) -> _Stage1:
    """The paper's stage-1 cleaning of every row of ``(flat, offsets)``.

    Per row, in this order: compress prepending; discard a row with a
    reserved ASN; splice out IXP route-server hops (and compress the
    runs that exposes); discard loops, then paths shorter than two hops.
    """
    flat = _np.asarray(flat, dtype=_np.int64)
    offsets = _np.asarray(offsets, dtype=_np.int64)
    n = len(offsets) - 1
    rows = _np.repeat(_np.arange(n, dtype=_np.int64), _np.diff(offsets))
    keep = _run_starts(flat, rows)
    prepending = _any_per_row(~keep, rows, n)
    flat, rows = flat[keep], rows[keep]
    public = _np.searchsorted(_PUBLIC_BOUNDS_ARRAY, flat, side="right") % 2
    reserved = _any_per_row(public == 0, rows, n)
    ixp = _np.zeros(n, dtype=bool)
    ixp_list = [asn for asn in ixp_asns if 0 <= asn <= MAX_ASN]
    if ixp_list:
        hit = _np.isin(flat, _np.array(ixp_list, dtype=_np.int64))
        ixp = _any_per_row(hit, rows, n) & ~reserved
        flat, rows = flat[~hit], rows[~hit]
        keep = _run_starts(flat, rows)
        flat, rows = flat[keep], rows[keep]
    # a hop repeated within a row of public ASNs: pack (row, asn) into
    # one int64 key (ASNs fit 32 bits there) and look for equal keys
    clean = ~reserved[rows]
    keys = _np.sort((rows[clean] << 32) | flat[clean])
    repeated = keys[1:][keys[1:] == keys[:-1]] >> 32
    loop = _np.zeros(n, dtype=bool)
    loop[repeated] = True
    lengths = _np.bincount(rows, minlength=n)
    short = (lengths < 2) & ~reserved & ~loop
    out = _np.zeros(n + 1, dtype=_np.int64)
    _np.cumsum(lengths, out=out[1:])
    return _Stage1(
        flat, out, ~(reserved | loop | short),
        prepending, reserved, ixp, loop, short,
    )


def clean_paths(
    raw_paths: Sequence[Sequence[int]], ixp_asns: FrozenSet[int] = frozenset()
) -> List["CleanedPath"]:
    """Stage 1 for each of ``raw_paths``, in one kernel call.

    The outcome for a raw path depends only on it and ``ixp_asns``, so
    callers may memoize it per distinct raw path.  A call has a fixed
    cost, so batch the paths rather than clean them one at a time.
    """
    s = _stage1(*_flatten(raw_paths), ixp_asns)
    hops = s.flat.tolist()
    bounds = s.offsets.tolist()
    return [
        CleanedPath(
            tuple(hops[bounds[i]:bounds[i + 1]]) if kept else None,
            *flags,
        )
        for i, (kept, *flags) in enumerate(zip(
            s.kept.tolist(), s.prepending.tolist(), s.reserved.tolist(),
            s.ixp.tolist(), s.loop.tolist(), s.short.tolist(),
        ))
    ]


#: hops per row the stage-1 row sort compares at once; real AS paths
#: rarely come near it, and it bounds the sort grid when a corpus
#: carries a very long path
_SORT_WIDTH = 16


def _sorted_unique(flat, offsets, rows):
    """Distinct paths among ``rows`` (non-empty rows of ``(flat,
    offsets)``): one row carrying each, in tuple order of the paths,
    and how many of ``rows`` carry it.

    One ``numpy.lexsort`` orders the rows by their first
    ``_SORT_WIDTH`` hops, padded with -1: that is below every ASN, so a
    path sorts before its extensions, as tuple comparison does.  Only
    rows longer than the width can tie on every column and still
    differ; their runs are settled by comparing tuples.  Equal rows
    then sit next to each other and are merged.
    """
    n = len(rows)
    if not n:
        return rows, rows
    hops, lengths, bounds = take_rows(flat, offsets, rows)
    longest = int(lengths.max())
    width = min(longest, _SORT_WIDTH)
    row = _np.repeat(_np.arange(n, dtype=_np.int64), lengths)
    pos = _np.arange(len(hops), dtype=_np.int64) - bounds[row]
    head = pos < width
    grid = _np.full((width, n), -1, dtype=_np.int64)
    grid[pos[head], row[head]] = hops[head]
    order = _np.lexsort(grid[::-1])
    same = _np.ones(n - 1, dtype=bool)
    for column in grid:
        column = column[order]
        same &= column[1:] == column[:-1]
    if width < longest:
        tie = same & (lengths[order[1:]] >= width)
        edge = _np.diff(tie.astype(_np.int8), prepend=0, append=0)
        for s, e in zip(
            _np.flatnonzero(edge == 1).tolist(),
            _np.flatnonzero(edge == -1).tolist(),
        ):
            run = sorted(
                (tuple(hops[bounds[r]:bounds[r + 1]].tolist()), r)
                for r in order[s:e + 1].tolist()
            )
            order[s:e + 1] = [r for _, r in run]
            same[s:e] = [a[0] == b[0] for a, b in zip(run, run[1:])]
    starts = _np.flatnonzero(_np.concatenate(([True], ~same)))
    return rows[order[starts]], _np.diff(_np.append(starts, n))


class PathSet:
    """A deduplicated corpus of sanitized AS paths, in tuple order, with
    degree indexes."""

    def __init__(
        self,
        paths: Iterable[Tuple[int, ...]],
        counts: Optional[Dict[Tuple[int, ...], int]] = None,
        stats: Optional[SanitizeStats] = None,
    ):
        self.paths: List[Tuple[int, ...]] = sorted(paths)
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
        return cls.sanitize_columns(*_flatten(raw_paths), ixp_asns=ixp_asns)

    @classmethod
    def sanitize_columns(
        cls,
        flat,
        offsets,
        ixp_asns: FrozenSet[int] = frozenset(),
    ) -> "PathSet":
        """Stage 1 over raw paths given as columns: row ``i`` is
        ``flat[offsets[i]:offsets[i + 1]]`` (int64 ASNs).

        Kept paths are deduplicated in tuple order, every action
        is counted in :class:`SanitizeStats`, and the result comes with
        its :meth:`numpy_view` already built.
        """
        s = _stage1(flat, offsets, ixp_asns)
        firsts, counts = _sorted_unique(
            s.flat, s.offsets, _np.flatnonzero(s.kept)
        )
        kept_flat, plen, off = take_rows(s.flat, s.offsets, firsts)
        hops = kept_flat.tolist()
        bounds = off.tolist()
        paths = [
            tuple(hops[bounds[i]:bounds[i + 1]]) for i in range(len(firsts))
        ]
        stats = SanitizeStats(
            input_paths=len(offsets) - 1,
            prepending_compressed=int(s.prepending.sum()),
            discarded_loops=int(s.loop.sum()),
            discarded_reserved_asn=int(s.reserved.sum()),
            discarded_short=int(s.short.sum()),
            ixp_hops_removed=int(s.ixp.sum()),
            duplicates_merged=int(s.kept.sum()) - len(paths),
            kept=len(paths),
        )
        out = cls(paths, dict(zip(paths, counts.tolist())), stats)
        out._np_view = (kept_flat, plen, off)
        return out

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
