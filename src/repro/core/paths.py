"""AS-path corpus and sanitization (the algorithm's stage 1).

The paper sanitizes raw BGP paths before inference: compress AS-path
prepending, discard paths with loops or reserved/private ASNs, and
splice out IXP route-server ASNs.  Every action is counted so the
sanitization table (experiment E11) can be regenerated.

Stage 1 has one implementation, a numpy kernel over raw paths given as
columns (int64 ``flat`` hops plus row ``offsets``):
:meth:`PathSet.sanitize_columns`; :meth:`PathSet.sanitize` flattens
tuples into it, and takes a :class:`PathColumns` (the collector's
corpus) as it is.  Rows may carry a weight, the number of input paths
they stand for, so a caller holding rows per distinct raw path cleans
each raw path once.  The scalar ``clean_path`` it replaced is the QA
oracle in :mod:`repro.qa.oracles`.

A :class:`PathSet` keeps its paths in tuple order, whatever order the
raw rows came in, so a corpus depends only on the multiset of rows.
The kernel gets that order and its dedup from one row sort.

A :class:`PathSet` holds the corpus as numpy columns and derives from
them, in sort-based passes, the two degree notions the algorithm ranks
ASes by:

* **node degree** — distinct neighbors in any path;
* **transit degree** — distinct neighbors across the positions where
  the AS appears *between* two other ASes, i.e. where it demonstrably
  provides transit.  Transit degree is the paper's primary ranking key
  because node degree conflates peering richness with transit size.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field
from functools import cached_property
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

from repro.graph.csr import gather_rows, sort_unique
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
    """Raw paths as one int64 ``flat`` array plus row ``offsets``; a
    path with a hop outside int64 is flattened as its stand-in."""
    paths = raw_paths if isinstance(raw_paths, list) else list(raw_paths)
    try:
        return _columns(paths)
    except OverflowError:
        return _columns([_int64_stand_in(path) for path in paths])


def _columns(paths: List[Sequence[int]]):
    """``paths`` as one int64 ``flat`` array plus row ``offsets``
    (``OverflowError`` for a hop outside int64)."""
    offsets = _np.zeros(len(paths) + 1, dtype=_np.int64)
    _np.cumsum(
        _np.fromiter(map(len, paths), dtype=_np.int64, count=len(paths)),
        out=offsets[1:],
    )
    flat = _np.fromiter(
        chain.from_iterable(paths), dtype=_np.int64, count=int(offsets[-1])
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


def split_tuples(items: list, bounds: list) -> List[tuple]:
    """``items`` cut into tuples at ``bounds`` (ascending, from 0 to
    ``len(items)``)."""
    return list(map(
        tuple, map(items.__getitem__, map(slice, bounds, bounds[1:]))
    ))


def row_tuples(flat, off) -> List[Tuple[int, ...]]:
    """The rows of the ragged array ``(flat, off)`` as tuples of ints."""
    return split_tuples(flat.tolist(), off.tolist())


class PathColumns(SequenceABC):
    """Raw AS paths held as columns, read as a sequence of tuples.

    Row ``i`` is ``flat[off[i]:off[i + 1]]`` (int64 ASNs).  The tuples
    are built on first read; :meth:`PathSet.sanitize` reads the columns
    instead, so a corpus that is only sanitized never builds them.
    """

    __slots__ = ("flat", "off", "_rows")

    def __init__(self, flat, off):
        self.flat, self.off = flat, off
        self._rows: Optional[List[Tuple[int, ...]]] = None

    def _tuples(self) -> List[Tuple[int, ...]]:
        if self._rows is None:
            self._rows = row_tuples(self.flat, self.off)
        return self._rows

    def __len__(self) -> int:
        return len(self.off) - 1

    def __getitem__(self, i):
        return self._tuples()[i]

    def __iter__(self) -> Iterator[Tuple[int, ...]]:
        return iter(self._tuples())

    def __eq__(self, other) -> bool:
        if isinstance(other, PathColumns):
            return _np.array_equal(self.off, other.off) and _np.array_equal(
                self.flat, other.flat
            )
        if isinstance(other, list):
            return self._tuples() == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"PathColumns({len(self)} paths)"


def unique_rows(flat, off):
    """``(rows, counts)``: the first row carrying each distinct path of
    ``(flat, off)``, in first-seen order, and how many rows carry it."""
    n = len(off) - 1
    rows, counts = _sorted_unique(
        flat, off, _np.arange(n, dtype=_np.int64),
        _np.ones(n, dtype=_np.int64),
    )
    order = _np.argsort(rows, kind="stable")
    return rows[order], counts[order]


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


#: hops per row the stage-1 row sort compares at once; real AS paths
#: rarely come near it, and it bounds the sort grid when a corpus
#: carries a very long path
_SORT_WIDTH = 16


def _sorted_unique(flat, offsets, rows, weights):
    """Distinct paths among ``rows`` (non-empty rows of ``(flat,
    offsets)``): one row carrying each, in tuple order of the paths,
    and the sum of ``weights`` (one per row of ``offsets``) over the
    ``rows`` that carry it.

    One ``numpy.lexsort`` orders the rows by their first
    ``_SORT_WIDTH`` hops.  A hop is coded as its ASN less the smallest
    ASN among them, plus one, and a missing hop as 0, which is below
    every code, so a path sorts before its extensions, as tuple
    comparison does.  As many codes as fit go into each uint64 sort
    key, the first hop in the high bits, so a key compares as the hops
    it packs do.  Only rows longer than the width can tie on every key
    and still differ; their runs are settled by comparing tuples.
    Equal rows then sit next to each other and are merged.
    """
    n = len(rows)
    if not n:
        return rows, rows
    hops, lengths, bounds = take_rows(flat, offsets, rows)
    longest = int(lengths.max())
    width = min(longest, _SORT_WIDTH)
    low = int(hops.min()) - 1
    bits = (int(hops.max()) - low).bit_length()
    per_key = 64 // bits
    # a row's hop p is code[bounds[row] + p], or the final 0 past its end
    code = _np.zeros(len(hops) + 1, dtype=_np.uint64)
    code[:-1] = hops - low
    keys = _np.zeros((-(-width // per_key), n), dtype=_np.uint64)
    for p in range(width):
        key = keys[p // per_key]
        key <<= _np.uint64(bits)
        key |= code[_np.where(lengths > p, bounds[:-1] + p, len(hops))]
    order = _np.lexsort(keys[::-1])
    same = _np.ones(n - 1, dtype=bool)
    for key in keys:
        key = key[order]
        same &= key[1:] == key[:-1]
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
    return rows[order[starts]], _np.add.reduceat(weights[rows[order]], starts)


def count_unique(values):
    """``(unique, counts)``: the sorted distinct ``values`` (1-d
    integers) and how often each occurs, from one sort."""
    ordered = _np.sort(values)
    first = _np.ones(len(ordered), dtype=bool)
    _np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    at = _np.flatnonzero(first)
    return ordered[at], _np.diff(at, append=len(ordered))


def _survivors(values, n: int):
    """Which of the ids ``0 .. n - 1`` occur in ``values``, and each
    one's id once the others are dropped (a ``cumsum`` of that mask),
    as ``(alive, new_id)``; ``None`` when every id occurs."""
    alive = _np.bincount(values, minlength=n).astype(bool)
    if alive.all():
        return None
    return alive, _np.cumsum(alive) - 1


def _transit_pairs(ids, off, n: int):
    """Every interior hop's two ``(mid, neighbour)`` pairs of dense ids,
    packed ``mid * n + neighbour``, for the paths ``(ids, off)``."""
    inner = in_one_path(off, 3)
    mid = ids[1:-1][inner] * n
    return _np.concatenate((mid + ids[:-2][inner], mid + ids[2:][inner]))


def in_one_path(off, width: int):
    """Mask over the windows ``flat[i:i + width]`` that lie inside one
    path of the corpus with path offsets ``off``."""
    row = _np.repeat(_np.arange(len(off) - 1, dtype=_np.int64), _np.diff(off))
    return row[:len(row) - width + 1] == row[width - 1:]


class LinkIndex(NamedTuple):
    """A corpus's distinct links, ascending as ``keys`` (packed
    ``(lo << 32) | hi`` uint64) and as their endpoints' dense ids
    ``lo``/``hi``.  A hop joins ``flat[i]`` and ``flat[i + 1]`` for each
    ``i`` where ``starts`` holds; in that order, ``link_of_hop`` gives
    each hop's link, and ``by_link`` lists the hops grouped by link."""

    keys: object
    lo: object
    hi: object
    starts: object
    link_of_hop: object
    by_link: object


class PathSet:
    """A deduplicated corpus of sanitized AS paths, in tuple order, with
    degree indexes.

    Held as columns: ``flat`` (every path's int64 ASNs), ``plen`` and
    ``off`` (each path's length and start, ``off`` with a final
    sentinel) and ``path_counts`` (input paths per path).  ``paths``
    and ``counts`` are tuple views built on first use.  A PathSet is
    immutable, so views and scans are computed once and cached
    (callers treat what they get as read-only).

    A root corpus indexes itself by sorts over its hops; a
    :meth:`filtered` copy keeps its parent referenced and derives its
    ``asn_index``, ``link_index`` and degrees from the parent's by
    masking and compaction, equal to what the sorts would give.
    """

    def __init__(
        self,
        paths: Iterable[Tuple[int, ...]],
        counts: Optional[Dict[Tuple[int, ...], int]] = None,
        stats: Optional[SanitizeStats] = None,
    ):
        self.paths = sorted(paths)
        n = len(self.paths)
        flat, off = _columns(self.paths)
        self._set_columns(
            flat, _np.diff(off), off,
            _np.fromiter(
                (counts.get(p, 1) for p in self.paths), _np.int64, count=n
            ) if counts else _np.ones(n, dtype=_np.int64),
            stats or SanitizeStats(input_paths=n, kept=n),
        )

    @classmethod
    def _from_columns(cls, flat, plen, off, path_counts, stats) -> "PathSet":
        out = cls.__new__(cls)
        out._set_columns(flat, plen, off, path_counts, stats)
        return out

    def _set_columns(self, flat, plen, off, path_counts, stats) -> None:
        self.flat, self.plen, self.off = flat, plen, off
        self.path_counts = path_counts
        self.stats = stats
        #: ``(parent, row mask, hop mask)`` of a :meth:`filtered` copy
        self._parent = None
        self._asns: Optional[Set[int]] = None
        self._links: Optional[Set[Tuple[int, int]]] = None
        self._ranked: Optional[List[int]] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def sanitize(
        cls,
        raw_paths: Iterable[Sequence[int]],
        ixp_asns: FrozenSet[int] = frozenset(),
        weights=None,
    ) -> "PathSet":
        """Apply the paper's stage-1 cleaning to raw observed paths
        (``weights`` as in :meth:`sanitize_columns`); a
        :class:`PathColumns` goes to the kernel as it is held."""
        if isinstance(raw_paths, PathColumns):
            return cls.sanitize_columns(
                raw_paths.flat, raw_paths.off, ixp_asns, weights
            )
        return cls.sanitize_columns(*_flatten(raw_paths), ixp_asns, weights)

    @classmethod
    def sanitize_columns(
        cls,
        flat,
        offsets,
        ixp_asns: FrozenSet[int] = frozenset(),
        weights=None,
    ) -> "PathSet":
        """Stage 1 over raw paths given as columns: row ``i`` is
        ``flat[offsets[i]:offsets[i + 1]]`` (int64 ASNs).

        ``weights`` gives each row's multiplicity (default one per
        row): the result equals stage 1 over the rows each repeated
        that many times.  Kept paths are deduplicated in tuple order
        and every action is counted in :class:`SanitizeStats`.
        """
        s = _stage1(flat, offsets, ixp_asns)
        n = len(s.kept)
        w = (
            _np.ones(n, dtype=_np.int64) if weights is None
            else _np.asarray(weights, dtype=_np.int64)
        )
        firsts, counts = _sorted_unique(
            s.flat, s.offsets, _np.flatnonzero(s.kept), w
        )
        stats = SanitizeStats(
            input_paths=int(w.sum()),
            prepending_compressed=int(w[s.prepending].sum()),
            discarded_loops=int(w[s.loop].sum()),
            discarded_reserved_asn=int(w[s.reserved].sum()),
            discarded_short=int(w[s.short].sum()),
            ixp_hops_removed=int(w[s.ixp].sum()),
            duplicates_merged=int(w[s.kept].sum()) - len(firsts),
            kept=len(firsts),
        )
        return cls._from_columns(
            *take_rows(s.flat, s.offsets, firsts), counts, stats
        )

    def filtered(self, keep) -> "PathSet":
        """A new PathSet of the paths where the row mask ``keep`` is
        true (shares the stats object).  It keeps this corpus
        referenced, to index itself from this corpus's indexes."""
        keep = _np.asarray(keep, dtype=bool)
        hops = _np.repeat(keep, self.plen)
        plen = self.plen[keep]
        off = _np.zeros(len(plen) + 1, dtype=_np.int64)
        _np.cumsum(plen, out=off[1:])
        out = PathSet._from_columns(
            self.flat[hops], plen, off, self.path_counts[keep], self.stats
        )
        out._parent = (self, keep, hops)
        return out

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.plen)

    def __iter__(self) -> Iterator[Tuple[int, ...]]:
        return iter(self.paths)

    @cached_property
    def paths(self) -> List[Tuple[int, ...]]:
        """The paths as tuples, in tuple order."""
        return row_tuples(self.flat, self.off)

    @cached_property
    def counts(self) -> Dict[Tuple[int, ...], int]:
        """Input paths per path, by tuple."""
        return dict(zip(self.paths, self.path_counts.tolist()))

    def numpy_view(self):
        """The columns ``(flat, plen, off)``; an empty corpus gives
        empty arrays (``off`` is ``[0]``)."""
        return self.flat, self.plen, self.off

    @cached_property
    def asn_index(self):
        """``(asns, ids)``: the distinct ASNs, ascending, and each
        position of ``flat``'s dense id (its ASN's place among them)."""
        if self._parent is None:
            asns, ids, _ = sort_unique(self.flat, return_inverse=True)
            return asns, ids
        parent, _, hops = self._parent
        asns, ids = parent.asn_index
        ids = ids[hops]
        gone = _survivors(ids, len(asns))
        if gone is None:
            return asns, ids
        alive, new_id = gone
        return asns[alive], new_id[ids]

    def _id_map(self):
        """Each parent dense id's id here (only meaningful for the ASes
        that survive), or ``None`` when both corpora hold the same ASes."""
        parent = self._parent[0].asn_index[0]
        asns = self.asn_index[0]
        if len(asns) == len(parent):
            return None
        return _np.searchsorted(asns, parent)

    @cached_property
    def link_index(self) -> LinkIndex:
        """The :class:`LinkIndex`, from one sort of the hops' dense-id
        pairs (dense ids ascend with ASNs, and so do the keys); a
        filtered copy's is its parent's, masked and renumbered."""
        if self._parent is not None:
            return self._inherited_links()
        asns, ids = self.asn_index
        n = len(asns)
        starts = in_one_path(self.off, 2)
        a, b = ids[:-1][starts], ids[1:][starts]
        dense, link_of_hop, by_link = sort_unique(
            _np.minimum(a, b) * n + _np.maximum(a, b), return_inverse=True
        )
        lo, hi = _np.divmod(dense, max(n, 1))
        keys = asns[lo].astype(_np.uint64) << _np.uint64(32)
        keys |= asns[hi].astype(_np.uint64)
        return LinkIndex(keys, lo, hi, starts, link_of_hop, by_link)

    def _inherited_links(self) -> LinkIndex:
        """The parent's :class:`LinkIndex` restricted to the kept hops:
        a link survives while a kept hop joins it, and the kept hops
        keep their order within each link."""
        parent, _, hops = self._parent
        links = parent.link_index
        kept = hops[:-1][links.starts]  # the parent's joins still here
        link_of_hop = links.link_of_hop[kept]
        by_link = links.by_link[kept[links.by_link]]
        by_link = (_np.cumsum(kept) - 1)[by_link]
        keys, lo, hi = links.keys, links.lo, links.hi
        gone = _survivors(link_of_hop, len(keys))
        if gone is not None:
            alive, new_id = gone
            keys, lo, hi = keys[alive], lo[alive], hi[alive]
            link_of_hop = new_id[link_of_hop]
        id_map = self._id_map()
        if id_map is not None:
            lo, hi = id_map[lo], id_map[hi]
        return LinkIndex(
            keys, lo, hi, in_one_path(self.off, 2), link_of_hop, by_link
        )

    def asns(self) -> Set[int]:
        if self._asns is None:
            self._asns = set(self.asn_index[0].tolist())
        return self._asns

    def links(self) -> Set[Tuple[int, int]]:
        """Unordered adjacencies across the corpus."""
        if self._links is None:
            asns = self.asn_index[0].tolist()
            links = self.link_index
            self._links = {
                (asns[lo], asns[hi])
                for lo, hi in zip(links.lo.tolist(), links.hi.tolist())
            }
        return self._links

    # ------------------------------------------------------------------
    # degrees
    # ------------------------------------------------------------------

    @cached_property
    def _degrees(self):
        """``(position, transit, node, start, neighbors, pairs,
        multiplicity)``: dense id by ASN, degree lists by dense id, the
        neighbour CSR (AS ``i``'s neighbours are
        ``neighbors[start[i]:start[i + 1]]``), and the distinct
        ``(mid, neighbour)`` transit pairs (packed ``mid * n +
        neighbour``, ascending) with how many hops carry each."""
        asns, ids = self.asn_index
        n = len(asns)
        if self._parent is None:
            pairs, multiplicity = count_unique(
                _transit_pairs(ids, self.off, n)
            )
        else:
            pairs, multiplicity = self._inherited_pairs()
        transit = _np.bincount(pairs // max(n, 1), minlength=n)
        links = self.link_index
        other = links.lo != links.hi
        src = _np.concatenate((links.lo, links.hi[other]))
        dst = _np.concatenate((links.hi, links.lo[other]))
        node = _np.bincount(src, minlength=n)
        start = _np.zeros(n + 1, dtype=_np.int64)
        _np.cumsum(node, out=start[1:])
        return (
            dict(zip(asns.tolist(), range(n))),
            transit.tolist(),
            node.tolist(),
            start,
            asns[dst[_np.lexsort((dst, src))]],
            pairs,
            multiplicity,
        )

    def _inherited_pairs(self):
        """The parent's transit pairs less the dropped paths' ones: a
        pair whose multiplicity reaches zero is gone (and costs its mid
        one degree); the rest are renumbered to this corpus's ids."""
        parent, keep, hops = self._parent
        *_, pairs, multiplicity = parent._degrees
        n = len(parent.asn_index[0])
        dropped = ~keep
        if dropped.any():
            plen = parent.plen[dropped]
            off = _np.zeros(len(plen) + 1, dtype=_np.int64)
            _np.cumsum(plen, out=off[1:])
            lost = _transit_pairs(parent.asn_index[1][~hops], off, n)
            multiplicity = multiplicity - _np.bincount(
                _np.searchsorted(pairs, lost), minlength=len(pairs)
            )
            alive = multiplicity > 0
            pairs, multiplicity = pairs[alive], multiplicity[alive]
        id_map = self._id_map()
        if id_map is not None:
            mid, neighbour = _np.divmod(pairs, max(n, 1))
            pairs = id_map[mid] * len(self.asn_index[0]) + id_map[neighbour]
        return pairs, multiplicity

    def neighbors(self, asn: int) -> List[int]:
        """The ASes adjacent to ``asn`` in some path, ascending."""
        position, _, _, start, neighbors, _, _ = self._degrees
        i = position.get(asn)
        return [] if i is None else neighbors[start[i]:start[i + 1]].tolist()

    @cached_property
    def node_neighbors(self) -> Dict[int, Set[int]]:
        """Every AS's neighbour set (no pipeline step needs it)."""
        return {asn: set(self.neighbors(asn)) for asn in self.asns()}

    def node_degree(self, asn: int) -> int:
        i = self._degrees[0].get(asn)
        return 0 if i is None else self._degrees[2][i]

    def transit_degree(self, asn: int) -> int:
        i = self._degrees[0].get(asn)
        return 0 if i is None else self._degrees[1][i]

    def degree_columns(self):
        """``(transit, node)`` degrees by dense id, as int64 arrays."""
        _, transit, node, *_ = self._degrees
        return (
            _np.array(transit, dtype=_np.int64),
            _np.array(node, dtype=_np.int64),
        )

    def transit_degrees(self) -> Dict[int, int]:
        """Transit degree for every AS in the corpus (0 for pure edges)."""
        return dict(zip(self.asn_index[0].tolist(), self._degrees[1]))

    def ranked_asns(self) -> List[int]:
        """ASes sorted by the paper's ranking: transit degree desc, then
        node degree desc, then ASN asc (determinism)."""
        if self._ranked is None:
            asns = self.asn_index[0]
            _, transit, node, *_ = self._degrees
            order = _np.lexsort((asns, -_np.array(node), -_np.array(transit)))
            self._ranked = asns[order].tolist()
        return self._ranked
