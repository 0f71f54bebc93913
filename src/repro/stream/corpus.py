"""Live RIB table with announce/withdraw semantics.

The stream layer's source of truth is the same per-``(prefix, peer)``
route table that :func:`repro.mrt.updates.rib_from_updates` reconstructs
offline: the last announcement for a key wins, a withdrawal removes the
key, and withdrawals inside an UPDATE are applied before its
announcements (RFC 4271 ordering).  :class:`LiveCorpus` keeps that table
resident and maintains the two derived views a publish feeds to
inference — the sanitized corpus and the origin → prefixes map — row by
row, so a publish pays for the rows a batch changed rather than for the
whole table.  Neither view depends on the order of the rows (a
:class:`~repro.core.paths.PathSet` is in tuple order), so the table
keeps no key order; :meth:`LiveCorpus.rows` sorts on demand.  Stage 1
is memoized per distinct raw path and filled in batches: every raw path
of the base table in one :func:`~repro.core.paths.clean_paths` call,
then per refresh only the changed rows' raw paths the memo has not seen.

:func:`asrank_from_rib_rows` is the single shared definition of "batch
recompute over a set of RIB rows" — the QA family 10 comparator and the
CI smoke call it, and the stream's full publishes run the same facade
over the maintained views, which makes the streamed-vs-batch
bit-identity contract trivially well-defined.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import replace
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.paths import CleanedPath, PathSet, SanitizeStats, clean_paths
from repro.mrt.reader import RibRecord, UpdateRecord

TableKey = Tuple[object, int]  # (Prefix, peer_asn)
PathT = Tuple[int, ...]


def prefixes_from_rows(rows: Iterable[RibRecord]) -> Dict[int, List]:
    """Origin-ASN → sorted prefixes of the rows it originates.

    The one derivation of the prefix map from RIB rows:
    ``ASRank.from_mrt`` calls it, and :meth:`LiveCorpus.prefixes_by_asn`
    maintains its result incrementally.
    """
    by_asn: Dict[int, Set] = {}
    for row in rows:
        if row.as_path:
            by_asn.setdefault(row.as_path[-1], set()).add(row.prefix)
    return {asn: sorted(prefixes) for asn, prefixes in by_asn.items()}


def asrank_from_rib_rows(rows: Sequence[RibRecord], ixp_asns=frozenset(), config=None):
    """Batch-recompute facade over RIB rows (the family 10 oracle)."""
    from repro.asrank import ASRank

    return ASRank.from_paths(
        (row.as_path for row in rows),
        ixp_asns=ixp_asns,
        config=config,
        prefixes_by_asn=prefixes_from_rows(rows),
    )


class LiveCorpus:
    """Mutable RIB table driven by decoded UPDATE records.

    The final table after any sequence of :meth:`apply` calls equals
    ``rib_from_updates(all_updates, base=base_rows)`` — the unit tests
    pin that equivalence against randomized sequences.

    Two views of the table are maintained incrementally and equal their
    batch definitions at every point (the property tests pin both):

    * :meth:`sanitized` is ``PathSet.sanitize(row.as_path for row in
      rows(), ixp_asns)`` — same paths (in tuple order), same
      multiplicities, same :class:`SanitizeStats`, from per-path row
      counts and one sorted list of the kept paths.
    * :meth:`prefixes_by_asn` is ``prefixes_from_rows(rows())``, from
      per-origin prefix refcounts.

    Stage-1 cleaning is memoized per distinct raw path (withdrawn paths
    keep their entries, so a re-announcement stays a cache hit); the
    views re-derive nothing else but the rows changed since they were
    last read.  A changed key's previous contribution is recovered from
    the row it displaced and the memo, so no per-key state is kept.
    """

    def __init__(
        self,
        base: Optional[Iterable[RibRecord]] = None,
        ixp_asns: FrozenSet[int] = frozenset(),
    ) -> None:
        self.table: Dict[TableKey, RibRecord] = {}
        for row in base or ():
            self.table[(row.prefix, row.peer_asn)] = row
        self.announced = 0
        self.withdrawn = 0

        self.ixp_asns = frozenset(ixp_asns)
        # changed key -> the row it held when the views were last
        # brought up to date (None: the key was absent)
        self._displaced: Dict[TableKey, Optional[RibRecord]] = {}
        self._cleaned: Dict[PathT, CleanedPath] = {}
        # per-counter totals; ``kept``/``duplicates_merged`` are derived
        self._stats = SanitizeStats()
        self._counts: Dict[PathT, int] = {}  # kept path -> rows
        self._paths: List[PathT] = []  # the kept paths, sorted
        self._kept_rows = 0
        # origin -> prefix -> rows announcing it from that origin
        self._prefix_refs: Dict[int, Counter] = {}
        self._prefix_lists: Dict[int, List] = {}
        self._stale_origins: Set[int] = set()

        # one pass over the base table: rows per raw path and prefixes
        # per origin
        raw_rows: Counter = Counter()
        origin_prefixes: Dict[int, List] = {}
        for row in self.table.values():
            raw = row.as_path
            raw_rows[raw] += 1
            if raw:
                prefixes = origin_prefixes.get(raw[-1])
                if prefixes is None:
                    prefixes = origin_prefixes[raw[-1]] = []
                prefixes.append(row.prefix)
        self._clean(raw_rows)
        for raw, n in raw_rows.items():
            self._count_cleaned(self._cleaned[raw], n)
        self._paths = sorted(self._counts)
        for origin, prefixes in origin_prefixes.items():
            self._prefix_refs[origin] = Counter(prefixes)
        self._stale_origins.update(self._prefix_refs)

    def __len__(self) -> int:
        return len(self.table)

    def apply(self, updates: Iterable[UpdateRecord]) -> Tuple[int, int]:
        """Apply decoded UPDATE records in order; returns (announced, withdrawn).

        Withdrawals inside a record are applied before its announcements,
        matching :func:`repro.mrt.updates.rib_from_updates`.
        """
        announced = withdrawn = 0
        table = self.table
        displaced = self._displaced
        for update in updates:
            for prefix in update.withdrawn:
                key = (prefix, update.peer_asn)
                old = table.pop(key, None)
                if old is not None:
                    withdrawn += 1
                    displaced.setdefault(key, old)
            for prefix in update.announced:
                key = (prefix, update.peer_asn)
                row = RibRecord(
                    prefix=prefix,
                    peer_asn=update.peer_asn,
                    as_path=update.as_path,
                    communities=update.communities,
                )
                old = table.get(key)
                if old != row:
                    displaced.setdefault(key, old)
                table[key] = row
                announced += 1
        self.announced += announced
        self.withdrawn += withdrawn
        return announced, withdrawn

    def rows(self) -> List[RibRecord]:
        """Deterministic row order, identical to ``rib_from_updates``."""
        table = self.table
        return [table[key] for key in sorted(table)]

    # ------------------------------------------------------------------
    # maintained views
    # ------------------------------------------------------------------

    def sanitized(self) -> PathSet:
        """A fresh ``PathSet.sanitize(row.as_path for row in rows(),
        ixp_asns)``, from the maintained state."""
        self._refresh()
        kept = len(self._counts)
        stats = replace(
            self._stats, kept=kept, duplicates_merged=self._kept_rows - kept
        )
        return PathSet(self._paths, self._counts, stats)

    def prefixes_by_asn(self) -> Dict[int, List]:
        """A fresh dict equal to ``prefixes_from_rows(rows())``; only
        origins whose prefixes changed get their lists re-sorted."""
        self._refresh()
        lists = self._prefix_lists
        for origin in self._stale_origins:
            refs = self._prefix_refs.get(origin)
            if refs:
                lists[origin] = sorted(refs)
            else:
                lists.pop(origin, None)
        self._stale_origins.clear()
        return dict(lists)

    def _clean(self, raws: Iterable[PathT]) -> None:
        """Memoize stage 1 for the raw paths not yet cleaned, in one
        kernel call (none when every raw path is a memo hit)."""
        cleaned = self._cleaned
        fresh = [raw for raw in dict.fromkeys(raws) if raw not in cleaned]
        if fresh:
            cleaned.update(zip(fresh, clean_paths(fresh, self.ixp_asns)))

    def _count_cleaned(self, cleaned: CleanedPath, times: int) -> None:
        self._stats.record(cleaned, times)
        path = cleaned.path
        if path is not None:
            n = self._counts.get(path, 0) + times
            if n:
                self._counts[path] = n
            else:
                del self._counts[path]
            self._kept_rows += times

    def _count(self, row: RibRecord, sign: int) -> Optional[PathT]:
        """Add (``sign`` 1) or take out (-1) one row's contribution to
        both views; returns its cleaned path, ``None`` if discarded."""
        raw = row.as_path
        cleaned = self._cleaned[raw]
        self._count_cleaned(cleaned, sign)
        if raw:
            origin = raw[-1]
            refs = self._prefix_refs.get(origin)
            if refs is None:
                refs = self._prefix_refs[origin] = Counter()
            refs[row.prefix] += sign
            if not refs[row.prefix]:
                del refs[row.prefix]
            self._stale_origins.add(origin)
        return cleaned.path

    def _refresh(self) -> None:
        """Fold the rows changed since the last call into the views."""
        if not self._displaced:
            return
        table = self.table
        self._clean(
            row.as_path
            for key, old in self._displaced.items()
            for row in (old, table.get(key))
            if row is not None
        )
        touched: Set[Optional[PathT]] = set()
        for key, old in self._displaced.items():
            new = table.get(key)
            if old is not None and new is not None:
                if old.as_path == new.as_path:
                    continue  # communities changed: neither view did
            if old is not None:
                touched.add(self._count(old, -1))
            if new is not None:
                touched.add(self._count(new, 1))
        self._displaced.clear()
        touched.discard(None)
        # a path joins or leaves the sorted list when its count leaves
        # or reaches zero
        paths = self._paths
        for path in touched:
            at = bisect_left(paths, path)
            listed = at < len(paths) and paths[at] == path
            if path in self._counts:
                if not listed:
                    paths.insert(at, path)
            elif listed:
                del paths[at]
