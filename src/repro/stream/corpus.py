"""Live RIB table with announce/withdraw semantics.

The stream layer's source of truth is the same per-``(prefix, peer)``
route table that :func:`repro.mrt.updates.rib_from_updates` reconstructs
offline: the last announcement for a key wins, a withdrawal removes the
key, and withdrawals inside an UPDATE are applied before its
announcements (RFC 4271 ordering).  :class:`LiveCorpus` keeps that table
resident with two counters that every changed row updates: rows per
distinct raw path, and per origin the rows announcing each prefix.

Stage 1 depends only on the raw path, so the sanitized corpus is one
:meth:`~repro.core.paths.PathSet.sanitize` call over the distinct raw
paths weighted by their rows; the prefix map re-sorts only the origins
whose prefixes changed.  Neither view depends on the order of the rows,
so the table keeps no key order; :meth:`LiveCorpus.rows` sorts on
demand.

:func:`asrank_from_rib_rows` is the single shared definition of "batch
recompute over a set of RIB rows" — the QA family 10 comparator and the
CI smoke call it, and the stream's full publishes run the same facade
over the two views, which makes the streamed-vs-batch bit-identity
contract trivially well-defined.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.paths import PathSet
from repro.mrt.reader import RibRecord, UpdateRecord

TableKey = Tuple[object, int]  # (Prefix, peer_asn)


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

    Two views of the table equal their batch definitions at every point
    (the property tests pin both):

    * :meth:`sanitized` is ``PathSet.sanitize(row.as_path for row in
      rows(), ixp_asns)``, from :attr:`raw_rows`, the rows per distinct
      raw path;
    * :meth:`prefixes_by_asn` is ``prefixes_from_rows(rows())``, from
      per-origin prefix refcounts.

    Both counters drop an entry when its count reaches zero, so the
    corpus holds nothing for a raw path no row carries any more.
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
        # raw path -> rows carrying it
        self.raw_rows: Counter = Counter()
        # origin -> prefix -> rows announcing it from that origin
        self._prefix_refs: Dict[int, Counter] = defaultdict(Counter)
        self._prefix_lists: Dict[int, List] = {}
        self._stale_origins: Set[int] = set()
        for row in self.table.values():
            self._count(row, 1)

    def __len__(self) -> int:
        return len(self.table)

    def apply(self, updates: Iterable[UpdateRecord]) -> Tuple[int, int]:
        """Apply decoded UPDATE records in order; returns (announced, withdrawn).

        Withdrawals inside a record are applied before its announcements,
        matching :func:`repro.mrt.updates.rib_from_updates`.
        """
        announced = withdrawn = 0
        table = self.table
        for update in updates:
            for prefix in update.withdrawn:
                old = table.pop((prefix, update.peer_asn), None)
                if old is not None:
                    withdrawn += 1
                    self._count(old, -1)
            for prefix in update.announced:
                row = RibRecord(
                    prefix=prefix,
                    peer_asn=update.peer_asn,
                    as_path=update.as_path,
                    communities=update.communities,
                )
                old = table.get((prefix, update.peer_asn))
                # a communities-only change leaves both counters as is
                if old is None or old.as_path != row.as_path:
                    if old is not None:
                        self._count(old, -1)
                    self._count(row, 1)
                table[(prefix, update.peer_asn)] = row
                announced += 1
        self.announced += announced
        self.withdrawn += withdrawn
        return announced, withdrawn

    def rows(self) -> List[RibRecord]:
        """Deterministic row order, identical to ``rib_from_updates``."""
        table = self.table
        return [table[key] for key in sorted(table)]

    def sanitized(self) -> PathSet:
        """A fresh ``PathSet.sanitize(row.as_path for row in rows(),
        ixp_asns)``: stage 1 once per distinct raw path."""
        raw_rows = self.raw_rows
        return PathSet.sanitize(
            list(raw_rows), self.ixp_asns, weights=list(raw_rows.values())
        )

    def prefixes_by_asn(self) -> Dict[int, List]:
        """A fresh dict equal to ``prefixes_from_rows(rows())``; only
        origins whose prefixes changed get their lists re-sorted."""
        lists = self._prefix_lists
        for origin in self._stale_origins:
            refs = self._prefix_refs.get(origin)
            if refs:
                lists[origin] = sorted(refs)
            else:
                lists.pop(origin, None)
                self._prefix_refs.pop(origin, None)
        self._stale_origins.clear()
        return dict(lists)

    def _count(self, row: RibRecord, sign: int) -> None:
        """Add (``sign`` 1) or take out (-1) one row in both counters."""
        raw = row.as_path
        self.raw_rows[raw] += sign
        if not self.raw_rows[raw]:
            del self.raw_rows[raw]
        if raw:
            refs = self._prefix_refs[raw[-1]]
            refs[row.prefix] += sign
            if not refs[row.prefix]:
                del refs[row.prefix]
            self._stale_origins.add(raw[-1])
