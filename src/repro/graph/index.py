"""The one ASN ↔ dense-id index of the system.

Every columnar structure in this repo — inference's cycle bitsets and
fold arrays, cone bitsets, propagation's CSR adjacency, the snapshot's
packed sections — addresses ASes by a small dense integer instead of
the sparse 32-bit ASN.  :class:`DenseIndex` is the single home of that
mapping; no other module may build an ``asn -> dense id`` dict.

The canonical construction is *sorted*: ids are assigned in ascending
ASN order, which makes "lowest ASN" tie-breaks equal to "lowest id"
tie-breaks and lets independently built indexes over the same AS set
agree bit for bit (the property tests assert exactly this across the
inference, cone, propagation and snapshot layers).

An index is immutable: its AS set is fixed when it is built, so the
columnar views built over it (CSR arrays, bitsets) can never see their
id space shift.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional

#: ASNs are 32-bit identifiers; anything beyond this cannot come from
#: the wire and would silently wrap in packed columnar sections
MAX_ASN = 2**32 - 1


def _check_asn_range(lo: int, hi: int) -> None:
    """Reject ASNs a packed 32-bit column could not represent."""
    if lo < 0 or hi > MAX_ASN:
        bad = lo if lo < 0 else hi
        raise ValueError(
            f"ASN {bad} outside the 32-bit ASN space [0, {MAX_ASN}]"
        )


class DenseIndex:
    """A deterministic, immutable ASN ↔ dense-id mapping.

    ``DenseIndex(asns)`` sorts and dedupes; :meth:`from_sorted` adopts
    an already-sorted unique list without copying or checking (for the
    hot paths that got it from a sort-based unique pass, such as
    :func:`repro.graph.csr.sort_unique`).
    """

    __slots__ = ("ids", "asns")

    def __init__(self, asns: Iterable[int] = ()):
        self.asns: List[int] = sorted(set(asns))
        if self.asns:
            _check_asn_range(self.asns[0], self.asns[-1])
        self.ids: Dict[int, int] = {
            asn: i for i, asn in enumerate(self.asns)
        }

    @classmethod
    def from_sorted(cls, asns: List[int]) -> "DenseIndex":
        """Adopt ``asns`` verbatim as ids 0..n-1 (caller guarantees the
        list is sorted and duplicate-free)."""
        index = cls()
        if asns:
            _check_asn_range(asns[0], asns[-1])
        index.asns = asns
        index.ids = {asn: i for i, asn in enumerate(asns)}
        return index

    # ------------------------------------------------------------------
    # lookups
    # ------------------------------------------------------------------

    def id_of(self, asn: int) -> int:
        """Dense id of ``asn``; raises ``KeyError`` when absent."""
        return self.ids[asn]

    def get(self, asn: int) -> Optional[int]:
        return self.ids.get(asn)

    def asn_of(self, dense_id: int) -> int:
        return self.asns[dense_id]

    def __contains__(self, asn: int) -> bool:
        return asn in self.ids

    def __len__(self) -> int:
        return len(self.asns)

    def __iter__(self) -> Iterator[int]:
        return iter(self.asns)
