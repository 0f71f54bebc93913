"""MRT TABLE_DUMP_V2 / BGP4MP parser.

Strict, validating parser for the records the writer emits — and for
the subset of real RouteViews dumps the paper consumes.  Unknown MRT
record types are skipped (real dumps interleave types); malformed
framing raises :class:`MrtFormatError`.

Two readers share the framing, peer-index, NLRI and entry-header
checks:

* :class:`MrtReader` decodes one message at a time into
  :class:`RibRecord` / :class:`UpdateRecord` with memory bounded by
  the largest record — the reader for streams and tailing;
* :func:`read_rib_table` reads a whole file into a columnar
  :class:`RibTable` (the last-wins per-(prefix, peer) table, AS paths
  as int64 ``flat`` + ``offsets``), walking every TABLE_DUMP_V2 entry's
  attributes and AS_PATH segments in lockstep with numpy, so no per-row
  object is built.  :func:`repro.mrt.updates.rib_from_updates` over
  :class:`MrtReader`'s records is its oracle.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass
from itertools import chain
from typing import IO, Dict, Iterator, List, Optional, Tuple

import numpy as _np

from repro import perf
from repro.graph.csr import gather_rows
from repro.mrt import constants as c
from repro.net.prefix import Prefix
from repro.net.prefix6 import Prefix6


@dataclass(frozen=True)
class RibRecord:
    """One (prefix, peer) RIB row decoded from a TABLE_DUMP_V2 record."""

    prefix: Prefix
    peer_asn: int
    as_path: Tuple[int, ...]
    communities: Tuple[Tuple[int, int], ...]


@dataclass(frozen=True)
class UpdateRecord:
    """A decoded BGP4MP UPDATE."""

    peer_asn: int
    local_asn: int
    as_path: Tuple[int, ...]
    announced: Tuple[Prefix, ...]
    communities: Tuple[Tuple[int, int], ...]
    withdrawn: Tuple[Prefix, ...] = ()


def _read_exact(stream: IO[bytes], n: int) -> bytes:
    data = stream.read(n)
    if len(data) != n:
        raise c.MrtFormatError(f"truncated record: wanted {n}, got {len(data)}")
    return data


def decode_as_path(blob: bytes, asn_size: int = 4) -> Tuple[int, ...]:
    """Decode an AS_PATH attribute value (sequences and sets)."""
    fmt_char = "I" if asn_size == 4 else "H"
    path: List[int] = []
    offset = 0
    while offset < len(blob):
        if offset + 2 > len(blob):
            raise c.MrtFormatError("truncated AS_PATH segment header")
        seg_type, count = blob[offset], blob[offset + 1]
        offset += 2
        need = count * asn_size
        if offset + need > len(blob):
            raise c.MrtFormatError("truncated AS_PATH segment body")
        asns = struct.unpack(f"!{count}{fmt_char}", blob[offset:offset + need])
        offset += need
        if seg_type == c.SEGMENT_AS_SEQUENCE:
            path.extend(asns)
        elif seg_type == c.SEGMENT_AS_SET:
            # sets are unordered; keep deterministic order
            path.extend(sorted(asns))
        else:
            raise c.MrtFormatError(f"unknown AS_PATH segment type {seg_type}")
    return tuple(path)


def merge_as4_path(
    as_path: Tuple[int, ...], as4_path: Tuple[int, ...]
) -> Tuple[int, ...]:
    """RFC 6793 reconstruction: the AS4_PATH replaces the tail of the
    2-byte AS_PATH (which carries AS_TRANS placeholders)."""
    if not as4_path or len(as4_path) > len(as_path):
        return as_path
    keep = len(as_path) - len(as4_path)
    return as_path[:keep] + as4_path


def decode_attributes(
    blob: bytes, asn_size: int = 4
) -> Tuple[Tuple[int, ...], Tuple[Tuple[int, int], ...]]:
    """Extract (as_path, communities) from a BGP attribute blob.

    For 2-byte sessions (``asn_size=2``), an AS4_PATH attribute — if
    present — is merged into the path, recovering the true 4-byte ASNs.
    """
    as_path: Tuple[int, ...] = ()
    as4_path: Tuple[int, ...] = ()
    communities: Tuple[Tuple[int, int], ...] = ()
    offset = 0
    while offset < len(blob):
        if offset + 2 > len(blob):
            raise c.MrtFormatError("truncated attribute header")
        flags, type_code = blob[offset], blob[offset + 1]
        offset += 2
        if flags & c.FLAG_EXTENDED_LENGTH:
            if offset + 2 > len(blob):
                raise c.MrtFormatError("truncated extended length")
            (length,) = struct.unpack("!H", blob[offset:offset + 2])
            offset += 2
        else:
            if offset + 1 > len(blob):
                raise c.MrtFormatError("truncated attribute length")
            length = blob[offset]
            offset += 1
        if offset + length > len(blob):
            raise c.MrtFormatError("attribute overruns blob")
        value = blob[offset:offset + length]
        offset += length
        if type_code == c.ATTR_AS_PATH:
            as_path = decode_as_path(value, asn_size)
        elif type_code == c.ATTR_AS4_PATH:
            as4_path = decode_as_path(value, 4)
        elif type_code == c.ATTR_COMMUNITIES:
            if length % 4:
                raise c.MrtFormatError("COMMUNITIES length not multiple of 4")
            communities = tuple(
                struct.unpack("!HH", value[i:i + 4]) for i in range(0, length, 4)
            )
    if asn_size == 2 and as4_path:
        as_path = merge_as4_path(as_path, as4_path)
    return as_path, communities


def _decode_nlri_prefix(
    blob: bytes, offset: int, address_bytes: int = 4
) -> Tuple[object, int]:
    length = blob[offset]
    offset += 1
    if length > 8 * address_bytes:
        raise c.MrtFormatError(
            f"NLRI prefix length {length} exceeds /{8 * address_bytes}"
        )
    octets = (length + 7) // 8
    if offset + octets > len(blob):
        raise c.MrtFormatError("truncated NLRI prefix")
    network = int.from_bytes(
        blob[offset:offset + octets].ljust(address_bytes, b"\0"), "big"
    )
    offset += octets
    # mask stray host bits (real dumps occasionally carry them)
    bits = address_bytes * 8
    full = (1 << bits) - 1
    if length:
        network &= (full >> length) ^ full
    else:
        network = 0
    if address_bytes == 16:
        return Prefix6(network, length), offset
    return Prefix(network, length), offset


def _iter_frames(stream: IO[bytes]) -> Iterator[Tuple[int, int, bytes]]:
    """``(type, subtype, body)`` of every MRT record in ``stream``."""
    while True:
        header = stream.read(c.MRT_COMMON_HEADER_LEN)
        if not header:
            return
        if len(header) != c.MRT_COMMON_HEADER_LEN:
            raise c.MrtFormatError("truncated MRT common header")
        _ts, mrt_type, subtype, length = struct.unpack("!IHHI", header)
        yield mrt_type, subtype, _read_exact(stream, length)


#: TABLE_DUMP_V2 RIB subtype -> address length in bytes
_RIB_ADDRESS_BYTES = {
    c.SUBTYPE_RIB_IPV4_UNICAST: 4,
    c.SUBTYPE_RIB_IPV6_UNICAST: 16,
}


def _decode_peer_index(body: bytes) -> List[int]:
    """The peer ASNs of a PEER_INDEX_TABLE, in table order."""
    if len(body) < 8:
        raise c.MrtFormatError("short PEER_INDEX_TABLE")
    (name_len,) = struct.unpack("!H", body[4:6])
    offset = 6 + name_len
    if offset + 2 > len(body):
        raise c.MrtFormatError("truncated PEER_INDEX_TABLE header")
    (peer_count,) = struct.unpack("!H", body[offset:offset + 2])
    offset += 2
    peers: List[int] = []
    for _ in range(peer_count):
        if offset >= len(body):
            raise c.MrtFormatError("truncated peer entry")
        peer_type = body[offset]
        offset += 1
        ip_len = 16 if peer_type & c.PEER_TYPE_IPV6 else 4
        as_len = 4 if peer_type & c.PEER_TYPE_AS32 else 2
        need = 4 + ip_len + as_len
        if offset + need > len(body):
            raise c.MrtFormatError("truncated peer entry body")
        offset += 4 + ip_len  # BGP ID + address
        asn = int.from_bytes(body[offset:offset + as_len], "big")
        offset += as_len
        peers.append(asn)
    return peers


#: peer index, originated time, attribute length
_ENTRY_HEADER = struct.Struct("!HIH")


def _decode_rib_entries(
    body: bytes, address_bytes: int, n_peers: int
) -> Tuple[object, List[Tuple[int, int, int]]]:
    """A RIB record's prefix and its entries' ``(peer index, attribute
    start, attribute end)``, every entry header checked."""
    if not n_peers:
        raise c.MrtFormatError("RIB record before PEER_INDEX_TABLE")
    if len(body) < 5:
        raise c.MrtFormatError("short RIB record")
    prefix, offset = _decode_nlri_prefix(body, 4, address_bytes)
    if offset + 2 > len(body):
        raise c.MrtFormatError("truncated RIB entry count")
    (entry_count,) = struct.unpack_from("!H", body, offset)
    offset += 2
    entries: List[Tuple[int, int, int]] = []
    size = len(body)
    for _ in range(entry_count):
        if offset + 8 > size:
            raise c.MrtFormatError("truncated RIB entry header")
        peer_idx, _orig_time, attr_len = _ENTRY_HEADER.unpack_from(
            body, offset
        )
        start = offset + 8
        offset = start + attr_len
        if offset > size:
            raise c.MrtFormatError("RIB entry attributes overrun")
        if peer_idx >= n_peers:
            raise c.MrtFormatError(f"peer index {peer_idx} out of range")
        entries.append((peer_idx, start, offset))
    return prefix, entries


def _decode_table_dump_v1(
    body: bytes,
) -> Tuple[Prefix, int, Tuple[int, ...], Tuple[Tuple[int, int], ...]]:
    """Legacy TABLE_DUMP: ``(prefix, peer ASN, AS path, communities)``
    from a fixed header, a 2-byte peer AS, then attributes."""
    # view(2) seq(2) prefix(4) plen(1) status(1) time(4) peer_ip(4)
    # peer_as(2) attr_len(2) = 22 bytes
    if len(body) < 22:
        raise c.MrtFormatError("short TABLE_DUMP record")
    network, plen = struct.unpack("!IB", body[4:9])
    if plen > 32:
        raise c.MrtFormatError(f"TABLE_DUMP prefix length {plen} exceeds /32")
    if plen:
        network &= (0xFFFFFFFF >> plen) ^ 0xFFFFFFFF
    else:
        network = 0
    (peer_asn,) = struct.unpack("!H", body[18:20])
    (attr_len,) = struct.unpack("!H", body[20:22])
    if 22 + attr_len > len(body):
        raise c.MrtFormatError("TABLE_DUMP attributes overrun")
    as_path, communities = decode_attributes(
        body[22:22 + attr_len], asn_size=2
    )
    return Prefix(network, plen), peer_asn, as_path, communities


def _decode_bgp4mp(body: bytes) -> Optional[UpdateRecord]:
    """A BGP4MP_MESSAGE_AS4 record's UPDATE; ``None`` for an IPv6
    session or another BGP message type."""
    if len(body) < 20:
        raise c.MrtFormatError("short BGP4MP record")
    peer_asn, local_asn, _ifindex, afi = struct.unpack("!IIHH", body[:12])
    if afi != 1:
        return None  # IPv6 session, not modeled
    offset = 12 + 8  # two IPv4 addresses
    message = body[offset:]
    if len(message) < 19 or message[:16] != c.BGP_MARKER:
        raise c.MrtFormatError("bad BGP message framing")
    msg_len, msg_type = struct.unpack("!HB", message[16:19])
    if msg_len != len(message):
        raise c.MrtFormatError("BGP message length mismatch")
    if msg_type != c.BGP_MSG_UPDATE:
        return None
    body = message[19:]
    if len(body) < 2:
        raise c.MrtFormatError("truncated UPDATE withdrawn length")
    (withdrawn_len,) = struct.unpack("!H", body[:2])
    offset = 2
    withdrawn_end = offset + withdrawn_len
    if withdrawn_end + 2 > len(body):
        raise c.MrtFormatError("UPDATE withdrawn routes overrun")
    withdrawn: List[Prefix] = []
    while offset < withdrawn_end:
        prefix, offset = _decode_nlri_prefix(body, offset)
        withdrawn.append(prefix)
    if offset != withdrawn_end:
        raise c.MrtFormatError("UPDATE withdrawn routes misframed")
    (attr_len,) = struct.unpack("!H", body[offset:offset + 2])
    offset += 2
    if offset + attr_len > len(body):
        raise c.MrtFormatError("UPDATE attributes overrun")
    as_path, communities = decode_attributes(body[offset:offset + attr_len])
    offset += attr_len
    announced: List[Prefix] = []
    while offset < len(body):
        prefix, offset = _decode_nlri_prefix(body, offset)
        announced.append(prefix)
    return UpdateRecord(
        peer_asn=peer_asn,
        local_asn=local_asn,
        as_path=as_path,
        announced=tuple(announced),
        communities=communities,
        withdrawn=tuple(withdrawn),
    )


class MrtReader:
    """Iterates decoded records from an MRT byte stream, one message at
    a time (the bounded-memory reader; :func:`read_rib_table` is the
    whole-file one)."""

    def __init__(self, stream: IO[bytes]):
        self._stream = stream
        self._peer_asns: List[int] = []

    def __iter__(self) -> Iterator[object]:
        return self.iter_records()

    def iter_records(self) -> Iterator[object]:
        """Yield decoded records one at a time as the stream is read.

        Memory stays bounded by the largest single MRT record: only one
        record body is held at a time, never the whole dump.  The eager
        helpers (:func:`read_rib_dump` et al.) drain this same generator,
        so both paths decode identical record sequences.
        """
        for mrt_type, subtype, body in _iter_frames(self._stream):
            if mrt_type == c.TYPE_TABLE_DUMP:
                if subtype == c.SUBTYPE_AFI_IPV4:
                    yield RibRecord(*_decode_table_dump_v1(body))
            elif mrt_type == c.TYPE_TABLE_DUMP_V2:
                if subtype == c.SUBTYPE_PEER_INDEX_TABLE:
                    self._peer_asns = _decode_peer_index(body)
                elif subtype in _RIB_ADDRESS_BYTES:
                    yield from self._parse_rib(
                        body, _RIB_ADDRESS_BYTES[subtype]
                    )
                # other TABLE_DUMP_V2 subtypes skipped
            elif mrt_type == c.TYPE_BGP4MP:
                if subtype == c.SUBTYPE_BGP4MP_MESSAGE_AS4:
                    record = _decode_bgp4mp(body)
                    if record is not None:
                        yield record
            # unknown MRT types are skipped silently, as real tooling does

    def _parse_rib(
        self, body: bytes, address_bytes: int
    ) -> Iterator[RibRecord]:
        peers = self._peer_asns
        prefix, entries = _decode_rib_entries(body, address_bytes, len(peers))
        for peer_idx, start, end in entries:
            as_path, communities = decode_attributes(body[start:end])
            yield RibRecord(
                prefix=prefix,
                peer_asn=peers[peer_idx],
                as_path=as_path,
                communities=communities,
            )


# ---------------------------------------------------------------------------
# whole-file columnar reader
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RibTable:
    """The per-``(prefix, peer)`` RIB an MRT file leaves, as columns.

    Row ``i`` holds prefix ``prefixes[prefix_id[i]]``, peer
    ``peer_asn[i]`` and AS path ``flat[offsets[i]:offsets[i + 1]]``
    (int64 numpy arrays).  ``prefixes`` lists every distinct prefix the
    file names, sorted, so rows in (prefix, peer) order have a
    non-decreasing ``prefix_id``.  The rows equal, row for row, those of
    :func:`repro.mrt.updates.rib_from_updates` over the file's RIB rows
    and updates; communities are not kept.
    """

    prefixes: List[object]
    prefix_id: object
    peer_asn: object
    flat: object
    offsets: object

    def __len__(self) -> int:
        return len(self.peer_asn)

    def rows(self) -> List[Tuple[object, int, Tuple[int, ...]]]:
        """``(prefix, peer_asn, as_path)`` per row."""
        hops, bounds = self.flat.tolist(), self.offsets.tolist()
        return [
            (self.prefixes[pid], peer, tuple(hops[bounds[i]:bounds[i + 1]]))
            for i, (pid, peer) in enumerate(
                zip(self.prefix_id.tolist(), self.peer_asn.tolist())
            )
        ]

    def prefixes_by_origin(self) -> Dict[int, List]:
        """Origin ASN (the last hop of a non-empty path) -> the sorted
        prefixes of the rows it originates, keyed in the order origins
        first appear; equal to
        :func:`repro.stream.corpus.prefixes_from_rows` over the rows."""
        rows = _np.flatnonzero(_np.diff(self.offsets))
        origin = self.flat[self.offsets[rows + 1] - 1]
        pid = self.prefix_id[rows]
        asns, first_row = _np.unique(origin, return_index=True)
        order = _np.lexsort((pid, origin))
        origin, pid = origin[order], pid[order]
        fresh = _np.ones(len(order), dtype=bool)
        fresh[1:] = (origin[1:] != origin[:-1]) | (pid[1:] != pid[:-1])
        by_origin: Dict[int, List] = {}
        prefixes = self.prefixes
        for asn, p in zip(origin[fresh].tolist(), pid[fresh].tolist()):
            by_origin.setdefault(asn, []).append(prefixes[p])
        return {
            asn: by_origin[asn]
            for asn in asns[_np.argsort(first_row)].tolist()
        }


def _require(ok, message: str) -> None:
    """Raise :class:`MrtFormatError` unless every element of ``ok``."""
    if not ok.all():
        raise c.MrtFormatError(message)


def _walk_attributes(buf, starts, ends):
    """Walk every RIB entry's attribute list ``buf[starts:ends]`` in
    lockstep, step ``k`` reading the ``k``-th attribute of every entry
    that has one, with :func:`decode_attributes`' checks.

    Returns the start of each entry's last AS_PATH value (-1: none),
    plus ``(entry, start, end)`` of every AS_PATH and AS4_PATH value,
    all of which must hold well-formed segments.
    """
    path_start = _np.full(len(starts), -1, dtype=_np.int64)
    found: List[Tuple[object, object, object]] = []
    pos = starts.copy()
    live = _np.flatnonzero(pos < ends)
    while len(live):
        p, end = pos[live], ends[live]
        _require(p + 2 <= end, "truncated attribute header")
        code = buf[p + 1]
        extended = (buf[p] & c.FLAG_EXTENDED_LENGTH) != 0
        value = p + _np.where(extended, 4, 3)
        _require(value <= end, "truncated attribute length")
        length = buf[p + 2].astype(_np.int64)
        wide = _np.flatnonzero(extended)
        length[wide] = (length[wide] << 8) | buf[p[wide] + 3]
        stop = value + length
        _require(stop <= end, "attribute overruns blob")
        _require(length[code == c.ATTR_COMMUNITIES] % 4 == 0,
                 "COMMUNITIES length not multiple of 4")
        as_path = code == c.ATTR_AS_PATH
        path_start[live[as_path]] = value[as_path]
        segmented = as_path | (code == c.ATTR_AS4_PATH)
        found.append((live[segmented], value[segmented], stop[segmented]))
        pos[live] = stop
        live = live[stop < end]
    if not found:
        empty = _np.zeros(0, dtype=_np.int64)
        return path_start, empty, empty, empty
    entry, value_start, value_end = (
        _np.concatenate(column) for column in zip(*found)
    )
    return path_start, entry, value_start, value_end


def _walk_segments(buf, starts, ends):
    """Walk the segments of every AS_PATH value ``buf[starts:ends]`` in
    lockstep, with :func:`decode_as_path`'s checks.

    Returns each segment's ``(value index, body start, ASN count, is
    AS_SET)``, ordered by position in ``buf``.
    """
    found: List[Tuple[object, object, object, object]] = []
    pos = starts.copy()
    live = _np.flatnonzero(pos < ends)
    while len(live):
        p, end = pos[live], ends[live]
        _require(p + 2 <= end, "truncated AS_PATH segment header")
        kind = buf[p]
        count = buf[p + 1].astype(_np.int64)
        stop = p + 2 + 4 * count
        _require(stop <= end, "truncated AS_PATH segment body")
        is_set = kind == c.SEGMENT_AS_SET
        _require(is_set | (kind == c.SEGMENT_AS_SEQUENCE),
                 "unknown AS_PATH segment type")
        found.append((live, p + 2, count, is_set))
        pos[live] = stop
        live = live[stop < end]
    if not found:
        empty = _np.zeros(0, dtype=_np.int64)
        return empty, empty, empty, empty.astype(bool)
    value, body, count, is_set = (_np.concatenate(col) for col in zip(*found))
    order = _np.argsort(body, kind="stable")
    return value[order], body[order], count[order], is_set[order]


def _decode_as_paths(buf, starts, ends):
    """The AS paths of TABLE_DUMP_V2 entries, from their attribute
    lists ``buf[starts:ends]``: int64 ``(flat, offsets)``."""
    path_start, entry, value_start, value_end = _walk_attributes(
        buf, starts, ends
    )
    value, body, count, is_set = _walk_segments(buf, value_start, value_end)
    # only each entry's last AS_PATH value is its path (an AS4_PATH in
    # a 4-byte-ASN dump is checked but not merged)
    chosen = value_start[value] == path_start[entry[value]]
    value, body, count, is_set = (
        value[chosen], body[chosen], count[chosen], is_set[chosen]
    )
    total = int(count.sum())
    segment = _np.repeat(_np.arange(len(count), dtype=_np.int64), count)
    first = _np.zeros(len(count), dtype=_np.int64)
    _np.cumsum(count[:-1], out=first[1:])
    at = _np.repeat(body - 4 * first, count) + 4 * _np.arange(total)
    flat = (
        (buf[at].astype(_np.int64) << 24)
        | (buf[at + 1].astype(_np.int64) << 16)
        | (buf[at + 2].astype(_np.int64) << 8)
        | buf[at + 3]
    )
    # AS_SET members are unordered: sort each set segment
    members = _np.flatnonzero(is_set[segment])
    flat[members] = flat[members][
        _np.lexsort((flat[members], segment[members]))
    ]
    offsets = _np.zeros(len(starts) + 1, dtype=_np.int64)
    _np.cumsum(
        _np.bincount(entry[value][segment], minlength=len(starts)),
        out=offsets[1:],
    )
    return flat, offsets


#: arrival rank of a file's first update row, above any RIB row's
_UPDATE_ARRIVAL = 1 << 62


class _Arrivals:
    """Every RIB row and UPDATE of an MRT file in arrival order, before
    last-wins: the RIB rows in file order, then the updates in file
    order, each UPDATE's withdrawals (tombstone rows) before its
    announcements.

    Row ``i`` has prefix id ``pid[i]``, peer ``peer[i]``, arrival rank
    ``seq[i]`` and path ``flat[starts[i]:starts[i] + lengths[i]]``;
    ``alive[i]`` is False for a withdrawal.
    """

    def __init__(self, data: bytes) -> None:
        prefix_ids: Dict[object, int] = {}
        peers: List[int] = []  # every PEER_INDEX_TABLE's peers, in turn
        n_peers = peer_base = 0
        bodies: List[bytes] = []
        entries: List[List[Tuple[int, int, int]]] = []  # per RIB record
        # per RIB record: prefix id, body start, peer base, v1 rows before
        records: List[Tuple[int, int, int, int]] = []
        base = n_entries = n_v1 = n_updates = 0
        # scalar-decoded rows (TABLE_DUMP v1, updates), whose paths
        # follow the TABLE_DUMP_V2 ones in ``flat``
        pid: List[int] = []
        peer: List[int] = []
        seq: List[int] = []
        alive: List[bool] = []
        starts: List[int] = []
        lengths: List[int] = []
        paths: List[Tuple[int, ...]] = []
        hops = 0

        def scalar_row(prefix, peer_asn, arrival, path) -> None:
            pid.append(prefix_ids.setdefault(prefix, len(prefix_ids)))
            peer.append(peer_asn)
            seq.append(arrival)
            alive.append(path is not None)
            starts.append(hops)
            lengths.append(0 if path is None else len(path))

        for mrt_type, subtype, body in _iter_frames(io.BytesIO(data)):
            if mrt_type == c.TYPE_TABLE_DUMP:
                if subtype == c.SUBTYPE_AFI_IPV4:
                    prefix, peer_asn, as_path, _ = _decode_table_dump_v1(body)
                    scalar_row(prefix, peer_asn, n_entries + n_v1, as_path)
                    n_v1 += 1
                    paths.append(as_path)
                    hops += len(as_path)
            elif mrt_type == c.TYPE_TABLE_DUMP_V2:
                if subtype == c.SUBTYPE_PEER_INDEX_TABLE:
                    table = _decode_peer_index(body)
                    peer_base, n_peers = len(peers), len(table)
                    peers += table
                elif subtype in _RIB_ADDRESS_BYTES:
                    prefix, record = _decode_rib_entries(
                        body, _RIB_ADDRESS_BYTES[subtype], n_peers
                    )
                    records.append((
                        prefix_ids.setdefault(prefix, len(prefix_ids)),
                        base,
                        peer_base,
                        n_v1,
                    ))
                    entries.append(record)
                    n_entries += len(record)
                    bodies.append(body)
                    base += len(body)
            elif mrt_type == c.TYPE_BGP4MP:
                if subtype == c.SUBTYPE_BGP4MP_MESSAGE_AS4:
                    update = _decode_bgp4mp(body)
                    if update is None:
                        continue
                    # every update arrives after every RIB row, and its
                    # withdrawals before its announcements
                    rows = [(prefix, None) for prefix in update.withdrawn]
                    rows += [(prefix, update.as_path)
                             for prefix in update.announced]
                    for prefix, path in rows:
                        scalar_row(prefix, update.peer_asn,
                                   _UPDATE_ARRIVAL + n_updates, path)
                        n_updates += 1
                    if update.announced:  # one path for all its prefixes
                        paths.append(update.as_path)
                        hops += len(update.as_path)

        # TABLE_DUMP_V2 entries: (peer index, start, end) per entry
        # within its record, made absolute
        per_record = _np.fromiter(map(len, entries), dtype=_np.int64,
                                  count=len(entries))
        entry = _np.fromiter(
            chain.from_iterable(chain.from_iterable(entries)),
            dtype=_np.int64, count=3 * n_entries,
        ).reshape(-1, 3)
        record = _np.array(records, dtype=_np.int64).reshape(-1, 4)
        body_start = _np.repeat(record[:, 1], per_record)
        buf = _np.frombuffer(b"".join(bodies), dtype=_np.uint8)
        flat, offsets = _decode_as_paths(
            buf, body_start + entry[:, 1], body_start + entry[:, 2]
        )

        def column(v2, scalar, dtype=_np.int64):
            return _np.concatenate((v2, _np.array(scalar, dtype=dtype)))

        self.prefixes = list(prefix_ids)
        self.pid = column(_np.repeat(record[:, 0], per_record), pid)
        self.peer = column(
            _np.array(peers, dtype=_np.int64)[
                _np.repeat(record[:, 2], per_record) + entry[:, 0]
            ],
            peer,
        )
        # a TABLE_DUMP_V2 entry's arrival rank counts the entries and the
        # v1 rows before it
        self.seq = column(
            _np.arange(n_entries, dtype=_np.int64)
            + _np.repeat(record[:, 3], per_record),
            seq,
        )
        self.alive = column(_np.ones(n_entries, dtype=bool), alive, bool)
        self.starts = column(offsets[:-1], starts)
        self.starts[n_entries:] += len(flat)
        self.lengths = column(_np.diff(offsets), lengths)
        self.flat = column(
            flat,
            _np.fromiter(chain.from_iterable(paths), dtype=_np.int64,
                         count=hops),
        )

    def table(self) -> RibTable:
        """Last arrival wins per (prefix, peer); a tombstone drops the
        key; rows sorted by (prefix, peer)."""
        by_prefix = sorted(range(len(self.prefixes)),
                           key=self.prefixes.__getitem__)
        rank = _np.empty(len(by_prefix), dtype=_np.int64)
        rank[by_prefix] = _np.arange(len(by_prefix))
        prefix_rank = rank[self.pid]
        order = _np.lexsort((self.seq, self.peer, prefix_rank))
        key_rank, key_peer = prefix_rank[order], self.peer[order]
        last = _np.ones(len(order), dtype=bool)
        last[:-1] = (key_rank[1:] != key_rank[:-1]) | (
            key_peer[1:] != key_peer[:-1]
        )
        win = order[last]
        win = win[self.alive[win]]
        flat, offsets = gather_rows(
            self.flat, self.starts[win], self.lengths[win]
        )
        return RibTable(
            prefixes=[self.prefixes[i] for i in by_prefix],
            prefix_id=prefix_rank[win],
            peer_asn=self.peer[win],
            flat=flat,
            offsets=offsets,
        )


def read_rib_table(path: str) -> RibTable:
    """Read a whole MRT file (RIB dumps and/or update streams) into a
    :class:`RibTable`.

    The file is read once and its framing walked record by record, with
    the same checks :class:`MrtReader` applies; the TABLE_DUMP_V2 entry
    attributes and AS_PATH segments are then walked in lockstep across
    all entries with numpy.  Malformed bytes raise
    :class:`~repro.mrt.constants.MrtFormatError`.  The two steps record
    the ``decode`` and ``table`` stages of :mod:`repro.perf`.
    """
    with open(path, "rb") as stream:
        data = stream.read()
    with perf.stage("decode"):
        arrivals = _Arrivals(data)
    with perf.stage("table"):
        return arrivals.table()


#: default read-ahead for the streaming file helpers (64 KiB)
DEFAULT_BUFFER_SIZE = 1 << 16


def read_rib_dump(path: str) -> List[RibRecord]:
    """Parse a TABLE_DUMP_V2 file into RIB rows."""
    return list(iter_rib_dump(path))


def iter_rib_dump(
    path: str, buffer_size: int = DEFAULT_BUFFER_SIZE
) -> Iterator[RibRecord]:
    """Stream RIB rows from a TABLE_DUMP_V2 file.

    Unlike :func:`read_rib_dump` this never materializes the full row
    list; the file is read through a bounded ``buffer_size`` buffer and
    rows are yielded as they decode.
    """
    # buffering=1 means line buffering (invalid for binary streams)
    with open(path, "rb", buffering=max(2, buffer_size)) as stream:
        for record in MrtReader(stream).iter_records():
            if isinstance(record, RibRecord):
                yield record
