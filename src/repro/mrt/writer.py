"""MRT TABLE_DUMP_V2 / BGP4MP binary writer.

Emits byte-exact RFC 6396 records: a ``PEER_INDEX_TABLE`` describing
the collector's peers, followed by one ``RIB_IPV4_UNICAST`` record per
prefix carrying each peer's path attributes (ORIGIN, AS_PATH as AS4
sequences, NEXT_HOP, and optional COMMUNITIES).
"""

from __future__ import annotations

import struct
from typing import Dict, IO, Iterable, List, Optional, Sequence, Tuple

from repro.graph.index import MAX_ASN
from repro.mrt import constants as c
from repro.net.prefix import Prefix
from repro.net.prefix6 import Prefix6


def _attr(flags: int, type_code: int, value: bytes) -> bytes:
    """Encode one BGP path attribute, using extended length when needed."""
    if len(value) > 255:
        flags |= c.FLAG_EXTENDED_LENGTH
        return struct.pack("!BBH", flags, type_code, len(value)) + value
    return struct.pack("!BBB", flags, type_code, len(value)) + value


def encode_as_path(path: Sequence[int], asn_size: int = 4) -> bytes:
    """AS_PATH attribute value: AS_SEQUENCE segments.

    ``asn_size=2`` encodes the legacy 2-byte form; 4-byte ASNs are
    substituted with AS_TRANS, as a 2-byte speaker would transmit them.
    """
    fmt = "!I" if asn_size == 4 else "!H"
    chunks: List[bytes] = []
    remaining = list(path)
    while remaining:
        segment, remaining = remaining[:255], remaining[255:]
        chunks.append(struct.pack("!BB", c.SEGMENT_AS_SEQUENCE, len(segment)))
        for asn in segment:
            if asn_size == 2 and asn > 0xFFFF:
                asn = c.AS_TRANS
            chunks.append(struct.pack(fmt, asn))
    return b"".join(chunks)


def encode_attributes(
    as_path: Sequence[int],
    next_hop: int = 0,
    communities: Sequence[Tuple[int, int]] = (),
    asn_size: int = 4,
) -> bytes:
    """The BGP path-attribute blob for one RIB entry.

    With ``asn_size=2`` (legacy TABLE_DUMP), an AS4_PATH attribute is
    added whenever the path contains 4-byte ASNs, per RFC 6793.
    """
    parts = [
        _attr(c.FLAG_TRANSITIVE, c.ATTR_ORIGIN, bytes([c.ORIGIN_IGP])),
        _attr(c.FLAG_TRANSITIVE, c.ATTR_AS_PATH,
              encode_as_path(as_path, asn_size)),
        _attr(c.FLAG_TRANSITIVE, c.ATTR_NEXT_HOP, struct.pack("!I", next_hop)),
    ]
    if asn_size == 2 and any(asn > 0xFFFF for asn in as_path):
        parts.append(
            _attr(
                c.FLAG_OPTIONAL | c.FLAG_TRANSITIVE,
                c.ATTR_AS4_PATH,
                encode_as_path(as_path, 4),
            )
        )
    if communities:
        value = b"".join(
            struct.pack("!HH", asn & 0xFFFF, data & 0xFFFF)
            for asn, data in communities
        )
        parts.append(
            _attr(c.FLAG_OPTIONAL | c.FLAG_TRANSITIVE, c.ATTR_COMMUNITIES, value)
        )
    return b"".join(parts)


class MrtWriter:
    """Streams MRT records to a binary file object."""

    def __init__(self, stream: IO[bytes], timestamp: int = 0):
        self._stream = stream
        self._timestamp = timestamp
        self._peer_index: Dict[int, int] = {}
        self._sequence = 0

    def _record(self, mrt_type: int, subtype: int, body: bytes) -> None:
        header = struct.pack(
            "!IHHI", self._timestamp, mrt_type, subtype, len(body)
        )
        self._stream.write(header)
        self._stream.write(body)

    # ------------------------------------------------------------------
    # TABLE_DUMP_V2
    # ------------------------------------------------------------------

    def write_peer_index_table(
        self,
        peer_asns: Sequence[int],
        collector_id: int = 0x0A000001,
        view_name: str = "repro",
    ) -> None:
        """Emit the PEER_INDEX_TABLE; must precede any RIB records."""
        # table position is the contract here: each peer maps to the
        # first position it holds in the caller's order
        self._peer_index = {}
        for i, asn in enumerate(peer_asns):
            if not 0 <= asn <= MAX_ASN:
                raise ValueError(
                    f"ASN {asn} outside the 32-bit ASN space [0, {MAX_ASN}]"
                )
            self._peer_index.setdefault(asn, i)
        name = view_name.encode("ascii")
        body = [struct.pack("!I", collector_id), struct.pack("!H", len(name)), name]
        body.append(struct.pack("!H", len(peer_asns)))
        for i, asn in enumerate(peer_asns):
            peer_ip = 0x0A000100 + i  # synthetic 10.0.1.x addresses
            body.append(
                struct.pack(
                    "!BIII", c.PEER_TYPE_AS32, peer_ip, peer_ip, asn
                )
            )
        self._record(
            c.TYPE_TABLE_DUMP_V2, c.SUBTYPE_PEER_INDEX_TABLE, b"".join(body)
        )

    def write_rib_entry(
        self,
        prefix,
        entries: Sequence[Tuple[int, Sequence[int], Sequence[Tuple[int, int]]]],
    ) -> None:
        """Emit one RIB_IPV4_UNICAST / RIB_IPV6_UNICAST record.

        ``prefix`` may be a :class:`Prefix` or :class:`Prefix6`;
        ``entries`` is a sequence of ``(peer_asn, as_path, communities)``
        tuples; peers must have been declared in the peer index table.
        """
        if not self._peer_index:
            raise c.MrtFormatError("PEER_INDEX_TABLE must be written first")
        is_v6 = isinstance(prefix, Prefix6)
        address_bytes = 16 if is_v6 else 4
        subtype = (
            c.SUBTYPE_RIB_IPV6_UNICAST if is_v6 else c.SUBTYPE_RIB_IPV4_UNICAST
        )
        octets = (prefix.length + 7) // 8
        prefix_bytes = prefix.network.to_bytes(address_bytes, "big")[:octets]
        body = [struct.pack("!I", self._sequence), bytes([prefix.length]),
                prefix_bytes, struct.pack("!H", len(entries))]
        self._sequence += 1
        for peer_asn, as_path, communities in entries:
            try:
                peer_idx = self._peer_index[peer_asn]
            except KeyError:
                raise c.MrtFormatError(
                    f"peer AS{peer_asn} not in PEER_INDEX_TABLE"
                ) from None
            attrs = encode_attributes(as_path, communities=tuple(communities))
            body.append(struct.pack("!HIH", peer_idx, self._timestamp, len(attrs)))
            body.append(attrs)
        self._record(c.TYPE_TABLE_DUMP_V2, subtype, b"".join(body))

    # ------------------------------------------------------------------
    # legacy TABLE_DUMP (v1)
    # ------------------------------------------------------------------

    def write_table_dump_entry(
        self,
        prefix: Prefix,
        peer_asn: int,
        as_path: Sequence[int],
        communities: Sequence[Tuple[int, int]] = (),
        peer_ip: int = 0x0A000002,
    ) -> None:
        """Emit one legacy TABLE_DUMP record (one prefix × one peer).

        The 1998-era format: 2-byte ASNs on the wire, with AS4_PATH
        carrying the true path when 4-byte ASNs are involved.
        """
        attrs = encode_attributes(
            as_path, communities=tuple(communities), asn_size=2
        )
        wire_peer = c.AS_TRANS if peer_asn > 0xFFFF else peer_asn
        body = (
            struct.pack("!HH", 0, self._sequence & 0xFFFF)  # view, sequence
            + struct.pack("!IB", prefix.network, prefix.length)
            + bytes([1])  # status
            + struct.pack("!I", self._timestamp)  # originated time
            + struct.pack("!I", peer_ip)
            + struct.pack("!H", wire_peer)
            + struct.pack("!H", len(attrs))
            + attrs
        )
        self._sequence += 1
        self._record(c.TYPE_TABLE_DUMP, c.SUBTYPE_AFI_IPV4, body)

    # ------------------------------------------------------------------
    # BGP4MP
    # ------------------------------------------------------------------

    def write_bgp4mp_update(
        self,
        peer_asn: int,
        local_asn: int,
        as_path: Sequence[int],
        announced: Sequence[Prefix],
        communities: Sequence[Tuple[int, int]] = (),
        withdrawn: Sequence[Prefix] = (),
    ) -> None:
        """Emit a BGP4MP_MESSAGE_AS4 record wrapping a BGP UPDATE.

        A pure withdrawal (no ``announced`` prefixes) carries an empty
        path-attribute blob, as RFC 4271 speakers send it.
        """
        attrs = (
            encode_attributes(as_path, communities=tuple(communities))
            if announced
            else b""
        )
        nlri = b"".join(
            bytes([p.length]) + p.network.to_bytes(4, "big")[: (p.length + 7) // 8]
            for p in announced
        )
        wd = b"".join(
            bytes([p.length]) + p.network.to_bytes(4, "big")[: (p.length + 7) // 8]
            for p in withdrawn
        )
        update_body = (
            struct.pack("!H", len(wd))
            + wd
            + struct.pack("!H", len(attrs))
            + attrs
            + nlri
        )
        msg_len = 16 + 2 + 1 + len(update_body)
        message = (
            c.BGP_MARKER
            + struct.pack("!HB", msg_len, c.BGP_MSG_UPDATE)
            + update_body
        )
        body = (
            struct.pack("!IIHH", peer_asn, local_asn, 0, 1)  # AFI 1 = IPv4
            + (0x0A000002).to_bytes(4, "big")  # peer IP
            + (0x0A000001).to_bytes(4, "big")  # local IP
            + message
        )
        self._record(c.TYPE_BGP4MP, c.SUBTYPE_BGP4MP_MESSAGE_AS4, body)


def write_rib_dump(
    path: str,
    rib: Iterable,
    timestamp: int = 0,
    view_name: str = "repro",
) -> int:
    """Write a corpus RIB (``repro.bgp.RibEntry`` rows) as an MRT file.

    Entries are grouped by prefix into single RIB records, as real
    table dumps are.  Returns the number of RIB records written.
    """
    grouped: Dict[Prefix, List] = {}
    peers: List[int] = []
    seen_peers = set()
    for entry in rib:
        grouped.setdefault(entry.prefix, []).append(entry)
        if entry.vp not in seen_peers:
            seen_peers.add(entry.vp)
            peers.append(entry.vp)
    with open(path, "wb") as stream:
        writer = MrtWriter(stream, timestamp=timestamp)
        writer.write_peer_index_table(peers, view_name=view_name)
        for prefix in sorted(grouped):
            writer.write_rib_entry(
                prefix,
                [
                    (e.vp, e.path, e.communities)
                    for e in grouped[prefix]
                ],
            )
    return len(grouped)
