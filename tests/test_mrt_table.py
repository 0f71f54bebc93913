"""The columnar whole-file reader against the per-message one.

``read_rib_table`` must give the rows ``MrtReader`` +
``rib_from_updates`` give over the same file, and malformed bytes must
make both raise ``MrtFormatError`` (nothing else) or leave them in
agreement.
"""

import io
import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.asrank import ASRank
from repro.core.paths import PathSet
from repro.mrt import constants as c
from repro.mrt.reader import (
    MrtReader,
    RibRecord,
    UpdateRecord,
    read_rib_table,
)
from repro.mrt.updates import rib_from_updates
from repro.mrt.writer import MrtWriter
from repro.net.prefix import Prefix
from repro.net.prefix6 import Prefix6
from repro.stream.corpus import prefixes_from_rows

# ---------------------------------------------------------------------------
# hand-built MRT bytes
# ---------------------------------------------------------------------------


def _record(mrt_type, subtype, body):
    return struct.pack("!IHHI", 0, mrt_type, subtype, len(body)) + body


def _attr(code, value, extended=False, flags=c.FLAG_TRANSITIVE):
    if extended or len(value) > 255:
        return struct.pack(
            "!BBH", flags | c.FLAG_EXTENDED_LENGTH, code, len(value)
        ) + value
    return struct.pack("!BBB", flags, code, len(value)) + value


def _segments(segments):
    return b"".join(
        struct.pack(f"!BB{len(asns)}I", kind, len(asns), *asns)
        for kind, asns in segments
    )


def _peer_index(peer_asns):
    body = struct.pack("!IH", 0x0A000001, 0)
    body += struct.pack("!H", len(peer_asns))
    for i, asn in enumerate(peer_asns):
        body += struct.pack("!BIII", c.PEER_TYPE_AS32, i, i, asn)
    return _record(c.TYPE_TABLE_DUMP_V2, c.SUBTYPE_PEER_INDEX_TABLE, body)


def _rib(prefix, entries):
    """One TABLE_DUMP_V2 RIB record; ``entries`` are (peer index,
    attribute blob)."""
    v6 = isinstance(prefix, Prefix6)
    width = 16 if v6 else 4
    octets = (prefix.length + 7) // 8
    body = struct.pack("!IB", 0, prefix.length)
    body += prefix.network.to_bytes(width, "big")[:octets]
    body += struct.pack("!H", len(entries))
    for peer_idx, attrs in entries:
        body += struct.pack("!HIH", peer_idx, 0, len(attrs)) + attrs
    subtype = (
        c.SUBTYPE_RIB_IPV6_UNICAST if v6 else c.SUBTYPE_RIB_IPV4_UNICAST
    )
    return _record(c.TYPE_TABLE_DUMP_V2, subtype, body)


def _written(write):
    stream = io.BytesIO()
    write(MrtWriter(stream))
    return stream.getvalue()


# ---------------------------------------------------------------------------
# the two readers
# ---------------------------------------------------------------------------


def _scalar_rows(data):
    rows, updates = [], []
    for record in MrtReader(io.BytesIO(data)):
        if isinstance(record, RibRecord):
            rows.append(record)
        elif isinstance(record, UpdateRecord):
            updates.append(record)
    return rib_from_updates(updates, base=rows)


def _read_table(data):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "dump.mrt")
        with open(path, "wb") as handle:
            handle.write(data)
        return read_rib_table(path)


def _triples(rows):
    return [(row.prefix, row.peer_asn, row.as_path) for row in rows]


# ---------------------------------------------------------------------------
# generated dumps
# ---------------------------------------------------------------------------

_V4 = tuple(Prefix.parse(text) for text in (
    "10.0.0.0/8", "10.1.0.0/16", "192.0.2.0/24", "198.51.100.128/25",
))
_V6 = tuple(Prefix6.parse(text) for text in (
    "2001:db8::/32", "2001:db8:1::/48",
))
_ASNS = st.sampled_from((1, 2, 3, 7, 65000, 23456, 4200000001, 2**32 - 1))
_SEGMENT = st.tuples(
    st.sampled_from((c.SEGMENT_AS_SEQUENCE, c.SEGMENT_AS_SET)),
    st.lists(_ASNS, max_size=4),
)


@st.composite
def _v2_attrs(draw):
    """An entry's attributes: AS_PATH (maybe none, maybe extended
    length, maybe twice: the last wins), ORIGIN, NEXT_HOP, COMMUNITIES
    and an unmerged AS4_PATH."""
    parts = [_attr(c.ATTR_ORIGIN, b"\0")]
    for _ in range(draw(st.sampled_from((1, 1, 1, 0, 2)))):
        parts.append(_attr(
            c.ATTR_AS_PATH,
            _segments(draw(st.lists(_SEGMENT, max_size=3))),
            extended=draw(st.booleans()),
        ))
    parts.append(_attr(c.ATTR_NEXT_HOP, b"\x0a\0\0\x01"))
    if draw(st.booleans()):
        parts.append(_attr(
            c.ATTR_COMMUNITIES, b"\0\x01\0\x02" * draw(st.integers(0, 2)),
            flags=c.FLAG_OPTIONAL | c.FLAG_TRANSITIVE,
        ))
    if draw(st.booleans()):
        parts.append(_attr(
            c.ATTR_AS4_PATH, _segments([(c.SEGMENT_AS_SEQUENCE, [9, 8])]),
            flags=c.FLAG_OPTIONAL | c.FLAG_TRANSITIVE,
        ))
    draw(st.randoms()).shuffle(parts)
    return b"".join(parts)


@st.composite
def _dumps(draw):
    """RIB records over few prefixes and peers (so (prefix, peer) keys
    repeat across records), TABLE_DUMP v1 rows with AS4_PATH, and
    UPDATEs, withdraw-then-announce among them, in any order."""
    peer_asns = draw(st.lists(st.sampled_from((1, 2, 3, 4200000001)),
                              min_size=1, max_size=4))
    chunks = [_peer_index(peer_asns)]
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(("rib", "rib", "v1", "update", "peers")))
        if kind == "rib":
            prefix = draw(st.sampled_from(_V4 + _V6))
            entries = draw(st.lists(
                st.tuples(st.integers(0, len(peer_asns) - 1), _v2_attrs()),
                max_size=4,
            ))
            chunks.append(_rib(prefix, entries))
        elif kind == "v1":
            prefix = draw(st.sampled_from(_V4))
            peer = draw(st.sampled_from((1, 2, 3)))
            path = draw(st.lists(_ASNS, max_size=4))
            chunks.append(_written(lambda w: w.write_table_dump_entry(
                prefix, peer, path)))
        elif kind == "update":
            peer = draw(st.sampled_from((1, 2, 3)))
            path = draw(st.lists(_ASNS, max_size=4))
            announced = draw(st.lists(st.sampled_from(_V4), max_size=2))
            withdrawn = draw(st.lists(st.sampled_from(_V4), max_size=2))
            chunks.append(_written(lambda w: w.write_bgp4mp_update(
                peer, c.AS_TRANS, path, announced, withdrawn=withdrawn)))
        else:  # a replacement peer table, which later records index
            peer_asns = draw(st.lists(st.sampled_from((1, 2, 5)),
                                      min_size=1, max_size=3))
            chunks.append(_peer_index(peer_asns))
    return b"".join(chunks)


class TestDifferential:
    @settings(max_examples=150, deadline=None)
    @given(data=_dumps())
    def test_table_equals_scalar_chain(self, data):
        rows = _scalar_rows(data)
        table = _read_table(data)
        assert table.rows() == _triples(rows)
        assert table.prefixes_by_origin() == prefixes_from_rows(rows)
        assert table.flat.dtype == table.offsets.dtype == np.int64

    @settings(max_examples=40, deadline=None)
    @given(data=_dumps())
    def test_from_mrt_equals_scalar_chain(self, data):
        rows = _scalar_rows(data)
        want = PathSet.sanitize(row.as_path for row in rows)
        with tempfile.TemporaryDirectory() as directory:
            path = os.path.join(directory, "dump.mrt")
            with open(path, "wb") as handle:
                handle.write(data)
            facade = ASRank.from_mrt(path)
        assert facade.paths.paths == want.paths
        assert facade.paths.counts == want.counts
        assert facade.paths.stats == want.stats
        assert facade.prefixes_by_asn == prefixes_from_rows(rows)

    def test_as_set_sorted_and_sequence_kept(self):
        attrs = _attr(c.ATTR_AS_PATH, _segments([
            (c.SEGMENT_AS_SEQUENCE, [3, 1]),
            (c.SEGMENT_AS_SET, [9, 7, 8]),
        ]))
        data = _peer_index([1]) + _rib(_V4[0], [(0, attrs)])
        assert _read_table(data).rows() == [(_V4[0], 1, (3, 1, 7, 8, 9))]

    def test_v4_key_sorts_before_v6_key_of_same_network_and_length(self):
        v4, v6 = Prefix.parse("0.0.0.0/0"), Prefix6.parse("::/0")
        attrs = _attr(c.ATTR_AS_PATH, _segments([
            (c.SEGMENT_AS_SEQUENCE, [1, 2]),
        ]))
        want = [(v4, 1, (1, 2)), (v6, 1, (1, 2))]
        for first, second in ((v4, v6), (v6, v4)):
            data = (_peer_index([1]) + _rib(first, [(0, attrs)])
                    + _rib(second, [(0, attrs)]))
            assert _read_table(data).rows() == want
            assert _triples(_scalar_rows(data)) == want

    def test_empty_file(self):
        table = _read_table(b"")
        assert len(table) == 0 and table.rows() == []
        assert table.prefixes_by_origin() == {}


# ---------------------------------------------------------------------------
# malformed bytes
# ---------------------------------------------------------------------------


def _outcome(read, data):
    try:
        return read(data)
    except c.MrtFormatError:
        return "MrtFormatError"


def _mutate(data, kind, at, value):
    if not data:
        return data
    at %= len(data)
    if kind == "truncate":
        return data[:at]
    if kind == "flip":
        return data[:at] + bytes([data[at] ^ (1 << value % 8)]) + data[at + 1:]
    # inflate a one- or two-byte length field (or whatever sits there)
    width = 1 + value % 2
    return data[:at] + b"\xff" * width + data[at + width:]


class TestMalformed:
    @settings(max_examples=300, deadline=None)
    @given(
        data=_dumps(),
        mutations=st.lists(
            st.tuples(
                st.sampled_from(("truncate", "flip", "inflate")),
                st.integers(0, 2**16),
                st.integers(0, 255),
            ),
            min_size=1,
            max_size=3,
        ),
    )
    def test_both_raise_or_agree(self, data, mutations):
        for kind, at, value in mutations:
            data = _mutate(data, kind, at, value)
        scalar = _outcome(lambda d: _triples(_scalar_rows(d)), data)
        table = _outcome(lambda d: _read_table(d).rows(), data)
        assert scalar == table


class TestPrefixLength:
    """An NLRI prefix length beyond the address width is a format
    error, not a ``PrefixError`` escaping the reader."""

    @staticmethod
    def _assert_rejected(data):
        with pytest.raises(c.MrtFormatError):
            list(MrtReader(io.BytesIO(data)))
        with pytest.raises(c.MrtFormatError):
            _read_table(data)

    @pytest.mark.parametrize("prefix, length", [
        (_V4[2], 33), (_V4[2], 200), (_V6[0], 129), (_V6[0], 200),
    ])
    def test_rib_record(self, prefix, length):
        record = bytearray(_rib(prefix, [(0, b"")]))
        record[12 + 4] = length  # after the common header and sequence
        self._assert_rejected(_peer_index([1]) + bytes(record))

    @pytest.mark.parametrize("field", ["announced", "withdrawn"])
    def test_bgp4mp(self, field):
        prefixes = {field: [Prefix.parse("192.0.2.0/24")]}
        data = bytearray(_written(lambda w: w.write_bgp4mp_update(
            1, 2, (1, 2),
            prefixes.get("announced", []),
            withdrawn=prefixes.get("withdrawn", []),
        )))
        # the /24's length byte sits right before its three octets
        at = data.rindex(bytes([24, 192, 0, 2]))
        data[at] = 33
        self._assert_rejected(bytes(data))

    def test_table_dump_v1(self):
        data = bytearray(_written(lambda w: w.write_table_dump_entry(
            Prefix.parse("192.0.2.0/24"), 1, (1, 2))))
        data[12 + 8] = 33  # view(2) seq(2) prefix(4), then the length
        self._assert_rejected(bytes(data))
