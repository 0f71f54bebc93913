"""Unit and property tests for the MRT (RFC 6396) codec."""

import io
import struct

import pytest
from hypothesis import given, strategies as st

from repro.mrt import constants as c
from repro.mrt.reader import (
    MrtReader,
    RibRecord,
    UpdateRecord,
    decode_as_path,
    decode_attributes,
)
from repro.mrt.writer import MrtWriter, encode_as_path, encode_attributes
from repro.net.prefix import Prefix


class TestAsPathCodec:
    def test_round_trip_simple(self):
        path = (65001, 65002, 65003)
        assert decode_as_path(encode_as_path(path)) == path

    def test_round_trip_long_path_multiple_segments(self):
        path = tuple(range(1, 600))  # forces >255 segmentation
        assert decode_as_path(encode_as_path(path)) == path

    def test_empty_path(self):
        assert decode_as_path(encode_as_path(())) == ()

    def test_as_set_decoded_sorted(self):
        blob = struct.pack("!BB", c.SEGMENT_AS_SET, 3) + struct.pack(
            "!3I", 30, 10, 20
        )
        assert decode_as_path(blob) == (10, 20, 30)

    def test_truncated_segment_raises(self):
        blob = struct.pack("!BB", c.SEGMENT_AS_SEQUENCE, 5) + b"\0\0\0\1"
        with pytest.raises(c.MrtFormatError):
            decode_as_path(blob)

    def test_unknown_segment_type_raises(self):
        blob = struct.pack("!BB", 9, 1) + struct.pack("!I", 1)
        with pytest.raises(c.MrtFormatError):
            decode_as_path(blob)


class TestAttributeCodec:
    def test_round_trip_with_communities(self):
        communities = ((65000, 1001), (65001, 1002))
        blob = encode_attributes((1, 2, 3), communities=communities)
        path, comms = decode_attributes(blob)
        assert path == (1, 2, 3)
        assert comms == communities

    def test_no_communities(self):
        blob = encode_attributes((7, 8))
        path, comms = decode_attributes(blob)
        assert path == (7, 8)
        assert comms == ()

    def test_extended_length_attribute(self):
        # a path long enough that AS_PATH exceeds 255 bytes
        long_path = tuple(range(1, 100))
        blob = encode_attributes(long_path)
        path, _ = decode_attributes(blob)
        assert path == long_path

    def test_truncated_attribute_raises(self):
        blob = encode_attributes((1, 2, 3))[:-2]
        with pytest.raises(c.MrtFormatError):
            decode_attributes(blob)

    def test_bad_communities_length_raises(self):
        value = b"\0\0\0"  # not a multiple of 4
        blob = struct.pack("!BBB", c.FLAG_OPTIONAL, c.ATTR_COMMUNITIES,
                           len(value)) + value
        with pytest.raises(c.MrtFormatError):
            decode_attributes(blob)


def roundtrip_rib(entries_by_prefix, peers):
    stream = io.BytesIO()
    writer = MrtWriter(stream, timestamp=1234)
    writer.write_peer_index_table(peers)
    for prefix, entries in entries_by_prefix:
        writer.write_rib_entry(prefix, entries)
    stream.seek(0)
    return [r for r in MrtReader(stream) if isinstance(r, RibRecord)]


class TestTableDumpV2:
    def test_single_entry_round_trip(self):
        prefix = Prefix.parse("192.0.2.0/24")
        records = roundtrip_rib(
            [(prefix, [(65010, (65010, 65020), ((65010, 1001),))])],
            peers=[65010],
        )
        assert len(records) == 1
        record = records[0]
        assert record.prefix == prefix
        assert record.peer_asn == 65010
        assert record.as_path == (65010, 65020)
        assert record.communities == ((65010, 1001),)

    def test_multiple_peers_one_prefix(self):
        prefix = Prefix.parse("10.0.0.0/8")
        records = roundtrip_rib(
            [(prefix, [(1, (1, 5), ()), (2, (2, 5), ())])], peers=[1, 2]
        )
        assert {r.peer_asn for r in records} == {1, 2}

    def test_various_prefix_lengths(self):
        prefixes = [
            Prefix.parse("10.0.0.0/8"),
            Prefix.parse("172.16.0.0/12"),
            Prefix.parse("192.0.2.0/24"),
            Prefix.parse("192.0.2.128/25"),
            Prefix.parse("0.0.0.0/0"),
        ]
        records = roundtrip_rib(
            [(p, [(1, (1, 2), ())]) for p in prefixes], peers=[1]
        )
        assert [r.prefix for r in records] == prefixes

    def test_peer_table_keeps_first_position(self):
        # a peer listed twice is addressed by its first table position
        prefix = Prefix.parse("10.0.0.0/8")
        records = roundtrip_rib(
            [(prefix, [(20, (20, 5), ()), (30, (30, 5), ())])],
            peers=[30, 10, 30, 20],
        )
        assert [(r.peer_asn, r.as_path) for r in records] == [
            (20, (20, 5)),
            (30, (30, 5)),
        ]

    @pytest.mark.parametrize("asn", [-1, 2**32])
    def test_peer_outside_32_bits_rejected(self, asn):
        writer = MrtWriter(io.BytesIO())
        with pytest.raises(ValueError, match="32-bit"):
            writer.write_peer_index_table([1, asn])

    def test_rib_before_peer_table_rejected_on_write(self):
        writer = MrtWriter(io.BytesIO())
        with pytest.raises(c.MrtFormatError):
            writer.write_rib_entry(Prefix.parse("10.0.0.0/8"), [(1, (1,), ())])

    def test_unknown_peer_rejected_on_write(self):
        writer = MrtWriter(io.BytesIO())
        writer.write_peer_index_table([1])
        with pytest.raises(c.MrtFormatError):
            writer.write_rib_entry(Prefix.parse("10.0.0.0/8"), [(2, (2,), ())])

    def test_rib_before_peer_table_rejected_on_read(self):
        stream = io.BytesIO()
        writer = MrtWriter(stream)
        writer.write_peer_index_table([1])
        writer.write_rib_entry(Prefix.parse("10.0.0.0/8"), [(1, (1,), ())])
        data = stream.getvalue()
        # locate and strip the first record (the peer index table)
        first_len = struct.unpack("!I", data[8:12])[0]
        stripped = data[12 + first_len:]
        with pytest.raises(c.MrtFormatError):
            list(MrtReader(io.BytesIO(stripped)))

    def test_truncated_stream_raises(self):
        stream = io.BytesIO()
        writer = MrtWriter(stream)
        writer.write_peer_index_table([1])
        writer.write_rib_entry(Prefix.parse("10.0.0.0/8"), [(1, (1,), ())])
        data = stream.getvalue()[:-3]
        with pytest.raises(c.MrtFormatError):
            list(MrtReader(io.BytesIO(data)))

    def test_unknown_mrt_type_skipped(self):
        stream = io.BytesIO()
        # a bogus record type 99 followed by a real table
        stream.write(struct.pack("!IHHI", 0, 99, 0, 4) + b"\0\0\0\0")
        writer = MrtWriter(stream)
        writer.write_peer_index_table([1])
        writer.write_rib_entry(Prefix.parse("10.0.0.0/8"), [(1, (1,), ())])
        stream.seek(0)
        records = [r for r in MrtReader(stream) if isinstance(r, RibRecord)]
        assert len(records) == 1


class TestBgp4mp:
    def test_update_round_trip(self):
        stream = io.BytesIO()
        writer = MrtWriter(stream, timestamp=7)
        writer.write_bgp4mp_update(
            peer_asn=65001,
            local_asn=65002,
            as_path=(65001, 65003),
            announced=[Prefix.parse("192.0.2.0/24"), Prefix.parse("10.0.0.0/8")],
            communities=((65001, 1002),),
        )
        stream.seek(0)
        records = [r for r in MrtReader(stream) if isinstance(r, UpdateRecord)]
        assert len(records) == 1
        update = records[0]
        assert update.peer_asn == 65001
        assert update.local_asn == 65002
        assert update.as_path == (65001, 65003)
        assert update.announced == (
            Prefix.parse("192.0.2.0/24"),
            Prefix.parse("10.0.0.0/8"),
        )
        assert update.communities == ((65001, 1002),)

    def test_bad_marker_raises(self):
        stream = io.BytesIO()
        writer = MrtWriter(stream)
        writer.write_bgp4mp_update(1, 2, (1,), [Prefix.parse("10.0.0.0/8")])
        data = bytearray(stream.getvalue())
        data[12 + 12 + 8] ^= 0xFF  # corrupt the first marker byte
        with pytest.raises(c.MrtFormatError):
            list(MrtReader(io.BytesIO(bytes(data))))


asn_strategy = st.integers(min_value=1, max_value=2**32 - 1)
path_strategy = st.lists(asn_strategy, min_size=1, max_size=12).map(tuple)
prefix_strategy = st.integers(min_value=0, max_value=24).flatmap(
    lambda length: st.integers(min_value=0, max_value=(1 << 32) - 1).map(
        lambda raw: Prefix(
            (raw >> (32 - length) << (32 - length)) if length else 0, length
        )
    )
)


@given(path_strategy)
def test_as_path_round_trip_property(path):
    assert decode_as_path(encode_as_path(path)) == path


@given(
    prefix_strategy,
    path_strategy,
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=0xFFFF),
            st.integers(min_value=0, max_value=0xFFFF),
        ),
        max_size=5,
    ).map(tuple),
)
def test_rib_record_round_trip_property(prefix, path, communities):
    records = roundtrip_rib([(prefix, [(9, path, communities)])], peers=[9])
    assert records[0].prefix == prefix
    assert records[0].as_path == path
    assert records[0].communities == communities
