"""Malformed section tables in REPROSNP/REPROTLN headers.

Every mutation below keeps the payload bytes (and so the whole-payload
checksum) intact and rewrites only the JSON section table, so the one
thing under test is the table check every load path runs before it
slices the payload: each must fail with the container's typed format
error, never a ``KeyError``/``TypeError``/``IndexError``.
"""

from __future__ import annotations

import json
import struct

import pytest

from repro.serve.snapshot import Snapshot, SnapshotFormatError
from repro.serve.store import load_snapshot, save_snapshot
from repro.timeline import (
    TimelineFormatError,
    build_timeline,
    load_timeline,
    save_timeline,
)

_FIXED = struct.Struct("<8sII")


def _rewrite_header(path: str, mutate) -> None:
    """Apply ``mutate`` to the parsed header and write the file back
    with the payload bytes unchanged."""
    with open(path, "rb") as stream:
        blob = stream.read()
    magic, fmt, header_len = _FIXED.unpack_from(blob)
    header = json.loads(blob[_FIXED.size:_FIXED.size + header_len])
    payload = blob[_FIXED.size + header_len:]
    mutate(header)
    text = json.dumps(header).encode()
    with open(path, "wb") as stream:
        stream.write(_FIXED.pack(magic, fmt, len(text)) + text + payload)


def _payload_size(header) -> int:
    return max(e["offset"] + e["length"] for e in header["sections"].values())


def _first(header):
    return header["sections"][min(header["sections"])]


def _rename(key):
    def mutate(header):
        entry = _first(header)
        entry[key + "_"] = entry.pop(key)
    return mutate


def _set(key, value):
    def mutate(header):
        _first(header)[key] = value
    return mutate


def _not_a_dict(header):
    name = min(header["sections"])
    header["sections"][name] = [0, 8, "00" * 32]


def _table_not_a_dict(header):
    header["sections"] = list(header["sections"].values())


def _past_end(header):
    entry = _first(header)
    entry["length"] = _payload_size(header) - entry["offset"] + 1


def _overlap(header):
    spans = sorted(
        (e for e in header["sections"].values() if e["length"]),
        key=lambda e: e["offset"],
    )
    # move the second section onto the first: still inside the file
    spans[1]["offset"] = spans[0]["offset"]


MUTATIONS = {
    "offset-renamed": _rename("offset"),
    "length-renamed": _rename("length"),
    "sha256-renamed": _rename("sha256"),
    "negative-offset": _set("offset", -64),
    "negative-length": _set("length", -1),
    "string-offset": _set("offset", "0"),
    "float-length": _set("length", 8.5),
    "bool-offset": _set("offset", True),
    "short-sha256": _set("sha256", "abc123"),
    "non-hex-sha256": _set("sha256", "z" * 64),
    "int-sha256": _set("sha256", 12),
    "entry-not-a-dict": _not_a_dict,
    "table-not-a-dict": _table_not_a_dict,
    "past-end-of-file": _past_end,
    "overlapping-sections": _overlap,
}


@pytest.fixture(scope="module")
def snapshot(tmp_path_factory):
    as_rel = tmp_path_factory.mktemp("table") / "w.as-rel.txt"
    as_rel.write_text("1|2|-1\n1|3|-1\n2|4|-1\n3|4|0\n")
    return Snapshot.from_files(str(as_rel))


@pytest.fixture()
def snapshot_file(snapshot, tmp_path):
    path = str(tmp_path / "w.snap")
    save_snapshot(snapshot, path)
    return path


@pytest.fixture()
def timeline_file(snapshot, tmp_path):
    path = str(tmp_path / "w.tln")
    save_timeline(build_timeline([("a", snapshot), ("b", snapshot)]), path)
    return path


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@pytest.mark.parametrize("mode", ["eager", "mmap"])
def test_snapshot_table_mutation_is_typed(snapshot_file, mode, mutation):
    _rewrite_header(snapshot_file, MUTATIONS[mutation])
    with pytest.raises(SnapshotFormatError):
        load_snapshot(snapshot_file, mode=mode)


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_timeline_table_mutation_is_typed(timeline_file, mutation):
    _rewrite_header(timeline_file, MUTATIONS[mutation])
    with pytest.raises(TimelineFormatError):
        load_timeline(timeline_file)


@pytest.mark.parametrize("mode", ["eager", "mmap"])
def test_untouched_table_loads(snapshot, snapshot_file, mode):
    """The rewrite itself (unpadded header) is not what fails."""
    _rewrite_header(snapshot_file, lambda header: None)
    loaded = load_snapshot(snapshot_file, mode=mode)
    assert loaded.encode_sections() == snapshot.encode_sections()
    loaded.close()


def test_untouched_timeline_loads(snapshot, timeline_file):
    _rewrite_header(timeline_file, lambda header: None)
    tln = load_timeline(timeline_file, verify=True)
    assert tln.snapshot(1).encode_sections() == snapshot.encode_sections()
    tln.close()


@pytest.mark.parametrize("section", ["links", "ranks", "cones:recursive"])
@pytest.mark.parametrize("mode", ["eager", "mmap"])
def test_missing_section_is_typed(snapshot_file, mode, section):
    def drop(header):
        header["sections"][section + "_"] = header["sections"].pop(section)

    _rewrite_header(snapshot_file, drop)
    with pytest.raises(SnapshotFormatError, match="missing"):
        load_snapshot(snapshot_file, mode=mode).encode_sections()


@pytest.mark.parametrize(
    "text", [b"5", b'["version", "payload_sha256", "sections"]']
)
@pytest.mark.parametrize("mode", ["eager", "mmap"])
def test_header_not_an_object(snapshot_file, mode, text):
    with open(snapshot_file, "rb") as stream:
        magic, fmt, _len = _FIXED.unpack_from(stream.read())
    with open(snapshot_file, "wb") as stream:
        stream.write(_FIXED.pack(magic, fmt, len(text)) + text)
    with pytest.raises(SnapshotFormatError, match="not a JSON object"):
        load_snapshot(snapshot_file, mode=mode)


def test_era_table_not_a_list(timeline_file):
    def mutate(header):
        header["eras"] = 5

    _rewrite_header(timeline_file, mutate)
    with pytest.raises(TimelineFormatError, match="era table"):
        load_timeline(timeline_file)
