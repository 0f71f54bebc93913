"""Property-based fuzzing of the REPROSNP and REPROTLN containers.

A tiny snapshot (both load modes) and a three-era delta timeline (with
and without up-front verification) are mutated — truncated, bit
flipped, or given an inflated section offset/length or header length —
and then loaded and fully read.  The only accepted outcomes are a
typed format error (``SnapshotFormatError``, or its subclass
``TimelineFormatError``) or a load whose every section (every era's,
for a timeline) equals the original's, each within ``BUDGET_S``
seconds.

The header's labels (the ``version`` string, era labels and dates)
carry no checksum, so a flip there can load under a different label;
what is compared is the content every query is answered from.
"""

from __future__ import annotations

import json
import os
import struct
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.serve.snapshot import Snapshot, SnapshotFormatError
from repro.serve.store import load_snapshot, save_snapshot
from repro.timeline import build_timeline, load_timeline, save_timeline

BUDGET_S = 5.0
_FIXED = struct.Struct("<8sII")
_REPROS = os.path.join(
    os.path.dirname(__file__), os.pardir, "benchmarks", "repros"
)

ERA0 = "1|2|-1\n1|3|-1\n2|4|-1\n3|4|0\n"
ERA1 = ERA0 + "4|5|-1\n"
ERA2 = ERA1.replace("3|4|0", "3|4|-1") + "5|6|-1\n"


def _inflate(blob: bytes, entry: int, field: str, amount: int) -> bytes:
    """``blob`` with one section's ``offset``/``length`` (or the fixed
    header's JSON length) grown by ``amount``; the payload is kept."""
    magic, fmt, header_len = _FIXED.unpack_from(blob)
    if field == "header_len":
        grown = min(header_len + amount, 2**32 - 1)
        return _FIXED.pack(magic, fmt, grown) + blob[_FIXED.size:]
    header = json.loads(blob[_FIXED.size:_FIXED.size + header_len])
    sections = header["sections"]
    name = sorted(sections)[entry % len(sections)]
    sections[name][field] += amount
    text = json.dumps(header, sort_keys=True, separators=(",", ":"))
    payload = blob[_FIXED.size + header_len:]
    return _FIXED.pack(magic, fmt, len(text)) + text.encode() + payload


def _mutate(blob: bytes, inflation, edits) -> bytes:
    if inflation is not None:
        blob = _inflate(blob, *inflation)
    for kind, at, bit in edits:
        if not blob:
            break
        at %= len(blob)
        if kind == "truncate":
            blob = blob[:at]
        else:
            blob = blob[:at] + bytes([blob[at] ^ (1 << bit)]) + blob[at + 1:]
    return blob


_inflations = st.one_of(
    st.none(),
    st.tuples(
        st.integers(0, 63),
        st.sampled_from(("offset", "length", "header_len")),
        st.integers(1, 2**40),
    ),
)
_edits = st.lists(
    st.tuples(
        st.sampled_from(("truncate", "flip")),
        st.integers(0, 2**16),
        st.integers(0, 7),
    ),
    max_size=3,
)


def _outcome(read, path: str, error):
    """``read(path)``'s result, or ``None`` on the typed ``error``;
    anything else (or a read over budget) fails the example."""
    start = time.perf_counter()
    try:
        content = read(path)
    except error:
        content = None
    elapsed = time.perf_counter() - start
    assert elapsed < BUDGET_S, f"read took {elapsed:.2f}s"
    return content


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("container-fuzz")


@pytest.fixture(scope="module")
def snapshot_blob(workdir):
    as_rel = workdir / "w.as-rel.txt"
    as_rel.write_text(ERA0)
    snapshot = Snapshot.from_files(str(as_rel))
    path = str(workdir / "w.snap")
    save_snapshot(snapshot, path)
    with open(path, "rb") as stream:
        return stream.read(), snapshot.encode_sections()


@pytest.fixture(scope="module")
def timeline_blob(workdir):
    eras = []
    for index, text in enumerate((ERA0, ERA1, ERA2)):
        as_rel = workdir / f"era{index}.as-rel.txt"
        as_rel.write_text(text)
        eras.append((f"era-{index}", Snapshot.from_files(str(as_rel))))
    timeline = build_timeline(eras)
    assert [info.kind for info in timeline.eras] == ["full", "delta", "delta"]
    path = str(workdir / "w.tln")
    save_timeline(timeline, path)
    with open(path, "rb") as stream:
        blob = stream.read()
    return blob, [
        timeline.snapshot(era).encode_sections()
        for era in range(len(timeline))
    ]


def _read_snapshot(mode):
    def read(path):
        snapshot = load_snapshot(path, mode=mode)
        try:
            return snapshot.encode_sections()
        finally:
            snapshot.close()
    return read


def _read_timeline(verify):
    def read(path):
        timeline = load_timeline(path, verify=verify)
        try:
            return [
                timeline.snapshot(era).encode_sections()
                for era in range(len(timeline))
            ]
        finally:
            timeline.close()
    return read


@pytest.mark.parametrize("mode", ["eager", "mmap"])
@settings(max_examples=150, deadline=None)
@given(inflation=_inflations, edits=_edits)
def test_snapshot_mutation_is_typed_or_identical(
    snapshot_blob, workdir, mode, inflation, edits
):
    blob, original = snapshot_blob
    path = str(workdir / f"mutated-{mode}.snap")
    with open(path, "wb") as stream:
        stream.write(_mutate(blob, inflation, edits))
    content = _outcome(_read_snapshot(mode), path, SnapshotFormatError)
    assert content is None or content == original


@pytest.mark.parametrize("verify", [False, True])
@settings(max_examples=100, deadline=None)
@given(inflation=_inflations, edits=_edits)
def test_timeline_mutation_is_typed_or_identical(
    timeline_blob, workdir, verify, inflation, edits
):
    blob, original = timeline_blob
    path = str(workdir / f"mutated-{verify}.tln")
    with open(path, "wb") as stream:
        stream.write(_mutate(blob, inflation, edits))
    # era payloads go through the snapshot decoders and the shared
    # section reader, which raise the base class
    content = _outcome(_read_timeline(verify), path, SnapshotFormatError)
    assert content is None or content == original


@pytest.mark.parametrize("mode", ["eager", "mmap"])
def test_shifted_section_offset_is_rejected(mode):
    """Shrunk escape: the first section's offset moved 0 -> 1 leaves the
    payload checksum intact and the span in bounds, so an eager load
    that skipped the per-section digests decoded shifted ASNs."""
    path = os.path.join(_REPROS, "snapshot-shifted-section-offset.snap")
    with pytest.raises(SnapshotFormatError, match="checksum mismatch"):
        load_snapshot(path, mode=mode).encode_sections()
