"""mmap zero-copy snapshot loading: parity, failure paths, alignment.

The contract under test: ``load_snapshot(path, mode="mmap")`` answers
every query bit-identically to an eager load, while decoding links and
ranks as read-only numpy views over the mapped file and cones as
lazily materialized per-AS bitsets — and every corruption/truncation
failure surfaces as a clear :class:`SnapshotFormatError`, never a
numpy crash or a silent wrong answer.
"""

from __future__ import annotations

import mmap
import os

import numpy as _np
import pytest

from repro.asrank import ASRank
from repro.core.cone import ConeDefinition
from repro.scenarios import get_scenario
from repro.serve import store as store_module
from repro.serve.snapshot import LazyConeBits, Snapshot, SnapshotFormatError
from repro.serve.store import (
    load_snapshot,
    read_snapshot_header,
    save_snapshot,
)
from repro.timeline import build_timeline, load_timeline, save_timeline


@pytest.fixture(scope="module")
def built():
    _graph, _corpus, paths, result = get_scenario("small").run()
    facade = ASRank(paths)
    facade._result = result
    return facade.snapshot()


@pytest.fixture()
def snapshot_file(built, tmp_path):
    path = str(tmp_path / "world.snapshot")
    save_snapshot(built, path)
    return path


@pytest.fixture()
def timeline_file(built, tmp_path):
    path = str(tmp_path / "world.tln")
    save_timeline(build_timeline([("era-0", built)]), path)
    return path


def _flip_section_byte(path: str, section: str) -> None:
    header, payload_offset = read_snapshot_header(path)
    entry = header["sections"][section]
    position = payload_offset + int(entry["offset"])
    with open(path, "r+b") as stream:
        stream.seek(position)
        byte = stream.read(1)
        stream.seek(position)
        stream.write(bytes([byte[0] ^ 0xFF]))


class TestParity:
    def test_bit_identical_to_eager(self, snapshot_file):
        eager = load_snapshot(snapshot_file)
        mapped = load_snapshot(snapshot_file, mode="mmap")
        assert mapped.version == eager.version
        assert mapped.asns == eager.asns
        assert mapped.encode_sections() == eager.encode_sections()
        assert mapped.content_version() == eager.content_version()
        mapped.close()

    def test_queries_agree(self, snapshot_file):
        import random

        eager = load_snapshot(snapshot_file)
        mapped = load_snapshot(snapshot_file, mode="mmap")
        rng = random.Random(11)
        population = eager.asns + [999999999]
        for _ in range(300):
            a, b = rng.choice(population), rng.choice(population)
            assert mapped.relationship(a, b) == eager.relationship(a, b)
            assert mapped.provider_of(a, b) == eager.provider_of(a, b)
            for definition in eager.definitions:
                assert mapped.cone(a, definition) == eager.cone(a, definition)
                assert mapped.cone_size(a, definition) == \
                    eager.cone_size(a, definition)
        asn = eager.asns[0]
        assert mapped.ranks(0, 50) == eager.ranks(0, 50)
        assert mapped.rank_entry(asn) == eager.rank_entry(asn)
        mapped.close()

    def test_rank_entries_are_json_safe(self, snapshot_file):
        """Structured-view rows must coerce to plain ints before JSON."""
        import json

        mapped = load_snapshot(snapshot_file, mode="mmap")
        entry = mapped.ranks(0, 1)[0]
        json.dumps(entry.__dict__)
        assert type(entry.asn) is int and type(entry.rank) is int
        mapped.close()

    def test_links_and_ranks_are_views(self, snapshot_file):
        mapped = load_snapshot(snapshot_file, mode="mmap")
        links = mapped._links()
        ranks = mapped._ranks()
        assert isinstance(links, _np.ndarray)
        assert isinstance(ranks, _np.ndarray)
        assert not links.flags.writeable and not ranks.flags.writeable
        # zero-copy: the arrays alias the mapping, they don't own data
        assert not links.flags.owndata and not ranks.flags.owndata
        bits = mapped._cone_bits(mapped.definitions[0])
        assert isinstance(bits, LazyConeBits)
        mapped.close()


class TestFailurePaths:
    def test_truncated_file(self, snapshot_file, tmp_path):
        """A cut-short file fails with a clear error, not a crash.

        ``stats`` sorts last in the payload and is decoded up front,
        so any truncation is caught at load time; the on-first-touch
        bounds check is exercised separately below.
        """
        stub = str(tmp_path / "short.snapshot")
        with open(snapshot_file, "rb") as stream:
            blob = stream.read()
        with open(stub, "wb") as stream:
            stream.write(blob[: len(blob) - len(blob) // 3])
        with pytest.raises(SnapshotFormatError, match="truncated"):
            load_snapshot(stub, mode="mmap")

    def test_truncated_lazy_section_on_first_touch(
        self, snapshot_file, tmp_path
    ):
        """A header that promises more bytes than the mapping holds
        fails on the section's first touch, inside the reader."""
        mapped = load_snapshot(snapshot_file, mode="mmap")
        reader = mapped._section_reader
        reader._sections = dict(reader._sections)
        entry = dict(reader._sections["ranks"])
        entry["length"] = int(entry["length"]) + 1 << 20
        reader._sections["ranks"] = entry
        with pytest.raises(SnapshotFormatError, match="truncated"):
            mapped._ranks()
        mapped.close()

    def test_corrupt_section_detected_on_first_touch(self, snapshot_file):
        _flip_section_byte(snapshot_file, "links")
        mapped = load_snapshot(snapshot_file, mode="mmap")
        assert mapped.version  # header + asns load fine
        with pytest.raises(SnapshotFormatError, match="checksum"):
            mapped.relationship(mapped.asns[0], mapped.asns[1])
        mapped.close()

    def test_corrupt_cone_section(self, snapshot_file):
        _flip_section_byte(snapshot_file, "cones:recursive")
        mapped = load_snapshot(snapshot_file, mode="mmap")
        with pytest.raises(SnapshotFormatError, match="checksum"):
            mapped.cone(mapped.asns[0], ConeDefinition.RECURSIVE)
        mapped.close()

    def test_verify_true_fails_up_front(self, snapshot_file):
        _flip_section_byte(snapshot_file, "ranks")
        with pytest.raises(SnapshotFormatError, match="checksum"):
            load_snapshot(snapshot_file, mode="mmap", verify=True)

    def test_reload_while_mapped(self, built, snapshot_file, tmp_path):
        """os.replace under a live mapping must not disturb it."""
        mapped = load_snapshot(snapshot_file, mode="mmap")
        old_version = mapped.version
        old_links = len(mapped._links())

        _graph, _corpus, paths, result = get_scenario("tiny").run()
        facade = ASRank(paths)
        facade._result = result
        other = str(tmp_path / "other.snapshot")
        new_version = save_snapshot(facade.snapshot(), other)
        os.replace(other, snapshot_file)

        # the old mapping still serves the old inode, checksums intact
        assert mapped.version == old_version
        assert len(mapped._links()) == old_links
        assert mapped.cone_size(mapped.asns[0]) >= 1

        fresh = load_snapshot(snapshot_file, mode="mmap")
        assert fresh.version == new_version != old_version
        fresh.close()
        mapped.close()

    def test_close_is_idempotent(self, snapshot_file):
        mapped = load_snapshot(snapshot_file, mode="mmap")
        mapped._links()
        mapped.close()
        mapped.close()
        with pytest.raises(SnapshotFormatError, match="closed"):
            mapped._load_section("ranks")

    def test_unknown_mode_rejected(self, snapshot_file):
        with pytest.raises(ValueError, match="unknown snapshot load mode"):
            load_snapshot(snapshot_file, mode="mystery")


class TestSectionReader:
    """The timeline reads through the same mapped reader as an mmap
    snapshot load."""

    def test_lazy_reader_holds_one_handle(self, built, timeline_file):
        """The mapping pins the inode: replacing the file mid-life does
        not change what an open timeline serves, and a read after
        ``close()`` raises."""
        tln = load_timeline(timeline_file)
        _graph, _corpus, paths, result = get_scenario("tiny").run()
        facade = ASRank(paths)
        facade._result = result
        replacement = timeline_file + ".new"
        save_timeline(
            build_timeline([("other", facade.snapshot())]), replacement
        )
        os.replace(replacement, timeline_file)
        # sections decode fine from the original (replaced) inode
        assert tln.snapshot(0).encode_sections() == built.encode_sections()
        tln.close()
        with pytest.raises(SnapshotFormatError, match="closed"):
            tln._load("era0:cones:recursive")

    def test_lazy_section_verified_once(self, timeline_file, monkeypatch):
        import hashlib

        tln = load_timeline(timeline_file)
        calls = []
        real = hashlib.sha256

        def counting_sha256(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(
            store_module.hashlib, "sha256", counting_sha256
        )
        tln._load("era0:links")
        first = len(calls)
        assert first == 1
        tln._load("era0:links")
        assert len(calls) == first  # memoized, not re-hashed
        tln.close()


class TestMmapFailure:
    """Where ``mmap.mmap`` raises, the same reader runs over a copy of
    the file's bytes and answers exactly as the mapped/eager paths."""

    @pytest.fixture()
    def no_mmap(self, monkeypatch):
        def refuse(*_args, **_kwargs):
            raise OSError("mmap unavailable")

        monkeypatch.setattr(mmap, "mmap", refuse)

    def test_snapshot_answers_like_eager(self, snapshot_file, no_mmap):
        eager = load_snapshot(snapshot_file)
        copied = load_snapshot(snapshot_file, mode="mmap")
        assert isinstance(copied._section_reader._map, bytes)
        assert copied.asns == eager.asns
        assert copied.ranks() == eager.ranks()
        for definition in ConeDefinition:
            for asn in eager.asns[:40]:
                assert copied.cone(asn, definition) == (
                    eager.cone(asn, definition)
                )
        for row in eager._links_as_tuples()[:200]:
            pair = (eager.asns[row[0]], eager.asns[row[1]])
            assert copied.provider_of(*pair) == eager.provider_of(*pair)
        copied.close()
        copied.close()  # a bytes buffer has no close(); still idempotent
        with pytest.raises(SnapshotFormatError, match="closed"):
            copied._load_section("ranks")

    def test_corruption_still_detected(self, snapshot_file, no_mmap):
        _flip_section_byte(snapshot_file, "ranks")
        copied = load_snapshot(snapshot_file, mode="mmap")
        with pytest.raises(SnapshotFormatError, match="checksum"):
            copied.ranks()
        with pytest.raises(SnapshotFormatError, match="checksum"):
            load_snapshot(snapshot_file, mode="mmap", verify=True)


class TestAlignment:
    def test_sections_are_64_byte_aligned(self, snapshot_file):
        header, payload_offset = read_snapshot_header(snapshot_file)
        assert header["minor"] == store_module.MINOR_VERSION
        assert header["alignment"] == store_module.SECTION_ALIGNMENT
        assert payload_offset % store_module.SECTION_ALIGNMENT == 0
        for entry in header["sections"].values():
            assert int(entry["offset"]) % \
                store_module.SECTION_ALIGNMENT == 0

    def test_padding_does_not_change_version(self, built, tmp_path,
                                             monkeypatch):
        """Alignment is file layout only — content versions are pinned
        to section bytes and must not move."""
        padded = str(tmp_path / "padded.snapshot")
        version_padded = save_snapshot(built, padded)
        monkeypatch.setattr(store_module, "SECTION_ALIGNMENT", 1)
        packed = str(tmp_path / "packed.snapshot")
        version_packed = save_snapshot(built, packed)
        assert version_padded == version_packed
        assert os.path.getsize(packed) < os.path.getsize(padded)

    def test_unpadded_files_still_load(self, built, tmp_path, monkeypatch):
        """A minor-0-style (unpadded) file loads through every mode."""
        monkeypatch.setattr(store_module, "SECTION_ALIGNMENT", 1)
        packed = str(tmp_path / "packed.snapshot")
        save_snapshot(built, packed)
        monkeypatch.undo()
        eager = load_snapshot(packed)
        mapped = load_snapshot(packed, mode="mmap")
        assert mapped.encode_sections() == eager.encode_sections()
        assert mapped.ranks(0, 10) == eager.ranks(0, 10)
        mapped.close()

    def test_header_json_tolerates_padding(self, snapshot_file):
        header, _offset = read_snapshot_header(snapshot_file)
        assert isinstance(header["sections"], dict)


class TestStoreModes:
    def test_store_mode_mmap(self, snapshot_file):
        from repro.serve.store import SnapshotStore

        store = SnapshotStore(path=snapshot_file, mode="mmap")
        assert store.mode == "mmap"
        assert store.current._mapped
        first = store.current
        store.reload()
        assert store.current is not first
        assert store.current.version == first.version

    def test_swap_updates_path(self, built, snapshot_file, tmp_path):
        from repro.serve.store import SnapshotStore

        store = SnapshotStore(path=snapshot_file, mode="mmap")
        other = str(tmp_path / "other.snapshot")
        save_snapshot(built, other)
        fresh = load_snapshot(other, mode="mmap")
        store.swap(fresh, path=other)
        assert store.current is fresh
        assert store.path == other
        assert store.reloads == 1
