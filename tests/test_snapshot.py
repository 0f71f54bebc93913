"""Snapshot compile/serialize/load round-trips (repro.serve)."""

from __future__ import annotations

import os

import pytest

from repro.asrank import ASRank
from repro.core.cone import ConeDefinition, CustomerCones
from repro.core.paths import PathSet, SanitizeStats
from repro.serve.snapshot import (
    Snapshot,
    SnapshotFormatError,
    resolve_definition,
)
from repro.serve.store import load_snapshot, save_snapshot


def _facade(raw_paths):
    return ASRank.from_paths(raw_paths)


def _unsanitized_facade(paths):
    """A facade over paths the sanitizer would reject (ASN 0 etc.)."""
    counts = {tuple(p): 1 for p in paths}
    return ASRank(PathSet([tuple(p) for p in paths], counts,
                          SanitizeStats()))


class TestRoundTrip:
    def test_eager_and_mmap_agree(self, tmp_path, tiny_run):
        facade = ASRank(tiny_run.paths)
        facade._result = tiny_run.result
        snapshot = facade.snapshot()
        path = str(tmp_path / "tiny.snap")
        version = save_snapshot(snapshot, path)
        eager = load_snapshot(path)
        mapped = load_snapshot(path, mode="mmap")
        assert eager.version == mapped.version == version == snapshot.version
        assert eager.asns == mapped.asns == snapshot.asns
        assert eager.ranks() == mapped.ranks() == snapshot.ranks()
        for definition in ConeDefinition:
            for asn in snapshot.asns[:20]:
                expected = snapshot.cone(asn, definition)
                assert eager.cone(asn, definition) == expected
                assert mapped.cone(asn, definition) == expected
        for a, b in list(tiny_run.result.links())[:50]:
            assert eager.relationship(a, b) is (
                tiny_run.result.relationship(a, b)
            )
            assert mapped.provider_of(a, b) == (
                tiny_run.result.provider_of(a, b)
            )
        mapped.close()

    def test_version_is_content_derived(self, tmp_path):
        facade = _facade([(10, 1, 2), (20, 2, 1)])
        first = facade.snapshot()
        second = _facade([(10, 1, 2), (20, 2, 1)]).snapshot()
        assert first.version == second.version
        different = _facade([(10, 1, 3), (20, 3, 1)]).snapshot()
        assert different.version != first.version

    def test_empty_graph(self, tmp_path):
        snapshot = _facade([]).snapshot()
        assert len(snapshot) == 0
        assert snapshot.ranks() == []
        path = str(tmp_path / "empty.snap")
        save_snapshot(snapshot, path)
        loaded = load_snapshot(path)
        assert loaded.asns == []
        assert loaded.ranks() == []
        assert loaded.relationship(1, 2) is None
        assert loaded.cone(7) == {7}  # unknown AS mirrors CustomerCones

    def test_single_as_world_from_files(self, tmp_path):
        as_rel = tmp_path / "one.as-rel.txt"
        as_rel.write_text("# empty\n")
        ppdc = tmp_path / "one.ppdc.txt"
        ppdc.write_text("42\n")
        snapshot = Snapshot.from_files(str(as_rel), str(ppdc))
        assert snapshot.asns == [42]
        assert snapshot.cone(42) == {42}
        assert snapshot.cone(42, ConeDefinition.RECURSIVE) == {42}
        [entry] = snapshot.ranks()
        assert (entry.rank, entry.asn, entry.cone_ases) == (1, 42, 1)
        path = str(tmp_path / "one.snap")
        save_snapshot(snapshot, path)
        assert load_snapshot(path).cone(42) == {42}

    def test_asn_zero_and_32bit_asns(self, tmp_path):
        wide = 4_199_999_999  # below the 32-bit private range
        facade = _unsanitized_facade(
            [(0, wide), (wide, 0), (0, wide, 77), (77, wide, 0)]
        )
        snapshot = facade.snapshot()
        assert 0 in snapshot and wide in snapshot
        path = str(tmp_path / "wide.snap")
        save_snapshot(snapshot, path)
        loaded = load_snapshot(path)
        assert loaded.asns == snapshot.asns
        assert loaded.relationship(0, wide) is (
            facade.relationship(0, wide)
        )
        for asn in (0, 77, wide):
            assert loaded.cone(asn) == facade.customer_cone(asn)

    def test_cones_match_oracles_bit_for_bit(self, tiny_run, tmp_path):
        facade = ASRank(tiny_run.paths)
        facade._result = tiny_run.result
        path = str(tmp_path / "cones.snap")
        save_snapshot(facade.snapshot(), path)
        loaded = load_snapshot(path)
        for definition in ConeDefinition:
            oracle = CustomerCones.compute(tiny_run.result, definition)
            for asn in loaded.asns:
                assert loaded.cone(asn, definition) == oracle.cone(asn), (
                    definition,
                    asn,
                )
                assert loaded.cone_size(asn, definition) == (
                    oracle.size_ases(asn)
                )


class TestEncodeOnce:
    def test_build_and_save_encode_once(self, tmp_path, tiny_run,
                                        monkeypatch):
        calls = []
        encode = Snapshot.encode_sections

        def counted(self):
            calls.append(self)
            return encode(self)

        monkeypatch.setattr(Snapshot, "encode_sections", counted)
        facade = ASRank(tiny_run.paths)
        facade._result = tiny_run.result
        snapshot = facade.snapshot()
        built = str(tmp_path / "built.snap")
        assert save_snapshot(snapshot, built) == snapshot.version
        assert calls == [snapshot]
        # the bytes are those of a save that encodes afresh: a loaded
        # snapshot still encodes on save, into the identical file
        resaved = str(tmp_path / "resaved.snap")
        save_snapshot(load_snapshot(built), resaved)
        assert len(calls) == 2
        with open(built, "rb") as a, open(resaved, "rb") as b:
            assert a.read() == b.read()


class TestCorruption:
    def _snapshot_file(self, tmp_path) -> str:
        path = str(tmp_path / "c.snap")
        save_snapshot(_facade([(10, 1, 2), (20, 2, 1)]).snapshot(), path)
        return path

    def test_flipped_payload_byte_rejected_eager(self, tmp_path):
        path = self._snapshot_file(tmp_path)
        blob = bytearray(open(path, "rb").read())
        blob[-3] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        with pytest.raises(SnapshotFormatError, match="checksum"):
            load_snapshot(path)

    def test_flipped_payload_byte_rejected_mmap(self, tmp_path):
        import json
        import struct

        path = self._snapshot_file(tmp_path)
        blob = bytearray(open(path, "rb").read())
        # corrupt one byte inside the *ranks* section specifically, so
        # the mmap open (meta/stats/asns) succeeds and the first rank
        # query trips the per-section checksum
        _magic, _fmt, header_len = struct.unpack_from("<8sII", blob, 0)
        header = json.loads(bytes(blob[16:16 + header_len]))
        entry = header["sections"]["ranks"]
        blob[16 + header_len + int(entry["offset"])] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        mapped = load_snapshot(path, mode="mmap")  # header still parses
        assert mapped.asns  # untouched sections stay readable
        with pytest.raises(SnapshotFormatError, match="checksum"):
            mapped.ranks()
        mapped.close()

    def test_truncated_file_rejected(self, tmp_path):
        path = self._snapshot_file(tmp_path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[: len(blob) // 2])
        with pytest.raises(SnapshotFormatError):
            load_snapshot(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "junk.snap")
        open(path, "wb").write(b"not a snapshot at all" * 4)
        with pytest.raises(SnapshotFormatError, match="magic"):
            load_snapshot(path)

    def test_save_is_atomic(self, tmp_path):
        path = self._snapshot_file(tmp_path)
        before = load_snapshot(path).version
        # a failing save must leave no temp litter and the old file intact
        class Boom(Snapshot):
            def encode_sections(self):
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            save_snapshot(Boom([], {}, {}), path)
        assert load_snapshot(path).version == before
        assert [f for f in os.listdir(tmp_path) if f.endswith(".tmp")] == []


class TestFromFiles:
    def test_recursive_closure_and_ppdc(self, tmp_path):
        as_rel = tmp_path / "t.as-rel.txt"
        as_rel.write_text("1|2|-1\n2|3|-1\n2|4|0\n")
        ppdc = tmp_path / "t.ppdc.txt"
        ppdc.write_text("1 1 2\n2 2 3\n3 3\n4 4\n")
        snapshot = Snapshot.from_files(str(as_rel), str(ppdc))
        assert snapshot.cone(1, ConeDefinition.RECURSIVE) == {1, 2, 3}
        assert snapshot.cone(2, ConeDefinition.RECURSIVE) == {2, 3}
        assert snapshot.cone(1) == {1, 2}  # ppdc as given in the file
        assert snapshot.provider_of(1, 2) == 1
        assert snapshot.relationship(2, 4).label == "p2p"
        with pytest.raises(KeyError):
            snapshot.cone(1, ConeDefinition.BGP_OBSERVED)

    def test_definitions_metadata_limits_serving(self, tmp_path):
        as_rel = tmp_path / "t.as-rel.txt"
        as_rel.write_text("1|2|-1\n")
        snapshot = Snapshot.from_files(str(as_rel))
        assert snapshot.meta["definitions"] == ["recursive"]


class TestFromFilesRegression:
    """Pin ``Snapshot.from_files`` output on committed CAIDA fixtures.

    The section hashes were captured before the file-built path moved
    onto the shared graph core (its private closure implementation was
    deleted in favor of :func:`repro.graph.closure_bits`); any drift
    here means a file-built snapshot no longer matches what earlier
    releases served.  The ``meta`` section is excluded because it
    embeds the input path.
    """

    AS_REL = os.path.join(
        os.path.dirname(__file__), "data", "tiny-world.as-rel.txt"
    )
    PPDC = os.path.join(
        os.path.dirname(__file__), "data", "tiny-world.ppdc-ases.txt"
    )

    WITH_PPDC = {
        "asns": "8eb52ea6b33eecd0",
        "cones:provider/peer-observed": "cd770efdfa685508",
        "cones:recursive": "36dfd9b0da1bfba7",
        "links": "e224944f70ef33e8",
        "ranks": "fa419745a863dfe7",
        "stats": "a33cc642c9c75d2d",
    }
    AS_REL_ONLY = {
        "asns": "8eb52ea6b33eecd0",
        "cones:recursive": "36dfd9b0da1bfba7",
        "links": "e224944f70ef33e8",
        "ranks": "1e7b118f0c3ab0bb",
        "stats": "df4895ea9b3308ca",
    }

    @staticmethod
    def _section_hashes(snapshot):
        import hashlib

        return {
            name: hashlib.sha256(blob).hexdigest()[:16]
            for name, blob in snapshot.encode_sections().items()
            if name != "meta"
        }

    def test_with_ppdc_sections_unchanged(self):
        snapshot = Snapshot.from_files(self.AS_REL, self.PPDC)
        assert self._section_hashes(snapshot) == self.WITH_PPDC

    def test_as_rel_only_sections_unchanged(self):
        snapshot = Snapshot.from_files(self.AS_REL)
        assert self._section_hashes(snapshot) == self.AS_REL_ONLY


class TestDefinitionAliases:
    def test_aliases_resolve(self):
        assert resolve_definition("ppdc") is (
            ConeDefinition.PROVIDER_PEER_OBSERVED
        )
        assert resolve_definition("provider/peer-observed") is (
            ConeDefinition.PROVIDER_PEER_OBSERVED
        )
        assert resolve_definition("recursive") is ConeDefinition.RECURSIVE
        with pytest.raises(KeyError):
            resolve_definition("bogus")
