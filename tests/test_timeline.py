"""The delta-encoded era timeline: container, codec, resolution, diffs.

Hand-built eras (CAIDA as-rel text) keep the delta codec's behavior
easy to verify by eye: era 1 adds ASes and links, era 2 additionally
retypes a link and removes another.  A separate evolution-model leg
proves bit-identity on generated series (the production input).
"""

from __future__ import annotations

import pytest

from repro.serve.snapshot import Snapshot, SnapshotFormatError
from repro.serve.store import TimelineLookupError
from repro.timeline import (
    Timeline,
    TimelineFormatError,
    build_timeline,
    default_era_dates,
    era_snapshots,
    load_timeline,
    read_timeline_header,
    save_timeline,
)

ERA0 = """\
1|2|-1
1|3|-1
2|4|-1
3|4|-1
3|5|-1
10|11|-1
"""

# era 1: two new ASes (12, 13 — larger than every incumbent) and links
ERA1 = ERA0 + "5|12|-1\n11|13|-1\n"

# era 2: one more AS, a p2c->p2p retype of 3|5, and 2|4 removed
ERA2 = ERA1.replace("3|5|-1", "3|5|0").replace("2|4|-1\n", "") + "12|14|-1\n"


@pytest.fixture(scope="module")
def eras(tmp_path_factory):
    directory = tmp_path_factory.mktemp("timeline")
    snapshots = []
    for index, text in enumerate((ERA0, ERA1, ERA2)):
        as_rel = directory / f"era{index}.txt"
        as_rel.write_text(text)
        snapshots.append(
            (f"era-{index}", Snapshot.from_files(str(as_rel)))
        )
    return snapshots


@pytest.fixture(scope="module")
def timeline(eras):
    return build_timeline(eras)


@pytest.fixture(scope="module")
def loaded(timeline, eras, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("tln") / "eras.tln")
    save_timeline(timeline, path)
    tln = load_timeline(path, verify=True)
    yield tln, path
    tln.close()


class TestBuild:
    def test_era_kinds(self, timeline):
        assert [info.kind for info in timeline.eras] == [
            "full", "delta", "delta"
        ]

    def test_default_dates_one_year_apart(self, timeline):
        assert [info.date for info in timeline.eras] == [
            "1998-01-01", "1999-01-01", "2000-01-01"
        ]
        assert default_era_dates(2, start_year=2010) == [
            "2010-01-01", "2011-01-01"
        ]

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            build_timeline([])

    def test_date_count_mismatch_rejected(self, eras):
        with pytest.raises(ValueError):
            build_timeline(eras, dates=["1998-01-01"])

    def test_non_monotone_dates_rejected(self, eras):
        with pytest.raises(ValueError):
            build_timeline(
                eras,
                dates=["2001-01-01", "2000-01-01", "2002-01-01"],
            )

    def test_incompatible_era_falls_back_to_full(self, eras, tmp_path):
        # a shrinking AS set cannot prefix-extend -> stored full
        as_rel = tmp_path / "shrunk.txt"
        as_rel.write_text("1|2|-1\n")
        shrunk = Snapshot.from_files(str(as_rel))
        fallback = build_timeline([eras[0], ("shrunk", shrunk)])
        assert [info.kind for info in fallback.eras] == ["full", "full"]
        assert fallback.snapshot(1).encode_sections() == (
            shrunk.encode_sections()
        )

    def test_version_is_content_derived(self, eras, timeline):
        assert build_timeline(eras).version == timeline.version
        assert len(timeline.version) == 12


class TestRoundTrip:
    def test_every_era_bit_identical(self, loaded, eras):
        tln, _path = loaded
        for index, (_label, original) in enumerate(eras):
            assert tln.snapshot(index).encode_sections() == (
                original.encode_sections()
            ), index

    def test_verify_content(self, loaded):
        tln, _path = loaded
        tln.verify_content()  # must not raise

    def test_header_carries_era_table(self, loaded, timeline):
        _tln, path = loaded
        header, _payload_offset = read_timeline_header(path)
        assert header["version"] == timeline.version
        assert [row["kind"] for row in header["eras"]] == [
            "full", "delta", "delta"
        ]

    def test_delta_materialization_semantics(self, loaded):
        tln, _path = loaded
        era2 = tln.snapshot(2)
        assert era2.relationship(2, 4) is None  # removed link
        assert era2.relationship(3, 5).label == "p2p"  # retyped link
        assert 14 in era2 and 14 not in tln.snapshot(0)

    def test_delta_eras_store_fewer_bytes(self, loaded):
        tln, _path = loaded
        assert tln.era_bytes(1) < tln.era_bytes(0)
        assert tln.era_bytes(2) < tln.era_bytes(0)


class TestResolve:
    def test_index_label_and_date_forms(self, timeline):
        assert timeline.resolve(0) == 0
        assert timeline.resolve("2") == 2
        assert timeline.resolve("era-1") == 1
        assert timeline.resolve("1999-06-15") == 1  # latest era <= date
        assert timeline.resolve("2030-01-01") == 2

    def test_malformed_tokens_raise(self, timeline):
        for token in ("bogus", "", "9", "-1", "1901-01-01", "2000-13-40"):
            with pytest.raises(TimelineLookupError):
                timeline.resolve(token)


class TestCache:
    def test_lru_is_bounded(self, loaded, eras, tmp_path):
        _tln, path = loaded
        tln = load_timeline(path, cache_size=2)
        try:
            for index in range(len(eras)):
                tln.snapshot(index)
            assert len(tln._cache) <= 2
        finally:
            tln.close()

    def test_repeat_access_returns_cached_object(self, loaded):
        tln, _path = loaded
        assert tln.snapshot(1) is tln.snapshot(1)


class TestCorruption:
    def test_flipped_payload_byte_detected(self, timeline, tmp_path):
        path = str(tmp_path / "corrupt.tln")
        save_timeline(timeline, path)
        header, payload_offset = read_timeline_header(path)
        section = header["sections"]["era1:links+"]
        with open(path, "r+b") as fh:
            fh.seek(payload_offset + section["offset"])
            byte = fh.read(1)
            fh.seek(-1, 1)
            fh.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(SnapshotFormatError):
            load_timeline(path, verify=True)

    def test_bad_magic_rejected(self, tmp_path):
        path = str(tmp_path / "bogus.tln")
        with open(path, "wb") as fh:
            fh.write(b"NOTATLN!" + b"\0" * 64)
        with pytest.raises(TimelineFormatError):
            load_timeline(path)


class TestMmapFailure:
    def test_copy_answers_like_mapped_load(self, loaded, monkeypatch):
        """Where ``mmap.mmap`` raises, the timeline reads through the
        same reader over a copy of the file's bytes."""
        import mmap

        mapped, path = loaded

        def refuse(*_args, **_kwargs):
            raise OSError("mmap unavailable")

        monkeypatch.setattr(mmap, "mmap", refuse)
        copied = load_timeline(path, verify=True)
        assert isinstance(copied._reader._map, bytes)
        assert copied.version == mapped.version
        for index in range(len(mapped)):
            assert copied.snapshot(index).encode_sections() == (
                mapped.snapshot(index).encode_sections()
            ), index
        copied.close()
        copied.close()
        with pytest.raises(SnapshotFormatError, match="closed"):
            copied._load("era0:meta")


class TestDiffAndHistory:
    def test_diff_matches_hand_count(self, loaded):
        tln, _path = loaded
        diff = tln.diff(0, 2)
        assert diff["ases"]["new_count"] == 3  # 12, 13, 14
        assert diff["ases"]["new"] == [12, 13, 14]
        assert diff["ases"]["vanished_count"] == 0
        assert diff["links"]["added"] == 3  # 5-12, 11-13, 12-14
        assert diff["links"]["removed"] == 1  # 2-4
        assert diff["links"]["flips"] == {"p2c->p2p": 1}
        assert diff["links"]["flip_examples"] == [[3, 5, "p2c", "p2p"]]

    def test_history_tracks_birth(self, loaded):
        tln, _path = loaded
        rows = tln.history(12)
        assert [row["present"] for row in rows] == [False, True, True]
        assert all("rank" not in row for row in rows if not row["present"])


class TestEvolutionSeries:
    """Bit-identity on the generated series — the production input."""

    def test_generated_series_round_trips(self, tmp_path):
        from repro.topology.evolution import Era, EvolutionConfig, generate_series
        from repro.topology.generator import GeneratorConfig

        config = EvolutionConfig(
            base=GeneratorConfig(n_ases=50, seed=4, clique_size=4),
            eras=[
                Era(label="e1", new_ases=12, peering_boost=0.02),
                Era(label="e2", new_ases=15, peering_boost=0.03),
            ],
        )
        pairs = era_snapshots(generate_series(config))
        path = str(tmp_path / "evo.tln")
        save_timeline(build_timeline(pairs), path)
        tln = load_timeline(path, verify=True)
        try:
            assert [info.kind for info in tln.eras] == [
                "full", "delta", "delta"
            ]
            for index, (_label, original) in enumerate(pairs):
                assert tln.snapshot(index).encode_sections() == (
                    original.encode_sections()
                ), index
        finally:
            tln.close()
