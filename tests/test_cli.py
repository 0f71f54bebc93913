"""Unit tests for the command-line interface."""

import os

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_scenario(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--scenario", "bogus"])


class TestPipeline:
    def test_simulate_then_infer_then_cones(self, tmp_path, capsys):
        out = str(tmp_path)
        assert main(["simulate", "--scenario", "tiny", "--out-dir", out,
                     "--mrt"]) == 0
        assert os.path.exists(os.path.join(out, "paths.txt"))
        assert os.path.exists(os.path.join(out, "rib.mrt"))

        as_rel = os.path.join(out, "as-rel.txt")
        assert main(["infer", "--paths", os.path.join(out, "paths.txt"),
                     "--as-rel", as_rel]) == 0
        assert os.path.exists(as_rel)
        captured = capsys.readouterr().out
        assert "clique" in captured

        ppdc = os.path.join(out, "ppdc.txt")
        assert main(["cones", "--paths", os.path.join(out, "paths.txt"),
                     "--ppdc", ppdc, "--top", "3"]) == 0
        assert os.path.exists(ppdc)

    def test_validate_command(self, capsys):
        assert main(["validate", "--scenario", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "PPV" in out
        assert "coverage" in out

    def test_rank_command(self, capsys):
        assert main(["rank", "--scenario", "tiny", "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "rank" in out
        assert len(out.strip().splitlines()) == 6  # header + 5 rows

    def test_simulate_updates_dump(self, tmp_path):
        out = str(tmp_path)
        assert main(["simulate", "--scenario", "tiny", "--out-dir", out,
                     "--updates"]) == 0
        assert os.path.exists(os.path.join(out, "updates.mrt"))

    def test_evolve_command(self, capsys):
        assert main(["evolve", "--eras", "2"]) == 0
        out = capsys.readouterr().out
        assert "era" in out
        assert "cone share" in out

    def test_cones_definitions(self, tmp_path, capsys):
        out = str(tmp_path)
        main(["simulate", "--scenario", "tiny", "--out-dir", out])
        for definition in ("recursive", "bgp-observed",
                           "provider/peer-observed"):
            assert main(["cones", "--paths", os.path.join(out, "paths.txt"),
                         "--definition", definition, "--top", "2"]) == 0

    def test_qa_command_clean_sweep(self, tmp_path, capsys):
        repros = str(tmp_path / "repros")
        assert main(["qa", "--seeds", "2", "--repro-dir", repros]) == 0
        out = capsys.readouterr().out
        assert "clean" in out
        assert not os.path.isdir(repros)

    def test_qa_replay_round_trip(self, tmp_path, capsys):
        out = str(tmp_path)
        main(["simulate", "--scenario", "tiny", "--out-dir", out])
        assert main(["qa", "--replay", os.path.join(out, "paths.txt")]) == 0
        assert "clean" in capsys.readouterr().out


class TestErrorExits:
    """Data and I/O problems exit 2 with a one-line message (no traceback)."""

    def _assert_exit_2(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert len(err.strip().splitlines()) == 1

    def test_infer_missing_file(self, capsys, tmp_path):
        self._assert_exit_2(
            capsys, ["infer", "--paths", str(tmp_path / "nope.txt")]
        )

    def test_infer_malformed_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("1 two 3\n")
        assert main(["infer", "--paths", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "bad.txt:1:" in err

    def test_cones_missing_file(self, capsys, tmp_path):
        self._assert_exit_2(
            capsys, ["cones", "--paths", str(tmp_path / "nope.txt")]
        )

    def test_simulate_out_dir_collides_with_file(self, capsys, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        self._assert_exit_2(
            capsys,
            ["simulate", "--scenario", "tiny", "--out-dir", str(blocker)],
        )

    def test_qa_replay_missing_file(self, capsys, tmp_path):
        self._assert_exit_2(
            capsys, ["qa", "--replay", str(tmp_path / "nope.txt")]
        )

    def test_validate_scenario_io_failure(self, capsys, monkeypatch):
        import repro.cli as cli

        def boom(name):
            raise OSError("disk on fire")

        monkeypatch.setattr(cli, "get_scenario", boom)
        self._assert_exit_2(capsys, ["validate", "--scenario", "tiny"])

    def test_rank_scenario_data_failure(self, capsys, monkeypatch):
        import repro.cli as cli
        from repro.datasets.serialization import DatasetFormatError

        def boom(name):
            raise DatasetFormatError("corrupt corpus")

        monkeypatch.setattr(cli, "get_scenario", boom)
        self._assert_exit_2(capsys, ["rank", "--scenario", "tiny"])

    def test_evolve_io_failure(self, capsys, monkeypatch):
        import repro.cli as cli

        def boom(config):
            raise OSError("no space left")

        monkeypatch.setattr(cli, "generate_series", boom)
        self._assert_exit_2(capsys, ["evolve", "--eras", "2"])

    def test_rank_missing_paths_file(self, capsys, tmp_path):
        self._assert_exit_2(
            capsys, ["rank", "--paths", str(tmp_path / "nope.txt")]
        )

    def test_cones_binary_file(self, capsys, tmp_path):
        bad = tmp_path / "bin.paths.txt"
        bad.write_bytes(bytes(range(256)))
        self._assert_exit_2(capsys, ["cones", "--paths", str(bad)])

    def test_snapshot_build_missing_input(self, capsys, tmp_path):
        self._assert_exit_2(
            capsys,
            [
                "snapshot", "build",
                "--paths", str(tmp_path / "nope.txt"),
                "--out", str(tmp_path / "out.snap"),
            ],
        )

    def test_serve_missing_snapshot(self, capsys, tmp_path):
        self._assert_exit_2(
            capsys, ["serve", "--snapshot", str(tmp_path / "nope.snap")]
        )

    def test_serve_corrupt_snapshot(self, capsys, tmp_path):
        junk = tmp_path / "junk.snap"
        junk.write_bytes(b"not a snapshot")
        self._assert_exit_2(capsys, ["serve", "--snapshot", str(junk)])

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_stream_batch_size_below_one(self, capsys, tmp_path, size):
        dump = tmp_path / "updates.mrt"
        dump.write_bytes(b"")
        self._assert_exit_2(
            capsys, ["stream", str(dump), "--batch-size", size]
        )

    def test_stream_negative_publish_every(self, capsys, tmp_path):
        dump = tmp_path / "updates.mrt"
        dump.write_bytes(b"")
        self._assert_exit_2(
            capsys, ["stream", str(dump), "--publish-every", "-1"]
        )

    def test_snapshot_info_corrupt_section_table(self, capsys, tmp_path):
        import json
        import struct

        out = str(tmp_path / "tiny.snap")
        assert main(["snapshot", "build", "--scenario", "tiny",
                     "--out", out]) == 0
        capsys.readouterr()
        fixed = struct.Struct("<8sII")
        blob = open(out, "rb").read()
        magic, fmt, header_len = fixed.unpack_from(blob)
        header = json.loads(blob[fixed.size:fixed.size + header_len])
        entry = header["sections"]["links"]
        entry["offset_"] = entry.pop("offset")
        text = json.dumps(header).encode()
        with open(out, "wb") as stream:
            stream.write(fixed.pack(magic, fmt, len(text)) + text
                         + blob[fixed.size + header_len:])
        self._assert_exit_2(capsys, ["snapshot", "info", out])


class TestSnapshotCommand:
    def test_build_then_info(self, tmp_path, capsys):
        out = str(tmp_path / "tiny.snap")
        assert main(["snapshot", "build", "--scenario", "tiny",
                     "--out", out]) == 0
        built = capsys.readouterr().out
        assert built.startswith("wrote snapshot ") and os.path.exists(out)
        version = built.split()[2]
        assert main(["snapshot", "info", out]) == 0
        info = capsys.readouterr().out
        assert version in info
        assert "definitions" in info

    def test_build_from_as_rel_files(self, tmp_path, capsys):
        as_rel = tmp_path / "w.as-rel.txt"
        as_rel.write_text("1|2|-1\n2|3|0\n")
        out = str(tmp_path / "w.snap")
        assert main(["snapshot", "build", "--as-rel", str(as_rel),
                     "--out", out]) == 0
        from repro.serve.store import load_snapshot

        snapshot = load_snapshot(out)
        assert snapshot.asns == [1, 2, 3]
        assert snapshot.provider_of(1, 2) == 1
