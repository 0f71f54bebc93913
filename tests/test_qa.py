"""Tests for the seeded differential-QA subsystem (``repro.qa``)."""

from __future__ import annotations

import glob
import os

import pytest

from repro.qa import (
    QaConfig,
    build_world,
    replay_paths,
    run_qa,
    shrink_paths,
    world_spec,
)
from repro.qa.generator import SHAPES


class TestGenerator:
    def test_spec_is_deterministic(self):
        assert world_spec(7) == world_spec(7)

    def test_seed_sweep_covers_every_shape(self):
        shapes = {world_spec(seed).shape for seed in range(len(SHAPES))}
        assert shapes == set(SHAPES)

    def test_label_names_seed_and_shape(self):
        spec = world_spec(3)
        assert str(spec.seed) in spec.label
        assert spec.shape in spec.label

    def test_build_world_materializes(self):
        world = build_world(world_spec(0))
        assert len(world.corpus.paths) > 0
        assert len(world.paths) > 0
        assert len(world.graph) >= 60

    def test_single_vp_shape_has_one_vp(self):
        spec = next(
            world_spec(s) for s in range(len(SHAPES))
            if world_spec(s).shape == "single-vp"
        )
        assert spec.collector.n_vps == 1

    def test_worlds_differ_across_seeds(self):
        a = build_world(world_spec(0))
        b = build_world(world_spec(10))  # same shape, different seed
        assert a.spec.shape == b.spec.shape
        assert a.corpus.paths != b.corpus.paths


class TestCleanSweep:
    def test_small_sweep_is_clean(self, tmp_path):
        config = QaConfig(
            seeds=4, repro_dir=str(tmp_path / "repros"), collection_every=2
        )
        lines = []
        report = run_qa(config, log=lines.append)
        assert report.ok, report.violations
        assert report.worlds == 4
        assert report.checks >= 4 * 3  # three corpus families per world
        assert report.repros == []
        assert not os.path.isdir(str(tmp_path / "repros"))  # nothing saved
        assert any("clean" in line for line in lines)

    def test_replay_of_clean_corpus_passes(self, tmp_path):
        from repro.datasets.serialization import save_paths

        world = build_world(world_spec(1))  # "clean" shape: no IXP stripping
        corpus_file = str(tmp_path / "corpus.paths.txt")
        save_paths(corpus_file, world.corpus.paths)
        report = replay_paths(corpus_file)
        assert report.ok, report.violations


class TestMutationSmoke:
    """A deliberately broken fast path must be caught and shrunk."""

    @pytest.fixture
    def broken_fold(self, monkeypatch):
        import repro.core.inference as inf

        monkeypatch.setattr(inf, "_step_fold_fast", lambda result: None)

    def test_broken_fast_fold_is_caught(self, tmp_path, broken_fold):
        repro_dir = str(tmp_path / "repros")
        config = QaConfig(
            seeds=2, repro_dir=repro_dir, collection_every=0,
            max_shrink_evals=150,
        )
        report = run_qa(config)
        assert not report.ok
        assert any(
            v.invariant.startswith("differential/") for v in report.violations
        )
        # every failing world produced a shrunken repro file
        assert len(report.repros) == 2
        for repro_file in report.repros:
            assert os.path.exists(repro_file)
            text = open(repro_file).read()
            assert "reproduce with: repro-asrank qa --replay" in text

    @pytest.fixture
    def broken_cycle_check(self, monkeypatch):
        import repro.core.inference as inf

        monkeypatch.setattr(
            inf.InferenceResult,
            "_would_cycle",
            lambda self, provider, customer: False,
        )

    @pytest.fixture
    def broken_peer_sweep(self, monkeypatch):
        import repro.bgp.propagation as propagation

        monkeypatch.setattr(
            propagation, "_batch_sweep_peers", lambda *args: None
        )

    def test_broken_cycle_check_is_caught(self, tmp_path, broken_cycle_check):
        # seed 178 is a leaky world whose corpus casts cycle-closing
        # votes; the reference result keeps its own per-vote BFS check
        config = QaConfig(
            seeds=1, base_seed=178, repro_dir=str(tmp_path),
            collection_every=0, shrink=False,
        )
        report = run_qa(config)
        invariants = {v.invariant for v in report.violations}
        assert "hierarchy/p2c-cycle" in invariants
        assert "differential/links" in invariants

    def test_broken_batched_sweep_is_caught(
        self, tmp_path, broken_peer_sweep
    ):
        # world index 1 runs family 6: the reference collector sweeps
        # peers itself, so its corpus must differ from the broken one
        config = QaConfig(
            seeds=2, repro_dir=str(tmp_path), collection_every=1,
            shrink=False,
        )
        report = run_qa(config)
        invariants = {v.invariant for v in report.violations}
        assert "propagation/reference" in invariants
        assert "propagation/v6-plane" in invariants

    @pytest.fixture
    def broken_clique_walk(self, monkeypatch):
        import repro.core.inference as inference

        infer_clique = inference.infer_clique

        class EveryASTransits:
            """The corpus as a walk without its ``transit_degree > 0``
            test sees it."""

            def __init__(self, paths):
                self.paths = paths

            def __getattr__(self, name):
                return getattr(self.paths, name)

            def transit_degree(self, asn):
                return max(self.paths.transit_degree(asn), 1)

        monkeypatch.setattr(
            inference, "infer_clique",
            lambda paths, **kw: infer_clique(EveryASTransits(paths), **kw),
        )

    def test_broken_clique_walk_is_caught(
        self, tmp_path, broken_clique_walk
    ):
        # in world 26 an AS adjacent to every clique member never sits
        # between two others, so only the transit test keeps it out
        config = QaConfig(
            seeds=1, base_seed=26, repro_dir=str(tmp_path),
            collection_every=0, shrink=False,
        )
        report = run_qa(config)
        invariants = {v.invariant for v in report.violations}
        assert "differential/clique" in invariants

    def test_shrunken_repro_replays_red_under_the_bug(
        self, tmp_path, broken_fold
    ):
        config = QaConfig(
            seeds=1, repro_dir=str(tmp_path), collection_every=0,
            max_shrink_evals=150,
        )
        report = run_qa(config)
        assert report.repros
        replay = replay_paths(report.repros[0])
        assert not replay.ok

    def test_shrunken_repro_is_small(self, tmp_path, broken_fold):
        config = QaConfig(
            seeds=1, repro_dir=str(tmp_path), collection_every=0,
            max_shrink_evals=150,
        )
        report = run_qa(config)
        from repro.datasets.serialization import load_paths

        minimal = load_paths(report.repros[0])
        world = build_world(world_spec(0))
        assert len(minimal) < len(world.corpus.paths)

    def test_no_shrink_keeps_full_corpus(self, tmp_path, broken_fold):
        config = QaConfig(
            seeds=1, repro_dir=str(tmp_path), collection_every=0,
            shrink=False,
        )
        report = run_qa(config)
        from repro.datasets.serialization import load_paths

        saved = load_paths(report.repros[0])
        world = build_world(world_spec(0))
        assert len(saved) == len(set(world.corpus.paths)) or (
            len(saved) == len(world.corpus.paths)
        )


class TestShrinker:
    def test_shrinks_to_single_culprit(self):
        corpus = [(1, 2, 3)] + [(9, n) for n in range(40)]

        def still_fails(paths):
            return (1, 2, 3) in paths

        assert shrink_paths(corpus, still_fails) == [(1, 2, 3)]

    def test_shrinks_to_interacting_pair(self):
        corpus = [(i, i + 1) for i in range(30)]

        def still_fails(paths):
            return (0, 1) in paths and (20, 21) in paths

        assert sorted(shrink_paths(corpus, still_fails)) == [(0, 1), (20, 21)]

    def test_flaky_predicate_returns_input_unshrunk(self):
        corpus = [(1,), (2,), (3,)]
        assert shrink_paths(corpus, lambda paths: False) == corpus

    def test_empty_corpus(self):
        assert shrink_paths([], lambda paths: True) == []

    def test_eval_budget_is_respected(self):
        corpus = [(n,) for n in range(200)]
        evals = []

        def still_fails(paths):
            evals.append(1)
            return (0,) in paths

        shrink_paths(corpus, still_fails, max_evals=25)
        assert len(evals) <= 26  # budget + the initial sanity check
