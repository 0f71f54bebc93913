"""Unit tests for the perf instrumentation layer."""

from __future__ import annotations

import gc
import time

from repro import perf
from repro.core.inference import infer_relationships
from repro.core.paths import PathSet


class TestStageTree:
    def test_nesting_accumulates_under_parent(self):
        rec = perf.PerfRecorder()
        with rec.stage("infer"):
            with rec.stage("fold"):
                pass
            with rec.stage("fold"):
                pass
        flat = rec.flat()
        assert set(flat) == {"infer", "infer/fold"}
        assert flat["infer"] >= flat["infer/fold"] >= 0.0

    def test_reentry_counts_calls(self):
        rec = perf.PerfRecorder()
        for _ in range(3):
            with rec.stage("fold"):
                pass
        assert rec.snapshot()["fold"]["calls"] == 3

    def test_seconds_actually_measure_time(self):
        rec = perf.PerfRecorder()
        with rec.stage("sleep"):
            time.sleep(0.01)
        assert rec.flat()["sleep"] >= 0.009

    def test_counters_attach_to_open_stage(self):
        rec = perf.PerfRecorder()
        with rec.stage("collect"):
            rec.counter("origins", 5)
            rec.counter("origins", 2)
        assert rec.counters() == {"collect/origins": 7}

    def test_stage_closed_on_exception(self):
        rec = perf.PerfRecorder()
        try:
            with rec.stage("boom"):
                raise RuntimeError
        except RuntimeError:
            pass
        # the stack unwound: a new top-level stage is a sibling
        with rec.stage("after"):
            pass
        assert set(rec.flat()) == {"boom", "after"}

    def test_snapshot_is_json_like(self):
        rec = perf.PerfRecorder()
        with rec.stage("a"):
            with rec.stage("b"):
                rec.counter("n")
        snap = rec.snapshot()
        assert snap["a"]["children"]["b"]["counters"] == {"n": 1}

    def test_reentering_open_stage_is_passthrough(self):
        rec = perf.PerfRecorder()
        with rec.stage("asrank"):
            with rec.stage("infer"):
                with rec.stage("infer"):  # engine re-opens the facade's stage
                    time.sleep(0.01)
        snap = rec.snapshot()
        node = snap["asrank"]["children"]["infer"]
        assert "children" not in node  # no infer/infer duplicate
        assert node["calls"] == 1  # passthrough does not double-count
        assert node["seconds"] >= 0.009

    def test_facade_attributes_infer_and_cones_distinctly(self):
        from repro.asrank import ASRank

        rec = perf.PerfRecorder()
        with perf.use_recorder(rec):
            facade = ASRank.from_paths([(10, 1, 2, 20), (20, 2, 1, 10)])
            facade.result
            facade.cones()
        flat = rec.flat()
        assert "asrank/infer" in flat
        assert "asrank/cones" in flat
        assert "asrank/infer/infer" not in flat
        assert "asrank/cones/cones" not in flat

    def test_report_lines_indent_children(self):
        rec = perf.PerfRecorder()
        with rec.stage("outer"):
            with rec.stage("inner"):
                pass
        lines = rec.report_lines()
        assert lines[0].startswith("outer")
        assert lines[1].startswith("  inner")


class TestScopedRecorder:
    def test_use_recorder_scopes_and_restores(self):
        scoped = perf.PerfRecorder()
        before = perf.get_recorder()
        with perf.use_recorder(scoped):
            assert perf.get_recorder() is scoped
            with perf.stage("x"):
                pass
        assert perf.get_recorder() is before
        assert "x" in scoped.flat()
        assert "x" not in before.flat()

    def test_gc_collections_land_on_the_recorder_root(self):
        rec = perf.PerfRecorder()
        hooks = list(gc.callbacks)
        with perf.use_recorder(rec):
            assert len(gc.callbacks) == len(hooks) + 1
            with perf.stage("work"):
                gc.collect()
                gc.collect(0)
        # the hook is gone again: the default recorder pays nothing
        assert gc.callbacks == hooks
        counters = rec.counters()
        assert counters["gc.gen2"] >= 1 and counters["gc.gen0"] >= 1
        assert counters["gc.gen2_s"] >= 0.0
        # root counters, not the open stage's
        assert not any(key.startswith("work/") for key in counters)

    def test_no_gc_counters_without_collections(self):
        rec = perf.PerfRecorder()
        enabled = gc.isenabled()
        gc.disable()
        try:
            with perf.use_recorder(rec):
                pass
        finally:
            if enabled:
                gc.enable()
        assert rec.counters() == {}

    def test_reset_clears(self):
        rec = perf.PerfRecorder()
        with rec.stage("x"):
            pass
        rec.reset()
        assert rec.flat() == {}


class TestPipelineWiring:
    def test_inference_reports_stages(self):
        rec = perf.PerfRecorder()
        paths = PathSet.sanitize([(10, 1, 2, 20), (20, 2, 1, 10)])
        with perf.use_recorder(rec):
            infer_relationships(paths)
        flat = rec.flat()
        assert "infer" in flat
        assert any(key.startswith("infer/") for key in flat)

    def test_inference_counts_clique_walk_and_discards(self):
        # 1-2-3 is the clique; (4, 1, 2, 3, 5) crosses it three times
        # and is S4's one discard
        rec = perf.PerfRecorder()
        paths = PathSet.sanitize([
            (4, 1, 2, 5), (5, 2, 3, 6), (6, 3, 1, 4), (4, 1, 3, 6),
            (5, 2, 1, 4), (6, 3, 2, 5), (4, 1, 2, 3, 5),
        ])
        with perf.use_recorder(rec):
            result = infer_relationships(paths)
        counters = rec.counters()
        assert result.discarded_poisoned == 1
        assert counters["infer/filter-poisoned/discarded"] == 1
        assert counters["infer/clique/considered"] == result.clique.considered

    def test_scenario_run_reports_stages(self):
        from repro.scenarios import get_scenario

        rec = perf.PerfRecorder()
        with perf.use_recorder(rec):
            get_scenario("tiny").run()
        flat = rec.flat()
        for stage in ("generate", "collect", "sanitize", "infer"):
            assert stage in flat, flat

    def test_collector_setup_reports_compile(self):
        from repro.scenarios import get_scenario

        rec = perf.PerfRecorder()
        with perf.use_recorder(rec):
            get_scenario("tiny").run()
        flat = rec.flat()
        assert "collect-setup" in flat, flat
        assert "collect-setup/compile" in flat, flat
        assert "collect-setup/draws" in flat, flat
        assert flat["collect-setup"] >= (
            flat["collect-setup/compile"] + flat["collect-setup/draws"]
        )
        # set-up is its own stage, not a part of collection
        assert not any(key.startswith("collect/compile") for key in flat)

    def test_collection_reports_prefixes_and_observer_closure(self):
        from repro.bgp.collector import Collector, CollectorConfig
        from repro.topology.generator import (
            GeneratorConfig,
            generate_topology,
        )
        from tests.engines import provider_closure

        graph = generate_topology(GeneratorConfig(n_ases=150, seed=3))
        collector = Collector(graph, CollectorConfig(n_vps=6, seed=3))
        rec = perf.PerfRecorder()
        with perf.use_recorder(rec):
            corpus = collector.run()
        assert corpus.paths
        flat, counters = rec.flat(), rec.counters()
        assert "collect/prefixes" in flat, flat
        assert flat["collect"] >= flat["collect/prefixes"]
        # one closure per propagation call, i.e. per origin block
        blocks = -(-counters["collect/origins"] // 128)
        index = collector.index
        closure = provider_closure(index, collector.kernel.observers)
        kept = sum(
            1 for p in closure for c in index.customers[p].tolist()
            if c in closure
        )
        assert 0 < len(closure) < len(index)
        assert counters["collect/closure"] == blocks * len(closure)
        assert counters["collect/kept-edges"] == blocks * kept

    def test_from_mrt_reports_ingest_stages(self, tmp_path):
        from repro.asrank import ASRank
        from repro.mrt.writer import write_rib_dump
        from repro.scenarios import get_scenario

        _graph, corpus, _paths, _result = get_scenario("tiny").run()
        rib = str(tmp_path / "rib.mrt")
        write_rib_dump(rib, corpus.rib)
        rec = perf.PerfRecorder()
        with perf.use_recorder(rec):
            ASRank.from_mrt(rib)
        flat = rec.flat()
        for stage in ("decode", "table", "sanitize", "prefixes"):
            assert f"asrank/ingest/{stage}" in flat, flat
        assert flat["asrank/ingest"] >= flat["asrank/ingest/decode"]

    def test_full_publish_stages_cover_the_build(self):
        """A full stream publish's build shows as asrank/rank plus
        snapshot-build (with its content hash under version)."""
        from repro.bgp.collector import Collector, CollectorConfig
        from repro.mrt.reader import RibRecord
        from repro.stream import StreamIngestor
        from repro.topology.generator import (
            GeneratorConfig,
            generate_topology,
        )

        graph = generate_topology(GeneratorConfig(n_ases=80, seed=5))
        corpus = Collector(graph, CollectorConfig(n_vps=5, seed=5)).run()
        rows = [
            RibRecord(prefix=entry.prefix, peer_asn=entry.vp,
                      as_path=tuple(entry.path), communities=())
            for entry in corpus.rib
        ]
        ingestor = StreamIngestor(ixp_asns=graph.ixp_asns(), base_rows=rows)
        rec = perf.PerfRecorder()
        with perf.use_recorder(rec):
            ingestor.publish()
        flat = rec.flat()
        for stage in ("asrank/infer", "asrank/cones", "asrank/rank",
                      "snapshot-build", "snapshot-build/version"):
            assert stage in flat, flat
        assert flat["snapshot-build"] >= flat["snapshot-build/version"]
        # both stages run inside the build the ingestor times
        build = ingestor.stats.last_build_seconds
        assert flat["asrank/rank"] + flat["snapshot-build"] <= build


class TestThreadSafety:
    def test_concurrent_counters_sum_exactly(self):
        import threading

        rec = perf.PerfRecorder()
        rounds = 2000

        def work():
            with rec.stage("worker"):
                for _ in range(rounds):
                    rec.counter("ticks")
                    rec.add_seconds("busy", 0.001)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert rec.counters()["worker/ticks"] == 8 * rounds
        assert abs(rec.flat()["worker/busy"] - 8 * rounds * 0.001) < 1e-6

    def test_each_thread_gets_its_own_stage_stack(self):
        import threading

        rec = perf.PerfRecorder()
        barrier = threading.Barrier(2)

        def left():
            with rec.stage("left"):
                barrier.wait()
                with rec.stage("inner"):
                    barrier.wait()

        def right():
            with rec.stage("right"):
                barrier.wait()
                with rec.stage("inner"):
                    barrier.wait()

        threads = [
            threading.Thread(target=left),
            threading.Thread(target=right),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        flat = rec.flat()
        # each thread nests "inner" under its own top-level stage — the
        # stacks never bleed into each other
        assert set(flat) == {"left", "right", "left/inner", "right/inner"}

    def test_snapshot_does_not_mutate(self):
        rec = perf.PerfRecorder()
        with rec.stage("a"):
            rec.counter("n")
        first = rec.snapshot()
        first["a"]["counters"]["n"] = 999
        first["a"]["ghost"] = {}
        second = rec.snapshot()
        assert second["a"]["counters"] == {"n": 1}
        assert "ghost" not in second["a"]

    def test_module_snapshot_is_detached_view(self):
        rec = perf.PerfRecorder()
        with perf.use_recorder(rec):
            with perf.stage("x"):
                pass
            snap = perf.snapshot()
        assert "x" in snap
        snap["x"]["seconds"] = -1.0
        assert rec.snapshot()["x"]["seconds"] >= 0.0


class TestAddSeconds:
    def test_accumulates_under_open_stage(self):
        rec = perf.PerfRecorder()
        with rec.stage("collect"):
            rec.add_seconds("propagate", 0.25)
            rec.add_seconds("propagate", 0.5)
            rec.add_seconds("noise", 0.1)
        flat = rec.flat()
        assert flat["collect/propagate"] == 0.75
        assert flat["collect/noise"] == 0.1

    def test_counts_each_deposit_as_a_call(self):
        rec = perf.PerfRecorder()
        with rec.stage("collect"):
            rec.add_seconds("rib", 0.1)
            rec.add_seconds("rib", 0.2)
        assert rec.snapshot()["collect"]["children"]["rib"]["calls"] == 2

    def test_module_level_helper_uses_active_recorder(self):
        rec = perf.PerfRecorder()
        with perf.use_recorder(rec):
            with perf.stage("collect"):
                perf.add_seconds("paths", 0.05)
        assert rec.flat()["collect/paths"] == 0.05

    def test_counters_land_on_the_substage(self):
        rec = perf.PerfRecorder()
        with perf.use_recorder(rec):
            with perf.stage("collect"):
                perf.add_seconds("noise", 0.1, misses=3)
                perf.add_seconds("noise", 0.1, misses=0)
        assert rec.counters() == {"collect/noise/misses": 3}
        assert "noise" in rec.report_lines()[1] and "misses=3" in (
            rec.report_lines()[1]
        )

    def test_collector_reports_substages(self):
        from repro.bgp.collector import Collector, CollectorConfig
        from repro.topology.generator import (
            GeneratorConfig,
            generate_topology,
        )

        graph = generate_topology(GeneratorConfig(n_ases=60, seed=2))
        rec = perf.PerfRecorder()
        with perf.use_recorder(rec):
            Collector(graph, CollectorConfig(n_vps=6, seed=3)).run()
        flat = rec.flat()
        for substage in ("propagate", "paths", "noise", "rib"):
            assert f"collect/{substage}" in flat, flat
        counters = rec.counters()
        assert counters["collect-setup/compile/reused"] in (0, 1)
        assert "collect/noise/misses" in counters
        substage_sum = sum(
            v for k, v in flat.items() if k.startswith("collect/")
        )
        assert substage_sum <= flat["collect"]
