"""E0 (harness) — pipeline scaling.

Not a paper artifact: a cost profile of every pipeline stage across
topology sizes, so users know what a workload costs before running it.
The profile comes from the :mod:`repro.perf` recorder (the pipeline is
instrumented end to end), and lands in two artifacts:

* ``reports/E00_scale.txt`` — the human-readable stage table;
* ``reports/BENCH_e00.json`` — stage → seconds plus corpus sizes and
  the frozen seed-code baseline, so the perf trajectory stays
  machine-trackable across PRs.
"""

import random
import time

from conftest import write_json_report, write_report

from repro import perf
from repro.bgp.collector import Collector, CollectorConfig
from repro.bgp.propagation import PropagationConfig
from repro.core.cone import ConeDefinition, compute_cones
from repro.core.inference import infer_relationships
from repro.core.paths import PathSet
from repro.qa.oracles import ReferenceCollector
from repro.scenarios import get_scenario
from repro.topology.generator import (
    GeneratorConfig,
    InternetScaleConfig,
    generate_internet_topology,
    generate_topology,
)

SIZES = (300, 800, 1500)

# The internet-scale point: a 100k-AS power-law world with a sampled
# origin set (collecting all 100k origins is a capacity run, not a
# benchmark).  The sample is seeded, so the workload is identical
# across report regenerations.
INTERNET_ASES = 100_000
INTERNET_ORIGINS = 400

# A downscaled replica of the internet workload, cheap enough for
# check_regression.py to replay min-of-3 on every run.  Committing its
# collect time here gives the regression leg an exact-workload
# baseline instead of extrapolating from the 100k point.
INTERNET_SMOKE_ASES = 10_000
INTERNET_SMOKE_ORIGINS = 150


def internet_smoke_workload():
    """The (graph, config, origins) triple the regression leg replays."""
    graph = generate_internet_topology(
        InternetScaleConfig(n_ases=INTERNET_SMOKE_ASES, seed=42)
    )
    config = CollectorConfig(
        n_vps=20,
        seed=1,
        propagation=PropagationConfig(array_state=True, batch_size=64),
    )
    origins = sorted(
        random.Random(7).sample(
            sorted(a.asn for a in graph.ases()), INTERNET_SMOKE_ORIGINS
        )
    )
    return graph, config, origins

# The committed E00 numbers of the seed implementation (BFS cycle
# checks, set-based cones, serial collection) on this workload, frozen
# when the fast-path engine landed.  The acceptance gate for that PR
# compared `infer` + `cones` at the 1500-AS scale against these.
SEED_BASELINE = {
    "300": {"generate": 0.016, "propagate+collect": 0.083,
            "sanitize": 0.007, "infer": 0.062, "cones": 0.004},
    "800": {"generate": 0.071, "propagate+collect": 0.452,
            "sanitize": 0.038, "infer": 0.374, "cones": 0.024},
    "1500": {"generate": 0.271, "propagate+collect": 1.709,
             "sanitize": 0.170, "infer": 1.549, "cones": 0.114},
}

# `propagate+collect` as committed by the PR that landed the fast-path
# engine (per-origin reference sweeps, per-run fork pool).  Frozen on
# that PR's machine, which was measurably faster than the one that
# produced the current report — so the 1500-AS point was re-measured
# (min of 3) on this report's machine with that PR's exact collector
# code, and the headline `speedup_collect_1500` uses the same-machine
# number.  The same-run `reference_collect_1500` ratio is also
# recorded: it isolates the batched engine itself, with every other
# collector optimization held constant.
PR2_COLLECT_BASELINE = {"300": 0.0747, "800": 0.3572, "1500": 1.4639}
PR2_COLLECT_1500_SAME_MACHINE = 2.262


def _profile(n_ases: int, measure_reference: bool = False):
    """One full pipeline run at ``n_ases``, profiled stage by stage.

    With ``measure_reference`` the collection is re-run through the
    per-origin reference sweeps (``repro.qa.oracles.ReferenceCollector``)
    to get a same-machine, same-run speedup denominator for the
    batched engine.
    """
    recorder = perf.PerfRecorder()
    with perf.use_recorder(recorder):
        with perf.stage("generate"):
            graph = generate_topology(GeneratorConfig(n_ases=n_ases, seed=99))
        config = CollectorConfig(n_vps=max(12, n_ases // 35), seed=1)
        corpus = Collector(graph, config).run()
        with perf.stage("sanitize"):
            paths = PathSet.sanitize(corpus.paths, ixp_asns=graph.ixp_asns())
        result = infer_relationships(paths)
        compute_cones(result, ConeDefinition.PROVIDER_PEER_OBSERVED)

    reference_collect = None
    if measure_reference:
        start = time.perf_counter()
        ReferenceCollector(graph, config).run()
        reference_collect = time.perf_counter() - start

    flat = recorder.flat()
    timings = {
        "generate": flat["generate"],
        "propagate+collect": flat["collect"],
        "sanitize": flat["sanitize"],
        "infer": flat["infer"],
        "cones": flat["cones"],
    }
    substages = {
        key: seconds for key, seconds in flat.items() if "/" in key
    }
    return timings, substages, len(paths), len(result), reference_collect


def _profile_internet():
    """The 100k-AS pipeline, profiled stage by stage.

    Uses the internet-scale configuration end to end: the linear-time
    power-law generator, ``array_state`` RouteState rows (int32 slices
    instead of 120M-element Python lists), and 64-origin propagation
    blocks (the measured sweet spot at stride 2**17).
    """
    recorder = perf.PerfRecorder()
    with perf.use_recorder(recorder):
        with perf.stage("generate"):
            graph = generate_internet_topology(
                InternetScaleConfig(n_ases=INTERNET_ASES, seed=42)
            )
        config = CollectorConfig(
            n_vps=40,
            seed=1,
            propagation=PropagationConfig(array_state=True, batch_size=64),
        )
        origins = sorted(
            random.Random(7).sample(
                sorted(a.asn for a in graph.ases()), INTERNET_ORIGINS
            )
        )
        corpus = Collector(graph, config).run(origins=origins)
        with perf.stage("sanitize"):
            paths = PathSet.sanitize(corpus.paths, ixp_asns=graph.ixp_asns())
        result = infer_relationships(paths)
        compute_cones(result, ConeDefinition.PROVIDER_PEER_OBSERVED)

    flat = recorder.flat()
    timings = {
        "generate": flat["generate"],
        "propagate+collect": flat["collect"],
        "sanitize": flat["sanitize"],
        "infer": flat["infer"],
        "cones": flat["cones"],
    }
    substages = {key: sec for key, sec in flat.items() if "/" in key}
    return timings, substages, len(paths), len(result)


def test_e00_scaling(benchmark):
    scenario = get_scenario("small")
    benchmark.pedantic(scenario.run, rounds=2, iterations=1)

    lines = ["E0: pipeline stage wall time (seconds)", "-" * 70,
             f"{'ASes':>6}{'paths':>8}{'links':>7}"
             f"{'generate':>10}{'collect':>9}{'sanitize':>10}"
             f"{'infer':>8}{'cones':>8}"]
    rows = []
    sizes_json = {}
    reference_collect = {}
    for n_ases in SIZES:
        timings, substages, n_paths, n_links, reference = _profile(
            n_ases, measure_reference=(n_ases in (300, 1500))
        )
        if reference is not None:
            reference_collect[n_ases] = reference
        rows.append((n_ases, timings))
        sizes_json[str(n_ases)] = {
            "paths": n_paths,
            "links": n_links,
            "stages": {k: round(v, 4) for k, v in timings.items()},
            "substages": {k: round(v, 4) for k, v in substages.items()},
        }
        lines.append(
            f"{n_ases:>6}{n_paths:>8}{n_links:>7}"
            f"{timings['generate']:>10.3f}{timings['propagate+collect']:>9.3f}"
            f"{timings['sanitize']:>10.3f}{timings['infer']:>8.3f}"
            f"{timings['cones']:>8.3f}"
        )
    inet_timings, inet_substages, inet_paths, inet_links = _profile_internet()
    smoke_graph, smoke_config, smoke_origins = internet_smoke_workload()
    smoke_collect = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        Collector(smoke_graph, smoke_config).run(origins=smoke_origins)
        smoke_collect = min(smoke_collect, time.perf_counter() - start)
    smoke_collect = round(smoke_collect, 4)
    lines.append(
        f"{INTERNET_ASES:>6}{inet_paths:>8}{inet_links:>7}"
        f"{inet_timings['generate']:>10.3f}"
        f"{inet_timings['propagate+collect']:>9.3f}"
        f"{inet_timings['sanitize']:>10.3f}{inet_timings['infer']:>8.3f}"
        f"{inet_timings['cones']:>8.3f}"
        f"  ({INTERNET_ORIGINS} sampled origins)"
    )

    batched_1500 = rows[-1][1]["propagate+collect"]
    reference_1500 = reference_collect[1500]
    lines.append("-" * 70)
    lines.append(
        f"collect@1500: batched {batched_1500:.3f}s, reference engine "
        f"{reference_1500:.3f}s ({reference_1500 / batched_1500:.2f}x), "
        f"PR2 collector {PR2_COLLECT_1500_SAME_MACHINE:.3f}s "
        f"({PR2_COLLECT_1500_SAME_MACHINE / batched_1500:.2f}x)"
    )
    write_report("E00_scale", lines)

    seed_hot = (SEED_BASELINE["1500"]["infer"]
                + SEED_BASELINE["1500"]["cones"])
    now = rows[-1][1]
    now_hot = now["infer"] + now["cones"]
    write_json_report("BENCH_e00", {
        "experiment": "E00",
        "workload": "generate/collect/sanitize/infer/cones at "
                    "n_ases in (300, 800, 1500), seeds (99, 1)",
        "seed_baseline": SEED_BASELINE,
        "pr2_collect_baseline": PR2_COLLECT_BASELINE,
        "pr2_collect_1500_same_machine": PR2_COLLECT_1500_SAME_MACHINE,
        "current": sizes_json,
        "speedup_infer_cones_1500": round(seed_hot / now_hot, 2),
        # headline: batched collection vs the PR2 collector, both
        # measured on the machine that produced this report
        "speedup_collect_1500": round(
            PR2_COLLECT_1500_SAME_MACHINE / batched_1500, 2
        ),
        # same-run isolation of the batched engine: the per-origin
        # reference sweeps on the identical workload, with every other
        # collector optimization held constant.  The 300-AS number also
        # calibrates machine speed in check_regression.py.
        "reference_collect_300": round(reference_collect[300], 4),
        "reference_collect_1500": round(reference_1500, 4),
        "speedup_collect_vs_reference_1500": round(
            reference_1500 / batched_1500, 2
        ),
        # the internet-scale point: 100k-AS power-law world, sampled
        # origins, array_state collection.  check_regression.py's
        # internet leg tracks this workload at a downscaled size.
        "internet": {
            "n_ases": INTERNET_ASES,
            "origins_sampled": INTERNET_ORIGINS,
            "paths": inet_paths,
            "links": inet_links,
            "stages": {k: round(v, 4) for k, v in inet_timings.items()},
            "substages": {
                k: round(v, 4) for k, v in inet_substages.items()
            },
            "total": round(sum(inet_timings.values()), 4),
        },
        "internet_smoke": {
            "n_ases": INTERNET_SMOKE_ASES,
            "origins_sampled": INTERNET_SMOKE_ORIGINS,
            "collect": smoke_collect,
        },
    })

    # collection and inference dominate the cost profile, and the full
    # pipeline stays laptop-friendly at the largest benchmark scale
    for _, timings in rows:
        heavy = timings["propagate+collect"] + timings["infer"]
        assert heavy >= 0.5 * sum(timings.values())
    total_large = sum(rows[-1][1].values())
    assert total_large < 120.0
    # the 100k world must stay interactive — single-digit seconds warm,
    # with wide headroom for machine variance (this box swings ~2x)
    assert sum(inet_timings.values()) < 60.0
