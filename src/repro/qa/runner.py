"""The QA sweep driver: worlds → invariants → shrink → repro files.

``run_qa`` is what ``repro-asrank qa --seeds N`` executes.  Every world
runs all ten invariant families; the corpus-level families (1–3) are
shrunk on failure and the minimal corpus is written under
``benchmarks/repros/`` together with a one-line replay command, so a
red sweep is immediately actionable.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro import perf
from repro.datasets.serialization import load_paths, save_paths
from repro.qa.generator import QaWorld, build_world, world_spec
from repro.qa.invariants import (
    Violation,
    check_collection,
    check_cones,
    check_differential,
    check_hierarchy,
    check_path_serving,
    check_propagation,
    check_round_trips,
    check_serving,
    check_stream,
    check_timeline,
)
from repro.qa.shrink import shrink_paths

Path = Tuple[int, ...]


@dataclass
class QaConfig:
    """Sweep shape and failure-handling knobs."""

    seeds: int = 20
    base_seed: int = 0
    repro_dir: str = os.path.join("benchmarks", "repros")
    shrink: bool = True
    max_shrink_evals: int = 250
    # family 5 re-runs the whole collection twice per world; checking
    # every Nth world keeps the sweep inside a CI smoke budget while a
    # full seed range still covers every shape
    collection_every: int = 4
    collection_workers: Sequence[int] = (2, 3)
    # family 6 (batched vs reference propagation) re-collects four
    # times per checked world; same every-Nth budget trade-off, offset
    # from family 5 below so the two never stack on one world
    propagation_every: int = 2
    # family 9 builds its own fixed-size three-era series per world
    # (cheap — tens of milliseconds), so it runs every world by default
    timeline_every: int = 1
    # family 10 recomputes the batch oracle after every streamed
    # publish (~8 full pipelines per checked world), so it runs every
    # other world, offset from families 5/6 below
    stream_every: int = 2


@dataclass
class QaReport:
    """Everything one sweep found."""

    worlds: int = 0
    checks: int = 0
    violations: List[Violation] = field(default_factory=list)
    repros: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        status = "clean" if self.ok else f"{len(self.violations)} violations"
        return (
            f"qa: {self.worlds} worlds, {self.checks} invariant checks, "
            f"{status}"
        )


def _corpus_violations(
    raw_paths: List[Path],
    ixp_asns: FrozenSet[int],
    world: str,
    prefixes_by_asn: Optional[Dict[int, List]] = None,
) -> List[Violation]:
    """Families 1–3 from a raw corpus (the shrink predicate's view)."""
    violations, fast = check_differential(
        raw_paths, ixp_asns, world, prefixes_by_asn=prefixes_by_asn
    )
    hierarchy = check_hierarchy(fast, world)
    violations.extend(hierarchy)
    if not any(v.invariant == "hierarchy/p2c-cycle" for v in hierarchy):
        # the cone oracles walk the p2c graph as a DAG
        violations.extend(check_cones(fast, world))
    return violations


def _save_repro(
    config: QaConfig,
    slug: str,
    paths: List[Path],
    comments: Sequence[str],
) -> str:
    os.makedirs(config.repro_dir, exist_ok=True)
    repro_file = os.path.join(config.repro_dir, f"{slug}.paths.txt")
    save_paths(repro_file, paths, comments=list(comments))
    return repro_file


def _shrink_and_save(
    config: QaConfig,
    world: QaWorld,
    violations: List[Violation],
    log: Callable[[str], None],
) -> Optional[str]:
    """Shrink the corpus against the first violation's invariant."""
    first = violations[0]
    ixp_asns = world.graph.ixp_asns()

    prefixes = world.prefixes_by_asn()

    def still_fails(candidate: List[Path]) -> bool:
        found = _corpus_violations(
            candidate, ixp_asns, world.spec.label, prefixes
        )
        return any(v.invariant == first.invariant for v in found)

    corpus_paths = [tuple(p) for p in world.corpus.paths]
    if config.shrink:
        with perf.stage("qa-shrink"):
            minimal = shrink_paths(
                corpus_paths, still_fails, max_evals=config.max_shrink_evals
            )
    else:
        minimal = corpus_paths
    slug = f"qa-seed{world.spec.seed}-" + first.invariant.replace("/", "-")
    repro_file = os.path.join(config.repro_dir, f"{slug}.paths.txt")
    _save_repro(
        config,
        slug,
        minimal,
        comments=[
            f"qa repro: {first.invariant} on {world.spec.label}",
            f"shrunk to {len(minimal)} of {len(corpus_paths)} paths",
            f"reproduce with: repro-asrank qa --replay {repro_file}",
        ],
    )
    log(
        f"  shrunk {len(corpus_paths)} -> {len(minimal)} paths; "
        f"reproduce with: repro-asrank qa --replay {repro_file}"
    )
    return repro_file


def run_qa(
    config: Optional[QaConfig] = None,
    log: Optional[Callable[[str], None]] = None,
) -> QaReport:
    """Run the full sweep; returns a report (never raises on violations)."""
    from repro.core.inference import infer_relationships

    config = config or QaConfig()
    log = log or (lambda line: None)
    report = QaReport()
    scratch = tempfile.mkdtemp(prefix="repro-qa-")
    try:
        with perf.stage("qa"):
            for index in range(config.seeds):
                seed = config.base_seed + index
                spec = world_spec(seed)
                with perf.stage("qa-world"):
                    world = build_world(spec)
                label = spec.label
                world_violations: List[Violation] = []

                with perf.stage("qa-corpus-invariants"):
                    corpus_violations = _corpus_violations(
                        list(world.corpus.paths),
                        world.graph.ixp_asns(),
                        label,
                        world.prefixes_by_asn(),
                    )
                report.checks += 3
                world_violations.extend(corpus_violations)

                if corpus_violations:
                    repro = _shrink_and_save(
                        config, world, corpus_violations, log
                    )
                    if repro:
                        report.repros.append(repro)
                else:
                    # families 4–8 ride on a healthy inference result
                    result = infer_relationships(world.paths)
                    with perf.stage("qa-round-trips"):
                        world_violations.extend(
                            check_round_trips(
                                result,
                                world.corpus,
                                os.path.join(scratch, f"world{seed}"),
                                label,
                                world.graph.ixp_asns(),
                            )
                        )
                    report.checks += 1
                    with perf.stage("qa-serving"):
                        world_violations.extend(
                            check_serving(
                                result,
                                os.path.join(scratch, f"world{seed}"),
                                label,
                            )
                        )
                    report.checks += 1
                    with perf.stage("qa-path-serving"):
                        world_violations.extend(
                            check_path_serving(result, label)
                        )
                    report.checks += 1
                    if (
                        config.collection_every
                        and index % config.collection_every == 0
                    ):
                        with perf.stage("qa-collection"):
                            world_violations.extend(
                                check_collection(
                                    world, config.collection_workers
                                )
                            )
                        report.checks += 1
                    if (
                        config.propagation_every
                        and (index + 1) % config.propagation_every == 0
                    ):
                        with perf.stage("qa-propagation"):
                            world_violations.extend(
                                check_propagation(world)
                            )
                        report.checks += 1
                    if (
                        config.timeline_every
                        and (index + 2) % config.timeline_every == 0
                    ):
                        with perf.stage("qa-timeline"):
                            world_violations.extend(
                                check_timeline(
                                    os.path.join(scratch, f"world{seed}"),
                                    label,
                                    spec.seed,
                                )
                            )
                        report.checks += 1
                    if (
                        config.stream_every
                        and (index + 3) % config.stream_every == 0
                    ):
                        with perf.stage("qa-stream"):
                            world_violations.extend(
                                check_stream(world, label, spec.seed)
                            )
                        report.checks += 1

                for violation in world_violations:
                    log(f"FAIL {violation}")
                report.violations.extend(world_violations)
                report.worlds += 1
                log(
                    f"world {label}: "
                    + ("ok" if not world_violations else "FAILED")
                )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    log(report.summary())
    return report


def replay_paths(
    path_file: str, log: Optional[Callable[[str], None]] = None
) -> QaReport:
    """Re-run the corpus-level invariant families on a saved repro."""
    log = log or (lambda line: None)
    report = QaReport(worlds=1, checks=3)
    raw = load_paths(path_file)
    label = f"replay {os.path.basename(path_file)}"
    report.violations = _corpus_violations(raw, frozenset(), label)
    for violation in report.violations:
        log(f"FAIL {violation}")
    log(report.summary())
    return report
