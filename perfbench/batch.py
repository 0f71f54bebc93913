"""The two batch workloads: simulate-internet and rib-build.

Both end in the paper's artifacts compiled into a snapshot file, and
both check every op's snapshot content version against the version
pinned for the seed (``pinned.json``), or, for seeds with no pin,
against an independent derivation made while generating the inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from typing import Dict, List

from common import (
    NULL,
    SCALES,
    SETUP_REPEATS,
    CheckFailed,
    WORK,
    Outcome,
    Reference,
    Timed,
    maxrss_mib,
    median,
    repro_env,
    timed_loop,
)
from inputs import ensure


def pinned_version(workload: str, scale: str, seed: int):
    with open(os.path.join(os.path.dirname(__file__), "pinned.json")) as f:
        pins = json.load(f)
    return pins.get(scale, {}).get(workload, {}).get(str(seed))


def _finish(facade, out_path: str, tr) -> str:
    """Infer, all three cones, snapshot build and save; the version."""
    from repro.core.cone import ConeDefinition
    from repro.serve.snapshot import Snapshot
    from repro.serve.store import save_snapshot

    with tr.span("core.infer_s", "core", rss="infer"):
        result = facade.result
    tr.count("core.links", len(result))
    with tr.span("core.cones_s", "core", rss="cones"):
        for definition in ConeDefinition:
            facade.cones(definition)
    with tr.span("serve.snapshot_build_s", "serve", rss="snapshot_build"):
        snapshot = Snapshot.build(facade)
    with tr.span("serve.snapshot_save_s", "serve", rss="snapshot_save"):
        save_snapshot(snapshot, out_path)
    tr.count("serve.snapshot_bytes", os.path.getsize(out_path))
    return snapshot.version


class _VersionCheck:
    """Every op must produce ``expected``; with no expectation, every
    op must agree with the first."""

    def __init__(self, expected) -> None:
        self.expected = expected
        self.seen: List[str] = []

    def __call__(self, version: str) -> None:
        self.seen.append(version)
        if self.expected is None:
            self.expected = version
        if version != self.expected:
            raise CheckFailed(
                f"content version {version} != expected {self.expected}"
            )


def _world_digest(graph) -> str:
    digest = hashlib.sha256()
    for a, b, rel in sorted(graph.links(), key=lambda t: (t[0], t[1])):
        digest.update(f"{a} {b} {int(rel)}\n".encode())
    for prefix, asn in sorted(graph.prefix_origins().items()):
        digest.update(f"{prefix} {asn}\n".encode())
    return digest.hexdigest()


def simulate_world(seed: int, size):
    """The seeded world and the origins that announce in it."""
    from repro.topology.generator import (
        InternetScaleConfig,
        generate_internet_topology,
    )

    graph = generate_internet_topology(
        InternetScaleConfig(n_ases=size["n_ases"], seed=seed)
    )
    population = sorted(a.asn for a in graph.ases())
    origins = sorted(random.Random(seed).sample(population, size["origins"]))
    return graph, origins


def simulate_once(graph, origins, n_vps: int, seed: int, out_path: str,
                  tr=NULL) -> str:
    """One simulate-internet op: collect, sanitize, infer, cones,
    snapshot build and save; returns the content version."""
    from repro.asrank import ASRank
    from repro.bgp.collector import Collector, CollectorConfig
    from repro.bgp.propagation import PropagationConfig
    from repro.core.paths import PathSet

    config = CollectorConfig(
        n_vps=n_vps, seed=seed, workers=0,
        propagation=PropagationConfig(array_state=True, batch_size=64),
    )
    with tr.span("bgp.collector_init_s", "bgp", rss="collector_init"):
        collector = Collector(graph, config)
    with tr.span("bgp.collect_s", "bgp", rss="collect"):
        corpus = collector.run(origins=origins)
    tr.count("bgp.paths_observed", len(corpus.paths))
    with tr.span("core.sanitize_s", "core", rss="sanitize"):
        paths = PathSet.sanitize(corpus.paths, ixp_asns=graph.ixp_asns())
    tr.count("core.sanitize_kept_ratio",
             len(paths) / max(1, len(corpus.paths)))
    return _finish(ASRank(paths), out_path, tr)


def simulate_internet(seed: int, seconds: float, scale: str,
                      outcome: Outcome, reference: Reference,
                      tracer) -> Dict[str, object]:
    size = SCALES[scale]["simulate"]
    # set-up is world generation; repeated, and the median reported
    setup: List[Timed] = []
    for _ in range(SETUP_REPEATS):
        graph = None  # let the previous world go before the next one
        sample = reference.sample()
        start = time.perf_counter()
        graph, origins = simulate_world(seed, size)
        setup.append((time.perf_counter() - start, sample))
    rss_generate = maxrss_mib()
    out_path = os.path.join(WORK, "out", f"simulate-{os.getpid()}.snp")
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    check = _VersionCheck(pinned_version("simulate-internet", scale, seed))

    def op(tr) -> None:
        with tr.perf_recorder():
            version = simulate_once(graph, origins, size["vps"], seed,
                                    out_path, tr)
        check(version)

    try:
        untraced, traced = timed_loop(op, seconds, outcome, reference,
                                      tracer)
    finally:
        if os.path.exists(out_path):
            os.remove(out_path)
    layer = {"topology.generate_s": median([s for s, _ in setup])}
    if tracer is not None:
        tracer.rss["generate"] = rss_generate
    return {
        "setup": setup,
        "ops": untraced,
        "traced_op_s": [s for s, _ in traced],
        "busy": untraced,
        "work": len(untraced),
        "peak_rss_mib": maxrss_mib(),
        "layer": layer,
        "inputs": {"world": _world_digest(graph)},
        "versions": sorted(set(check.seen)),
        "expected_version": check.expected,
    }


#: what a CLI build imports; a fresh interpreter pays this every time
_OP_IMPORTS = (
    "import repro.asrank, repro.core.cone, repro.mrt.reader, "
    "repro.mrt.updates, repro.serve.snapshot, repro.serve.store"
)


def rib_build(seed: int, seconds: float, scale: str, outcome: Outcome,
              reference: Reference, tracer) -> Dict[str, object]:
    from repro.asrank import ASRank
    from repro.core.paths import PathSet
    from repro.mrt.reader import MrtReader, RibRecord, UpdateRecord
    from repro.mrt.updates import rib_from_updates
    from repro.stream.corpus import prefixes_from_rows

    directory, manifest = ensure("rib", seed, scale)
    rib = os.path.join(directory, "rib.mrt")
    with open(os.path.join(directory, "ixp.json")) as handle:
        ixp = frozenset(json.load(handle))

    setup: List[Timed] = []
    for _ in range(SETUP_REPEATS):
        sample = reference.sample()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", _OP_IMPORTS],
                       env=repro_env(), check=True, timeout=120)
        setup.append((time.perf_counter() - start, sample))

    pin = pinned_version("rib-build", scale, seed)
    check = _VersionCheck(pin or manifest["oracle_version"])
    out_path = os.path.join(WORK, "out", f"rib-build-{os.getpid()}.snp")
    os.makedirs(os.path.dirname(out_path), exist_ok=True)

    def op(tr) -> None:
        if tr is NULL:
            facade = ASRank.from_mrt(rib, ixp_asns=ixp)
            check(_finish(facade, out_path, tr))
            return
        # traced: ASRank.from_mrt split into its public parts
        with tr.perf_recorder():
            rows: List[RibRecord] = []
            updates: List[UpdateRecord] = []
            with tr.span("mrt.decode_s", "mrt", rss="decode"):
                with open(rib, "rb") as stream:
                    for record in MrtReader(stream):
                        if isinstance(record, RibRecord):
                            rows.append(record)
                        elif isinstance(record, UpdateRecord):
                            updates.append(record)
            tr.count("mrt.records", len(rows) + len(updates))
            with tr.span("mrt.table_s", "mrt", rss="table"):
                table = rib_from_updates(updates, base=rows)
            tr.count("mrt.rib_rows", len(table))
            prefixes = prefixes_from_rows(table)
            with tr.span("core.sanitize_s", "core", rss="sanitize"):
                paths = PathSet.sanitize(
                    (row.as_path for row in table), ixp_asns=ixp
                )
            tr.count("core.sanitize_kept_ratio",
                     len(paths) / max(1, len(table)))
            facade = ASRank(paths, prefixes_by_asn=prefixes)
            version = _finish(facade, out_path, tr)
        check(version)

    try:
        untraced, traced = timed_loop(op, seconds, outcome, reference,
                                      tracer)
    finally:
        if os.path.exists(out_path):
            os.remove(out_path)
    return {
        "setup": setup,
        "ops": untraced,
        "traced_op_s": [s for s, _ in traced],
        "busy": untraced,
        "work": len(untraced),
        "peak_rss_mib": maxrss_mib(),
        "layer": {},
        "inputs": manifest["sha256"],
        "versions": sorted(set(check.seen)),
        "expected_version": check.expected,
        "pinned": pin is not None,
    }
