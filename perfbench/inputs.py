"""Seeded benchmark inputs, generated once per (scale, kind, seed).

Generation runs in a child interpreter, outside every timed region and
outside the measuring process (so its memory never shows in that
process's peak RSS), and lands in ``.perfbench/cache``.  Each input
directory carries an ``inputs.json`` with the sha256 of every file, so
two runs can show they read identical bytes.

Kinds:

* ``rib`` — a TABLE_DUMP_V2 RIB collected from a seeded power-law
  world, its IXP list, and the snapshot built from it (what
  serve-mixed serves);
* ``stream`` — a named scenario's RIB plus a seeded BGP4MP churn dump.

Run directly (``python3 perfbench/inputs.py <kind> <seed> <scale>``)
to (re)build one cache entry.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
from typing import Dict, Tuple

from common import (
    SCALES,
    STREAM_BATCH_SIZE,
    WORK,
    repro_env,
    sha256_file,
    write_json,
)

KINDS = ("rib", "stream")


def input_dir(kind: str, seed: int, scale: str) -> str:
    # the sizes, the stream batch size and this generator's source are
    # part of the key, so a changed workload never reads stale inputs
    digest = hashlib.sha256(json.dumps(
        [SCALES[scale][kind], STREAM_BATCH_SIZE], sort_keys=True
    ).encode())
    with open(os.path.abspath(__file__), "rb") as handle:
        digest.update(handle.read())
    tag = digest.hexdigest()[:8]
    return os.path.join(WORK, "cache", scale, f"{kind}-{seed}-{tag}")


def ensure(kind: str, seed: int, scale: str) -> Tuple[str, Dict[str, object]]:
    """The input directory and its manifest, generating on a miss."""
    target = input_dir(kind, seed, scale)
    manifest = os.path.join(target, "inputs.json")
    if not os.path.exists(manifest):
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), kind, str(seed),
             scale],
            env=repro_env(), check=True, timeout=600,
            stdout=subprocess.DEVNULL,
        )
    with open(manifest) as handle:
        return target, json.load(handle)


def _collect(graph, n_vps: int, seed: int, origins=None):
    from repro.bgp.collector import Collector, CollectorConfig
    from repro.bgp.propagation import PropagationConfig

    config = CollectorConfig(
        n_vps=n_vps, seed=seed,
        propagation=PropagationConfig(array_state=True, batch_size=64),
    )
    return Collector(graph, config).run(origins=origins)


def build_rib(out: str, seed: int, size: Dict[str, int]) -> Dict[str, object]:
    from repro.asrank import ASRank
    from repro.core.cone import ConeDefinition
    from repro.mrt.reader import iter_rib_dump
    from repro.mrt.writer import write_rib_dump
    from repro.serve.snapshot import Snapshot
    from repro.serve.store import save_snapshot
    from repro.stream.corpus import asrank_from_rib_rows
    from repro.topology.generator import (
        InternetScaleConfig,
        generate_internet_topology,
    )

    graph = generate_internet_topology(
        InternetScaleConfig(n_ases=size["n_ases"], seed=seed)
    )
    population = sorted(a.asn for a in graph.ases())
    origins = sorted(random.Random(seed).sample(population, size["origins"]))
    corpus = _collect(graph, size["vps"], seed, origins)
    # a fixed row count (whole origins first, in collection order) keeps
    # the op's cost from swinging with how many paths a seed's sample
    # happens to yield
    rows = corpus.rib[:size["rows"]]
    rib = os.path.join(out, "rib.mrt")
    write_rib_dump(rib, rows)
    ixp = sorted(graph.ixp_asns())
    with open(os.path.join(out, "ixp.json"), "w") as handle:
        json.dump(ixp, handle)

    facade = ASRank.from_mrt(rib, ixp_asns=frozenset(ixp))
    for definition in ConeDefinition:
        facade.cones(definition)
    snapshot = Snapshot.build(facade)
    save_snapshot(snapshot, os.path.join(out, "snapshot.snp"))
    # the stream layer's batch oracle over the same rows, decoded by the
    # streaming reader: a second path to the version rib-build must hit
    oracle = Snapshot.build(
        asrank_from_rib_rows(list(iter_rib_dump(rib)),
                             ixp_asns=frozenset(ixp))
    )
    return {
        "snapshot_version": snapshot.version,
        "oracle_version": oracle.version,
        "collected_rows": len(corpus.rib),
        "rib_rows": len(rows),
    }


def build_stream(out: str, seed: int, size: Dict[str, int]) -> Dict[str, object]:
    from repro.mrt.updates import COLLECTOR_ASN
    from repro.mrt.writer import MrtWriter, write_rib_dump
    from repro.scenarios import get_scenario

    # the base table is the named scenario's, the same for every seed:
    # a publish costs what the table's paths cost, so a seeded world
    # would move the op's latency more than any change under test
    graph, corpus = get_scenario(size["scenario"]).collect()
    base = corpus.rib
    write_rib_dump(os.path.join(out, "base.mrt"), base)
    with open(os.path.join(out, "ixp.json"), "w") as handle:
        json.dump(sorted(graph.ixp_asns()), handle)

    # churn over a model of the live table, so withdrawals hit present
    # rows and flap-backs restore withdrawn ones
    table = {
        (e.prefix, e.vp): (tuple(e.path), tuple(e.communities))
        for e in base
    }
    present = sorted(table)
    position = {key: i for i, key in enumerate(present)}
    withdrawn = []
    routes_by_vp: Dict[int, list] = {}
    for (_prefix, vp), route in sorted(table.items()):
        routes_by_vp.setdefault(vp, []).append(route)

    def remove(key):
        i = position.pop(key)
        last = present.pop()
        if last != key:
            present[i] = last
            position[last] = i

    # one kind of churn per batch, so every publish level shows up:
    # duplicates publish as noops, same-VP path changes can take the
    # delta level, withdrawals and flap-backs mostly force a full one.
    # Kinds come from shuffled blocks of a fixed mix, so every run of
    # 15-30 ops sees nearly the same share of each level.
    rng = random.Random(seed)
    kinds = {"duplicate": 0, "withdraw": 0, "flap-back": 0, "path-change": 0}
    block: list = []
    with open(os.path.join(out, "churn.mrt"), "wb") as stream:
        writer = MrtWriter(stream)
        for _ in range(size["batches"]):
            if not block:
                block = (["duplicate"] * 3 + ["withdraw"] * 7
                         + ["flap-back"] * 7 + ["path-change"] * 3)
                rng.shuffle(block)
            kind = block.pop()
            if kind == "flap-back" and len(withdrawn) < STREAM_BATCH_SIZE:
                kind = "withdraw"
            kinds[kind] += 1
            for _ in range(STREAM_BATCH_SIZE):
                if kind == "withdraw":
                    key = rng.choice(present)
                    remove(key)
                    withdrawn.append((key, table.pop(key)))
                    writer.write_bgp4mp_update(
                        peer_asn=key[1], local_asn=COLLECTOR_ASN,
                        as_path=(), announced=(), withdrawn=(key[0],),
                    )
                    continue
                if kind == "flap-back":
                    key, route = withdrawn.pop(rng.randrange(len(withdrawn)))
                    position[key] = len(present)
                    present.append(key)
                else:
                    key = rng.choice(present)
                    route = table[key]
                    if kind == "path-change":
                        route = rng.choice(routes_by_vp[key[1]])
                table[key] = route
                writer.write_bgp4mp_update(
                    peer_asn=key[1], local_asn=COLLECTOR_ASN,
                    as_path=route[0], announced=(key[0],),
                    communities=route[1],
                )
    return {"rib_rows": len(base), "batches": kinds}


def main(argv) -> int:
    kind, seed, scale = argv[0], int(argv[1]), argv[2]
    if kind not in KINDS:
        raise SystemExit(f"unknown input kind {kind!r}")
    target = input_dir(kind, seed, scale)
    tmp = f"{target}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    builder = build_rib if kind == "rib" else build_stream
    info = builder(tmp, seed, SCALES[scale][kind])
    info["sha256"] = {
        name: sha256_file(os.path.join(tmp, name))
        for name in sorted(os.listdir(tmp))
    }
    info.update(kind=kind, seed=seed, scale=scale)
    write_json(os.path.join(tmp, "inputs.json"), info)
    try:
        os.rename(tmp, target)
    except OSError:  # a concurrent run got there first
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
