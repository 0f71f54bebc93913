"""CI smoke for the internet-scale stack: 10k-AS power-law world
through the shared-memory collection pool.

Not a timing check (check_regression.py owns that) — a correctness
gate for the three internet-scale pieces working together:

* the linear-time power-law generator produces a valid world;
* the zero-copy shared-memory transport yields a corpus bit-identical
  to serial collection;
* every shared segment is unlinked afterwards — no ``/dev/shm`` leaks.

Usage (what CI runs)::

    PYTHONPATH=src python benchmarks/internet_smoke.py
"""

from __future__ import annotations

import os
import random
import sys
import time
from dataclasses import replace

from repro.bgp.collector import Collector, CollectorConfig, shutdown_pool
from repro.bgp.propagation import PropagationConfig
from repro.topology.generator import (
    InternetScaleConfig,
    generate_internet_topology,
)

N_ASES = 10_000
N_ORIGINS = 120
WORKERS = 2


def _corpus_key(corpus):
    return (
        corpus.paths,
        corpus.path_counts,
        [(r.vp, r.prefix, r.path, r.communities) for r in corpus.rib],
    )


def _shm_entries():
    if not os.path.isdir("/dev/shm"):
        return set()
    return {f for f in os.listdir("/dev/shm") if f.startswith("repro_rg_")}


def main() -> int:
    start = time.perf_counter()
    graph = generate_internet_topology(
        InternetScaleConfig(n_ases=N_ASES, seed=42)
    )
    problems = graph.validate_invariants()
    if problems:
        print("FAIL: generated world violates invariants:")
        for line in problems[:10]:
            print(f"  {line}")
        return 1
    print(
        f"generated {N_ASES}-AS world in {time.perf_counter() - start:.2f}s "
        f"({graph.num_links()} links, {len(graph.via_ixp)} via IXP)"
    )

    config = CollectorConfig(
        n_vps=20,
        seed=1,
        n_route_leakers=2,
        propagation=PropagationConfig(array_state=True, batch_size=64),
    )
    origins = sorted(
        random.Random(7).sample(sorted(a.asn for a in graph.ases()), N_ORIGINS)
    )

    serial = Collector(graph, config).run(origins=origins)
    print(
        f"serial collection: {len(serial.paths)} paths "
        f"from {N_ORIGINS} origins"
    )

    parallel_config = replace(config, workers=WORKERS)
    collector = Collector(graph, parallel_config)
    parallel = collector.run(origins=origins)
    print(f"parallel collection via shared memory, workers={WORKERS}")
    if collector._shared_segment is None:
        print("FAIL: the collector packed no shared-memory segment")
        return 1

    if _corpus_key(parallel) != _corpus_key(serial):
        print("FAIL: parallel corpus differs from serial")
        return 1
    print("ok: parallel corpus bit-identical to serial")

    collector.release_shared()
    shutdown_pool()
    leaked = _shm_entries()
    if leaked:
        print(f"FAIL: leaked shared-memory segments: {sorted(leaked)}")
        return 1
    print("ok: no shared-memory segments leaked")
    return 0


if __name__ == "__main__":
    sys.exit(main())
