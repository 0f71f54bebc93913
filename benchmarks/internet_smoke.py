"""CI smoke for the internet-scale stack: 10k-AS power-law world
through the shared-memory collection pool.

Not a timing check (check_regression.py owns that) — a correctness
gate for the three internet-scale pieces working together:

* the linear-time power-law generator produces a valid world;
* the world's column-built CSR compile equals the per-AS sorted-list
  compile, arrays and dtypes alike;
* the collector's one-pass set-up draws the VPs, taggers, leakers and
  tagger sibling ids of per-AS loops over the AS table, and its
  announcing origins' prefix lists equal the whole-world walk's;
* collection reading only the vantage points' provider closure
  (``propagate_batch(observers=...)``) yields the corpus of full-table
  propagation, with the route leaks of at least one origin in play;
* the zero-copy shared-memory transport yields a corpus bit-identical
  to serial collection;
* both column corpora (serial and shared-memory) equal the reference
  kernel's per-path walks, noise and tags over ``propagate_batch``'s
  per-origin states;
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

import numpy as np

from repro.bgp.collector import (
    CollectionKernel,
    Collector,
    CollectorConfig,
    VantagePoint,
    shutdown_pool,
)
from repro.bgp.propagation import (
    PropagationConfig,
    propagate_batch,
    propagate_blocks,
)
from repro.graph import RelGraph, csr_arrays
from repro.qa.oracles import ReferenceCollectionKernel
from repro.topology.generator import (
    InternetScaleConfig,
    generate_internet_topology,
)
from repro.topology.model import ASType

N_ASES = 10_000
N_ORIGINS = 120
WORKERS = 2


def _corpus_key(corpus):
    return (
        corpus.paths,
        corpus.path_counts,
        [(r.vp, r.prefix, r.path, r.communities) for r in corpus.rib],
    )


def _list_compile_mismatch(graph):
    """The first CSR view where ``RelGraph.from_as_graph`` differs from
    sorting each AS's neighbours into lists, or ``None``."""
    rel = RelGraph.from_as_graph(graph)
    routing = sorted(
        a.asn for a in graph.ases() if a.type is not ASType.IXP_RS
    )
    if rel.index.asns != routing:
        return "index"
    ids = rel.index.ids
    want = {"providers": [], "customers": [], "peers": []}
    for asn in routing:
        for name, neighbours in (
            ("providers", graph.providers[asn]),
            ("customers", graph.customers[asn]),
            ("peers", graph.peers[asn] | graph.siblings[asn]),
        ):
            want[name].append(sorted(ids[x] for x in neighbours if x in ids))
    csr = rel.csr()
    for name, rows in want.items():
        for got, ref in zip(getattr(csr, name), csr_arrays(rows)):
            if got.dtype != ref.dtype or not np.array_equal(got, ref):
                return name
    return None


def _reference_setup(graph, config, routing):
    """``(vps, taggers, leakers, sibling ids)`` from per-AS loops over
    the AS table, in the collector's RNG order."""
    rng = random.Random(config.seed)
    pool = [
        (a.asn, len(graph.customers[a.asn]) + 1)
        for a in sorted(graph.ases(), key=lambda a: a.asn)
        if a.type in (ASType.CLIQUE, ASType.LARGE_TRANSIT,
                      ASType.SMALL_TRANSIT, ASType.ACCESS)
        and a.asn in routing
    ]
    chosen = []
    for _ in range(min(config.n_vps, len(pool))):
        pick = rng.uniform(0, sum(w for _, w in pool))
        acc = 0.0
        for i, (asn, w) in enumerate(pool):
            acc += w
            if pick <= acc:
                chosen.append(asn)
                pool.pop(i)
                break
    vps = [
        VantagePoint(asn, rng.random() >= config.partial_feed_fraction)
        for asn in sorted(chosen)
    ]
    taggers = frozenset(
        a.asn for a in graph.ases()
        if a.type is not ASType.IXP_RS
        and rng.random() < config.community_tagger_fraction
    )
    multihomed = sorted(
        a.asn for a in graph.ases() if len(graph.providers[a.asn]) >= 2
    )
    leakers = sorted(rng.sample(
        multihomed, min(config.n_route_leakers, len(multihomed))
    ))
    siblings = {}
    for asn in taggers:
        routed = {routing[s] for s in graph.siblings[asn] if s in routing}
        if asn in routing and routed:
            siblings[routing[asn]] = routed
    return vps, taggers, leakers, siblings


def _setup_mismatch(graph, config, origins):
    """The first collector set-up output that differs from the per-AS
    loops (or, for the prefix lists, the whole-world walk), or ``None``."""
    collector = Collector(graph, config)
    routing = collector.index.index
    vps, taggers, leakers, siblings = _reference_setup(graph, config, routing)
    for name, got, want in (
        ("vps", collector.vps, vps),
        ("taggers", collector.taggers, taggers),
        ("leakers", collector.leakers, leakers),
        ("sibling_nodes", collector.kernel.sibling_nodes, siblings),
    ):
        if got != want:
            return name
    announcing = set(origins).intersection(routing)
    walked = {}
    for prefix, asn in graph.prefix_origins().items():
        if asn in announcing:
            walked.setdefault(asn, []).append(prefix)
    if collector._announced(origins) != walked:
        return "prefix lists"
    return None


class _FullTableKernel(CollectionKernel):
    """The production kernel over full route tables (no ``observers``),
    counting the origins whose leak pass changed their table."""

    leaky_origins = 0

    def _propagate(self, block, leakers):
        config = self.config.propagation
        states = list(propagate_blocks(self.index, block, leakers, config))
        if leakers:
            plain = propagate_blocks(self.index, block, None, config)
            rows = [
                (leaky, clean, k)
                for leaky, clean in zip(states, plain)
                for k in range(len(leaky.origins))
            ]
            for origin, (leaky, clean, k) in zip(block, rows):
                if origin in leakers and any(
                    not np.array_equal(a[k], b[k])
                    for a, b in zip(leaky[1:], clean[1:])
                ):
                    self.leaky_origins += 1
        return states


class _StateWalkKernel(ReferenceCollectionKernel):
    """The reference kernel's per-path walks, noise and tags over the
    :class:`RouteState` rows of ``propagate_batch`` (VP closure cut),
    block by block as the production kernel propagates."""

    def states(self, origin_list):
        config = self.config.propagation
        for start in range(0, len(origin_list), config.batch_size):
            block = origin_list[start: start + config.batch_size]
            leakers = {
                asn: active for asn in block
                if (active := self._leakers_for_origin(asn))
            }
            yield from propagate_batch(
                self.index, block, leakers, config, observers=self.observers
            )


def _swapped_kernel(graph, config, kernel_type):
    collector = Collector(graph, config)
    kernel = collector.kernel
    collector.kernel = kernel_type(
        kernel.config, kernel.index, kernel.vps, kernel.tagger_nodes,
        kernel.sibling_nodes, kernel.leakers, kernel.clique, kernel.via_ixp,
    )
    return collector


def _full_table_corpus(graph, config, origins):
    """``(corpus, leaky origins)`` collected over full route tables."""
    collector = _swapped_kernel(graph, config, _FullTableKernel)
    return collector.run(origins=origins), collector.kernel.leaky_origins


def _walked_corpus(graph, config, origins):
    """The corpus of per-path walks over ``propagate_batch`` states."""
    collector = _swapped_kernel(
        graph, replace(config, workers=0), _StateWalkKernel
    )
    return collector.run(origins=origins)


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

    mismatch = _list_compile_mismatch(graph)
    if mismatch:
        print(f"FAIL: CSR compile differs from the list compile: {mismatch}")
        return 1
    print("ok: CSR compile equals the list compile (3 views, dtypes)")

    config = CollectorConfig(
        n_vps=20,
        seed=1,
        n_route_leakers=2,
        propagation=PropagationConfig(array_state=True, batch_size=64),
    )
    origins = sorted(
        random.Random(7).sample(sorted(a.asn for a in graph.ases()), N_ORIGINS)
    )

    mismatch = _setup_mismatch(graph, config, origins)
    if mismatch:
        print(f"FAIL: collector set-up differs from per-AS loops: {mismatch}")
        return 1
    print("ok: collector set-up equals per-AS loops (VPs, taggers, leakers, "
          "siblings, prefix lists)")

    serial = Collector(graph, config).run(origins=origins)
    print(
        f"serial collection: {len(serial.paths)} paths "
        f"from {N_ORIGINS} origins"
    )

    full, leaky = _full_table_corpus(graph, config, origins)
    print(f"full-table collection: {leaky} origins changed by a leak pass")
    if leaky == 0:
        print("FAIL: no origin ran an effective leak pass")
        return 1
    if _corpus_key(full) != _corpus_key(serial):
        print("FAIL: the VP-closure corpus differs from full-table propagation")
        return 1
    print("ok: VP-closure corpus bit-identical to full-table propagation")

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

    walked = _corpus_key(_walked_corpus(graph, config, origins))
    for name, corpus in (("serial", serial), ("shared-memory", parallel)):
        if _corpus_key(corpus) != walked:
            print(f"FAIL: the {name} column corpus differs from per-path "
                  "walks of propagate_batch states")
            return 1
    print("ok: serial and shared-memory column corpora equal per-path "
          "walks of propagate_batch states")

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
