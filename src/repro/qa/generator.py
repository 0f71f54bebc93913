"""Randomized world generation for the QA sweep.

Each seed deterministically maps to one *world*: a generator + collector
configuration drawn from a pool of shapes chosen to hit the corner
cases hand-written tests miss — tiny cliques, dense multihoming,
prepend-heavy noise, single-vantage-point visibility, heavy partial
feeds and route leaks.  The same seed always produces the same world,
so a failing seed is a complete reproduction recipe.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List

from repro.bgp.collector import Collector, CollectorConfig, PathCorpus
from repro.bgp.noise import NoiseConfig
from repro.core.paths import PathSet
from repro.topology.generator import GeneratorConfig, generate_topology
from repro.topology.model import ASGraph

#: the adversarial shape pool; ``seed % len(SHAPES)`` picks one, so a
#: contiguous seed sweep covers every shape
SHAPES = (
    "baseline",
    "clean",
    "dense-multihome",
    "sparse-multihome",
    "prepend-heavy",
    "single-vp",
    "partial-feeds",
    "tiny-clique",
    "leaky",
    "noisy",
)


@dataclass(frozen=True)
class WorldSpec:
    """A fully determined QA workload (derived from one seed)."""

    seed: int
    shape: str
    generator: GeneratorConfig
    collector: CollectorConfig

    @property
    def label(self) -> str:
        return f"seed {self.seed} ({self.shape})"


@dataclass
class QaWorld:
    """One materialized world: topology, corpus and sanitized paths."""

    spec: WorldSpec
    graph: ASGraph
    corpus: PathCorpus
    paths: PathSet

    def prefixes_by_asn(self) -> Dict[int, List]:
        """Origin ASN -> the IPv4 then IPv6 prefixes it originates, plus
        the overlaps real tables carry: each origin's first prefix again
        as its first more-specific half (nested) and from the next
        origin in ASN order (MOAS), which the allocation alone never
        gives."""
        by_asn: Dict[int, List] = {}
        for origins in (
            self.graph.prefix_origins(), self.graph.prefix6_origins()
        ):
            for prefix, asn in origins.items():
                by_asn.setdefault(asn, []).append(prefix)
        asns = sorted(by_asn)
        for asn, after in zip(asns, asns[1:] + asns[:1]):
            first = by_asn[asn][0]
            if first.num_addresses > 1:
                by_asn[asn].append(next(first.subnets(first.length + 1)))
            by_asn[after].append(first)
        return by_asn


def world_spec(seed: int) -> WorldSpec:
    """The deterministic world for ``seed``.

    Base parameters are jittered by a seed-derived RNG; the shape then
    pushes one dimension to an extreme.  Worlds are deliberately small
    (60–140 ASes) so a full sweep stays inside a CI smoke budget.
    """
    shape = SHAPES[seed % len(SHAPES)]
    rng = random.Random((seed << 8) ^ 0x5EED)
    n_ases = rng.randrange(60, 140)
    clique_size = rng.randrange(3, 8)
    n_vps = rng.randrange(4, 12)
    extra_provider_prob = rng.uniform(0.2, 0.6)
    noise = NoiseConfig(seed=seed + 1)
    partial = 0.25

    if shape == "clean":
        noise = NoiseConfig.none()
        partial = 0.0
    elif shape == "dense-multihome":
        extra_provider_prob = 0.9
    elif shape == "sparse-multihome":
        extra_provider_prob = 0.05
    elif shape == "prepend-heavy":
        noise = NoiseConfig(seed=seed + 1, prepend_prob=0.5, max_prepend=4)
    elif shape == "single-vp":
        n_vps = 1
    elif shape == "partial-feeds":
        partial = 0.8
    elif shape == "tiny-clique":
        clique_size = 2
        n_ases = max(n_ases, clique_size + 20)
    elif shape == "noisy":
        noise = NoiseConfig(
            seed=seed + 1,
            prepend_prob=0.15,
            poison_prob=0.05,
            loop_prob=0.03,
            reserved_asn_prob=0.02,
        )

    generator = GeneratorConfig(
        n_ases=n_ases,
        seed=seed * 1_000_003 + 7,
        clique_size=clique_size,
        extra_provider_prob=extra_provider_prob,
        max_providers=6 if shape == "dense-multihome" else 4,
    )
    collector = CollectorConfig(
        n_vps=n_vps,
        seed=seed * 31 + 5,
        partial_feed_fraction=partial,
        noise=noise,
        n_route_leakers=3 if shape == "leaky" else 0,
    )
    return WorldSpec(
        seed=seed, shape=shape, generator=generator, collector=collector
    )


def build_world(spec: WorldSpec) -> QaWorld:
    """Materialize a spec: generate, collect, sanitize."""
    graph = generate_topology(spec.generator)
    corpus = Collector(graph, spec.collector).run()
    paths = PathSet.sanitize(corpus.paths, ixp_asns=graph.ixp_asns())
    return QaWorld(spec=spec, graph=graph, corpus=corpus, paths=paths)
