"""The internet-scale topology generator (linear-time wiring path)."""

from __future__ import annotations

import hashlib
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from repro.relationships import Relationship
from repro.topology.generator import (
    InternetScaleConfig,
    generate_internet_topology,
)
from repro.topology.model import ASType, TopologyError, TRANSIT_TYPES

N = 4000
SEED = 17


@pytest.fixture(scope="module")
def graph():
    return generate_internet_topology(InternetScaleConfig(n_ases=N, seed=SEED))


def _world_digest(graph) -> str:
    """One hash over everything the generator decides."""
    h = hashlib.sha256()
    for asys in sorted(graph.ases(), key=lambda a: a.asn):
        h.update(
            f"{asys.asn}|{asys.type.value}|{asys.region}|"
            f"{','.join(map(str, asys.prefixes))}\n".encode()
        )
    for a, b, rel in sorted(
        (a, b, rel.value) for a, b, rel in graph.links()
    ):
        h.update(f"{a}-{b}:{rel}\n".encode())
    for pair, rs in sorted(graph.via_ixp.items()):
        h.update(f"ixp:{pair}:{rs}\n".encode())
    return h.hexdigest()


class TestStructure:
    def test_population_and_roles(self, graph):
        counts = Counter(a.type for a in graph.ases())
        config = InternetScaleConfig(n_ases=N, seed=SEED)
        expected = config.role_counts()
        for as_type, count in expected.items():
            assert counts[as_type] == count
        assert counts[ASType.IXP_RS] == config.regions

    def test_invariants_hold(self, graph):
        assert graph.validate_invariants() == []

    def test_clique_is_meshed_and_transit_free(self, graph):
        clique = graph.clique_asns()
        assert len(clique) == InternetScaleConfig().clique_size
        for i, a in enumerate(clique):
            assert not graph.providers[a]
            for b in clique[i + 1:]:
                assert graph.relationship(a, b) is Relationship.P2P

    def test_power_law_ish_customer_degrees(self, graph):
        """Preferential attachment concentrates customers heavily."""
        degrees = sorted(
            (len(graph.customers[a.asn]) for a in graph.ases()),
            reverse=True,
        )
        total = sum(degrees)
        top_one_percent = sum(degrees[: max(1, len(degrees) // 100)])
        assert top_one_percent > 0.35 * total
        # and role tracks realized size: clique members beat the median
        median = degrees[len(degrees) // 2]
        for asn in graph.clique_asns():
            assert len(graph.customers[asn]) > median

    def test_multihoming_mix(self, graph):
        counts = Counter(
            len(graph.providers[a.asn])
            for a in graph.ases()
            if a.type not in (ASType.CLIQUE, ASType.IXP_RS)
        )
        assert counts[1] > 0  # single-homed edge exists
        assert sum(n for c, n in counts.items() if c >= 2) > 0  # multihomed
        assert max(counts) <= InternetScaleConfig().max_providers

    def test_stubs_are_single_homed_non_transit(self, graph):
        for asys in graph.ases():
            if asys.type is ASType.STUB:
                assert len(graph.providers[asys.asn]) == 1
                assert not graph.customers[asys.asn]

    def test_transit_edges_point_down_the_hierarchy(self, graph):
        tier = {
            ASType.CLIQUE: 0,
            ASType.LARGE_TRANSIT: 1,
            ASType.SMALL_TRANSIT: 2,
            ASType.ACCESS: 3,
            ASType.CONTENT: 4,
            ASType.ENTERPRISE: 4,
            ASType.STUB: 4,
        }
        for provider, customer, rel in graph.links():
            if rel is Relationship.P2C:
                assert (
                    tier[graph.get_as(provider).type]
                    < tier[graph.get_as(customer).type]
                )

    def test_every_as_announces_at_most_plan_prefixes(self, graph):
        for asys in graph.ases():
            if asys.type is ASType.IXP_RS:
                assert not asys.prefixes
            else:
                assert asys.prefixes

    def test_prefixes_do_not_overlap(self, graph):
        spans = sorted(
            (p.network, p.broadcast)
            for a in graph.ases()
            for p in a.prefixes
        )
        for (_, hi), (lo, _) in zip(spans, spans[1:]):
            assert lo > hi

    def test_ixp_links_reference_real_peerings(self, graph):
        rs_asns = graph.ixp_asns()
        assert graph.via_ixp
        for (a, b), rs in graph.via_ixp.items():
            assert graph.relationship(a, b) is Relationship.P2P
            assert rs in rs_asns

    def test_v6_plane_off_by_default(self, graph):
        assert all(not a.prefixes6 for a in graph.ases())

    def test_peering_density_knob_scales(self):
        sparse = generate_internet_topology(
            InternetScaleConfig(n_ases=2000, seed=3, peering_richness=0.5)
        )
        dense = generate_internet_topology(
            InternetScaleConfig(n_ases=2000, seed=3, peering_richness=2.0)
        )

        def peer_links(g):
            return sum(
                1 for _, _, rel in g.links() if rel is Relationship.P2P
            )

        assert peer_links(dense) > 1.5 * peer_links(sparse)

    def test_too_small_population_is_refused(self):
        with pytest.raises(TopologyError, match="too small"):
            generate_internet_topology(
                InternetScaleConfig(n_ases=20, clique_size=15)
            )


class TestDeterminism:
    def test_same_seed_same_world(self):
        config = InternetScaleConfig(n_ases=2500, seed=9)
        assert _world_digest(
            generate_internet_topology(config)
        ) == _world_digest(generate_internet_topology(config))

    def test_different_seeds_differ(self):
        a = generate_internet_topology(InternetScaleConfig(n_ases=2500, seed=9))
        b = generate_internet_topology(InternetScaleConfig(n_ases=2500, seed=10))
        assert _world_digest(a) != _world_digest(b)

    def test_output_identical_without_numpy(self, mask_numpy):
        """The generator is pure stdlib: masking numpy changes nothing."""
        repo = Path(__file__).resolve().parent.parent
        script = (
            "from repro.topology.generator import ("
            "InternetScaleConfig, generate_internet_topology)\n"
            "import sys; sys.path.insert(0, r'%s')\n"
            "from test_internet_generator import _world_digest\n"
            "g = generate_internet_topology("
            "InternetScaleConfig(n_ases=1200, seed=21))\n"
            "print(_world_digest(g))\n" % (repo / "tests")
        )
        env = {"PYTHONPATH": str(repo / "src"), "PATH": "/usr/bin:/bin"}
        digests = {}
        for label, prelude in (("numpy", ""), ("no-numpy", mask_numpy)):
            out = subprocess.run(
                [sys.executable, "-c", prelude + script],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            digests[label] = out.stdout.strip()
        assert digests["numpy"] == digests["no-numpy"]


class TestScale:
    def test_wiring_is_roughly_linear(self):
        """10x the ASes must not cost anything like 100x the time."""
        import time

        def build_seconds(n):
            start = time.perf_counter()
            generate_internet_topology(InternetScaleConfig(n_ases=n, seed=5))
            return time.perf_counter() - start

        build_seconds(1000)  # warm caches
        small = build_seconds(1000)
        large = build_seconds(10_000)
        assert large < 30 * small + 0.5  # quadratic would be ~100x

    def test_transit_reaches_every_as(self, graph):
        """Every AS has a provider chain up to the clique."""
        clique = set(graph.clique_asns())
        for asys in graph.ases():
            if asys.type is ASType.IXP_RS:
                continue
            seen = set()
            frontier = {asys.asn}
            while frontier and not (frontier & clique):
                seen |= frontier
                frontier = {
                    p
                    for asn in frontier
                    for p in graph.providers[asn]
                    if p not in seen
                }
            assert (frontier & clique) or asys.type is ASType.CLIQUE
