"""Unit tests for the longitudinal growth model."""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from repro.relationships import Relationship
from repro.topology.evolution import Era, EvolutionConfig, generate_series
from repro.topology.generator import GeneratorConfig
from repro.topology.model import ASType


def _series_digest(series) -> str:
    """Stable digest of a (label, graph) series: ASNs + typed links."""
    digest = hashlib.sha256()
    for label, graph in series:
        digest.update(label.encode())
        digest.update(repr(sorted(a.asn for a in graph.ases())).encode())
        digest.update(
            repr(
                sorted((a, b, int(rel)) for a, b, rel in graph.links())
            ).encode()
        )
    return digest.hexdigest()


@pytest.fixture(scope="module")
def series():
    config = EvolutionConfig(
        base=GeneratorConfig(n_ases=150, seed=3, clique_size=6),
        eras=[
            Era(label="e1", new_ases=40, peering_boost=0.02),
            Era(label="e2", new_ases=60, peering_boost=0.03, clique_entrants=1),
            Era(label="e3", new_ases=80, peering_boost=0.04),
        ],
    )
    return generate_series(config)


class TestSeries:
    def test_snapshot_count(self, series):
        assert len(series) == 4  # base + 3 eras
        assert [label for label, _ in series] == ["base", "e1", "e2", "e3"]

    def test_monotone_growth(self, series):
        sizes = [len(g) for _, g in series]
        assert sizes == sorted(sizes)
        assert sizes[-1] > sizes[0]

    def test_links_grow(self, series):
        counts = [g.num_links() for _, g in series]
        assert counts == sorted(counts)

    def test_invariants_every_era(self, series):
        for label, graph in series:
            assert graph.validate_invariants() == [], label

    def test_asns_stable(self, series):
        previous = set()
        for _, graph in series:
            current = {a.asn for a in graph.ases()}
            assert previous <= current
            previous = current

    def test_snapshots_independent(self, series):
        # mutating a later snapshot must not affect an earlier one
        base = series[0][1]
        size_before = len(base)
        last = series[-1][1]
        assert len(last) > size_before

    def test_prefixes_unique_across_eras(self, series):
        _, last = series[-1]
        prefixes = [p for a in last.ases() for p in a.prefixes]
        assert len(prefixes) == len(set(prefixes))

    def test_clique_promotion(self, series):
        base_clique = set(series[0][1].clique_asns())
        final_clique = set(series[-1][1].clique_asns())
        assert len(final_clique) == len(base_clique) + 1
        assert base_clique <= final_clique
        # the entrant is transit-free and fully meshed
        entrant = (final_clique - base_clique).pop()
        final = series[-1][1]
        assert not final.providers[entrant]
        for member in final_clique - {entrant}:
            assert final.relationship(entrant, member) is Relationship.P2P

    def test_peering_densifies(self, series):
        def peer_count(graph):
            return sum(1 for _, _, rel in graph.links() if rel is Relationship.P2P)

        first = peer_count(series[0][1]) / series[0][1].num_links()
        last = peer_count(series[-1][1]) / series[-1][1].num_links()
        assert last > first


class TestEraMonotonicity:
    """The growth assumptions the delta timeline encoder relies on."""

    def test_asn_births_permanent_and_increasing(self, series):
        # sorted ASN lists must prefix-extend era over era, with every
        # newcomer larger than all incumbents — the DenseIndex prefix
        # property that makes delta encoding possible
        previous = None
        for label, graph in series:
            asns = sorted(a.asn for a in graph.ases())
            if previous is not None:
                assert asns[: len(previous)] == previous, label
                assert all(
                    asn > previous[-1] for asn in asns[len(previous):]
                ), label
            previous = asns

    def test_no_link_type_regressions_in_clique(self, series):
        # clique members stay transit-free once promoted
        seen_clique = set()
        for label, graph in series:
            seen_clique |= set(graph.clique_asns())
            for member in seen_clique:
                assert not graph.providers[member], (label, member)


class TestDeterminism:
    def test_same_seed_same_series(self):
        config = EvolutionConfig.default_series(start_ases=120, eras=2, seed=11)
        assert _series_digest(generate_series(config)) == _series_digest(
            generate_series(config)
        )

    def test_different_seeds_differ(self):
        a = EvolutionConfig.default_series(start_ases=120, eras=2, seed=11)
        b = EvolutionConfig.default_series(start_ases=120, eras=2, seed=12)
        assert _series_digest(generate_series(a)) != _series_digest(
            generate_series(b)
        )

    def test_output_identical_without_numpy(self, mask_numpy):
        """The growth model is pure stdlib: masking numpy changes nothing."""
        repo = Path(__file__).resolve().parent.parent
        script = (
            "from repro.topology.evolution import ("
            "EvolutionConfig, generate_series)\n"
            "import sys; sys.path.insert(0, r'%s')\n"
            "from test_evolution import _series_digest\n"
            "config = EvolutionConfig.default_series("
            "start_ases=100, eras=2, seed=13)\n"
            "print(_series_digest(generate_series(config)))\n"
            % (repo / "tests")
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


class TestDefaultSeries:
    def test_default_schedule_shape(self):
        config = EvolutionConfig.default_series(start_ases=200, eras=4)
        assert len(config.eras) == 4
        assert all(era.new_ases > 0 for era in config.eras)
        assert sum(e.clique_entrants for e in config.eras) >= 1

    def test_default_series_runs(self):
        config = EvolutionConfig.default_series(start_ases=150, eras=2)
        snapshots = generate_series(config)
        assert len(snapshots) == 3
