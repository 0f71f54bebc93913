"""Tests for the longitudinal analysis pipeline (analysis/timeseries).

Covers the per-era metrics the evolution figures plot, seeded
determinism of the whole collect→infer→cone pipeline, and
vantage-point persistence across eras.
"""

import hashlib

import pytest

from repro.analysis.timeseries import (
    SnapshotMetrics,
    analyze_snapshot,
    flattening_series,
    series_metrics,
)
from repro.topology.evolution import Era, EvolutionConfig, generate_series
from repro.topology.generator import GeneratorConfig


def _metrics_digest(metrics) -> str:
    """Stable digest over everything downstream figures consume."""
    digest = hashlib.sha256()
    for snapshot in metrics:
        digest.update(snapshot.label.encode())
        digest.update(
            repr(
                (
                    snapshot.n_ases,
                    snapshot.n_links,
                    snapshot.n_paths,
                    sorted(snapshot.inferred_clique),
                    sorted(snapshot.cone_sizes.items()),
                    sorted(snapshot.recursive_cone_sizes.items()),
                )
            ).encode()
        )
    return digest.hexdigest()


@pytest.fixture(scope="module")
def series():
    config = EvolutionConfig(
        base=GeneratorConfig(n_ases=80, seed=5, clique_size=4),
        eras=[
            Era(label="e1", new_ases=20, peering_boost=0.02),
            Era(label="e2", new_ases=25, peering_boost=0.03),
        ],
    )
    return generate_series(config)


@pytest.fixture(scope="module")
def metrics(series):
    return series_metrics(series)


class TestSeriesMetrics:
    def test_one_row_per_era(self, series, metrics):
        assert [m.label for m in metrics] == [label for label, _ in series]

    def test_observed_world_grows(self, metrics):
        ases = [m.n_ases for m in metrics]
        assert ases == sorted(ases)
        assert [m.n_paths for m in metrics] == sorted(
            m.n_paths for m in metrics
        )

    def test_clique_recall_bounded(self, metrics):
        for snapshot in metrics:
            assert 0.0 <= snapshot.clique_recall <= 1.0

    def test_vps_persist_across_eras(self, metrics):
        # the collector keeps earlier vantage points and only adds new
        # ones, so observed deltas are topology change, not VP churn
        for earlier, later in zip(metrics, metrics[1:]):
            assert set(earlier.vps) <= set(later.vps)

    def test_cone_share_defaults_to_leaf(self, metrics):
        last = metrics[-1]
        # an AS absent from the cone table is a leaf: cone of itself
        assert last.cone_share(10**9) == pytest.approx(1 / last.n_ases)

    def test_empty_metrics_guards(self):
        empty = SnapshotMetrics(
            label="x", n_ases=0, n_links=0, n_paths=0,
            true_clique=[], inferred_clique=[], cone_sizes={},
        )
        assert empty.clique_recall == 1.0
        assert empty.cone_share(1) == 0.0


class TestFlatteningSeries:
    def test_default_tracking_shape(self, metrics):
        shares = flattening_series(metrics)
        assert shares  # top cones exist
        for asn, values in shares.items():
            assert len(values) == len(metrics)
            assert all(0.0 < v <= 1.0 for v in values), asn

    def test_explicit_track_list(self, metrics):
        probe = sorted(metrics[0].cone_sizes)[:2]
        shares = flattening_series(metrics, track=probe)
        assert sorted(shares) == probe


class TestDeterminism:
    def test_same_series_same_metrics(self, series):
        assert _metrics_digest(series_metrics(series)) == _metrics_digest(
            series_metrics(series)
        )

    def test_analyze_snapshot_matches_series_head(self, series, metrics):
        label, graph = series[0]
        alone = analyze_snapshot(label, graph)
        # same collector defaults for era 0 → identical inference input
        assert alone.n_ases == metrics[0].n_ases
        assert sorted(alone.inferred_clique) == sorted(
            metrics[0].inferred_clique
        )
