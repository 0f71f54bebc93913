"""Unit tests for the three customer-cone definitions."""

import pytest

from repro.core.cone import ConeDefinition, CustomerCones, compute_cones
from repro.core.inference import InferenceConfig, infer_relationships
from repro.core.paths import PathSet
from repro.core.rank import rank_ases
from repro.net.prefix import Prefix


def build_result(paths, **config_kwargs):
    defaults = dict(clique_seed_size=3, enable_partial_vp=False)
    defaults.update(config_kwargs)
    return infer_relationships(
        PathSet.sanitize(paths), InferenceConfig(**defaults)
    )


@pytest.fixture
def hierarchy_result():
    """1 and 2 peer at the top; 1 provides for 10→100; 2 for 20."""
    paths = [
        (10, 1, 2, 20),
        (20, 2, 1, 10),
        (10, 1, 2, 20, 200),
        (100, 10, 1, 2, 20),
        (20, 2, 1, 10, 100),
    ]
    return build_result(paths, clique_seed_size=2)


class TestRecursive:
    def test_includes_self(self, hierarchy_result):
        cones = compute_cones(hierarchy_result, ConeDefinition.RECURSIVE)
        for asn in hierarchy_result.paths.asns():
            assert asn in cones[asn]

    def test_transitive_closure(self, hierarchy_result):
        cones = compute_cones(hierarchy_result, ConeDefinition.RECURSIVE)
        assert cones[1] >= {1, 10, 100}
        assert 100 in cones[10]

    def test_peers_not_in_cone(self, hierarchy_result):
        cones = compute_cones(hierarchy_result, ConeDefinition.RECURSIVE)
        assert 2 not in cones[1]
        assert 1 not in cones[2]

    def test_leaf_cone_is_self(self, hierarchy_result):
        cones = compute_cones(hierarchy_result, ConeDefinition.RECURSIVE)
        assert cones[100] == {100}


class TestObservedDefinitions:
    def test_bgp_observed_requires_descending_run(self, hierarchy_result):
        cones = compute_cones(hierarchy_result, ConeDefinition.BGP_OBSERVED)
        assert cones[1] >= {1, 10, 100}
        assert 20 not in cones[1]

    def test_ppdc_uses_entry_from_above(self, hierarchy_result):
        cones = compute_cones(
            hierarchy_result, ConeDefinition.PROVIDER_PEER_OBSERVED
        )
        # path (20, 2, 1, 10, 100): route enters 1 from peer 2 → the
        # suffix 10, 100 is in 1's PPDC cone
        assert cones[1] >= {1, 10, 100}

    def test_ppdc_excludes_unwitnessed(self):
        # only one path, starting at the top: no entry from above, so
        # PPDC cone of 1 is just itself
        result = build_result([(1, 10, 100)], enable_clique=False)
        cones = compute_cones(result, ConeDefinition.PROVIDER_PEER_OBSERVED)
        assert cones[1] == {1}

    def test_bgp_observed_within_recursive(self, small_run):
        recursive = compute_cones(small_run.result, ConeDefinition.RECURSIVE)
        observed = compute_cones(small_run.result, ConeDefinition.BGP_OBSERVED)
        for asn, cone in observed.items():
            assert cone <= recursive[asn], asn

    def test_definitions_ordering_on_scenario(self, small_run):
        """The recursive cone is the upper bound on both observed
        definitions in aggregate (the paper's over-counting argument)."""
        result = small_run.result
        recursive = compute_cones(result, ConeDefinition.RECURSIVE)
        ppdc = compute_cones(result, ConeDefinition.PROVIDER_PEER_OBSERVED)
        bgp = compute_cones(result, ConeDefinition.BGP_OBSERVED)
        total_r = sum(len(c) for c in recursive.values())
        total_p = sum(len(c) for c in ppdc.values())
        total_b = sum(len(c) for c in bgp.values())
        assert total_r >= total_p
        assert total_r >= total_b
        # observed definitions agree at the top of the hierarchy: the
        # largest PPDC cone belongs to an AS with a near-largest
        # recursive cone
        top_ppdc = max(ppdc, key=lambda a: len(ppdc[a]))
        assert len(recursive[top_ppdc]) >= 0.8 * max(
            len(c) for c in recursive.values()
        )

    def test_unknown_definition_rejected(self, hierarchy_result):
        with pytest.raises(ValueError):
            compute_cones(hierarchy_result, "bogus")


class TestCustomerCones:
    @pytest.fixture
    def cones(self, hierarchy_result):
        prefixes = {
            1: [Prefix.parse("10.0.0.0/16")],
            10: [Prefix.parse("10.1.0.0/16")],
            100: [Prefix.parse("10.2.0.0/16"), Prefix.parse("10.3.0.0/16")],
            2: [Prefix.parse("11.0.0.0/16")],
            20: [Prefix.parse("11.1.0.0/16")],
            200: [Prefix.parse("11.2.0.0/16")],
        }
        return CustomerCones.compute(
            hierarchy_result,
            ConeDefinition.RECURSIVE,
            prefixes_by_asn=prefixes,
        )

    def test_size_ases(self, cones):
        assert cones.size_ases(1) == 3  # self + 10 + 100

    @staticmethod
    def _row(cones, asn):
        rows = rank_ases(cones.graph.result, cones)
        return next(row for row in rows if row.asn == asn)

    def test_size_prefixes(self, cones):
        assert self._row(cones, 1).cone_prefixes == 4

    def test_size_addresses(self, cones):
        assert self._row(cones, 1).cone_addresses == 4 * (1 << 16)

    def test_sizes_mapping(self, cones):
        sizes = cones.sizes()
        assert sizes[100] == 1

    def test_top(self, cones):
        top = cones.top(2)
        assert len(top) == 2
        assert top[0][1] >= top[1][1]

    def test_cone_copy_is_defensive(self, cones):
        cone = cones.cone(1)
        cone.add(999)
        assert 999 not in cones.cone(1)

    def test_prefix_queries_need_prefix_data(self, hierarchy_result):
        bare = CustomerCones.compute(hierarchy_result)
        row = self._row(bare, 1)
        assert row.cone_prefixes is None and row.cone_addresses is None

    def test_unknown_asn_cone_is_self(self, cones):
        assert cones.cone(4242) == {4242}
        assert cones.size_ases(4242) == 1
