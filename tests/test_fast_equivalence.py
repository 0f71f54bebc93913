"""The production engine must be bit-for-bit equivalent to the seed code.

The production paths (dense index, link-state fold, bitset cones) are
pure performance work: every observable output — relationship labels,
the inference step that set them, provider orientation, adjacency
views, and all three cone definitions — must match the reference
oracles in :mod:`repro.qa.oracles` exactly.  These tests pin that
contract on the `tiny` and `small` scenarios.
"""

from __future__ import annotations

import pytest

from repro.core.cone import ConeDefinition, _cone_bits, compute_cones
from repro.core.inference import InferenceResult, infer_relationships
from repro.graph import RelGraph
from repro.qa.oracles import (
    REFERENCE_CONES,
    ReferenceInferenceResult,
    reference_infer_relationships,
)


def _snapshot(result):
    """Everything observable about an inference result."""
    return {
        "rel": dict(result._rel),
        "provider": dict(result._provider),
        "step": dict(result._step),
        "providers": {k: set(v) for k, v in result.providers.items()},
        "customers": {k: set(v) for k, v in result.customers.items()},
        "peers": {k: set(v) for k, v in result.peers.items()},
        "siblings": {k: set(v) for k, v in result.siblings.items()},
        "clique": tuple(result.clique.members),
        "discarded": result.discarded_poisoned,
    }


@pytest.fixture(scope="module", params=["tiny", "small"])
def pair(request, tiny_run, small_run):
    """(production result, reference result) over the same corpus."""
    run = {"tiny": tiny_run, "small": small_run}[request.param]
    fast = infer_relationships(run.paths)
    reference = reference_infer_relationships(run.paths)
    return fast, reference


class TestInferenceEquivalence:
    def test_identical_links_steps_and_adjacency(self, pair):
        fast, reference = pair
        assert _snapshot(fast) == _snapshot(reference)

    def test_fast_engine_used_the_index(self, pair):
        fast, reference = pair
        # guard against silently falling back to the reference paths:
        # each side ran its own engine
        assert type(fast) is InferenceResult
        assert type(reference) is ReferenceInferenceResult


class TestOneIdSpace:
    """Each result indexes its own corpus, and every id space built from
    it (the RelGraph, all three cone definitions) is that index."""

    def test_graph_adopts_the_corpus_index(self, pair):
        for result in pair:
            assert RelGraph.of(result).index is result.index
            assert (
                result.index.asns == result.paths.asn_index[0].tolist()
            )

    @pytest.mark.parametrize("definition", list(ConeDefinition))
    def test_cone_bits_cover_the_index(self, pair, definition):
        for result in pair:
            assert len(_cone_bits(result, definition)) == len(result.index)


class TestConeEquivalence:
    @pytest.mark.parametrize("definition", list(ConeDefinition))
    def test_fast_cones_match_reference(self, pair, definition):
        fast, reference = pair
        assert compute_cones(fast, definition) == REFERENCE_CONES[
            definition
        ](reference)
