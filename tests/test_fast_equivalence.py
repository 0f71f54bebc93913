"""The production engine must be bit-for-bit equivalent to the seed code.

The production paths (dense index, link-state fold, bitset cones) are
pure performance work: every observable output — relationship labels,
the inference step that set them, provider orientation, adjacency
views, and all three cone definitions — must match the reference
oracles in :mod:`repro.qa.oracles` exactly.  These tests pin that
contract on the `tiny` and `small` scenarios.
"""

from __future__ import annotations

import random

import pytest

from repro.core.cone import ConeDefinition, _cone_bits, compute_cones
from repro.core.inference import (
    InferenceConfig,
    InferenceResult,
    Step,
    infer_relationships,
)
from repro.core.paths import PathSet
from repro.graph import RelGraph
from repro.qa.generator import build_world, world_spec
from repro.qa.invariants import _label_map
from repro.qa.oracles import (
    REFERENCE_CONES,
    ReferenceInferenceResult,
    _ReferenceEngine,
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


class _RefusalLog(ReferenceInferenceResult):
    """A reference result that also keeps apart the conflicts of votes
    on links still unlabeled at the vote (refusals).  The fast top-down
    sweep reads any other label off its link-state array and ends the
    walk there without a vote, so it logs only these."""

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.refusals = []

    def set_p2c(self, provider, customer, step):
        fresh = self.relationship(provider, customer) is None
        logged = len(self.conflicts)
        accepted = super().set_p2c(provider, customer, step)
        if fresh and len(self.conflicts) > logged:
            self.refusals.append(self.conflicts[-1])
        return accepted


class _LoggedReference(_ReferenceEngine):
    result_type = _RefusalLog


def _random_corpus(seed):
    """Up to 120 paths over at most 30 ASes: dense enough that votes
    collide, refusals are common and siblings sit between them."""
    rng = random.Random(seed)
    universe = rng.randint(5, 30)
    return PathSet.sanitize(
        tuple(rng.sample(range(1, universe + 1),
                         rng.randint(2, min(8, universe))))
        for _ in range(rng.randint(5, 120))
    )




def _s5(conflicts):
    return [c for c in conflicts if c.step is Step.S5_TOPDOWN]


class TestSiblings:
    """Sibling links reset the fold's constraints and end top-down
    walks; no scenario carries one, so these corpora get a known
    sibling set."""

    def _check(self, paths, **config):
        # every third corpus link a known sibling, as in QA family 1
        config = InferenceConfig(
            known_siblings=frozenset(sorted(paths.links())[::3]), **config
        )
        fast = infer_relationships(paths, config)
        reference = _LoggedReference(paths, config).run()
        assert _label_map(fast) == _label_map(reference)
        assert _s5(fast.conflicts) == _s5(reference.refusals)
        return fast

    # worlds where a sibling reset decides a fold vote
    @pytest.mark.parametrize("seed", [11, 20, 46])
    def test_qa_worlds(self, seed):
        fast = self._check(build_world(world_spec(seed)).paths)
        assert fast.siblings

    def test_random_corpora(self):
        refused = 0
        for seed in range(60):
            fast = self._check(_random_corpus(seed), clique_seed_size=3)
            refused += len(_s5(fast.conflicts))
        assert refused  # the S5 comparison is not vacuous
