"""Adversarial tests for the incremental transitive closure.

``ClosureBitsets`` is the inference engine's cycle gate: after every
``add_edge`` its strict descendant bitsets must equal what the batch
``closure_bits`` computes over the edges seen so far.  These tests
replay interleaved add sequences — chains, stars, diamonds and seeded
random DAGs — and compare against the batch oracle after every single
edge.
"""

import random

from repro.graph.bitset import ClosureBitsets, closure_bits


def _batch_oracle(n, edges):
    """Strict desc lists via one batch closure pass."""
    children = {}
    for parent, child in edges:
        children.setdefault(parent, []).append(child)
    return [
        bits ^ (1 << i) for i, bits in enumerate(closure_bits(n, children))
    ]


def _replay_and_check(n, edges):
    """add_edge one at a time; oracle-compare after every step."""
    closure = ClosureBitsets(n)
    for count, (parent, child) in enumerate(edges, start=1):
        closure.add_edge(parent, child)
        desc = _batch_oracle(n, edges[:count])
        assert closure.desc == desc, f"desc diverged after {count} edges"
    return closure


class _WriteLog(list):
    """A ``desc`` list that records the ids written."""

    def __init__(self, items):
        super().__init__(items)
        self.ids = []

    def __setitem__(self, i, value):
        self.ids.append(i)
        super().__setitem__(i, value)


class TestIncrementalMatchesBatch:
    def test_chain_built_forward(self):
        edges = [(i, i + 1) for i in range(8)]
        _replay_and_check(9, edges)

    def test_chain_built_backward(self):
        # joining two long reachability sets with the last edge is the
        # worst case for incremental propagation
        edges = [(i, i + 1) for i in reversed(range(8))]
        _replay_and_check(9, edges)

    def test_chain_built_from_both_ends(self):
        order = [0, 7, 1, 6, 2, 5, 3, 4]
        edges = [(i, i + 1) for i in order]
        _replay_and_check(9, edges)

    def test_star_and_diamond(self):
        # hub with spokes, then a diamond grafted onto one spoke
        edges = [(0, i) for i in range(1, 5)]
        edges += [(1, 5), (1, 6), (5, 7), (6, 7), (7, 8)]
        _replay_and_check(9, edges)

    def test_duplicate_edges_are_idempotent(self):
        edges = [(0, 1), (1, 2), (0, 1), (0, 2), (1, 2)]
        closure = _replay_and_check(3, edges)
        assert closure.desc == _batch_oracle(3, [(0, 1), (1, 2), (0, 2)])

    def test_random_dags(self):
        for seed in range(6):
            rng = random.Random(seed)
            n = rng.randint(10, 24)
            closure = ClosureBitsets(n)
            edges = []
            candidates = [
                (a, b) for a in range(n) for b in range(n) if a != b
            ]
            rng.shuffle(candidates)
            for parent, child in candidates:
                # mirror the engine: refuse edges that would close a
                # cycle, accept everything else in arrival order
                if closure.descends(child, parent) or parent == child:
                    continue
                closure.add_edge(parent, child)
                edges.append((parent, child))
                if len(edges) >= 2 * n:
                    break
            desc = _batch_oracle(n, edges)
            assert closure.desc == desc, f"seed {seed}: desc diverged"

    def test_climb_stops_where_the_subtree_is_held(self):
        # a diamond 0 -> {1, 2} -> 3, then 3 -> 4 under it: 0 is reached
        # through both 1 and 2 but updated once; then the redundant
        # 1 -> 4 (already 1 -> 3 -> 4) writes nothing; then 5 -> 4 and
        # 2 -> 5, where 2 and 0 already hold 4 but not 5
        closure = ClosureBitsets(6)
        writes = _WriteLog(closure.desc)
        closure.desc = writes
        expected = [
            ((0, 1), [0]), ((0, 2), [0]), ((1, 3), [0, 1]),
            ((2, 3), [2]), ((3, 4), [0, 1, 2, 3]), ((1, 4), []),
            ((5, 4), [5]), ((2, 5), [0, 2]),
        ]
        edges = []
        for edge, written in expected:
            writes.ids.clear()
            closure.add_edge(*edge)
            edges.append(edge)
            assert closure.desc == _batch_oracle(6, edges), edge
            assert sorted(writes.ids) == written, edge

    def test_descends_is_strict(self):
        closure = ClosureBitsets(3)
        closure.add_edge(0, 1)
        closure.add_edge(1, 2)
        assert closure.descends(0, 2)
        assert closure.descends(0, 1)
        assert not closure.descends(0, 0)  # strict: not its own descendant
        assert not closure.descends(2, 0)


class TestAgainstInference:
    def test_engine_closure_matches_batch(self):
        """The engine's live closure equals a batch closure over the
        p2c edges it actually accepted."""
        from repro.bgp.collector import Collector, CollectorConfig
        from repro.core.inference import infer_relationships
        from repro.core.paths import PathSet
        from repro.topology.generator import GeneratorConfig, generate_topology

        graph = generate_topology(GeneratorConfig(n_ases=120, seed=23))
        corpus = Collector(graph, CollectorConfig(n_vps=8, seed=23)).run()
        result = infer_relationships(
            PathSet.sanitize(corpus.paths, ixp_asns=graph.ixp_asns())
        )
        index = result.index
        edges = []
        for (a, b) in result.links():
            provider = result.provider_of(a, b)
            if provider is None:
                continue
            customer = b if provider == a else a
            edges.append((index.ids[provider], index.ids[customer]))
        desc = _batch_oracle(len(index.asns), edges)
        assert result._closure.desc[: len(desc)] == desc
