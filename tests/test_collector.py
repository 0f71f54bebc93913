"""Unit tests for vantage-point collection."""

import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import perf
from repro.bgp.collector import (
    CODE_REL,
    Collector,
    CollectorConfig,
    REL_CODE,
    VantagePoint,
)
from repro.bgp.noise import NoiseConfig
from repro.bgp.propagation import PropagationConfig
from repro.core.paths import PathSet
from repro.qa.oracles import ReferenceCollector
from repro.relationships import RelClass, Relationship
from repro.topology.generator import GeneratorConfig, generate_topology
from repro.topology.model import AS, ASGraph, ASType, TopologyError


@pytest.fixture(scope="module")
def graph():
    return generate_topology(GeneratorConfig(n_ases=200, seed=12))


@pytest.fixture(scope="module")
def quiet_config():
    return CollectorConfig(
        n_vps=10, seed=5, noise=NoiseConfig.none(), partial_feed_fraction=0.0
    )


@pytest.fixture(scope="module")
def corpus(graph, quiet_config):
    return Collector(graph, quiet_config).run()


class TestVantagePoints:
    def test_vp_count(self, graph, quiet_config):
        collector = Collector(graph, quiet_config)
        assert len(collector.vps) == 10

    def test_vps_are_business_ases(self, graph, quiet_config):
        collector = Collector(graph, quiet_config)
        for vp in collector.vps:
            assert graph.get_as(vp.asn).type is not ASType.IXP_RS

    def test_vps_deterministic(self, graph, quiet_config):
        a = Collector(graph, quiet_config).vps
        b = Collector(graph, quiet_config).vps
        assert a == b

    def test_partial_feed_fraction(self, graph):
        config = CollectorConfig(n_vps=20, seed=5, partial_feed_fraction=1.0)
        collector = Collector(graph, config)
        assert all(not vp.full_feed for vp in collector.vps)


def loop_choose_vps(collector, count, exclude):
    """The per-draw accumulate loop ``Collector._choose_vps`` replaced:
    the reference its array draws must match, RNG calls included."""
    candidates = sorted(
        asys.asn
        for asys in collector.graph.ases()
        if asys.type
        in (ASType.CLIQUE, ASType.LARGE_TRANSIT, ASType.SMALL_TRANSIT,
            ASType.ACCESS)
        and asys.asn not in exclude
        and asys.asn in collector.index.index
    )
    weights = [len(collector.graph.customers[asn]) + 1 for asn in candidates]
    chosen = []
    pool = list(zip(candidates, weights))
    for _ in range(min(count, len(pool))):
        total = sum(w for _, w in pool)
        pick = collector._rng.uniform(0, total)
        acc = 0.0
        for i, (asn, w) in enumerate(pool):
            acc += w
            if pick <= acc:
                chosen.append(asn)
                pool.pop(i)
                break
    vps = []
    for asn in sorted(chosen):
        partial = collector._rng.random() < (
            collector.config.partial_feed_fraction
        )
        vps.append(VantagePoint(asn=asn, full_feed=not partial))
    return vps


class TestChooseVps:
    """The array draws pick the same VPs, in the same RNG sequence, as
    the accumulate loop."""

    @pytest.fixture(scope="class")
    def worlds(self):
        return [
            generate_topology(GeneratorConfig(n_ases=n, seed=seed))
            for n, seed in ((60, 1), (200, 12), (400, 3))
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        world=st.integers(0, 2),
        seed=st.integers(0, 2**32 - 1),
        count=st.integers(0, 500),
        exclude_share=st.floats(0.0, 1.0),
    )
    def test_matches_accumulate_loop(self, worlds, world, seed, count,
                                     exclude_share):
        graph = worlds[world]
        collector = Collector(graph, CollectorConfig(n_vps=0, seed=seed))
        draw = random.Random(seed)
        exclude = {
            a.asn for a in graph.ases() if draw.random() < exclude_share
        }
        collector._rng.seed(seed)
        got = collector._choose_vps(count, exclude)
        state = collector._rng.getstate()
        collector._rng.seed(seed)
        want = loop_choose_vps(collector, count, exclude)
        assert got == want
        assert state == collector._rng.getstate()

    def test_count_beyond_pool_takes_every_candidate(self, worlds):
        collector = Collector(worlds[0], CollectorConfig(n_vps=0, seed=2))
        pool = loop_choose_vps(collector, 10**6, set())
        collector._rng.seed(2)
        got = collector._choose_vps(10**6, set())
        assert len(got) == len(pool) > 0
        collector._rng.seed(2)
        assert got == loop_choose_vps(collector, 10**6, set())

    def test_empty_pool(self):
        graph = ASGraph()
        for asn in (1, 2):
            graph.add_as(AS(asn=asn, type=ASType.STUB))
        graph.add_p2p(1, 2)
        collector = Collector(graph, CollectorConfig(n_vps=5, seed=1))
        assert collector.vps == []
        assert collector._choose_vps(5, set()) == []

    def test_preset_vps_are_excluded_from_the_draw(self, worlds):
        graph = worlds[1]
        config = CollectorConfig(n_vps=12, seed=7)
        preset = Collector(graph, config).vps[:5]
        collector = Collector(graph, config, preset_vps=preset)
        reference = Collector(graph, CollectorConfig(n_vps=0, seed=7))
        reference._rng.seed(7)
        drawn = loop_choose_vps(reference, 7, {vp.asn for vp in preset})
        assert collector.vps == sorted(preset + drawn, key=lambda v: v.asn)


def loop_choose_taggers(collector):
    """``Collector._choose_taggers`` as a per-AS loop over the AS table:
    one ``random()`` per non-IXP AS, in table order."""
    return frozenset(
        asys.asn
        for asys in collector.graph.ases()
        if asys.type is not ASType.IXP_RS
        and collector._rng.random()
        < collector.config.community_tagger_fraction
    )


def loop_choose_leakers(collector):
    """``Collector._choose_leakers`` as a per-AS loop over the AS table."""
    if collector.config.n_route_leakers <= 0:
        return []
    graph = collector.graph
    candidates = sorted(
        asys.asn for asys in graph.ases()
        if len(graph.providers[asys.asn]) >= 2
    )
    count = min(collector.config.n_route_leakers, len(candidates))
    return sorted(collector._rng.sample(candidates, count))


def loop_tagger_nodes(collector, taggers):
    """``(tagger ids, sibling ids per tagger id)`` by a loop over every
    routing tagger."""
    ids = collector.index.index
    nodes = {ids[asn] for asn in taggers if asn in ids}
    sibling_nodes = {}
    for node in nodes:
        asn = collector.index.asns[node]
        siblings = {ids[s] for s in collector.graph.siblings[asn] if s in ids}
        if siblings:
            sibling_nodes[node] = siblings
    return nodes, sibling_nodes


def walk_prefix_lists(collector, origins):
    """The announcing ASes' prefix lists from the whole-world
    ``prefix_origins`` walk."""
    graph = collector.graph
    prefix_origins = (
        graph.prefix6_origins() if collector.plane == "v6"
        else graph.prefix_origins()
    )
    announcing = (
        collector.index.index if origins is None
        else set(origins).intersection(collector.index.index)
    )
    by_origin = {}
    for prefix, asn in prefix_origins.items():
        if asn in announcing:
            by_origin.setdefault(asn, []).append(prefix)
    return by_origin


def reshuffled(graph, seed):
    """A copy of ``graph`` whose AS table is in a shuffled order (fresh
    ``AS`` objects, so a test may edit their prefixes)."""
    order = list(graph.ases())
    random.Random(seed).shuffle(order)
    copy = ASGraph()
    for asys in order:
        copy.add_as(AS(
            asn=asys.asn, type=asys.type, region=asys.region,
            prefixes=list(asys.prefixes), prefixes6=list(asys.prefixes6),
        ))
    for a, b, rel in graph.links():
        if rel is Relationship.P2C:
            copy.add_p2c_unchecked(a, b)
        elif rel is Relationship.P2P:
            copy.add_p2p(a, b)
        else:
            copy.add_s2s(a, b)
    return copy


class TestSetupDraws:
    """One pass over the AS table draws what the per-AS loops drew: the
    same VPs, taggers, leakers and tagger sibling ids, RNG sequence
    included, and the announcing origins' prefix lists equal the
    whole-world walk's."""

    @pytest.fixture(scope="class")
    def worlds(self):
        return [
            generate_topology(GeneratorConfig(
                n_ases=n, seed=seed, sibling_pairs=siblings,
            ))
            for n, seed, siblings in ((60, 1, 4), (150, 5, 10), (300, 8, 0))
        ]

    @settings(max_examples=40, deadline=None)
    @given(
        world=st.integers(0, 2),
        shuffle=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 2**32 - 1),
        plane=st.sampled_from(["v4", "v6"]),
        n_vps=st.integers(0, 30),
        leakers=st.integers(0, 6),
        tagger_fraction=st.floats(0.0, 1.0),
    )
    def test_matches_per_as_loops(self, worlds, world, shuffle, seed, plane,
                                  n_vps, leakers, tagger_fraction):
        graph = reshuffled(worlds[world], shuffle)
        config = CollectorConfig(
            n_vps=n_vps, seed=seed, n_route_leakers=leakers,
            community_tagger_fraction=tagger_fraction,
        )
        collector = Collector(graph, config, plane=plane)
        routing = sorted(
            a.asn for a in graph.ases()
            if a.type is not ASType.IXP_RS
            and (plane == "v4" or a.v6_enabled)
        )
        assert collector.index.asns == routing
        assert collector.kernel.clique == graph.clique_asns()

        collector._rng.seed(seed)
        assert collector.vps == loop_choose_vps(collector, n_vps, set())
        taggers = loop_choose_taggers(collector)
        assert collector.taggers == taggers
        assert collector.leakers == loop_choose_leakers(collector)
        nodes, sibling_nodes = loop_tagger_nodes(collector, taggers)
        assert collector.kernel.tagger_nodes == nodes
        assert collector.kernel.sibling_nodes == sibling_nodes

        draw = random.Random(shuffle)
        origins = [a.asn for a in graph.ases() if draw.random() < 0.3]
        for asked in (origins, None):
            assert collector._announced(asked) == walk_prefix_lists(
                collector, asked
            )

    def test_siblings_reach_the_kernel(self, worlds):
        collector = Collector(
            worlds[1], CollectorConfig(community_tagger_fraction=1.0)
        )
        assert collector.kernel.sibling_nodes
        assert collector.kernel.sibling_nodes == loop_tagger_nodes(
            collector, collector.taggers
        )[1]


class TestPrefixOwnership:
    """A prefix originated twice raises for the prefixes a run reads."""

    @pytest.fixture
    def clash(self):
        graph = reshuffled(
            generate_topology(GeneratorConfig(n_ases=80, seed=4)), 1
        )
        a, b, bystander = sorted(
            asys.asn for asys in graph.ases()
            if asys.prefixes and asys.type is not ASType.IXP_RS
        )[:3]
        graph.get_as(b).prefixes.append(graph.get_as(a).prefixes[0])
        return graph, a, b, bystander

    def test_two_announcing_origins_sharing_a_prefix(self, clash):
        graph, a, b, _ = clash
        collector = Collector(graph, CollectorConfig(n_vps=3, seed=1))
        with pytest.raises(TopologyError, match="originated by both"):
            collector.run(origins=[a, b])

    def test_whole_world_run_guards_every_prefix(self, clash):
        graph, *_ = clash
        collector = Collector(graph, CollectorConfig(n_vps=3, seed=1))
        with pytest.raises(TopologyError, match="originated by both"):
            collector.run()

    def test_unread_duplicates_are_out_of_scope(self, clash):
        graph, a, b, bystander = clash
        collector = Collector(graph, CollectorConfig(n_vps=3, seed=1))
        for origins in ([a, bystander], [b, bystander]):
            corpus = collector.run(origins=origins)
            assert {p[-1] for p in corpus.paths} <= set(origins)

    def test_one_as_listing_a_prefix_twice(self, clash):
        graph, _, _, bystander = clash
        asys = graph.get_as(bystander)
        asys.prefixes.append(asys.prefixes[0])
        collector = Collector(graph, CollectorConfig(n_vps=3, seed=1))
        with pytest.raises(TopologyError, match="originated by both"):
            collector.run(origins=[bystander])


class TestPaths:
    def test_paths_start_at_vp(self, corpus):
        vp_asns = {vp.asn for vp in corpus.vps}
        for path in corpus.paths:
            assert path[0] in vp_asns

    def test_paths_end_at_prefix_origin(self, graph, corpus):
        originators = {a.asn for a in graph.ases() if a.prefixes}
        for path in corpus.paths:
            assert path[-1] in originators

    def test_noise_free_paths_are_true_adjacencies(self, graph, corpus):
        for path in corpus.paths:
            for a, b in zip(path, path[1:]):
                assert graph.relationship(a, b) is not None, (a, b)

    def test_full_feed_covers_all_origins(self, graph, quiet_config):
        collector = Collector(graph, quiet_config)
        corpus = collector.run()
        origins = {a.asn for a in graph.ases() if a.prefixes}
        for vp in corpus.vps:
            seen = {p[-1] for p in corpus.paths if p[0] == vp.asn}
            # a full feed reaches essentially every origin
            assert len(seen) >= 0.95 * len(origins)

    def test_partial_feed_is_customer_cone_only(self, graph):
        config = CollectorConfig(
            n_vps=12, seed=5, partial_feed_fraction=1.0, noise=NoiseConfig.none()
        )
        corpus = Collector(graph, config).run()
        for vp in corpus.vps:
            cone = graph.customer_cone(vp.asn)
            for path in corpus.paths:
                if path[0] == vp.asn:
                    assert path[-1] in cone

    def test_restricted_origins(self, graph, quiet_config):
        collector = Collector(graph, quiet_config)
        some_origin = next(a.asn for a in graph.ases() if a.prefixes)
        corpus = collector.run(origins=[some_origin])
        assert corpus.paths
        assert {p[-1] for p in corpus.paths} == {some_origin}

    def test_observed_links_subset_of_truth(self, graph, corpus):
        truth = {(min(a, b), max(a, b)) for a, b, _ in graph.links()}
        observed = {
            (min(a, b), max(a, b))
            for path in corpus.paths
            for a, b in zip(path, path[1:])
            if a != b
        }
        assert observed <= truth

    def test_path_counts_track_duplicates(self, corpus):
        assert sum(corpus.path_counts.values()) >= len(corpus.paths)


class TestRib:
    def test_rib_prefix_per_origin(self, graph, corpus):
        origins = graph.prefix_origins()
        for entry in corpus.rib:
            assert origins[entry.prefix] == entry.origin

    def test_rib_disabled(self, graph):
        config = CollectorConfig(n_vps=5, seed=5, build_rib=False)
        corpus = Collector(graph, config).run()
        assert corpus.rib == []
        assert corpus.paths

    def test_communities_taggers_only(self, graph, quiet_config):
        collector = Collector(graph, quiet_config)
        corpus = collector.run()
        for entry in corpus.rib:
            for tagger, code in entry.communities:
                assert tagger in collector.taggers
                assert code in CODE_REL

    def test_communities_encode_true_relationship(self, graph, quiet_config):
        """With noise off, each tag names the true relationship between
        the tagger and its next hop toward the origin."""
        collector = Collector(graph, quiet_config)
        corpus = collector.run()
        checked = 0
        for entry in corpus.rib[:2000]:
            path = entry.path
            pos = {asn: i for i, asn in enumerate(path)}
            for tagger, code in entry.communities:
                i = pos.get(tagger)
                if i is None or i + 1 >= len(path):
                    continue
                neighbor = path[i + 1]
                rel = graph.relationship(tagger, neighbor)
                relclass = {v: k for k, v in REL_CODE.items()}[code]
                if relclass is RelClass.CUSTOMER:
                    assert rel is Relationship.P2C
                    assert graph.provider_of(tagger, neighbor) == tagger
                elif relclass is RelClass.PROVIDER:
                    assert rel is Relationship.P2C
                    assert graph.provider_of(tagger, neighbor) == neighbor
                else:
                    assert rel is Relationship.P2P
                checked += 1
        assert checked > 50


class TestDeterminism:
    def test_same_config_same_corpus(self, graph, quiet_config):
        a = Collector(graph, quiet_config).run()
        b = Collector(graph, quiet_config).run()
        assert a.paths == b.paths
        assert a.rib == b.rib


def corpus_key(corpus):
    return (
        list(corpus.paths),
        corpus.path_counts,
        [(r.vp, r.prefix, r.path, r.communities) for r in corpus.rib],
    )


def collect_traced(graph, config, plane="v4"):
    """One collection with its own recorder: ``(corpus, counters)``."""
    rec = perf.PerfRecorder()
    with perf.use_recorder(rec):
        corpus = Collector(graph, config, plane=plane).run()
    return corpus, rec.counters()


def assert_same_corpus(got, want):
    assert got.vps == want.vps
    for column in ("flat", "off", "counts"):
        assert getattr(got, column).tolist() == getattr(want, column).tolist()
    assert got.rib == want.rib


class TestRepeatedCollection:
    """A Collector reuses the graph compile an earlier one made while
    the graph is unedited, and recompiles after an edit."""

    @pytest.fixture
    def config(self):
        return CollectorConfig(n_vps=12, seed=4, n_route_leakers=3,
                               leak_origin_fraction=0.3)

    @pytest.mark.parametrize("plane", ["v4", "v6"])
    def test_unchanged_graph_collects_the_same_corpus(self, config, plane):
        graph = generate_topology(GeneratorConfig(n_ases=150, seed=21))
        first, _ = collect_traced(graph, config, plane)
        second, counters = collect_traced(graph, config, plane)
        assert counters["collect-setup/compile/reused"] == 1
        assert counters["collect/noise/misses"] == 0
        assert_same_corpus(second, first)

    def test_evolution_era_between_collectors(self, config):
        from repro.net.allocation import PrefixAllocator
        from repro.topology.evolution import (
            Era,
            _densify_peering,
            _grow,
            _promote_clique_entrants,
        )

        allocator = PrefixAllocator()
        graph = generate_topology(
            GeneratorConfig(n_ases=150, seed=21, ixps_enabled=True),
            allocator=allocator,
        )
        _, counters = collect_traced(graph, config)
        assert counters["collect-setup/compile/reused"] == 0
        clique = graph.clique_asns()
        era = Era("next", new_ases=15, peering_boost=0.05,
                  clique_entrants=1, regional_bias=0.3)
        rng = random.Random(3)
        _grow(graph, era, rng, allocator, max(graph.asns()) + 1)
        _densify_peering(graph, era, rng)
        _promote_clique_entrants(graph, era, rng)
        assert graph.clique_asns() != clique  # an AS.type edited in place
        got, counters = collect_traced(graph, config)
        assert counters["collect-setup/compile/reused"] == 0
        want, _ = collect_traced(copy.deepcopy(graph), config)
        assert_same_corpus(got, want)

    def test_in_place_type_edit_alone(self):
        # promoting an AS to the clique changes no link, so the compile
        # is kept; the per-collector survey still sees the new clique,
        # which poisoned paths draw from
        config = CollectorConfig(n_vps=12, seed=4,
                                 noise=NoiseConfig(poison_prob=0.3))
        graph = generate_topology(GeneratorConfig(n_ases=150, seed=21))
        before, _ = collect_traced(graph, config)
        entrant = max(
            (a for a in graph.ases() if a.type is ASType.LARGE_TRANSIT),
            key=lambda a: len(graph.customers[a.asn]),
        )
        entrant.type = ASType.CLIQUE
        got, counters = collect_traced(graph, config)
        assert counters["collect-setup/compile/reused"] == 1
        assert got.flat.tolist() != before.flat.tolist()
        want, _ = collect_traced(copy.deepcopy(graph), config)
        assert_same_corpus(got, want)


class TestColumnsMatchReference:
    """The column kernel (one mask for the exported pairs, a chain walk
    per hop level, noise per distinct edge) emits every path, count and
    RIB row of the one-path-at-a-time reference collector, with every
    artifact firing often."""

    NOISY = NoiseConfig(
        seed=7, ixp_insertion=True, prepend_prob=0.5, max_prepend=3,
        poison_prob=0.3, loop_prob=0.3, reserved_asn_prob=0.3,
    )

    @pytest.fixture(scope="class")
    def worlds(self):
        worlds = [
            generate_topology(GeneratorConfig(
                n_ases=n, seed=seed, sibling_pairs=siblings,
                ixp_link_fraction=1.0,
            ))
            for n, seed, siblings in ((120, 1, 8), (200, 2, 12))
        ]
        assert all(world.via_ixp for world in worlds)
        return worlds

    @settings(max_examples=30, deadline=None)
    @given(
        world=st.integers(0, 1),
        seed=st.integers(0, 2**16),
        plane=st.sampled_from(["v4", "v6"]),
        workers=st.sampled_from([0, 2]),
        build_rib=st.booleans(),
        n_vps=st.integers(1, 14),
        leakers=st.integers(0, 5),
        partial=st.floats(0.0, 1.0),
        batch_size=st.integers(1, 40),
        repeat_vp=st.booleans(),
    )
    def test_matches_reference(self, worlds, world, seed, plane, workers,
                               build_rib, n_vps, leakers, partial,
                               batch_size, repeat_vp):
        graph = worlds[world]
        config = CollectorConfig(
            n_vps=n_vps, seed=seed, partial_feed_fraction=partial,
            community_tagger_fraction=0.8, noise=self.NOISY,
            build_rib=build_rib, n_route_leakers=leakers,
            leak_origin_fraction=0.5, workers=workers,
            propagation=PropagationConfig(batch_size=batch_size),
        )
        preset = None
        if repeat_vp:
            # a VP listed twice observes each of its paths twice
            first = Collector(graph, config, plane=plane).vps[0].asn
            preset = [VantagePoint(first, True), VantagePoint(first, False)]
        got = Collector(graph, config, preset_vps=preset, plane=plane).run()
        want = ReferenceCollector(
            graph, config, preset_vps=preset, plane=plane
        ).run()
        assert corpus_key(got) == corpus_key(want)
        ixp = graph.ixp_asns()
        columns = PathSet.sanitize(got.paths, ixp_asns=ixp)
        tuples = PathSet.sanitize(list(want.paths), ixp_asns=ixp)
        assert columns.paths == tuples.paths
        assert columns.path_counts.tolist() == tuples.path_counts.tolist()
        assert columns.stats == tuples.stats
