"""The inference engine's flat (CSR) corpus index.

``InferenceResult`` indexes its corpus when built, as a few flat lists
and arrays plus offsets, never as one container per path or per link; the
top-down step's visiting order is a stable sort on peak rank over a
corpus that stage 1 already put in tuple order.  The default pipeline
reads a :class:`PathSet` only through its columns.
"""

import gc
import random
from collections import Counter
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.bgp.collector import Collector, CollectorConfig
from repro.core.clique import CliqueResult
from repro.core.inference import (
    InferenceConfig,
    InferenceResult,
    _peak_order,
    infer_relationships,
)
from repro.core.paths import _SORT_WIDTH, PathSet
from repro.mrt.reader import RibRecord, UpdateRecord
from repro.mrt.updates import COLLECTOR_ASN
from repro.scenarios import get_scenario
from repro.stream import StreamIngestor
from repro.topology.generator import GeneratorConfig, generate_topology


def _indexed(paths):
    corpus = PathSet(paths)
    result = InferenceResult(
        corpus,
        CliqueResult(members=[], seed_members=[], added_members=[]),
        InferenceConfig(),
    )
    return corpus, result


def _tuple_sort_order(paths, rank):
    """The order S5 used to take: sort (peak rank, path, peak, index)."""
    big = 1 << 30
    keyed = []
    for pi, path in enumerate(paths):
        ranks = [rank.get(asn, big) for asn in path]
        peak = ranks.index(min(ranks))
        keyed.append((min(ranks), path, peak, pi))
    keyed.sort()
    return [pi for *_, pi in keyed], {pi: peak for _, _, peak, pi in keyed}


@st.composite
def _corpora(draw):
    """Distinct paths over few ASNs, with some paths' prefixes (down to
    single-hop and single-AS paths) added, and a rank that leaves some
    ASes out (so peak ranks tie at the default)."""
    base = draw(st.lists(
        st.lists(st.integers(1, 9), min_size=1, max_size=6, unique=True)
        .map(tuple),
        min_size=1,
        max_size=30,
    ))
    paths = list(base)
    for path in base:
        cut = draw(st.integers(1, len(path)))
        paths.append(path[:cut])
    paths = list(dict.fromkeys(paths))
    draw(st.randoms()).shuffle(paths)
    ranked = draw(st.permutations(range(1, 10)))
    kept = draw(st.integers(0, 9))
    rank = {asn: i for i, asn in enumerate(ranked[:kept])}
    return paths, rank


class TestPeakOrder:
    @settings(max_examples=200, deadline=None)
    @given(corpus=_corpora())
    def test_lexsort_equals_tuple_sort(self, corpus):
        paths, rank = corpus
        pathset, result = _indexed(paths)
        order, peaks = _peak_order(result, pathset, rank)
        order, peaks = order.tolist(), peaks.tolist()
        want_order, want_peaks = _tuple_sort_order(pathset.paths, rank)
        assert order == want_order
        assert {pi: peaks[pi] for pi in order} == want_peaks

    def test_prefixes_ties_and_single_hops(self):
        # 5 is unranked: every path through only 5 and 6 ties at the
        # default rank; (2, 5) is a prefix of (2, 5, 6), (5,) of (5, 6)
        paths = [(2, 5, 6), (5, 6), (2, 5), (6, 5), (5,), (3, 2), (2, 3)]
        rank = {2: 0, 3: 1, 6: 2}
        pathset, result = _indexed(paths)
        order, peaks = _peak_order(result, pathset, rank)
        order, peaks = order.tolist(), peaks.tolist()
        assert [pathset.paths[pi] for pi in order] == [
            (2, 3), (2, 5), (2, 5, 6), (3, 2), (5, 6), (6, 5), (5,),
        ]
        assert [peaks[pi] for pi in order] == [0, 0, 0, 1, 1, 0, 0]
        assert order == _tuple_sort_order(pathset.paths, rank)[0]


class TestCorpusOrder:
    """A corpus is in tuple order; stage 1 gets it from one row sort."""

    def test_pathset_sorts_its_paths(self):
        paths = [(3, 2), (2, 5, 6), (2, 5), (5,)]
        assert PathSet(paths).paths == sorted(paths)

    def test_long_paths_keep_the_order_and_a_narrow_grid(self):
        # one path of 5000 distinct ASNs among short ones, with longer-
        # than-the-grid prefixes of it that tie on every sorted column
        # and must still come out in tuple order, the shorter ones each
        # merged with its duplicate
        rng = random.Random(3)
        short = {
            tuple(rng.sample(range(1, 400), rng.randint(2, 7)))
            for _ in range(300)
        }
        long = tuple(range(10_000, 15_000))
        w = _SORT_WIDTH
        tails = [
            long, long[:3000], long[:w + 4], long[:w + 1], long[:w],
            long[:w - 1], long[:w + 4] + (7,), long[:w + 4] + (20_000,),
            (5,) + long[:w + 2], (5,) + long[:w + 2] + (6,),
        ]
        raw = sorted(short) + tails + tails[2:]
        random.Random(4).shuffle(raw)
        tracemalloc.start()
        try:
            pathset = PathSet.sanitize(raw)
            peak_bytes = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pathset.paths == sorted(set(raw))
        assert pathset.counts == {p: raw.count(p) for p in set(raw)}
        # a padded n x 5000 int64 grid alone would take ~12.4 MB
        assert peak_bytes < 1_000_000

    @pytest.mark.parametrize("high", [60, 64_000, 4_199_999_999])
    def test_sort_keys_of_any_width_keep_the_order(self, high):
        # the row sort packs 64 // bits hop codes per key: 10 per key
        # for ASNs up to 60, 4 up to 64,000 and 2 up to 2^32 (public
        # ASNs only, so no row is dropped)
        rng = random.Random(high)
        pool = [1, 2, 3, high - 1, high] + rng.sample(range(4, 59), 20)
        raw = [
            tuple(rng.sample(pool, rng.randint(2, 12))) for _ in range(400)
        ]
        raw += [path[:-1] for path in raw if len(path) > 2]
        pathset = PathSet.sanitize(raw)
        assert pathset.paths == sorted(set(raw))
        assert pathset.counts == {p: raw.count(p) for p in set(raw)}


def _corpus(n_paths, seed=7):
    rng = random.Random(seed)
    paths = set()
    while len(paths) < n_paths:
        paths.add(tuple(rng.sample(range(1, 4000), rng.randint(2, 7))))
    return PathSet(sorted(paths))


def _containers_built(corpus):
    """gc-tracked containers that a result over ``corpus`` (which
    indexes it when built) leaves behind."""
    corpus.numpy_view()
    clique = CliqueResult(members=[], seed_members=[], added_members=[])
    config = InferenceConfig()
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        result = InferenceResult(corpus, clique, config)
        return len(gc.get_objects()) - before
    finally:
        gc.enable()


class TestFlatIndex:
    def test_container_count_does_not_grow_with_the_corpus(self):
        small = _containers_built(_corpus(500))
        large = _containers_built(_corpus(2000))
        assert small == large
        assert small <= 28

    def test_paths_read_back_from_the_flat_lists(self):
        pathset, result = _indexed([(1, 2, 3), (3,), (4, 2), (2, 1, 4, 5)])
        paths = pathset.paths
        off = result._path_off
        asns = result.index.asns
        assert [
            tuple(asns[i] for i in result._node_pid[s:e].tolist())
            for s, e in zip(off, off[1:])
        ] == paths
        # hops: path p's links start at _hop_lid[off[p] - p]
        key_lid = result._key_lid
        for p, path in enumerate(paths):
            h0 = off[p] - p
            assert result._hop_lid[h0:h0 + len(path) - 1].tolist() == [
                key_lid[(min(a, b) << 32) | max(a, b)]
                for a, b in zip(path, path[1:])
            ]
        # link -> paths CSR: every path carrying the link, once
        for key, lid in key_lid.items():
            a, b = key >> 32, key & 0xFFFFFFFF
            start, end = result._lpath_off[lid], result._lpath_off[lid + 1]
            assert sorted(result._lpath_pid[start:end]) == [
                p for p, path in enumerate(paths)
                if any({a, b} == {x, y} for x, y in zip(path, path[1:]))
            ]

    def test_old_list_of_lists_fields_are_gone(self):
        _, result = _indexed([(1, 2, 3)])
        for name in ("_path_lids", "_path_pids", "_lpaths", "_path_nodes"):
            assert not hasattr(result, name)


class TestColumnsOnly:
    def test_default_pipeline_builds_no_tuples_or_neighbour_sets(self):
        graph, corpus, _, _ = get_scenario("small").run()
        paths = PathSet.sanitize(corpus.paths, ixp_asns=graph.ixp_asns())
        result = infer_relationships(paths)
        assert result.discarded_poisoned  # two corpora: before and after
        for pathset in (paths, result.paths):
            built = vars(pathset)
            assert "paths" not in built and "counts" not in built
            assert "node_neighbors" not in built

    def test_full_publishes_stay_off_the_full_heap_collector(self):
        # 30 full publishes over a 14k-path table: the parent of the
        # columns-only corpus took 3 generation-2 collections here (this
        # one 2).  gc.freeze() empties the heap the collector would
        # scan, so the count follows the containers the publishes leave
        # alive, not the tests that ran before
        graph = generate_topology(GeneratorConfig(n_ases=600, seed=5))
        corpus = Collector(graph, CollectorConfig(n_vps=30, seed=5)).run()
        rows = [
            RibRecord(entry.prefix, entry.vp, tuple(entry.path),
                      tuple(entry.communities))
            for entry in corpus.rib
        ]
        ingestor = StreamIngestor(ixp_asns=graph.ixp_asns(), base_rows=rows)
        ingestor.publish()
        by_path = {}
        for row in rows:
            by_path.setdefault(row.as_path, []).append(row)
        # withdrawing a path's only row changes the corpus: a full publish
        victims = [
            carriers[0] for _, carriers in sorted(by_path.items())
            if len(carriers) == 1
        ][:30]
        full = []

        def count(phase, info):
            if phase == "start" and info["generation"] == 2:
                full.append(info)

        gc.collect()
        gc.freeze()
        gc.callbacks.append(count)
        try:
            for row in victims:
                ingestor.apply_batch([UpdateRecord(
                    peer_asn=row.peer_asn, local_asn=COLLECTOR_ASN,
                    as_path=(), announced=(), communities=(),
                    withdrawn=(row.prefix,),
                )])
                ingestor.publish()
        finally:
            gc.callbacks.remove(count)
            gc.unfreeze()
        assert ingestor.stats.full_publishes == len(victims) + 1
        assert len(full) <= 3

    def test_stream_publishes_build_no_tuples(self, monkeypatch):
        # full and noop publishes read the live corpus as columns only:
        # no PathSet from tuples, no `paths` view
        graph = generate_topology(GeneratorConfig(n_ases=200, seed=3))
        corpus = Collector(graph, CollectorConfig(n_vps=10, seed=3)).run()
        rows = [
            RibRecord(entry.prefix, entry.vp, tuple(entry.path),
                      tuple(entry.communities))
            for entry in corpus.rib
        ]

        def refuse(*args, **kwargs):
            raise AssertionError("built from or as tuples")

        monkeypatch.setattr(PathSet, "__init__", refuse)
        monkeypatch.setattr(PathSet, "paths", property(refuse))
        ingestor = StreamIngestor(ixp_asns=graph.ixp_asns(), base_rows=rows)
        ingestor.publish()
        carriers = Counter(row.as_path for row in rows)
        # withdrawing a path's only row changes the corpus: a full
        # publish; publishing again right after is a noop
        victims = [row for row in rows if carriers[row.as_path] == 1][:3]
        for row in victims:
            ingestor.apply_batch([UpdateRecord(
                peer_asn=row.peer_asn, local_asn=COLLECTOR_ASN,
                as_path=(), announced=(), communities=(),
                withdrawn=(row.prefix,),
            )])
            ingestor.publish()
            ingestor.publish()
        assert ingestor.stats.noop_publishes == 3
        assert ingestor.stats.full_publishes == 4
