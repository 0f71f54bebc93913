"""Unit tests for repro.stream: live corpus, publish levels, publishers."""

import gc
import random
import types
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bgp.collector import Collector, CollectorConfig
from repro.core.paths import PathSet
from repro.mrt.reader import RibRecord, UpdateRecord
from repro.mrt.updates import (
    COLLECTOR_ASN,
    iter_update_batches,
    read_update_dump,
    rib_from_updates,
    write_update_dump,
)
from repro.net.prefix import Prefix
from repro.qa.oracles import clean_path, reference_sanitize
from repro.relationships import canonical_pair
from repro.stream import (
    LiveCorpus,
    StorePublisher,
    StreamIngestor,
    asrank_from_rib_rows,
    prefixes_from_rows,
)
from repro.topology.generator import GeneratorConfig, generate_topology


def _world(seed=11, n_ases=120, n_vps=8):
    graph = generate_topology(GeneratorConfig(n_ases=n_ases, seed=seed))
    corpus = Collector(graph, CollectorConfig(n_vps=n_vps, seed=seed)).run()
    rows = [
        RibRecord(
            prefix=entry.prefix,
            peer_asn=entry.vp,
            as_path=tuple(entry.path),
            communities=tuple(entry.communities),
        )
        for entry in corpus.rib
    ]
    return graph, rows


def _announce(row, prefix=None, path=None):
    return UpdateRecord(
        peer_asn=row.peer_asn,
        local_asn=COLLECTOR_ASN,
        as_path=path if path is not None else row.as_path,
        announced=(prefix if prefix is not None else row.prefix,),
        communities=row.communities,
    )


def _withdraw(row):
    return UpdateRecord(
        peer_asn=row.peer_asn,
        local_asn=COLLECTOR_ASN,
        as_path=(),
        announced=(),
        communities=(),
        withdrawn=(row.prefix,),
    )


def _oracle_version(ingestor, ixp_asns):
    return (
        asrank_from_rib_rows(ingestor.corpus.rows(), ixp_asns=ixp_asns)
        .snapshot(source=ingestor.source)
        .version
    )


class TestLiveCorpus:
    def test_matches_rib_from_updates_oracle(self):
        _graph, rows = _world()
        rng = random.Random(5)
        base = rows[: len(rows) // 2]
        updates = []
        for _ in range(120):
            row = rng.choice(rows)
            kind = rng.random()
            if kind < 0.5:
                updates.append(_announce(row))
            elif kind < 0.8:
                updates.append(_withdraw(row))
            else:
                donor = rng.choice(rows)
                updates.append(_announce(row, path=donor.as_path))
        corpus = LiveCorpus(base)
        # apply in uneven batches; the final table must equal the
        # one-shot offline reconstruction
        for start in range(0, len(updates), 17):
            corpus.apply(updates[start:start + 17])
        assert corpus.rows() == rib_from_updates(updates, base=base)

    def test_withdraw_before_announce_within_update(self):
        row = RibRecord(
            prefix=Prefix.parse("10.0.0.0/24"),
            peer_asn=1,
            as_path=(1, 2),
            communities=(),
        )
        corpus = LiveCorpus([row])
        corpus.apply(
            [
                UpdateRecord(
                    peer_asn=1,
                    local_asn=COLLECTOR_ASN,
                    as_path=(1, 3),
                    announced=(row.prefix,),
                    communities=(),
                    withdrawn=(row.prefix,),
                )
            ]
        )
        (survivor,) = corpus.rows()
        assert survivor.as_path == (1, 3)

    def test_prefixes_from_rows_matches_facade_derivation(self):
        _graph, rows = _world()
        derived = prefixes_from_rows(rows)
        assert set(derived) == {r.as_path[-1] for r in rows if r.as_path}
        for prefixes in derived.values():
            assert prefixes == sorted(prefixes)


class TestRowOrder:
    def test_snapshot_depends_on_the_multiset_of_rows(self):
        graph, rows = _world()
        ixp = graph.ixp_asns()
        shuffled = list(rows)
        random.Random(2).shuffle(shuffled)
        want = PathSet.sanitize((row.as_path for row in rows), ixp_asns=ixp)
        got = PathSet.sanitize(
            (row.as_path for row in shuffled), ixp_asns=ixp
        )
        assert got.paths == want.paths
        assert got.counts == want.counts
        assert got.stats == want.stats

        def version(table):
            facade = asrank_from_rib_rows(table, ixp_asns=ixp)
            return facade.snapshot(source="batch").version

        assert version(shuffled) == version(rows)


def _assert_views_match_batch(corpus, ixp_asns):
    """The maintained views equal their batch definitions over rows()."""
    rows = corpus.rows()
    reference = PathSet.sanitize(
        (row.as_path for row in rows), ixp_asns=ixp_asns
    )
    maintained = corpus.sanitized()
    assert maintained.paths == reference.paths
    assert maintained.counts == reference.counts
    assert maintained.stats == reference.stats
    # and both equal stage 1 one raw path at a time
    oracle = reference_sanitize(
        (row.as_path for row in rows), ixp_asns=ixp_asns
    )
    assert (oracle.paths, oracle.counts, oracle.stats) == (
        reference.paths, reference.counts, reference.stats
    )
    assert corpus.prefixes_by_asn() == prefixes_from_rows(rows)


class TestCachedSanitizer:
    """The live corpus's stage 1: one weighted call over its distinct
    raw paths."""

    def test_bit_identical_to_pathset_sanitize(self):
        ixp = frozenset({500})
        raw = [
            (),  # empty: discarded short
            (1, 2, 3),
            (1, 1, 2, 2, 3),  # prepending
            (1, 64512, 3),  # reserved ASN: discarded
            (1, 500, 3),  # IXP hop spliced out
            (1, 500, 1, 3),  # IXP splice exposes prepending
            (1, 2, 1),  # loop: discarded
            (7,),  # short after cleaning
            (1, 2, 3),  # duplicate
            (500, 2),  # IXP removal leaves a short path
            (1, 1, 64500, 2),  # prepending AND reserved: both counted
        ] * 2
        rows = [
            RibRecord(
                prefix=Prefix.parse(f"10.0.{i}.0/24"),
                peer_asn=1,
                as_path=path,
                communities=(),
            )
            for i, path in enumerate(raw)
        ]
        corpus = LiveCorpus(rows, ixp_asns=ixp)
        _assert_views_match_batch(corpus, ixp)
        # withdraw everything, then re-announce it
        corpus.apply([_withdraw(row) for row in rows])
        _assert_views_match_batch(corpus, ixp)
        assert len(corpus.sanitized()) == 0
        corpus.apply([_announce(row) for row in rows])
        _assert_views_match_batch(corpus, ixp)

    def test_real_corpus_equivalence(self):
        graph, rows = _world()
        ixp = graph.ixp_asns()
        _assert_views_match_batch(LiveCorpus(rows, ixp_asns=ixp), ixp)

    def test_withdrawn_raw_paths_leave_no_entry(self):
        graph, rows = _world()
        corpus = LiveCorpus(rows[:20], ixp_asns=graph.ixp_asns())
        corpus.sanitized()
        fresh = [
            RibRecord(
                prefix=Prefix.parse(f"10.{i // 256}.{i % 256}.0/24"),
                peer_asn=7,
                as_path=(7, 8, 70000 + i),
                communities=(),
            )
            for i in range(300)
        ]
        corpus.apply([_announce(row) for row in fresh])
        corpus.sanitized()
        corpus.prefixes_by_asn()
        corpus.apply([_withdraw(row) for row in fresh])
        corpus.sanitized()
        corpus.prefixes_by_asn()
        # nothing reachable from the corpus holds one of the raw paths
        # or their origins any more
        paths = {id(row.as_path) for row in fresh}
        origins = {row.as_path[-1] for row in fresh}
        seen, todo = set(), [corpus]
        while todo:
            obj = todo.pop()
            if id(obj) in seen or isinstance(obj, (type, types.ModuleType)):
                continue
            seen.add(id(obj))
            assert id(obj) not in paths
            assert type(obj) is not int or obj not in origins
            todo.extend(gc.get_referents(obj))


#: raw paths covering every stage-1 outcome; several clean to the same
#: path, so one kept path is carried by different raw paths and keys
_RAW_POOL = (
    (1, 2, 3),
    (1, 1, 2, 3),  # prepending -> (1, 2, 3)
    (1, 500, 2, 3),  # IXP hop -> (1, 2, 3)
    (1, 500, 1, 2),  # IXP splice exposes prepending -> (1, 2)
    (1, 2),
    (2, 64512, 3),  # reserved ASN
    (1, 2, 1),  # loop
    (7,),  # short
    (),  # empty: short, and no origin for the prefix map
    (3, 2, 4),
    (4, 3, 2, 1),
    (2, 3),
)
_POOL_IXP = frozenset({500})
_POOL_PREFIXES = tuple(Prefix.parse(f"10.0.{i}.0/24") for i in range(5))
_POOL_PEERS = (1, 2, 3)


def _pool_row(prefix_i, peer_i, path_i):
    return RibRecord(
        prefix=_POOL_PREFIXES[prefix_i],
        peer_asn=_POOL_PEERS[peer_i],
        as_path=_RAW_POOL[path_i],
        communities=(),
    )


_pool_key = st.tuples(
    st.integers(0, len(_POOL_PREFIXES) - 1),
    st.integers(0, len(_POOL_PEERS) - 1),
)
_pool_path = st.integers(0, len(_RAW_POOL) - 1)
_pool_op = st.one_of(
    st.tuples(st.just("announce"), _pool_key, _pool_path),
    st.tuples(st.just("withdraw"), _pool_key, st.just(0)),
    # withdraw, then re-announce the same key in the same batch
    st.tuples(st.just("flap"), _pool_key, _pool_path),
    # withdraw + announce of one prefix inside a single UPDATE
    st.tuples(st.just("replace"), _pool_key, _pool_path),
    # withdraw the smallest key carrying a raw path
    st.tuples(st.just("withdraw-first"), st.just((0, 0)), _pool_path),
)


class TestMaintainedViews:
    @settings(max_examples=150, deadline=None)
    @given(
        base=st.lists(st.tuples(_pool_key, _pool_path), max_size=15),
        batches=st.lists(
            st.tuples(st.lists(_pool_op, max_size=8), st.booleans()),
            max_size=6,
        ),
    )
    def test_views_equal_batch_definitions(self, base, batches):
        corpus = LiveCorpus(
            [_pool_row(*key, path) for key, path in base],
            ixp_asns=_POOL_IXP,
        )
        _assert_views_match_batch(corpus, _POOL_IXP)
        for ops, publish in batches:
            updates = []
            for kind, key, path_i in ops:
                row = _pool_row(*key, path_i)
                if kind == "withdraw-first":
                    carriers = [
                        r
                        for r in corpus.rows()
                        if r.as_path == _RAW_POOL[path_i]
                    ]
                    if carriers:
                        updates.append(_withdraw(carriers[0]))
                elif kind == "withdraw":
                    updates.append(_withdraw(row))
                elif kind == "announce":
                    updates.append(_announce(row))
                elif kind == "flap":
                    updates += [_withdraw(row), _announce(row)]
                else:
                    updates.append(
                        UpdateRecord(
                            peer_asn=row.peer_asn,
                            local_asn=COLLECTOR_ASN,
                            as_path=row.as_path,
                            announced=(row.prefix,),
                            communities=(),
                            withdrawn=(row.prefix,),
                        )
                    )
            corpus.apply(updates)
            # views read only at "publishes": changes from several
            # batches may fold in at once
            if publish:
                _assert_views_match_batch(corpus, _POOL_IXP)
        _assert_views_match_batch(corpus, _POOL_IXP)


class TestUpdateBatches:
    def test_batches_flatten_to_full_dump(self, tmp_path):
        graph = generate_topology(GeneratorConfig(n_ases=60, seed=3))
        corpus = Collector(graph, CollectorConfig(n_vps=4, seed=3)).run()
        dump = str(tmp_path / "updates.mrt")
        write_update_dump(dump, corpus.rib)
        flat = [
            record
            for batch in iter_update_batches(dump, batch_size=7)
            for record in batch
        ]
        assert flat == read_update_dump(dump)
        sizes = [
            len(batch) for batch in iter_update_batches(dump, batch_size=7)
        ]
        assert all(size == 7 for size in sizes[:-1])
        assert 1 <= sizes[-1] <= 7

    def test_batch_size_validated(self, tmp_path):
        dump = str(tmp_path / "empty.mrt")
        open(dump, "wb").close()
        with pytest.raises(ValueError):
            list(iter_update_batches(dump, batch_size=0))
        assert list(iter_update_batches(dump)) == []


class TestIngestLevels:
    @pytest.fixture(scope="class")
    def seeded(self):
        graph, rows = _world()
        ingestor = StreamIngestor(
            ixp_asns=graph.ixp_asns(), base_rows=rows
        )
        ingestor.publish()
        return graph, rows, ingestor

    def test_noop_reuses_snapshot(self):
        graph, rows = _world()
        ingestor = StreamIngestor(ixp_asns=graph.ixp_asns(), base_rows=rows)
        first = ingestor.publish()
        ingestor.apply_batch([_announce(rows[0])])
        second = ingestor.publish()
        assert second is first  # the object, not just the version
        assert ingestor.stats.noop_publishes == 1

    def test_new_prefix_is_full_not_noop(self):
        graph, rows = _world()
        ixp = graph.ixp_asns()
        ingestor = StreamIngestor(ixp_asns=ixp, base_rows=rows)
        first = ingestor.publish()
        # same corpus paths, new prefix: cone_prefixes change, so the
        # version must change — and match the batch oracle
        ingestor.apply_batch(
            [_announce(rows[0], prefix=Prefix.parse("198.51.100.0/24"))]
        )
        second = ingestor.publish()
        assert ingestor.stats.last_publish_mode == "full"
        assert second.version != first.version
        assert second.version == _oracle_version(ingestor, ixp)

    def test_new_link_falls_back_to_full(self):
        graph, rows = _world()
        ixp = graph.ixp_asns()
        ingestor = StreamIngestor(ixp_asns=ixp, base_rows=rows)
        ingestor.publish()
        live = ingestor.live
        links = live.filtered.links()
        asns = sorted(live.filtered.asns())
        # extend an existing path by one previously-unlinked AS so the
        # announcement introduces a genuinely new link
        path = None
        for old in live.filtered.paths:
            for extra in asns:
                pair = canonical_pair(old[-1], extra)
                if extra not in old and pair not in links:
                    path = old + (extra,)
                    break
            if path is not None:
                break
        assert path is not None
        ingestor.apply_batch(
            [
                UpdateRecord(
                    peer_asn=path[0],
                    local_asn=COLLECTOR_ASN,
                    as_path=path,
                    announced=(Prefix.parse("192.0.2.0/24"),),
                    communities=(),
                )
            ]
        )
        snapshot = ingestor.publish()
        assert ingestor.stats.last_publish_mode == "full"
        # the new link reached the corpus (the poison filter may drop it)
        assert canonical_pair(*path[-2:]) in ingestor.live.facade.paths.links()
        assert snapshot.version == _oracle_version(ingestor, ixp)

    def test_withdrawal_shrinking_corpus_is_full(self):
        graph, rows = _world()
        ixp = graph.ixp_asns()
        ingestor = StreamIngestor(ixp_asns=ixp, base_rows=rows)
        ingestor.publish()
        # withdraw every row carrying some path so the corpus shrinks
        victim_path = rows[0].as_path
        victims = [r for r in rows if r.as_path == victim_path]
        ingestor.apply_batch([_withdraw(r) for r in victims])
        snapshot = ingestor.publish()
        assert ingestor.stats.last_publish_mode == "full"
        assert ingestor.stats.withdrawals == len(victims)
        assert snapshot.version == _oracle_version(ingestor, ixp)

    def test_churn_sequence_stays_bit_identical(self):
        graph, rows = _world(seed=29)
        ixp = graph.ixp_asns()
        rng = random.Random(29)
        base = rows[: len(rows) * 3 // 5]
        held = rows[len(base):]
        ingestor = StreamIngestor(ixp_asns=ixp, base_rows=base)
        ingestor.publish()
        batches = [
            [_announce(r) for r in held[: len(held) // 2]],
            [_announce(r) for r in held[len(held) // 2:]]
            + [_withdraw(r) for r in rng.sample(base, 3)],
            [
                _announce(t, path=d.as_path)
                for t, d in zip(rng.sample(base, 4), rng.sample(rows, 4))
            ],
        ]
        for batch in batches:
            ingestor.apply_batch(batch)
            snapshot = ingestor.publish()
            assert snapshot.version == _oracle_version(ingestor, ixp)
            rows = ingestor.corpus.rows()
            reference = PathSet.sanitize(
                (row.as_path for row in rows), ixp_asns=ixp
            )
            assert ingestor.live.facade.paths.paths == reference.paths
            assert ingestor.live.facade.paths.counts == reference.counts
            assert ingestor.live.facade.paths.stats == reference.stats
            assert ingestor.live.prefixes_by_asn == prefixes_from_rows(rows)
        assert ingestor.stats.publishes == 4
        assert ingestor.stats.batches == 3
        # every batch changes the corpus: no publish may be a noop
        assert ingestor.stats.noop_publishes == 0
        assert ingestor.stats.full_publishes == 4

    def test_first_key_move_is_noop(self):
        graph, rows = _world()
        ixp = graph.ixp_asns()
        ingestor = StreamIngestor(ixp_asns=ixp, base_rows=rows)
        before = ingestor.publish()
        table = ingestor.corpus.rows()
        cleaned = [clean_path(row.as_path, ixp).path for row in table]
        carriers = Counter(cleaned)
        first = {}
        for at, path in enumerate(cleaned):
            first.setdefault(path, at)
        # re-announce under an earlier key a path that first shows up
        # at a later one, same origin; the key's old path keeps another
        # row, so the corpus and the prefix map keep their contents and
        # only the first key carrying the path moves
        row, donor = next(
            (table[i], table[j])
            for j, path in enumerate(cleaned)
            if path is not None and first[path] == j
            for i in range(j)
            if cleaned[i] not in (None, path)
            and carriers[cleaned[i]] > 1
            and table[i].as_path[-1] == table[j].as_path[-1]
        )
        ingestor.apply_batch([_announce(row, path=donor.as_path)])
        snapshot = ingestor.publish()
        assert ingestor.stats.last_publish_mode == "noop"
        assert snapshot is before
        assert snapshot.version == _oracle_version(ingestor, ixp)

    def test_link_counters_equal_the_link_set_differences(self):
        graph, rows = _world(seed=31)
        rng = random.Random(31)
        base = rows[: len(rows) // 2]
        held = rows[len(base):]
        ingestor = StreamIngestor(ixp_asns=graph.ixp_asns(), base_rows=base)
        ingestor.publish()
        # the first publish adds every link
        added, removed = len(ingestor.live.filtered.links()), 0
        assert ingestor.stats.links_added == added
        asns = sorted(graph.asns())
        for step in range(6):
            before = set(ingestor.live.filtered.links())
            # grow the table, shrink it, and extend paths by one AS
            batch = [_announce(r) for r in held[step::6]]
            batch += [_withdraw(r) for r in rng.sample(base, 40)]
            batch += [
                _announce(r, path=r.as_path + (extra,))
                for r in rng.sample(base, 3)
                for extra in [rng.choice(asns)]
                if extra not in r.as_path
            ]
            ingestor.apply_batch(batch)
            ingestor.publish()
            after = ingestor.live.filtered.links()
            added += len(after - before)
            removed += len(before - after)
            assert ingestor.stats.links_added == added
            assert ingestor.stats.links_removed == removed
        assert added and removed

    def test_stats_counters(self, seeded):
        _graph, _rows, ingestor = seeded
        status = ingestor.status()
        assert status["publishes"] == ingestor.stats.publishes
        assert status["table_rows"] == len(ingestor.corpus)
        assert status["last_publish_version"] is not None
        assert "last_publish_age_s" in status
        assert status["full_publishes"] == 1
        assert status["last_publish_mode"] == "full"


class TestServing:
    def test_hot_publish_and_stream_route(self):
        import json
        from urllib.request import urlopen

        from repro.serve.server import ServerThread
        from repro.serve.store import SnapshotStore

        graph, rows = _world(seed=17, n_ases=80, n_vps=5)
        ixp = graph.ixp_asns()
        base = rows[: len(rows) // 2]
        ingestor = StreamIngestor(ixp_asns=ixp, base_rows=base)
        first = ingestor.publish()
        store = SnapshotStore(snapshot=first)
        ingestor.publisher = StorePublisher(store)
        with ServerThread(store, ingest_status=ingestor.status) as (
            host,
            port,
        ):
            def get(route):
                with urlopen(
                    f"http://{host}:{port}{route}", timeout=10
                ) as response:
                    return json.load(response)

            assert get("/snapshot")["version"] == first.version
            status = get("/stream")
            assert status["publishes"] == 1
            assert status["serving_version"] == first.version
            assert get("/metrics")["ingest"]["publishes"] == 1

            # hot publish: the served version must converge
            ingestor.apply_batch([_announce(r) for r in rows[len(base):]])
            second = ingestor.publish()
            assert second.version != first.version
            assert get("/snapshot")["version"] == second.version
            assert get("/stream")["last_publish_version"] == second.version

    def test_stream_route_404_without_ingestor(self):
        from repro.serve.handlers import Api
        from repro.serve.store import SnapshotStore

        graph, rows = _world(seed=17, n_ases=80, n_vps=5)
        snapshot = asrank_from_rib_rows(
            rows, ixp_asns=graph.ixp_asns()
        ).snapshot(source="test")
        api = Api(SnapshotStore(snapshot=snapshot))
        status, payload, _route, _cacheable = api.handle(
            "GET", "/stream", {}
        )
        assert status == 404
        assert "no stream attached" in payload["error"]
