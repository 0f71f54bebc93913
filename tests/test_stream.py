"""Unit tests for repro.stream: live corpus, delta apply, publishers."""

import random

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
from repro.qa.oracles import reference_sanitize
from repro.relationships import canonical_pair
from repro.stream import (
    LiveCorpus,
    StorePublisher,
    StreamIngestor,
    asrank_from_rib_rows,
    prefixes_from_rows,
)
from repro.stream.delta import _LATE_STEPS, _partial_vps
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

    def test_dirty_tracking(self):
        _graph, rows = _world()
        corpus = LiveCorpus(rows)
        assert corpus.dirty_fraction() == 0.0
        # re-announcing an identical row is not dirty
        corpus.apply([_announce(rows[0])])
        assert corpus.dirty_fraction() == 0.0
        corpus.apply([_withdraw(rows[1])])
        assert len(corpus.dirty_keys) == 1
        corpus.clear_dirty()
        assert corpus.dirty_fraction() == 0.0

    def test_prefixes_from_rows_matches_facade_derivation(self):
        _graph, rows = _world()
        derived = prefixes_from_rows(rows)
        assert set(derived) == {r.as_path[-1] for r in rows if r.as_path}
        for prefixes in derived.values():
            assert prefixes == sorted(prefixes)


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
    """The live corpus's maintained, memoized stage-1 cleaning."""

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
        # withdraw everything, then re-announce it: the second fill is
        # all memo hits and must still match the uncached reference
        corpus.apply([_withdraw(row) for row in rows])
        _assert_views_match_batch(corpus, ixp)
        assert len(corpus.sanitized()) == 0
        corpus.apply([_announce(row) for row in rows])
        _assert_views_match_batch(corpus, ixp)

    def test_real_corpus_equivalence(self):
        graph, rows = _world()
        ixp = graph.ixp_asns()
        _assert_views_match_batch(LiveCorpus(rows, ixp_asns=ixp), ixp)


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

    def test_new_prefix_is_delta_not_noop(self):
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
        assert ingestor.stats.last_publish_mode == "delta"
        assert second.version != first.version
        assert second.version == _oracle_version(ingestor, ixp)

    @staticmethod
    def _truncation_batch(ingestor):
        """Announcements of truncated corpus paths that a delta publish
        accepts: no new link, no partial-VP head, early-step labels."""
        live = ingestor.live
        result = live.result
        origins = {path[-1] for path in live.filtered.paths}
        partial = _partial_vps(
            live.filtered, ingestor.config.partial_vp_coverage
        )
        existing = set(live.filtered.paths)
        batch = []
        for path in live.filtered.paths:
            for cut in range(3, len(path)):
                t = path[:cut]
                if t in existing or t[-1] not in origins:
                    continue
                if t[0] in partial:
                    continue
                steps = [
                    result._step.get(canonical_pair(a, b))
                    for a, b in zip(t, t[1:])
                ]
                if any(s is None or s in _LATE_STEPS for s in steps):
                    continue
                existing.add(t)
                batch.append(
                    UpdateRecord(
                        peer_asn=t[0],
                        local_asn=COLLECTOR_ASN,
                        as_path=t,
                        announced=(
                            Prefix.parse(f"203.0.{113 + len(batch)}.0/24"),
                        ),
                        communities=(),
                    )
                )
            if len(batch) >= 4:
                break
        assert batch, "world must yield delta-eligible truncations"
        return batch

    def test_truncated_path_batch_is_delta(self):
        graph, rows = _world()
        ixp = graph.ixp_asns()
        ingestor = StreamIngestor(ixp_asns=ixp, base_rows=rows)
        ingestor.publish()
        ingestor.apply_batch(self._truncation_batch(ingestor))
        snapshot = ingestor.publish()
        assert ingestor.stats.delta_publishes >= 1
        assert ingestor.stats.last_publish_mode == "delta"
        assert snapshot.version == _oracle_version(ingestor, ixp)

    @staticmethod
    def _splice_batch(ingestor):
        """Up to four announcements of spliced corpus paths (a prefix of
        one path up to an interior AS, then another path's suffix after
        it) that pass the poison filter, use only early-step labels and
        add ASes to some provider/peer-observed cone."""
        from repro.core.cone import ConeDefinition
        from repro.relationships import Relationship

        live = ingestor.live
        result = live.result
        paths = live.filtered.paths
        ppdc = live.facade.cones(ConeDefinition.PROVIDER_PEER_OBSERVED)
        clique = set(result.clique.members)
        partial = _partial_vps(
            live.filtered, ingestor.config.partial_vp_coverage
        )
        existing = set(paths)

        def eligible(t):
            if t in existing or len(set(t)) != len(t):
                return False
            at = [i for i, asn in enumerate(t) if asn in clique]
            if len(at) > 2 or (len(at) == 2 and at[1] != at[0] + 1):
                return False  # the poison filter would drop it
            steps = [
                result._step.get(canonical_pair(a, b))
                for a, b in zip(t, t[1:])
            ]
            return not any(s is None or s in _LATE_STEPS for s in steps)

        def widens_a_cone(t):
            for i in range(1, len(t) - 1):
                up = t[i - 1]
                entered = (
                    result.relationship(up, t[i]) is Relationship.P2P
                    or result.provider_of(up, t[i]) == up
                )
                if entered and set(t[i + 1:]) - ppdc.cone(t[i]):
                    return True
            return False

        picked = []
        for a in paths:
            if a[0] in partial:
                continue
            for i in range(1, len(a) - 1):
                for b in paths:
                    if a[i] not in b[1:-1]:
                        continue
                    t = a[:i + 1] + b[b.index(a[i]) + 1:]
                    if eligible(t) and widens_a_cone(t):
                        existing.add(t)
                        picked.append(t)
                        if len(picked) == 4:
                            break
                if len(picked) == 4:
                    break
            if len(picked) == 4:
                break
        assert picked, "world must yield delta-eligible splices"
        return [
            UpdateRecord(
                peer_asn=t[0],
                local_asn=COLLECTOR_ASN,
                as_path=t,
                announced=(Prefix.parse(f"203.0.{113 + n}.0/24"),),
                communities=(),
            )
            for n, t in enumerate(picked)
        ]

    def test_delta_commit_extends_the_flat_index(self):
        from repro.core.cone import (
            ConeDefinition,
            _bgp_observed_bits,
            _ppdc_bits,
        )

        graph, rows = _world()
        ixp = graph.ixp_asns()
        ingestor = StreamIngestor(ixp_asns=ixp, base_rows=rows)
        ingestor.publish()
        result = ingestor.live.result
        old_paths = list(result.paths.paths)
        old_ppdc = list(
            ingestor.live.bits[ConeDefinition.PROVIDER_PEER_OBSERVED]
        )
        ingestor.apply_batch(self._splice_batch(ingestor))
        ingestor.publish()
        assert ingestor.stats.last_publish_mode == "delta"
        live = ingestor.live
        assert live.result is result  # extended in place
        known = set(old_paths)
        added = [p for p in live.filtered.paths if p not in known]
        assert added
        # the flat index holds the old paths, then the new ones appended
        off = result._path_off
        asns = result.index.asns
        indexed = [
            tuple(asns[i] for i in result._node_pid[s:e].tolist())
            for s, e in zip(off, off[1:])
        ]
        assert indexed == old_paths + added
        key_lid = result._key_lid
        for p, path in enumerate(indexed):
            h0 = off[p] - p
            assert result._hop_lid[h0:h0 + len(path) - 1] == [
                key_lid[(min(a, b) << 32) | max(a, b)]
                for a, b in zip(path, path[1:])
            ]
        # the link -> paths CSR describes the old corpus only: dropped
        assert result._lpath_pid is None and result._lpath_off is None
        # the commit OR-ed in exactly what the extended index yields...
        bgp = live.bits[ConeDefinition.BGP_OBSERVED]
        ppdc = live.bits[ConeDefinition.PROVIDER_PEER_OBSERVED]
        assert ppdc != old_ppdc  # the splices widened some cone
        assert _bgp_observed_bits(result) == bgp
        assert _ppdc_bits(result) == ppdc
        # ...and what a batch build over the same table computes
        batch = asrank_from_rib_rows(ingestor.corpus.rows(), ixp_asns=ixp)
        assert batch.result.index.asns == asns
        assert batch.cones(ConeDefinition.BGP_OBSERVED).bits == bgp
        assert (
            batch.cones(ConeDefinition.PROVIDER_PEER_OBSERVED).bits == ppdc
        )

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
        assert ingestor.stats.fallbacks  # a delta refusal was recorded
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

    def test_zero_threshold_forces_full(self):
        graph, rows = _world()
        ixp = graph.ixp_asns()
        ingestor = StreamIngestor(
            ixp_asns=ixp, base_rows=rows, full_threshold=0.0
        )
        ingestor.publish()
        ingestor.apply_batch(
            [_announce(rows[0], prefix=Prefix.parse("198.51.100.0/24"))]
        )
        ingestor.publish()
        assert ingestor.stats.last_publish_mode == "full"
        assert ingestor.stats.fallbacks.get("dirty-threshold") == 1

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
            assert ingestor.live.sanitized.paths == reference.paths
            assert ingestor.live.sanitized.counts == reference.counts
            assert ingestor.live.sanitized.stats == reference.stats
            assert ingestor.live.prefixes_by_asn == prefixes_from_rows(rows)
        assert ingestor.stats.publishes == 4
        assert ingestor.stats.batches == 3
        # the publish levels this sequence takes are pinned: a cheaper
        # refusal must not change which level a publish lands on
        assert ingestor.stats.noop_publishes == 0
        assert ingestor.stats.delta_publishes == 0
        assert ingestor.stats.full_publishes == 4

    @pytest.fixture
    def clique_forbidden(self, monkeypatch):
        """Make any clique inference inside the delta path fail loudly."""
        import repro.stream.delta as delta

        def forbidden(*_args, **_kwargs):
            raise AssertionError("infer_clique called by a cheap refusal")

        monkeypatch.setattr(delta, "infer_clique", forbidden)

    def test_withdrawal_refused_before_clique(self, clique_forbidden):
        graph, rows = _world()
        ixp = graph.ixp_asns()
        ingestor = StreamIngestor(ixp_asns=ixp, base_rows=rows)
        ingestor.publish()
        # withdraw every row of one path that survived the poison filter
        victim = ingestor.live.filtered.paths[0]
        ingestor.apply_batch(
            [
                _withdraw(row)
                for row in rows
                if PathSet.sanitize([row.as_path], ixp_asns=ixp).paths
                == [victim]
            ]
        )
        snapshot = ingestor.publish()
        assert ingestor.stats.last_publish_mode == "full"
        assert ingestor.stats.fallbacks.get("paths-removed") == 1
        assert snapshot.version == _oracle_version(ingestor, ixp)

    def test_reordering_refused_before_clique(self, clique_forbidden):
        graph, rows = _world()
        ixp = graph.ixp_asns()
        ingestor = StreamIngestor(ixp_asns=ixp, base_rows=rows)
        ingestor.publish()
        # re-announce the last path under a key below every other key:
        # the corpus keeps its paths, but that one moves to the front
        mover = next(
            row
            for row in reversed(ingestor.corpus.rows())
            if PathSet.sanitize([row.as_path], ixp_asns=ixp).paths
            == [ingestor.live.filtered.paths[-1]]
        )
        front = Prefix.parse("0.0.0.0/32")
        assert (front, mover.peer_asn) < min(ingestor.corpus.table)
        ingestor.apply_batch([_announce(mover, prefix=front)])
        snapshot = ingestor.publish()
        assert ingestor.stats.last_publish_mode == "full"
        assert ingestor.stats.fallbacks.get("paths-reordered") == 1
        assert snapshot.version == _oracle_version(ingestor, ixp)

    def test_stats_counters(self, seeded):
        _graph, _rows, ingestor = seeded
        status = ingestor.status()
        assert status["publishes"] == ingestor.stats.publishes
        assert status["table_rows"] == len(ingestor.corpus)
        assert status["last_publish_version"] is not None
        assert "last_publish_age_s" in status
        assert status["fallbacks"].get("cold-start") == 1


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
