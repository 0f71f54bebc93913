"""The ten invariant families the QA sweep asserts per world.

Every checker returns a list of :class:`Violation` (empty = clean)
instead of raising, so one sweep reports everything it finds and the
runner can shrink each failure independently.

The cone-nesting family checks what the algorithm actually guarantees:
``bgp-observed ⊆ recursive`` is a theorem (a descending run is a p2c
chain, hence inside the closure), while per-AS ``ppdc ⊇ bgp-observed``
is *not* — a single-VP world observes descending runs from the vantage
point itself, which by definition is never entered from a provider or
peer (see docs/INVARIANTS.md).  Each definition is instead pinned to
its reference oracle, which is strictly stronger.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, replace
from typing import (
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.cone import ConeDefinition, CustomerCones
from repro.core.inference import (
    InferenceConfig,
    InferenceResult,
    infer_relationships,
)
from repro.core.paths import PathSet
from repro.core.rank import rank_ases
from repro.datasets.serialization import (
    load_as_rel,
    load_paths,
    load_ppdc_ases,
    save_as_rel,
    save_paths,
    save_ppdc_ases,
)
from repro.graph import RelGraph
from repro.qa.oracles import (
    REFERENCE_CONES,
    ReferenceCollector,
    propagate_origin,
    reference_degrees,
    reference_infer_relationships,
    reference_rank_ases,
    reference_ranked_asns,
    reference_sanitize,
)
from repro.relationships import Relationship


@dataclass(frozen=True)
class Violation:
    """One invariant failure, attributable to a world and a checker."""

    invariant: str
    world: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.world}] {self.invariant}: {self.detail}"


def _label_map(
    result: InferenceResult,
) -> Dict[Tuple[int, int], Tuple[Relationship, object, object]]:
    """Canonical pair -> (relationship, provider, step) for comparison."""
    return {
        (rel.a, rel.b): (rel.relationship, rel.provider, rel.step)
        for rel in result
    }


@functools.lru_cache(maxsize=2)
def _facade(result: InferenceResult):
    """The :class:`~repro.asrank.ASRank` facade over ``result`` itself
    (no prefix map), shared by every checker of the world, so each
    ``(result, definition)`` cone is computed once.  A world has two
    results (family 1's and the one families 4–8 ride on); the memo
    holds those two, since a facade refers to its result and a weak
    memo could never let go of it."""
    from repro.asrank import ASRank

    facade = ASRank(result.paths, config=result.config)
    facade._result = result
    return facade


def _cones(
    result: InferenceResult, definition: ConeDefinition
) -> Dict[int, Set[int]]:
    """``compute_cones(result, definition)``, computed once per result."""
    return _facade(result).cones(definition).cones


def _cone_sets(result: InferenceResult) -> Dict[str, Dict[int, Set[int]]]:
    return {
        definition.value: _cones(result, definition)
        for definition in ConeDefinition
    }


def _reference_cone_sets(
    result: InferenceResult,
) -> Dict[str, Dict[int, Set[int]]]:
    return {
        definition.value: oracle(result)
        for definition, oracle in REFERENCE_CONES.items()
    }


def _pathset_violations(
    got: PathSet, want: PathSet, invariant: str, world: str
) -> List[Violation]:
    """``got`` and ``want`` must hold the same paths in the same order,
    the same multiplicities and the same :class:`SanitizeStats`."""
    differ = [
        name
        for name, a, b in (
            ("paths", got.paths, want.paths),
            ("counts", got.counts, want.counts),
            ("stats", got.stats, want.stats),
        )
        if a != b
    ]
    if not differ:
        return []
    return [
        Violation(
            invariant,
            world,
            f"{', '.join(differ)} differ ({len(got)} vs {len(want)} paths; "
            f"stats {got.stats} vs {want.stats})",
        )
    ]


def _degree_violations(paths: PathSet, world: str) -> List[Violation]:
    """``paths``'s ASNs, links, node and transit degrees and S2 ranking
    must equal those the oracle builds one path at a time
    (:func:`~repro.qa.oracles.reference_degrees`)."""
    node, transit = reference_degrees(paths)
    links = {
        (a, b) for a, neighbors in node.items() for b in neighbors if a <= b
    }
    differ = [
        name
        for name, same in (
            ("asns", paths.asns() == set(node)),
            ("links", paths.links() == links),
            ("node degree", all(
                paths.node_degree(asn) == len(n) for asn, n in node.items()
            )),
            ("transit degree", all(
                paths.transit_degree(asn) == len(transit.get(asn, ()))
                for asn in node
            )),
            ("ranking", paths.ranked_asns() == reference_ranked_asns(paths)),
        )
        if not same
    ]
    if not differ:
        return []
    return [
        Violation(
            "differential/degrees",
            world,
            f"{', '.join(differ)} differ over {len(paths)} paths",
        )
    ]


def _links_violations(
    fast: InferenceResult, ref: InferenceResult, invariant: str, world: str
) -> List[Violation]:
    """The two engines' label maps must be equal."""
    fast_labels, ref_labels = _label_map(fast), _label_map(ref)
    if fast_labels == ref_labels:
        return []
    only_fast = sorted(set(fast_labels) - set(ref_labels))[:3]
    only_ref = sorted(set(ref_labels) - set(fast_labels))[:3]
    mismatched = sorted(
        pair
        for pair in set(fast_labels) & set(ref_labels)
        if fast_labels[pair] != ref_labels[pair]
    )[:3]
    return [
        Violation(
            invariant,
            world,
            f"label maps differ (fast {len(fast_labels)} links, ref "
            f"{len(ref_labels)}): fast-only {only_fast}, ref-only "
            f"{only_ref}, relabeled {mismatched}",
        )
    ]


# ---------------------------------------------------------------------------
# family 1: production engine vs reference oracle differential
# ---------------------------------------------------------------------------


def check_differential(
    raw_paths: Iterable[Sequence[int]],
    ixp_asns: FrozenSet[int],
    world: str,
    config: InferenceConfig = InferenceConfig(),
    prefixes_by_asn: Optional[Mapping[int, Sequence[object]]] = None,
) -> Tuple[List[Violation], InferenceResult]:
    """The production engine and the reference oracle
    (:func:`~repro.qa.oracles.reference_infer_relationships`, cones by
    the ``reference_*_cones`` oracles, stage 1 by
    :func:`~repro.qa.oracles.reference_sanitize`, the rank table by
    :func:`~repro.qa.oracles.reference_rank_ases` with
    ``prefixes_by_asn`` attached) must agree bit for bit.

    Returns the violations plus the production result so downstream
    families can reuse it without re-running inference.
    """
    violations: List[Violation] = []
    raw_paths = list(raw_paths)
    paths = PathSet.sanitize(raw_paths, ixp_asns=ixp_asns)
    violations.extend(
        _pathset_violations(
            paths,
            reference_sanitize(raw_paths, ixp_asns=ixp_asns),
            "differential/sanitize",
            world,
        )
    )
    fast = infer_relationships(paths, config)
    ref = reference_infer_relationships(paths, config)
    # the pre- and post-poison-filter corpora (one object when the
    # filter dropped nothing)
    for corpus in {id(paths): paths, id(fast.paths): fast.paths}.values():
        violations.extend(_degree_violations(corpus, world))

    for name, result in (("fast", fast), ("ref", ref)):
        if result.index.asns != sorted(result.paths.asns()):
            detail = "index is not the corpus's sorted AS set"
        elif RelGraph.of(result).index is not result.index:
            detail = "RelGraph did not adopt the result's index"
        else:
            continue
        violations.append(
            Violation(
                "differential/index",
                world,
                f"{name}: {detail} ({len(result.index)} ids, "
                f"{len(result.paths.asns())} corpus ASes)",
            )
        )

    for name in ("members", "seed_members", "added_members", "considered"):
        mine, theirs = getattr(fast.clique, name), getattr(ref.clique, name)
        if mine != theirs:
            violations.append(
                Violation(
                    "differential/clique",
                    world,
                    f"{name}: fast {mine} != ref {theirs}",
                )
            )
    if fast.discarded_poisoned != ref.discarded_poisoned:
        violations.append(
            Violation(
                "differential/poisoned-filter",
                world,
                f"fast discarded {fast.discarded_poisoned}, "
                f"ref {ref.discarded_poisoned}",
            )
        )
    violations.extend(_links_violations(fast, ref, "differential/links",
                                        world))
    # the sibling leg: every third corpus link a known sibling, so the
    # sibling resets of the top-down sweep and the fold meet the oracle
    siblings = replace(
        config, known_siblings=frozenset(sorted(paths.links())[::3])
    )
    violations.extend(_links_violations(
        infer_relationships(paths, siblings),
        reference_infer_relationships(paths, siblings),
        "differential/siblings",
        world,
    ))
    fast_cones, ref_cones = _cone_sets(fast), _reference_cone_sets(ref)
    for name in fast_cones:
        if fast_cones[name] != ref_cones[name]:
            diff = [
                asn
                for asn in set(fast_cones[name]) | set(ref_cones[name])
                if fast_cones[name].get(asn) != ref_cones[name].get(asn)
            ]
            violations.append(
                Violation(
                    f"differential/cones/{name}",
                    world,
                    f"{len(diff)} cones differ, e.g. AS{sorted(diff)[:3]}",
                )
            )
    ppdc = ConeDefinition.PROVIDER_PEER_OBSERVED
    fast_ppdc = _facade(fast).cones(ppdc)
    got = rank_ases(fast, CustomerCones(
        ppdc, fast_ppdc.graph, fast_ppdc.bits, prefixes_by_asn
    ))
    want = reference_rank_ases(ref, ref_cones[ppdc.value], prefixes_by_asn)
    if got != want:
        at = next(
            (i for i, (a, b) in enumerate(zip(got, want)) if a != b),
            min(len(got), len(want)),
        )
        violations.append(
            Violation(
                "differential/rank",
                world,
                f"{len(got)} vs {len(want)} rows, first difference at "
                f"row {at + 1}: {got[at] if at < len(got) else None} vs "
                f"{want[at] if at < len(want) else None}",
            )
        )
    return violations, fast


# ---------------------------------------------------------------------------
# family 2: hierarchy (acyclic p2c, transit-free clique)
# ---------------------------------------------------------------------------


def check_hierarchy(result: InferenceResult, world: str) -> List[Violation]:
    """No c2p cycles; clique members have no providers and peer mutually."""
    violations: List[Violation] = []

    # Kahn's algorithm over the provider->customer adjacency: leftovers
    # after peeling every zero-in-degree node form a cycle
    indegree: Dict[int, int] = {}
    for provider, customers in result.customers.items():
        indegree.setdefault(provider, 0)
        for customer in customers:
            indegree[customer] = indegree.get(customer, 0) + 1
    frontier = [asn for asn, deg in indegree.items() if deg == 0]
    seen = 0
    while frontier:
        node = frontier.pop()
        seen += 1
        for customer in result.customers.get(node, ()):
            indegree[customer] -= 1
            if indegree[customer] == 0:
                frontier.append(customer)
    if seen != len(indegree):
        cyclic = sorted(asn for asn, deg in indegree.items() if deg > 0)
        violations.append(
            Violation(
                "hierarchy/p2c-cycle",
                world,
                f"{len(cyclic)} ASes on provider cycles, e.g. {cyclic[:5]}",
            )
        )

    members = result.clique.member_set
    for member in sorted(members):
        providers = result.providers_of_asn(member)
        if providers:
            violations.append(
                Violation(
                    "hierarchy/clique-transit-free",
                    world,
                    f"clique AS{member} has providers {sorted(providers)}",
                )
            )
    for a in sorted(members):
        for b in sorted(members):
            if a >= b:
                continue
            rel = result.relationship(a, b)
            if rel is Relationship.P2C:
                violations.append(
                    Violation(
                        "hierarchy/clique-p2p",
                        world,
                        f"clique pair AS{a}-AS{b} labeled p2c",
                    )
                )
    return violations


# ---------------------------------------------------------------------------
# family 3: cone oracles, nesting and monotonicity
# ---------------------------------------------------------------------------


def check_cones(result: InferenceResult, world: str) -> List[Violation]:
    violations: List[Violation] = []
    cones = {
        definition: _cones(result, definition)
        for definition in ConeDefinition
    }
    oracles = {
        definition: oracle(result)
        for definition, oracle in REFERENCE_CONES.items()
    }
    for definition, computed in cones.items():
        oracle = oracles[definition]
        for asn in set(computed) | set(oracle):
            if computed.get(asn, {asn}) != oracle.get(asn, {asn}):
                violations.append(
                    Violation(
                        f"cones/oracle/{definition.value}",
                        world,
                        f"AS{asn}: computed {sorted(computed.get(asn, ()))[:6]}"
                        f" != oracle {sorted(oracle.get(asn, ()))[:6]}",
                    )
                )
                break  # one per definition is enough to localize
        for asn, cone in computed.items():
            if asn not in cone:
                violations.append(
                    Violation(
                        f"cones/self/{definition.value}",
                        world,
                        f"AS{asn} missing from its own cone",
                    )
                )
                break

    recursive = cones[ConeDefinition.RECURSIVE]
    observed = cones[ConeDefinition.BGP_OBSERVED]
    for asn, cone in observed.items():
        if not cone <= recursive.get(asn, {asn}):
            extra = sorted(cone - recursive.get(asn, {asn}))
            violations.append(
                Violation(
                    "cones/nesting",
                    world,
                    f"bgp-observed cone of AS{asn} escapes the recursive "
                    f"closure: {extra[:5]}",
                )
            )
            break

    # monotonicity: a provider's recursive cone contains each customer's
    for provider, customers in result.customers.items():
        stop = False
        for customer in customers:
            inner = recursive.get(customer, {customer})
            outer = recursive.get(provider, {provider})
            if not (inner | {customer}) <= outer:
                violations.append(
                    Violation(
                        "cones/monotonic",
                        world,
                        f"recursive cone of AS{provider} misses part of "
                        f"customer AS{customer}'s cone",
                    )
                )
                stop = True
                break
        if stop:
            break
    return violations


# ---------------------------------------------------------------------------
# family 4: serialization and MRT round-trips
# ---------------------------------------------------------------------------


def check_round_trips(
    result: InferenceResult,
    corpus,
    directory: str,
    world: str,
    ixp_asns: FrozenSet[int] = frozenset(),
) -> List[Violation]:
    """``save_*``/``load_*`` and the MRT codecs must invert exactly, and
    ``ASRank.from_mrt`` (the columnar reader and the sanitize kernel)
    must build from every MRT file what the scalar chain builds."""
    from repro.mrt.reader import read_rib_dump
    from repro.mrt.updates import (
        read_update_dump,
        rib_from_updates,
        write_update_dump,
    )
    from repro.mrt.writer import MrtWriter, write_rib_dump

    violations: List[Violation] = []
    os.makedirs(directory, exist_ok=True)

    # as-rel
    as_rel_file = os.path.join(directory, "qa.as-rel.txt")
    save_as_rel(as_rel_file, result, comments=["qa round-trip"])
    expected_rows = set()
    for rel in result:
        if rel.relationship is Relationship.P2C:
            expected_rows.add((rel.provider, rel.customer, Relationship.P2C))
        else:
            expected_rows.add((rel.a, rel.b, rel.relationship))
    loaded_rows = set(load_as_rel(as_rel_file))
    if loaded_rows != expected_rows:
        violations.append(
            Violation(
                "round-trip/as-rel",
                world,
                f"{len(loaded_rows ^ expected_rows)} rows differ",
            )
        )

    # ppdc-ases
    ppdc_file = os.path.join(directory, "qa.ppdc-ases.txt")
    cones = _cones(result, ConeDefinition.PROVIDER_PEER_OBSERVED)
    save_ppdc_ases(ppdc_file, cones)
    loaded_cones = load_ppdc_ases(ppdc_file)
    if loaded_cones != cones:
        violations.append(
            Violation("round-trip/ppdc-ases", world, "cone mapping differs")
        )

    # path file
    paths_file = os.path.join(directory, "qa.paths.txt")
    save_paths(paths_file, result.paths.paths)
    if load_paths(paths_file) != list(result.paths.paths):
        violations.append(
            Violation("round-trip/paths", world, "path list differs")
        )

    # MRT RIB dump
    rib_file = os.path.join(directory, "qa.rib.mrt")
    write_rib_dump(rib_file, corpus.rib)
    original = {
        (entry.prefix, entry.vp): (tuple(entry.path), tuple(entry.communities))
        for entry in corpus.rib
    }
    rib_rows = read_rib_dump(rib_file)
    rebuilt = {
        (row.prefix, row.peer_asn): (row.as_path, row.communities)
        for row in rib_rows
    }
    if rebuilt != original:
        violations.append(
            Violation(
                "round-trip/mrt-rib",
                world,
                f"{len(set(rebuilt) ^ set(original))} key mismatches",
            )
        )

    # MRT update stream (announce-only burst)
    updates_file = os.path.join(directory, "qa.updates.mrt")
    write_update_dump(updates_file, corpus.rib)
    update_rows = rib_from_updates(read_update_dump(updates_file))
    rebuilt = {
        (row.prefix, row.peer_asn): (row.as_path, row.communities)
        for row in update_rows
    }
    if rebuilt != original:
        violations.append(
            Violation(
                "round-trip/mrt-updates",
                world,
                f"{len(set(rebuilt) ^ set(original))} key mismatches",
            )
        )

    # MRT update stream with withdrawals: withdraw every third row, then
    # re-announce every ninth with a fresh path — the rebuilt table must
    # equal applying those operations to the in-memory table
    withdrawn_file = os.path.join(directory, "qa.withdrawn.mrt")
    rows = sorted(
        corpus.rib, key=lambda e: (e.prefix, e.vp, e.path)
    )
    expected = dict(original)
    with open(withdrawn_file, "wb") as stream:
        writer = MrtWriter(stream)
        for entry in rows:
            writer.write_bgp4mp_update(
                peer_asn=entry.vp,
                local_asn=64700,
                as_path=tuple(entry.path),
                announced=(entry.prefix,),
                communities=tuple(entry.communities),
            )
        for i, entry in enumerate(rows):
            if i % 3 == 0:
                writer.write_bgp4mp_update(
                    peer_asn=entry.vp,
                    local_asn=64700,
                    as_path=(),
                    announced=(),
                    withdrawn=(entry.prefix,),
                )
                expected.pop((entry.prefix, entry.vp), None)
        for i, entry in enumerate(rows):
            if i % 9 == 0:
                new_path = (entry.vp,) + tuple(entry.path)[-1:]
                writer.write_bgp4mp_update(
                    peer_asn=entry.vp,
                    local_asn=64700,
                    as_path=new_path,
                    announced=(entry.prefix,),
                )
                expected[(entry.prefix, entry.vp)] = (new_path, ())
    withdrawn_rows = rib_from_updates(read_update_dump(withdrawn_file))
    rebuilt = {
        (row.prefix, row.peer_asn): (row.as_path, row.communities)
        for row in withdrawn_rows
    }
    if rebuilt != expected:
        violations.append(
            Violation(
                "round-trip/mrt-withdrawals",
                world,
                f"{len(set(rebuilt) ^ set(expected))} key mismatches after "
                "withdraw/re-announce",
            )
        )

    for mrt_file, rows in (
        (rib_file, rib_from_updates((), base=rib_rows)),
        (updates_file, update_rows),
        (withdrawn_file, withdrawn_rows),
    ):
        violations.extend(
            _from_mrt_violations(mrt_file, rows, ixp_asns, world)
        )
    return violations


def _from_mrt_violations(
    path: str, table, ixp_asns: FrozenSet[int], world: str
) -> List[Violation]:
    """``ASRank.from_mrt(path)`` against ``table``, the file's rows as
    ``MrtReader`` + ``rib_from_updates`` rebuild them, through
    :func:`reference_sanitize` and ``prefixes_from_rows``."""
    from repro.asrank import ASRank
    from repro.stream.corpus import prefixes_from_rows

    facade = ASRank.from_mrt(path, ixp_asns=ixp_asns)
    name = os.path.basename(path)
    violations = _pathset_violations(
        facade.paths,
        reference_sanitize((row.as_path for row in table), ixp_asns),
        f"round-trip/from-mrt-paths/{name}",
        world,
    )
    if facade.prefixes_by_asn != prefixes_from_rows(table):
        violations.append(
            Violation(
                f"round-trip/from-mrt-prefixes/{name}",
                world,
                "prefix map differs from prefixes_from_rows",
            )
        )
    return violations


# ---------------------------------------------------------------------------
# family 5: serial == parallel collection
# ---------------------------------------------------------------------------


def _corpus_key(corpus):
    return (
        corpus.paths,
        corpus.path_counts,
        [(r.vp, r.prefix, r.path, r.communities) for r in corpus.rib],
    )


def check_collection(
    world, worker_counts: Sequence[int] = (2, 3)
) -> List[Violation]:
    """Every worker count must reproduce the serial corpus bit for bit."""
    from repro.bgp.collector import Collector

    violations: List[Violation] = []
    serial_key = _corpus_key(world.corpus)
    for workers in worker_counts:
        config = replace(world.spec.collector, workers=workers)
        parallel = Collector(world.graph, config).run()
        if _corpus_key(parallel) != serial_key:
            violations.append(
                Violation(
                    "collection/serial-vs-parallel",
                    world.spec.label,
                    f"workers={workers} corpus differs from serial",
                )
            )
    return violations


# ---------------------------------------------------------------------------
# family 6: batched propagation == reference sweeps
# ---------------------------------------------------------------------------


def check_propagation(world) -> List[Violation]:
    """The batched engine must reproduce the reference corpus bit for bit.

    ``world.corpus`` is collected with the batched engine; this family
    re-collects with :class:`~repro.qa.oracles.ReferenceCollector` (the
    pure-Python one-origin-at-a-time sweeps) and with a deliberately
    awkward batch size, on both address planes.  Leaky world shapes
    exercise the per-row leak pass, and the v6 plane exercises the
    restricted :class:`~repro.bgp.propagation.GraphIndex`.
    """
    from repro.bgp.collector import Collector
    from repro.bgp.propagation import PropagationConfig

    violations: List[Violation] = []
    label = world.spec.label
    batched_key = _corpus_key(world.corpus)
    odd_batch = replace(
        world.spec.collector, propagation=PropagationConfig(batch_size=17)
    )
    variants = (
        ("reference", ReferenceCollector(world.graph, world.spec.collector)),
        ("odd-batch", Collector(world.graph, odd_batch)),
    )
    for name, collector in variants:
        if _corpus_key(collector.run()) != batched_key:
            violations.append(
                Violation(
                    f"propagation/{name}",
                    label,
                    "corpus differs from the batched engine's",
                )
            )

    # restricted (IPv6) plane: batched vs reference
    v6_batched = Collector(world.graph, world.spec.collector, plane="v6").run()
    v6_reference = ReferenceCollector(
        world.graph, world.spec.collector, plane="v6"
    ).run()
    if _corpus_key(v6_batched) != _corpus_key(v6_reference):
        violations.append(
            Violation(
                "propagation/v6-plane",
                label,
                "batched v6 corpus differs from reference",
            )
        )
    return violations


# ---------------------------------------------------------------------------
# family 7: snapshot-served answers == the in-memory facade's
# ---------------------------------------------------------------------------


def check_serving(
    result: InferenceResult, directory: str, world: str
) -> List[Violation]:
    """Everything the query service answers must be bit-identical to
    the :class:`~repro.asrank.ASRank` facade on the same world.

    Covers the whole serving pipeline: facade → snapshot compilation →
    file container round-trip (checksummed save/load) → the handler
    layer's JSON, for relationships (every inferred link plus absent
    pairs), cone membership under all three definitions, and the full
    rank table.
    """
    from repro.serve.handlers import Api
    from repro.serve.snapshot import Snapshot
    from repro.serve.store import SnapshotStore, load_snapshot, save_snapshot

    violations: List[Violation] = []
    facade = _facade(result)

    os.makedirs(directory, exist_ok=True)
    snapshot_file = os.path.join(directory, "qa.snapshot")
    save_snapshot(Snapshot.build(facade), snapshot_file)
    # mmap mode: the zero-copy load path must be bit-identical to the
    # facade too (it reads a copy of the file where mmap is unavailable)
    served = load_snapshot(snapshot_file, mode="mmap")

    # relationships + providers: every inferred link, bit for bit
    for a, b in result.links():
        if served.relationship(a, b) is not result.relationship(a, b) or (
            served.provider_of(a, b) != result.provider_of(a, b)
        ):
            violations.append(
                Violation(
                    "serving/relationship",
                    world,
                    f"AS{a}-AS{b}: served "
                    f"{served.relationship(a, b)}/"
                    f"{served.provider_of(a, b)} != facade "
                    f"{result.relationship(a, b)}/"
                    f"{result.provider_of(a, b)}",
                )
            )
            break
    # a non-link must stay a non-link (absent pairs answer 404)
    asns = sorted(result.paths.asns())
    linked = set(result.links())
    for a in asns[:10]:
        for b in asns[-10:]:
            pair = (a, b) if a <= b else (b, a)
            if a != b and pair not in linked:
                if served.relationship(a, b) is not None:
                    violations.append(
                        Violation(
                            "serving/phantom-link",
                            world,
                            f"AS{a}-AS{b} served a relationship the "
                            "facade never inferred",
                        )
                    )
                break

    # cones: all three definitions, every AS
    for definition in ConeDefinition:
        cones = facade.cones(definition)
        mismatch = next(
            (
                asn
                for asn in asns
                if served.cone(asn, definition) != cones.cone(asn)
            ),
            None,
        )
        if mismatch is not None:
            violations.append(
                Violation(
                    f"serving/cone/{definition.value}",
                    world,
                    f"AS{mismatch}: served cone differs from facade",
                )
            )

    # rank table: exact rows in exact order
    if served.ranks() != facade.rank():
        violations.append(
            Violation(
                "serving/rank",
                world,
                "served rank table differs from facade ranking",
            )
        )

    # the handler layer: JSON answers over the loaded snapshot
    api = Api(SnapshotStore(snapshot=served))
    for asn in asns[:5]:
        status, payload, _route, _c = api.handle("GET", f"/asns/{asn}", {})
        entry = served.rank_entry(asn)
        assert entry is not None
        if status != 200 or (
            payload["rank"],
            payload["cone"]["ases"],
            payload["neighbors"]["customers"],
            payload["neighbors"]["peers"],
            payload["neighbors"]["providers"],
        ) != (
            entry.rank,
            entry.cone_ases,
            len(result.customers_of_asn(asn)),
            len(result.peers_of_asn(asn)),
            len(result.providers_of_asn(asn)),
        ):
            violations.append(
                Violation(
                    "serving/handler-asn",
                    world,
                    f"/asns/{asn} JSON disagrees with the facade",
                )
            )
            break
        status, payload, _route, _c = api.handle(
            "GET", f"/asns/{asn}/cone",
            {"definition": "provider/peer-observed"},
        )
        if status != 200 or payload["members"] != sorted(
            facade.customer_cone(asn)
        ):
            violations.append(
                Violation(
                    "serving/handler-cone",
                    world,
                    f"/asns/{asn}/cone JSON disagrees with the facade",
                )
            )
            break
    return violations


def check_path_serving(
    result: InferenceResult, world: str
) -> List[Violation]:
    """Family 8: the path/what-if service equals the routing engine.

    Compiles the inference into a snapshot, drives the handler layer
    in-process, and independently recomputes every answer:

    * sampled ``GET /paths/{src}/{dst}`` responses must be bit-identical
      to :func:`propagate_batch` over the snapshot's own RelGraph;
    * an anycast query's winner and catchment must match an independent
      best-origin selection over those same tables;
    * a what-if diff (link drop + new peering + route leak) must be
      bit-identical to a from-scratch recompute: the mutated link rows
      rebuilt into a fresh RelGraph and propagated with the *reference*
      single-origin engine.
    """
    from repro.bgp.propagation import GraphIndex, propagate_batch
    from repro.graph.relgraph import RelGraph
    from repro.serve.handlers import Api
    from repro.serve.prediction import best_origin
    from repro.serve.snapshot import Snapshot
    from repro.serve.store import SnapshotStore
    import json

    violations: List[Violation] = []
    snapshot = Snapshot.build(_facade(result))
    api = Api(SnapshotStore(snapshot=snapshot))
    asns = snapshot.asns
    n = len(asns)
    if n < 3 or not snapshot._links():
        return violations

    # deterministic sample spread over the id space
    dsts = sorted({asns[0], asns[n // 3], asns[(2 * n) // 3], asns[-1]})
    srcs = sorted({asns[i] for i in range(0, n, max(1, n // 7))})

    gindex = GraphIndex(rel=snapshot.rel_graph())
    tables = dict(zip(dsts, propagate_batch(gindex, dsts)))

    # single-path answers, bit for bit
    for dst in dsts:
        for src in srcs:
            status, payload, _route, _c = api.handle(
                "GET", f"/paths/{src}/{dst}", {}
            )
            expected = tables[dst].path_from(gindex, gindex.index[src])
            served = (
                None if payload["path"] is None else tuple(payload["path"])
            )
            if status != 200 or served != expected:
                violations.append(
                    Violation(
                        "path-serving/path",
                        world,
                        f"GET /paths/{src}/{dst} served {served}, "
                        f"engine computes {expected}",
                    )
                )
                return violations

    # anycast: winner + catchment against an independent selection
    origins = dsts
    states = [tables[origin] for origin in origins]
    catchment = {str(origin): 0 for origin in origins}
    unreachable = 0
    for i in range(n):
        won = best_origin(origins, states, i)
        if won is None:
            unreachable += 1
        else:
            catchment[str(won)] += 1
    for src in srcs:
        status, payload, _route, _c = api.handle(
            "GET",
            f"/paths/{src}/{origins[0]}",
            {"origins": ",".join(str(o) for o in origins[1:])},
        )
        expected_winner = best_origin(origins, states, gindex.index[src])
        if (
            status != 200
            or payload["winner"] != expected_winner
            or payload["catchment"] != catchment
            or payload["unreachable"] != unreachable
        ):
            violations.append(
                Violation(
                    "path-serving/anycast",
                    world,
                    f"anycast from {src}: served winner "
                    f"{payload.get('winner')} != engine "
                    f"{expected_winner} (or catchment differs)",
                )
            )
            return violations

    # what-if: drop a real link, add a new peering, leak — served diff
    # must equal a from-scratch recompute on the mutated graph
    links = []
    for a_id, b_id, code, _flag in snapshot._links():
        a, b = asns[a_id], asns[b_id]
        links.append((a, b, Relationship(code), snapshot.provider_of(a, b)))
    drop_a, drop_b = links[len(links) // 2][0], links[len(links) // 2][1]
    new_pair = None
    for a in srcs:
        for b in reversed(srcs):
            if a != b and snapshot.relationship(a, b) is None:
                new_pair = (a, b)
                break
        if new_pair:
            break
    leaker = srcs[len(srcs) // 2]
    dst = dsts[-1]
    ops = [{"op": "drop_link", "a": drop_a, "b": drop_b},
           {"op": "leak", "asn": leaker}]
    if new_pair:
        ops.append(
            {"op": "add_peering", "a": new_pair[0], "b": new_pair[1]}
        )
    status, payload, _route, _c = api.handle(
        "POST", "/what-if", {},
        json.dumps({"dst": dst, "ops": ops}).encode(),
    )
    if status != 200:
        violations.append(
            Violation(
                "path-serving/what-if",
                world,
                f"what-if returned {status}: {payload}",
            )
        )
        return violations

    p2c = []
    p2p = []
    for a, b, rel, provider in links:
        if {a, b} == {drop_a, drop_b}:
            continue
        if rel is Relationship.P2C:
            p2c.append((provider, b if provider == a else a))
        else:  # p2p and s2s both route as peering
            p2p.append((a, b))
    if new_pair:
        p2p.append(new_pair)
    ref_gindex = GraphIndex(rel=RelGraph.from_links(asns, p2c, p2p))
    ref_state = propagate_origin(ref_gindex, dst, leakers={leaker})

    baseline = tables[dst]
    changed = unchanged = newly_unreachable = newly_reachable = 0
    expected_paths = {}
    for asn in asns:
        i = gindex.index[asn]
        ref_i = ref_gindex.index[asn]
        before = baseline.path_from(gindex, i)
        after = ref_state.path_from(ref_gindex, ref_i)
        expected_paths[asn] = (before, after)
        # the served diff also counts route-class-only changes
        if before == after and int(baseline.cls[i]) == int(ref_state.cls[ref_i]):
            unchanged += 1
            continue
        changed += 1
        if after is None:
            newly_unreachable += 1
        elif before is None:
            newly_reachable += 1
    served_counts = (
        payload["changed"], payload["unchanged"],
        payload["newly_unreachable"], payload["newly_reachable"],
    )
    if served_counts != (
        changed, unchanged, newly_unreachable, newly_reachable
    ):
        violations.append(
            Violation(
                "path-serving/what-if",
                world,
                f"what-if diff counts {served_counts} != recompute "
                f"{(changed, unchanged, newly_unreachable, newly_reachable)}",
            )
        )
        return violations
    for example in payload["examples"]:
        before, after = expected_paths[example["src"]]
        if (
            example["before"] != (None if before is None else list(before))
            or example["after"] != (None if after is None else list(after))
        ):
            violations.append(
                Violation(
                    "path-serving/what-if",
                    world,
                    f"what-if example for AS{example['src']} disagrees "
                    f"with the from-scratch recompute",
                )
            )
            break
    return violations


# ---------------------------------------------------------------------------
# family 9: time travel — the delta-encoded timeline vs full snapshots
# ---------------------------------------------------------------------------


def _era_link_labels(snapshot) -> Dict[Tuple[int, int], str]:
    """Brute-force (asn_lo, asn_hi) -> oriented label via per-pair lookups.

    Independent of :func:`repro.timeline._asn_link_map` (which reads the
    bulk row tuples): this goes through the snapshot's per-pair
    ``relationship`` / ``provider_of`` query path instead.
    """
    labels: Dict[Tuple[int, int], str] = {}
    asns = snapshot.asns
    for a_id, b_id, _code, _flag in snapshot._links():
        a, b = int(asns[a_id]), int(asns[b_id])
        rel = snapshot.relationship(a, b)
        provider = snapshot.provider_of(a, b)
        if rel is Relationship.P2C and provider is not None:
            label = "p2c" if provider == a else "c2p"
        else:
            label = rel.label
        labels[(a, b)] = label
    return labels


def check_timeline(directory: str, world: str, seed: int) -> List[Violation]:
    """Family 9: historical reads off a delta timeline are exact.

    Builds a three-era evolution series from the world seed, compiles
    per-era full snapshots, delta-encodes them into a timeline,
    round-trips it through the checksummed container, and asserts:

    * every materialized era is bit-identical (``encode_sections``) to
      the independently built full snapshot of that era;
    * every ``?as_of=`` read off the timeline equals the same request
      against a plain single-snapshot server for that era;
    * ``GET /diff/{a}/{b}`` equals a brute-force set comparison of the
      two materialized snapshots, recomputed here from per-pair lookups;
    * ``GET /asns/{asn}/history`` equals the per-era rank entries.
    """
    from repro.serve.handlers import Api
    from repro.serve.store import SnapshotStore
    from repro.timeline import (
        build_timeline,
        era_snapshots,
        load_timeline,
        save_timeline,
    )
    from repro.topology.evolution import (
        Era,
        EvolutionConfig,
        generate_series,
    )
    from repro.topology.generator import GeneratorConfig

    violations: List[Violation] = []
    config = EvolutionConfig(
        base=GeneratorConfig(n_ases=40, seed=seed, clique_size=4),
        eras=[
            Era("e1", new_ases=10, peering_boost=0.02),
            Era("e2", new_ases=12, peering_boost=0.03, clique_entrants=1),
        ],
    )
    pairs = era_snapshots(generate_series(config))
    snapshots = [snapshot for _label, snapshot in pairs]

    os.makedirs(directory, exist_ok=True)
    timeline_file = os.path.join(directory, "qa.timeline")
    save_timeline(build_timeline(pairs), timeline_file)
    timeline = load_timeline(timeline_file, verify=True)

    # storage: eras past the first must actually be delta-encoded
    if [info.kind for info in timeline.eras] != ["full", "delta", "delta"]:
        violations.append(
            Violation(
                "timeline/kinds",
                world,
                f"era kinds {[i.kind for i in timeline.eras]} != "
                "['full', 'delta', 'delta']",
            )
        )

    # bit-identity: each materialized era vs its independent full build
    for index, full in enumerate(snapshots):
        if timeline.snapshot(index).encode_sections() != (
            full.encode_sections()
        ):
            violations.append(
                Violation(
                    "timeline/bit-identity",
                    world,
                    f"era {index}: delta-materialized snapshot is not "
                    "bit-identical to the full build",
                )
            )
            return violations  # downstream comparisons would only echo this

    # as_of serving: every read equals a plain server on that era
    api = Api(SnapshotStore(timeline=timeline))
    for index, full in enumerate(snapshots):
        plain = Api(SnapshotStore(snapshot=full))
        probes = [int(full.asns[0]), int(full.asns[-1])]
        targets = [f"/asns/{probes[0]}", f"/asns/{probes[1]}/cone", "/ranks"]
        for target in targets:
            got = api.handle("GET", target, {"as_of": str(index)})
            want = plain.handle("GET", target, {})
            if got[:2] != want[:2]:
                violations.append(
                    Violation(
                        "timeline/as-of",
                        world,
                        f"GET {target}?as_of={index} differs from the "
                        "single-snapshot server for that era",
                    )
                )
                return violations

    # diff endpoint vs brute-force set comparison
    last = len(snapshots) - 1
    status, payload, _route, _c = api.handle(
        "GET", f"/diff/0/{last}", {}
    )
    snap_a, snap_b = snapshots[0], snapshots[last]
    asns_a, asns_b = set(snap_a.asns), set(snap_b.asns)
    links_a = _era_link_labels(snap_a)
    links_b = _era_link_labels(snap_b)
    flips: Dict[str, int] = {}
    for key in links_a.keys() & links_b.keys():
        if links_a[key] != links_b[key]:
            transition = f"{links_a[key]}->{links_b[key]}"
            flips[transition] = flips.get(transition, 0) + 1
    expected = {
        "new_count": len(asns_b - asns_a),
        "vanished_count": len(asns_a - asns_b),
        "added": len([k for k in links_b if k not in links_a]),
        "removed": len([k for k in links_a if k not in links_b]),
        "flips": flips,
    }
    got = {
        "new_count": payload["ases"]["new_count"],
        "vanished_count": payload["ases"]["vanished_count"],
        "added": payload["links"]["added"],
        "removed": payload["links"]["removed"],
        "flips": payload["links"]["flips"],
    }
    if status != 200 or got != expected:
        violations.append(
            Violation(
                "timeline/diff",
                world,
                f"/diff/0/{last} served {got}, brute force computes "
                f"{expected}",
            )
        )

    # history endpoint vs per-era rank entries
    probe = int(snapshots[0].asns[0])
    status, payload, _route, _c = api.handle(
        "GET", f"/asns/{probe}/history", {}
    )
    ok = status == 200 and len(payload["eras"]) == len(snapshots)
    if ok:
        for index, row in enumerate(payload["eras"]):
            entry = snapshots[index].rank_entry(probe)
            if entry is None:
                ok = row.get("rank") is None
            else:
                ok = (
                    row.get("rank") == entry.rank
                    and row.get("cone_ases") == entry.cone_ases
                    and row.get("transit_degree") == entry.transit_degree
                )
            if not ok:
                break
    if not ok:
        violations.append(
            Violation(
                "timeline/history",
                world,
                f"/asns/{probe}/history disagrees with per-era rank "
                "entries",
            )
        )
    timeline.close()
    return violations


# ---------------------------------------------------------------------------
# family 10: streamed ingest == batch recompute (bit-identity per publish)
# ---------------------------------------------------------------------------


def check_stream(world, label: str, seed: int) -> List[Violation]:
    """Family 10: every streamed publish is bit-identical to batch.

    Seeds a :class:`~repro.stream.corpus.LiveCorpus` with part of the
    world's RIB, then drives a seeded UPDATE series through
    :class:`~repro.stream.ingest.StreamIngestor` — announcements of the
    held-back rows, withdrawals of live keys, relationship-changing
    churn (re-announcing live prefixes with donor paths), a
    withdraw+announce of the same prefix inside one UPDATE, a new
    prefix over an existing path, truncated existing paths, and a
    duplicate re-announcement that must publish as a noop.  After
    *every* publish, the snapshot's content version must equal a
    from-scratch batch recompute
    (:func:`~repro.stream.corpus.asrank_from_rib_rows`) over the same
    final rows — the streamed-vs-batch contract is exact, not
    approximate.
    """
    import random as _random

    from repro.mrt.reader import RibRecord, UpdateRecord
    from repro.net.prefix import Prefix
    from repro.stream import StreamIngestor, asrank_from_rib_rows

    violations: List[Violation] = []
    rows = [
        RibRecord(
            prefix=entry.prefix,
            peer_asn=entry.vp,
            as_path=tuple(entry.path),
            communities=tuple(entry.communities),
        )
        for entry in world.corpus.rib
    ]
    if len(rows) < 8:
        return violations  # not enough routes to stage a stream
    rng = _random.Random(seed * 7919 + 10)
    base_count = max(4, len(rows) * 3 // 5)
    base, held = rows[:base_count], rows[base_count:]
    ixp_asns = world.graph.ixp_asns()
    local_asn = 64700

    def announce(row, prefix=None, path=None):
        return UpdateRecord(
            peer_asn=row.peer_asn,
            local_asn=local_asn,
            as_path=path if path is not None else row.as_path,
            announced=(prefix if prefix is not None else row.prefix,),
            communities=row.communities,
        )

    def withdraw(row):
        return UpdateRecord(
            peer_asn=row.peer_asn,
            local_asn=local_asn,
            as_path=(),
            announced=(),
            communities=(),
            withdrawn=(row.prefix,),
        )

    batches: List[List[UpdateRecord]] = []
    half = len(held) // 2
    batches.append([announce(row) for row in held[:half]])
    # mixed batch: the rest of the held rows plus withdrawals of live keys
    mixed = [announce(row) for row in held[half:]]
    mixed.extend(withdraw(row) for row in rng.sample(base, min(3, len(base))))
    batches.append(mixed)
    # relationship-changing churn: live prefixes re-announced with donor
    # paths from other vantage points
    donors = rng.sample(rows, min(4, len(rows)))
    targets = rng.sample(base, min(4, len(base)))
    batches.append(
        [
            announce(target, path=donor.as_path)
            for target, donor in zip(targets, donors)
        ]
    )
    # RFC 4271 ordering: withdraw and announce the same prefix in one
    # UPDATE — the prefix must survive with the new path
    flip = rng.choice(rows)
    batches.append(
        [
            UpdateRecord(
                peer_asn=flip.peer_asn,
                local_asn=local_asn,
                as_path=flip.as_path,
                announced=(flip.prefix,),
                communities=flip.communities,
                withdrawn=(flip.prefix,),
            )
        ]
    )

    ingestor = StreamIngestor(ixp_asns=ixp_asns, base_rows=base)

    def checked_publish(stage: str) -> None:
        snapshot = ingestor.publish()
        expected = asrank_from_rib_rows(
            ingestor.corpus.rows(), ixp_asns=ixp_asns
        ).snapshot(source=ingestor.source)
        if snapshot.version != expected.version:
            violations.append(
                Violation(
                    "stream/bit-identity",
                    label,
                    f"{stage} publish "
                    f"({ingestor.stats.last_publish_mode}) version "
                    f"{snapshot.version} != batch {expected.version}",
                )
            )

    checked_publish("seed")
    for index, batch in enumerate(batches):
        ingestor.apply_batch(batch)
        checked_publish(f"batch-{index}")

    # corpus-growing stages: a fresh prefix over an existing (vp, path)
    # row, then announcements of truncated existing paths
    donor = rng.choice(rows)
    ingestor.apply_batch(
        [announce(donor, prefix=Prefix.parse("198.51.100.0/24"))]
    )
    checked_publish("prefix-only")

    existing = set(ingestor.live.filtered.paths)
    truncated: List[Tuple[int, ...]] = []
    for path in ingestor.live.filtered.paths:
        for cut in range(3, len(path)):
            candidate = path[:cut]
            if candidate not in existing:
                truncated.append(candidate)
                existing.add(candidate)
        if len(truncated) >= 3:
            break
    if truncated:
        ingestor.apply_batch(
            [
                UpdateRecord(
                    peer_asn=candidate[0],
                    local_asn=local_asn,
                    as_path=candidate,
                    announced=(Prefix.parse(f"203.0.{113 + index}.0/24"),),
                    communities=(),
                )
                for index, candidate in enumerate(truncated)
            ]
        )
        checked_publish("truncated-paths")

    # a duplicate re-announcement must be detected as a noop publish
    ingestor.apply_batch([announce(rng.choice(ingestor.corpus.rows()))])
    before = ingestor.stats.last_publish_version
    snapshot = ingestor.publish()
    if snapshot.version != before:
        violations.append(
            Violation(
                "stream/noop",
                label,
                "re-announcing an identical route changed the version "
                f"({before} -> {snapshot.version})",
            )
        )
    return violations
