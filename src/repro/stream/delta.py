"""Checked incremental apply: the stream layer's cheap publish path.

The batch engine is a long chain of order-sensitive votes (clique peers,
partial-VP scans, top-down scans, valley-free folds, then the late
stub/gap/providerless/p2p sweeps).  Replaying that chain incrementally
is fragile, so the delta path takes a different deal: it never mutates a
single relationship label.  Instead it proves, against the live
inference state, that a hypothetical batch run over the *new* corpus
would label every link exactly as the live state already does — and only
then extends the corpus index, ORs the new paths' contributions into the
cone bitsets, and re-derives ranks/prefixes/snapshot sections.  Any
check that cannot be proven falls back to a full recompute, which is
trivially bit-identical to the batch oracle because it *is* the batch
oracle (:func:`repro.stream.corpus.asrank_from_rib_rows`).

The envelope the delta accepts (all conditions required):

* the pipeline runs with the default step set and the link index;
* the old filtered corpus is an order-preserving subsequence of the new
  one, with identical AS set, identical link set (zero new links),
  identical per-AS transit degrees, identical clique members, and an
  identical partial-VP set;
* every link of every new path carries a final label from the early
  steps (S2B/S3/S4B/S5/S6 — never stub/gap/providerless/remaining-p2p),
  and simulating the partial-VP scan, the top-down scan, and both fold
  directions over each new path against the final link states produces
  only agreeing votes or provably-identical scan breaks.

Under those conditions every vote a new path could cast in the batch run
agrees with an already-final label.  Labels are write-once, the p2c DAG
only grows (so cycle refusals are permanent), and conflicts are
permanent, so agreeing votes are no-ops wherever they land in the order;
the unlabeled sets entering the late sweeps coincide, and those sweeps
iterate links / ranked ASes — both unchanged.  Step *attribution* may
differ from a fresh run, but snapshot sections never encode steps, so
the content version is unaffected.  QA family 10 arbitrates the whole
argument differentially on every publish of seeded worlds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

import numpy as _np

from repro.core.clique import infer_clique
from repro.core.cone import (
    ConeDefinition,
    CustomerCones,
    _bgp_observed_bits,
    _ppdc_bits,
)
from repro.core.inference import InferenceConfig, Step, _discard_poisoned
from repro.core.paths import PathSet
from repro.relationships import Relationship, canonical_pair

PathT = Tuple[int, ...]

#: steps applied after the fold phase; a new path touching such a link
#: would have seen it *unlabeled* during the phases we simulate, so its
#: votes there are unknowable without a replay
_LATE_STEPS = frozenset(
    (Step.S7_STUB, Step.S7B_GAP, Step.S8_PROVIDERLESS, Step.S9_REMAINING_P2P)
)

#: labels from these steps are in place before the partial-VP phase
#: starts, so a disagreeing one makes the batch scan break (not vote)
_PRE_S4B_STEPS = frozenset((Step.S2B_SIBLING, Step.S3_CLIQUE))

#: ... and these are in place before the top-down phase starts
_PRE_S5_STEPS = frozenset(
    (Step.S2B_SIBLING, Step.S3_CLIQUE, Step.S4B_PARTIAL_VP)
)

#: delta eligibility requires the default pipeline: disabling any of
#: these steps changes which votes the batch run would cast, and the
#: simulation below assumes the full default chain
_REQUIRED_ENABLES = (
    "enable_clique",
    "enable_poisoned_filter",
    "enable_partial_vp",
    "enable_topdown",
    "enable_fold",
    "enable_stub",
    "enable_degree_gap",
    "enable_providerless",
)


@dataclass
class LiveState:
    """Everything the stream keeps resident between publishes."""

    facade: object  # repro.asrank.ASRank, with _result/_cones populated
    sanitized: PathSet  # pre-filter corpus (clique input)
    filtered: PathSet  # post-poison-filter corpus (== result.paths)
    prefixes_by_asn: Dict[int, List]
    bits: Dict[ConeDefinition, List[int]]
    snapshot: Optional[object] = None  # attached by the publisher

    @property
    def result(self):
        return self.facade._result


def _partial_vps(paths: PathSet, coverage: float) -> Set[int]:
    """VPs classified as partial feeds, mirroring the engine's S4B."""
    origins_total = {path[-1] for path in paths}
    if not origins_total:
        return set()
    by_vp: Dict[int, Set[int]] = {}
    for path in paths:
        by_vp.setdefault(path[0], set()).add(path[-1])
    threshold = coverage * len(origins_total)
    return {vp for vp, origins in by_vp.items() if len(origins) < threshold}


def _subsequence_refusal(
    old: List[PathT], new: List[PathT]
) -> Optional[str]:
    """Why ``old`` is not an order-preserving subsequence of ``new``
    ("paths-removed" or "paths-reordered"), or ``None`` if it is."""
    walker = iter(new)
    for path in old:
        for candidate in walker:
            if candidate == path:
                break
        else:
            present = set(new)
            if all(path in present for path in old):
                return "paths-reordered"
            return "paths-removed"
    return None


def try_delta(
    live: LiveState,
    sanitized_new: PathSet,
    prefixes_new: Dict[int, List],
    config: InferenceConfig,
) -> Tuple[Optional[LiveState], Optional[str]]:
    """Attempt the checked incremental apply.

    Returns ``(new_state, None)`` on success (snapshot not yet built) or
    ``(None, reason)`` when any precondition fails and the caller must
    run a full recompute.  ``live`` is never mutated on failure.
    """
    result = live.result
    if result._key_lid is None or result._lstate is None:
        return None, "no-fast-index"
    if not all(getattr(config, flag) for flag in _REQUIRED_ENABLES):
        return None, "non-default-pipeline"
    if config.known_siblings:
        # S2B consumes sibling pairs against corpus links; new paths
        # cannot add links (checked below) but keeping the envelope
        # narrow keeps the argument auditable
        return None, "known-siblings"

    # the surviving old paths must appear in their original order (the
    # engine's votes are order-sensitive).  The poison filter only drops
    # paths, so the filtered corpus is an order-preserving subsequence
    # of the sanitized one: checking against ``sanitized_new`` refuses
    # every batch the same check on ``filtered_new`` would, before
    # paying for the clique and the filter
    old = live.filtered
    reason = _subsequence_refusal(old.paths, sanitized_new.paths)
    if reason is not None:
        return None, reason

    # clique runs on the raw sanitized corpus, before the poison filter
    clique = infer_clique(
        sanitized_new,
        seed_size=config.clique_seed_size,
        stop_after=config.clique_stop_after,
    )
    if clique.members != result.clique.members:
        return None, "clique-changed"
    if clique.members:
        filtered_new, discarded = _discard_poisoned(
            sanitized_new, set(clique.members)
        )
    else:
        filtered_new, discarded = sanitized_new, 0

    # with the clique unchanged, the filter keeps every old path (each
    # passed it against the same members), so the subsequence property
    # checked above carries over to ``filtered_new``
    old_set = set(old.paths)
    new_paths = [p for p in filtered_new.paths if p not in old_set]

    if filtered_new.asns() != old.asns():
        return None, "asns-changed"
    if filtered_new.links() != old.links():
        return None, "links-changed"
    # S7/S7B compare *exact* transit degrees (gap factors, stub checks),
    # so degree preservation — not just rank preservation — is required
    if filtered_new.transit_degrees() != old.transit_degrees():
        return None, "degrees-changed"
    partial = _partial_vps(old, config.partial_vp_coverage)
    if _partial_vps(filtered_new, config.partial_vp_coverage) != partial:
        return None, "partial-vps-changed"

    key_lid = result._key_lid
    lstate = result._lstate
    step_of = result._step
    rel_of = result._rel
    provider_of = result._provider
    ranked = {asn: i for i, asn in enumerate(filtered_new.ranked_asns())}

    checked: List[Tuple[PathT, List[int]]] = []
    for path in new_paths:
        pairs = [canonical_pair(a, b) for a, b in zip(path, path[1:])]
        steps = [step_of.get(pair) for pair in pairs]
        if any(s is None or s in _LATE_STEPS for s in steps):
            return None, "late-step-link"

        # --- S4B simulation: the batch run walks the path left-to-right
        # voting "path[j] provides path[j+1]" until a refusal breaks it
        if path[0] in partial:
            for j, pair in enumerate(pairs):
                if (
                    rel_of[pair] is Relationship.P2C
                    and provider_of[pair] == path[j]
                ):
                    continue  # agreeing vote: accepted (or already set)
                if steps[j] in _PRE_S4B_STEPS:
                    break  # label predates S4B: the batch scan breaks too
                return None, "partial-vp-vote"

        # --- S5 simulation: scan outward from the highest-ranked hop
        peak = min(range(len(path)), key=lambda i: ranked[path[i]])
        for j in range(peak + 1, len(path) - 1):
            pair = pairs[j]
            if (
                rel_of[pair] is Relationship.P2C
                and provider_of[pair] == path[j]
            ):
                continue
            if steps[j] in _PRE_S5_STEPS:
                break
            return None, "topdown-vote"
        for j in range(peak - 2, -1, -1):
            pair = pairs[j]
            if (
                rel_of[pair] is Relationship.P2C
                and provider_of[pair] == path[j + 1]
            ):
                continue
            if steps[j] in _PRE_S5_STEPS:
                break
            return None, "topdown-vote"

        # --- fold simulation against final link states: any hop the
        # fold would try to vote on (UP after a descent / DOWN before an
        # ascent) may have been unlabeled mid-fold, so refuse it
        lids = [
            key_lid[(a << 32) | b if a <= b else (b << 32) | a]
            for a, b in zip(path, path[1:])
        ]
        states = [lstate[lid] for lid in lids]
        seen_descent = False
        for j, s in enumerate(states):
            if s == -2:  # sibling: resets the descent like the fold does
                seen_descent = False
                continue
            if seen_descent and s == path[j + 1]:
                return None, "fold-vote"
            if s == -1 or s == path[j]:
                seen_descent = True
        seen_ascent = False
        for j in range(len(states) - 1, -1, -1):
            s = states[j]
            if s == -2:
                seen_ascent = False
                continue
            if seen_ascent and s == path[j]:
                return None, "fold-vote"
            if s == -1 or s == path[j + 1]:
                seen_ascent = True

        checked.append((path, lids))

    # ------------------------------------------------------------------
    # commit: every check passed, the live labels are provably what a
    # batch run over filtered_new would produce — extend state in place
    # ------------------------------------------------------------------
    # append the new paths to the flat index and OR their contribution
    # into the observed-cone bitsets; the link -> paths CSR and the
    # cached hop columns describe the old corpus, so drop them (the
    # fold never runs again on a committed result)
    bgp = list(live.bits[ConeDefinition.BGP_OBSERVED])
    ppdc = list(live.bits[ConeDefinition.PROVIDER_PEER_OBSERVED])
    if checked:
        first_new = len(result._path_off) - 1
        ids = result.index.ids
        end = result._path_off[-1]
        pids: List[int] = []
        for path, lids in checked:
            result._hop_lid.extend(lids)
            pids.extend(ids[asn] for asn in path)
            end += len(path)
            result._path_off.append(end)
        result._node_pid = _np.concatenate(
            (result._node_pid, _np.array(pids, dtype=_np.int64))
        )
        result._lpath_pid = result._lpath_off = None
        result._hop_cols = None
        _bgp_observed_bits(result, first_new, bgp)
        _ppdc_bits(result, first_new, ppdc)

    result.paths = filtered_new
    result.discarded_poisoned = discarded
    from repro.graph.relgraph import RelGraph

    recursive = live.bits[ConeDefinition.RECURSIVE]
    if checked:
        # the p2c DAG did not change, so the recursive closure carries
        # over; rebuild the columnar graph (cheap) and hand it the
        # cached closure
        result._rel_graph = None
        graph = RelGraph.of(result)
        graph._closure = recursive
    else:
        # prefix-only publish: labels, paths, and adjacency all carried
        # over, so the cached graph (if any) is still the right one
        graph = RelGraph.of(result)
        if graph._closure is None:
            graph._closure = recursive

    from repro.asrank import ASRank

    facade = ASRank(
        sanitized_new, config=config, prefixes_by_asn=prefixes_new
    )
    facade._result = result
    bits_map = {
        ConeDefinition.RECURSIVE: recursive,
        ConeDefinition.BGP_OBSERVED: bgp,
        ConeDefinition.PROVIDER_PEER_OBSERVED: ppdc,
    }
    facade._cones = {
        definition: CustomerCones(
            definition,
            prefixes_by_asn=prefixes_new,
            graph=graph,
            bits=bits,
        )
        for definition, bits in bits_map.items()
    }
    return (
        LiveState(
            facade=facade,
            sanitized=sanitized_new,
            filtered=filtered_new,
            prefixes_by_asn=prefixes_new,
            bits=bits_map,
        ),
        None,
    )
