"""Path prediction from inferred relationships.

A classic end-to-end check on a relationship inference (used since
Gao 2001): rebuild the routing system *from the inferred labels*,
re-run policy routing, and compare the predicted AS paths against the
observed ones.  Good relationships predict real paths; wrong labels
send predicted routes through links BGP would never use.

The predictor compiles any inference result (ASRank or a baseline)
straight into the shared columnar :class:`~repro.graph.relgraph.RelGraph`
(:func:`rel_graph_from_inference`) and re-derives every observed
(vantage point, origin) pair through the batched Gao–Rexford engine —
all origins of one report propagate in :func:`propagate_batch` blocks
over flat arrays instead of one serial sweep per origin, and only as
far down as the observed vantage points can see.  The batched
engine is bit-identical to the reference sweeps, so reports are
unchanged from the serial implementation; only the wall clock moves.
The :class:`~repro.topology.model.ASGraph` materializer the tests
compare against is :func:`repro.qa.oracles.graph_from_inference`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.bgp.propagation import GraphIndex, propagate_batch
from repro.graph.index import DenseIndex
from repro.graph.relgraph import RelGraph
from repro.relationships import Relationship


def rel_graph_from_inference(inference) -> RelGraph:
    """Compile inferred relationships straight into a :class:`RelGraph`.

    Same semantics as routing over
    :func:`repro.qa.oracles.graph_from_inference` — the id space is
    exactly the link endpoints, links are applied in sorted order, a
    p2c edge that would close a provider cycle is demoted to p2p, and
    sibling links merge into the peer adjacency (siblings route as
    peers) — without materializing per-AS objects or a mutable graph
    in between.
    """
    asns: Set[int] = set()
    for a, b in inference.links():
        asns.add(a)
        asns.add(b)
    index = DenseIndex(asns)
    ids = index.ids
    n = len(index)
    providers: List[List[int]] = [[] for _ in range(n)]
    customers: List[List[int]] = [[] for _ in range(n)]
    peers: List[List[int]] = [[] for _ in range(n)]

    def closes_cycle(provider_id: int, customer_id: int) -> bool:
        # same check as ASGraph.add_p2c: the edge closes a provider
        # cycle iff the provider is already reachable from the customer
        # over the customer edges added so far
        queue = deque([customer_id])
        seen = {customer_id}
        while queue:
            node = queue.popleft()
            if node == provider_id:
                return True
            for nxt in customers[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return False

    for a, b in sorted(inference.links()):
        rel = inference.relationship(a, b)
        if rel is Relationship.P2C:
            provider = inference.provider_of(a, b)
            customer = b if provider == a else a
            prov_id, cust_id = ids[provider], ids[customer]
            if closes_cycle(prov_id, cust_id):
                peers[ids[a]].append(ids[b])
                peers[ids[b]].append(ids[a])
            else:
                customers[prov_id].append(cust_id)
                providers[cust_id].append(prov_id)
        else:  # p2p and s2s both route as peering links
            peers[ids[a]].append(ids[b])
            peers[ids[b]].append(ids[a])
    for rows in (providers, customers, peers):
        for row in rows:
            row.sort()
    return RelGraph(index, providers, customers, peers)


@dataclass
class PredictionReport:
    """Aggregate accuracy of predicted paths versus observed paths."""

    compared: int = 0
    exact: int = 0  # predicted path identical to the observed one
    same_length: int = 0  # lengths agree (path diversity tolerated)
    unreachable: int = 0  # prediction found no route where one was seen

    @property
    def exact_rate(self) -> float:
        return self.exact / self.compared if self.compared else 0.0

    @property
    def length_rate(self) -> float:
        return self.same_length / self.compared if self.compared else 0.0

    @property
    def reachability(self) -> float:
        if not self.compared:
            return 0.0
        return 1.0 - self.unreachable / self.compared


def predict_paths(
    inference,
    observations: Iterable[Tuple[int, ...]],
    max_origins: Optional[int] = None,
) -> PredictionReport:
    """Score ``inference`` by re-deriving the observed paths.

    ``observations`` are collector-order paths (VP first, origin last);
    for each (VP, origin) pair, policy routing runs over the inferred
    graph and the predicted path is compared with the observed one.
    Each (VP, origin) pair is judged once (the first observation wins),
    and ``max_origins`` bounds the propagation work.  All origins
    propagate through the batched engine in one pass, with the
    observations' vantage points as its ``observers``: only their
    rows are read.
    """
    index = GraphIndex(rel=rel_graph_from_inference(inference))

    by_origin: Dict[int, Dict[int, Tuple[int, ...]]] = {}
    for path in observations:
        if len(path) < 2:
            continue
        vp, origin = path[0], path[-1]
        if vp not in index.index or origin not in index.index:
            continue
        by_origin.setdefault(origin, {}).setdefault(vp, path)

    report = PredictionReport()
    origins = sorted(by_origin)
    if max_origins is not None:
        origins = origins[:max_origins]
    observers = sorted({
        index.index[vp] for origin in origins for vp in by_origin[origin]
    })
    states = propagate_batch(index, origins, observers=observers)
    for origin, state in zip(origins, states):
        for vp, observed in sorted(by_origin[origin].items()):
            predicted = state.path_from(index, index.index[vp])
            report.compared += 1
            if predicted is None:
                report.unreachable += 1
                continue
            if predicted == observed:
                report.exact += 1
                report.same_length += 1
            elif len(predicted) == len(observed):
                report.same_length += 1
    return report
