"""BGP substrate: policy routing, vantage points, and RIB collection.

Implements Gao–Rexford route propagation over a ground-truth AS graph
(prefer customer > peer > provider routes; export customer routes to
everyone, peer/provider routes to customers only), and a RouteViews-like
collector that records each vantage point's best AS path per prefix.

The output — a corpus of AS paths plus per-prefix RIB entries carrying
BGP communities — is the only thing the inference algorithm ever sees,
exactly as in the paper.
"""

from repro.bgp.propagation import (
    GraphIndex,
    PropagationConfig,
    RouteState,
    propagate_batch,
)
from repro.bgp.collector import (
    Collector,
    CollectorConfig,
    PathCorpus,
    RibEntry,
    VantagePoint,
    collect,
    shutdown_pool,
    shutdown_worker_pool,
)
from repro.bgp.noise import NoiseConfig

__all__ = [
    "GraphIndex",
    "PropagationConfig",
    "RouteState",
    "propagate_batch",
    "Collector",
    "CollectorConfig",
    "PathCorpus",
    "RibEntry",
    "VantagePoint",
    "collect",
    "shutdown_pool",
    "shutdown_worker_pool",
    "NoiseConfig",
]
