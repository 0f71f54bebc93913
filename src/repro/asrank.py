"""High-level facade: the whole system behind one class.

:class:`ASRank` bundles sanitize → infer → cones → rank behind a
single object with lazy, cached stages, plus constructors for every
input format the ecosystem uses (path lists, path files, MRT RIB dumps,
MRT update streams) and a one-call exporter for CAIDA-format artifacts.

    >>> from repro.asrank import ASRank
    >>> asrank = ASRank.from_paths([(10, 1, 2, 20), (20, 2, 1, 10)])
    >>> asrank.relationship(1, 2)
    <Relationship.P2P: 0>
"""

from __future__ import annotations

import os
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro import perf
from repro.core.cone import ConeDefinition, CustomerCones
from repro.core.inference import (
    InferenceConfig,
    InferenceResult,
    infer_relationships,
)
from repro.core.paths import PathSet
from repro.core.prediction import PredictionReport, predict_paths
from repro.core.rank import ASRankEntry, rank_ases
from repro.datasets.serialization import (
    load_paths,
    save_as_rel,
    save_ppdc_ases,
)
from repro.net.prefix import Prefix
from repro.relationships import Relationship


class ASRank:
    """Run the full ASRank pipeline over an AS-path corpus.

    All stages are computed lazily and cached: constructing the object
    is cheap, the first query pays for inference, cone queries pay for
    cone computation once per definition.
    """

    def __init__(
        self,
        paths: PathSet,
        config: Optional[InferenceConfig] = None,
        prefixes_by_asn: Optional[Dict[int, Sequence[Prefix]]] = None,
    ):
        self.paths = paths
        self.config = config or InferenceConfig()
        self.prefixes_by_asn = prefixes_by_asn
        self._result: Optional[InferenceResult] = None
        self._cones: Dict[ConeDefinition, CustomerCones] = {}

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_paths(
        cls,
        raw_paths: Iterable[Sequence[int]],
        ixp_asns: FrozenSet[int] = frozenset(),
        config: Optional[InferenceConfig] = None,
        prefixes_by_asn: Optional[Dict[int, Sequence[Prefix]]] = None,
    ) -> "ASRank":
        """Build from raw (unsanitized) AS paths."""
        return cls(
            PathSet.sanitize(raw_paths, ixp_asns=ixp_asns),
            config=config,
            prefixes_by_asn=prefixes_by_asn,
        )

    @classmethod
    def from_path_file(
        cls,
        path: str,
        ixp_asns: FrozenSet[int] = frozenset(),
        config: Optional[InferenceConfig] = None,
    ) -> "ASRank":
        """Build from a text path file (one space-separated path per line)."""
        return cls.from_paths(load_paths(path), ixp_asns=ixp_asns, config=config)

    @classmethod
    def from_mrt(
        cls,
        path: str,
        ixp_asns: FrozenSet[int] = frozenset(),
        config: Optional[InferenceConfig] = None,
    ) -> "ASRank":
        """Build from an MRT file (RIB dump and/or update stream).

        Snapshot RIB rows seed a per-(prefix, peer) table which the
        update messages then mutate: announcements replace entries
        (re-announced snapshot routes are not double-counted) and
        withdrawals delete them.  Prefix origins found in the dump feed
        the prefix/address cone metrics automatically.

        The file is decoded into columns and sanitized in one vectorized
        pass; stage timings land under ``asrank/ingest/{decode, table,
        sanitize, prefixes}``.
        """
        from repro.mrt.reader import read_rib_table

        with perf.stage("asrank"), perf.stage("ingest"):
            table = read_rib_table(path)
            with perf.stage("sanitize"):
                paths = PathSet.sanitize_columns(
                    table.flat, table.offsets, ixp_asns=ixp_asns
                )
            with perf.stage("prefixes"):
                prefixes = table.prefixes_by_origin()
        return cls(paths, config=config, prefixes_by_asn=prefixes)

    # ------------------------------------------------------------------
    # cached stages
    # ------------------------------------------------------------------

    @property
    def result(self) -> InferenceResult:
        """The inference result (computed on first access).

        Stage timings land under ``asrank/infer`` in the active
        :mod:`repro.perf` recorder."""
        if self._result is None:
            with perf.stage("asrank"):
                with perf.stage("infer"):
                    self._result = infer_relationships(
                        self.paths, self.config
                    )
        return self._result

    def rel_graph(self) -> "RelGraph":
        """The one :class:`~repro.graph.relgraph.RelGraph` compiled from
        this facade's inference result — shared by cones, the snapshot
        builder, and any other columnar consumer (cached on the result,
        so repeated calls return the identical object)."""
        from repro.graph.relgraph import RelGraph

        return RelGraph.of(self.result)

    def cones(
        self,
        definition: ConeDefinition = ConeDefinition.PROVIDER_PEER_OBSERVED,
    ) -> CustomerCones:
        """Customer cones under ``definition`` (cached per definition).

        Stage timings land under ``asrank/cones``."""
        if definition not in self._cones:
            graph = self.rel_graph()  # outside: may trigger inference
            with perf.stage("asrank"):
                with perf.stage("cones"):
                    self._cones[definition] = CustomerCones.compute(
                        graph,
                        definition,
                        prefixes_by_asn=self.prefixes_by_asn,
                    )
        return self._cones[definition]

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def relationship(self, a: int, b: int) -> Optional[Relationship]:
        return self.result.relationship(a, b)

    def provider_of(self, a: int, b: int) -> Optional[int]:
        return self.result.provider_of(a, b)

    def providers(self, asn: int) -> Set[int]:
        return self.result.providers_of_asn(asn)

    def customers(self, asn: int) -> Set[int]:
        return self.result.customers_of_asn(asn)

    def peers(self, asn: int) -> Set[int]:
        return self.result.peers_of_asn(asn)

    @property
    def clique(self) -> List[int]:
        return list(self.result.clique.members)

    def customer_cone(
        self,
        asn: int,
        definition: ConeDefinition = ConeDefinition.PROVIDER_PEER_OBSERVED,
    ) -> Set[int]:
        return self.cones(definition).cone(asn)

    def rank(self, limit: Optional[int] = None) -> List[ASRankEntry]:
        """The AS ranking by customer cone size.

        Timed under ``asrank/rank``."""
        cones = self.cones()  # outside: may trigger inference and cones
        with perf.stage("asrank"):
            return rank_ases(self.result, cones, limit=limit)

    def predict(self, max_origins: Optional[int] = None) -> PredictionReport:
        """Score the inference by re-deriving the corpus paths."""
        return predict_paths(self.result, self.paths.paths,
                             max_origins=max_origins)

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------

    def snapshot(self, source: str = "asrank"):
        """Compile this result into a serveable, immutable
        :class:`repro.serve.snapshot.Snapshot` (forces every lazy
        stage; the snapshot's answers are bit-identical to this
        facade's)."""
        from repro.serve.snapshot import Snapshot

        return Snapshot.build(self, source=source)

    def save(self, directory: str, tag: str = "repro") -> Dict[str, str]:
        """Write the CAIDA-format artifacts; returns name → file path."""
        os.makedirs(directory, exist_ok=True)
        as_rel = os.path.join(directory, f"{tag}.as-rel.txt")
        ppdc = os.path.join(directory, f"{tag}.ppdc-ases.txt")
        save_as_rel(as_rel, self.result,
                    comments=[f"inferred from {len(self.paths)} paths"])
        save_ppdc_ases(ppdc, self.cones().cones,
                       comments=["provider/peer observed customer cones"])
        return {"as-rel": as_rel, "ppdc-ases": ppdc}
