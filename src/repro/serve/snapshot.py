"""Immutable, versioned, read-optimized view of one pipeline result.

A :class:`Snapshot` is the unit the query service serves: everything
the asrank-style API answers — relationships, customer cones under all
three definitions, the rank table, summary stats — compiled into dense
arrays over a sorted ASN index so every query is O(1) or O(answer):

* **ASN index** — sorted ASN list; ``asn -> dense id`` dict.
* **Links** — packed parallel arrays ``(a_id, b_id, rel_code,
  provider_flag)`` plus an ``(a_id << 32 | b_id) -> row`` dict for
  O(1) link lookup.
* **Cones** — one Python-int bitset per AS per definition; a size is
  one ``bit_count``, a full cone decodes in O(members).
* **Rank table** — the exact :func:`repro.core.rank.rank_ases` rows in
  ranking order, plus ``asn -> row`` for point lookups.

Snapshots are built from an :class:`~repro.asrank.ASRank` facade
(:meth:`Snapshot.build` — bit-identical to the facade by construction)
or from CAIDA-format ``as-rel``/``ppdc-ases`` files
(:meth:`Snapshot.from_files` — only the definitions derivable from
those files are available).  ``encode_sections``/``decode_sections``
turn a snapshot into named byte sections and back; the file container
(checksums, eager and mmap loads) lives in :mod:`repro.serve.store`.

The *version* is content-derived — the first 12 hex digits of the
sha256 over the canonically encoded sections — so the same world
always produces the same version string and ETags survive rebuilds
that change nothing.
"""

from __future__ import annotations

import hashlib
import json
import struct
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

import numpy as _np

from repro import perf
from repro.core.cone import ConeDefinition
from repro.core.rank import ASRankEntry, rank_table
from repro.datasets.serialization import DatasetFormatError
from repro.graph import BitsetFamily, DenseIndex, closure_bits, decode_bits
from repro.relationships import Relationship


class SnapshotFormatError(DatasetFormatError):
    """Raised on a malformed, truncated or corrupted snapshot blob."""


#: query-string spellings accepted for each cone definition
DEFINITION_ALIASES: Dict[str, ConeDefinition] = {
    definition.value: definition for definition in ConeDefinition
}
DEFINITION_ALIASES["ppdc"] = ConeDefinition.PROVIDER_PEER_OBSERVED
DEFINITION_ALIASES["provider-peer-observed"] = (
    ConeDefinition.PROVIDER_PEER_OBSERVED
)

_LINK_STRUCT = struct.Struct("<IIbB")
_RANK_STRUCT = struct.Struct("<IQIqqIIIII")
_NO_PROVIDER, _PROVIDER_A, _PROVIDER_B = 0, 1, 2

#: structured views over the packed sections — field layout must
#: mirror the struct codecs exactly so an mmap'd file decodes to
#: the same rows an eager load's struct decoding produces
LINK_DTYPE = _np.dtype(
    [("a", "<u4"), ("b", "<u4"), ("rel", "<i1"), ("flag", "<u1")]
)
RANK_DTYPE = _np.dtype(
    [
        ("rank", "<u4"),
        ("asn", "<u8"),
        ("cone_ases", "<u4"),
        ("cone_prefixes", "<i8"),
        ("cone_addresses", "<i8"),
        ("transit_degree", "<u4"),
        ("node_degree", "<u4"),
        ("num_customers", "<u4"),
        ("num_peers", "<u4"),
        ("num_providers", "<u4"),
    ]
)
assert LINK_DTYPE.itemsize == _LINK_STRUCT.size
assert RANK_DTYPE.itemsize == _RANK_STRUCT.size


class LazyConeBits:
    """Per-AS cone bitsets served straight off a packed section.

    The ``cones:*`` sections hold one ``[u32 length][little-endian
    bitset]`` frame per AS.  Cones are variable-length Python-int
    bitsets, so unlike links/ranks they cannot be a fixed-stride numpy
    view — instead this parses only the framing (two small offset
    tables) and leaves the bitset bytes where they are, in the mmap'd
    pages.  A bitset materializes as an int on first use and is
    cached, so an idle worker's private memory stays at the offset
    tables while the payload pages remain shared.

    Indexing (``bits[i]``) matches the eager ``List[int]`` contract, so
    every snapshot query works unchanged.
    """

    def __init__(self, blob, n: int):
        self._blob = blob
        starts: List[int] = []
        lengths: List[int] = []
        offset = 0
        size = len(blob)
        for _ in range(n):
            if offset + 4 > size:
                raise SnapshotFormatError("cones section truncated")
            (length,) = struct.unpack_from("<I", blob, offset)
            offset += 4
            if offset + length > size:
                raise SnapshotFormatError("cones section truncated")
            starts.append(offset)
            lengths.append(length)
            offset += length
        if offset != size:
            raise SnapshotFormatError("cones section has trailing bytes")
        self._starts = starts
        self._lengths = lengths
        self._cache: List[Optional[int]] = [None] * n

    def __len__(self) -> int:
        return len(self._starts)

    def __getitem__(self, i: int) -> int:
        mask = self._cache[i]
        if mask is None:
            start = self._starts[i]
            mask = int.from_bytes(
                self._blob[start:start + self._lengths[i]], "little"
            )
            self._cache[i] = mask
        return mask

    def __iter__(self):
        for i in range(len(self._starts)):
            yield self[i]


def resolve_definition(name: str) -> ConeDefinition:
    """Map a query-string spelling to a :class:`ConeDefinition`."""
    try:
        return DEFINITION_ALIASES[name]
    except KeyError:
        raise KeyError(
            f"unknown cone definition {name!r}; "
            f"one of {sorted(DEFINITION_ALIASES)}"
        ) from None


class Snapshot:
    """One compiled, immutable pipeline result.

    Sections may be attached lazily: the store hands a loader callback
    that materializes a named section's bytes on first access, so a
    server can open a multi-section file and decode only what traffic
    actually touches.
    """

    def __init__(
        self,
        asns: Optional[List[int]] = None,
        meta: Dict[str, object] = None,
        stats: Dict[str, object] = None,
        version: str = "",
        index: Optional[DenseIndex] = None,
    ):
        """Either ``asns`` (a sorted ASN list, indexed here) or ``index``
        (an existing :class:`DenseIndex`, adopted without re-indexing —
        the zero-copy path :meth:`build` uses)."""
        if index is None:
            index = DenseIndex.from_sorted(asns if asns is not None else [])
        self.index = index
        self.asns = index.asns
        self.meta = meta if meta is not None else {}
        self.stats = stats if stats is not None else {}
        self.version = version
        self._ids: Dict[int, int] = index.ids
        # links
        self._link_rows: Optional[List[Tuple[int, int, int, int]]] = None
        self._link_index: Dict[int, int] = {}
        # cones: definition value -> one bitset per dense id
        self._cones: Dict[str, List[int]] = {}
        # rank table
        self._rank_rows: Optional[List[Tuple[int, ...]]] = None
        self._rank_of: Dict[int, int] = {}
        # lazy section source installed by the store
        self._section_loader: Optional[Callable[[str], bytes]] = None
        # mmap-backed loads decode links/ranks as numpy views and
        # cones as LazyConeBits instead of copying
        self._mapped = False
        # the store's section reader, for deterministic close()
        self._section_reader = None
        # routing view over the link rows (compiled on first path query)
        self._rel_graph = None
        # the section bytes build() hashed for the version, for the save
        self._encoded: Optional[Dict[str, bytes]] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    @classmethod
    def build(cls, asrank, source: str = "asrank") -> "Snapshot":
        """Compile an :class:`~repro.asrank.ASRank` facade.

        Forces every lazy stage (inference, all three cone definitions,
        the full rank table), so the snapshot answers are bit-identical
        to the facade's by construction.  The facade's shared
        :class:`~repro.graph.relgraph.RelGraph` supplies the dense index
        and the cone bitsets directly — no re-indexing, no re-encoding.
        The rank table is timed under ``asrank/rank``, the rest under
        ``snapshot-build`` (the content hash under its ``version``).
        """
        result = asrank.result
        graph = asrank.rel_graph()
        cones = {
            definition: asrank.cones(definition)
            for definition in ConeDefinition
        }
        ppdc = cones[ConeDefinition.PROVIDER_PEER_OBSERVED]
        with perf.stage("asrank"):
            ranks = rank_table(result, ppdc)

        with perf.stage("snapshot-build"):
            # the link rows straight off the result's label columns:
            # ascending (a_id, b_id), as-rel code, provider flag
            lo, hi, state = result.link_states()
            asns = result.paths.asn_index[0]
            p2c = state >= 0
            code = _np.where(
                p2c, int(Relationship.P2C),
                _np.where(state == -1, int(Relationship.P2P),
                          int(Relationship.S2S)),
            )
            flag = _np.where(
                p2c & (state == asns[lo]), _PROVIDER_A,
                _np.where(p2c & (state == asns[hi]), _PROVIDER_B,
                          _NO_PROVIDER),
            )
            snapshot = cls(
                index=graph.index,
                meta={
                    "source": source,
                    "clique": list(asrank.clique),
                    "definitions": sorted(
                        definition.value for definition in ConeDefinition
                    ),
                },
                stats={},
            )
            snapshot._attach_links(list(zip(
                lo.tolist(), hi.tolist(), code.tolist(), flag.tolist()
            )))

            for definition, defined in cones.items():
                # the graph's own id space: adopt the bitsets as they are
                snapshot._cones[definition.value] = defined.bits

            if ppdc.prefixes_by_asn is None:
                # no prefix data: the packed table's -1
                ranks = [row[:3] + (-1, -1) + row[5:] for row in ranks]
            snapshot._attach_ranks(ranks)
            snapshot.stats = snapshot._summary_stats(
                code, [row[2] for row in ranks]
            )
            with perf.stage("version"):
                snapshot._encoded = snapshot.encode_sections()
                snapshot.version = _content_hash(snapshot._encoded)
        return snapshot

    @classmethod
    def from_files(
        cls, as_rel_path: str, ppdc_path: Optional[str] = None
    ) -> "Snapshot":
        """Compile CAIDA-format ``as-rel`` (+ optional ``ppdc-ases``) files.

        Only the definitions derivable from the files are served:
        ``recursive`` (closure of the p2c rows) always, and
        ``provider/peer-observed`` when a ppdc file is given;
        ``bgp-observed`` needs the path corpus and is unavailable.
        Ranks fall back to cone size, then node degree, then ASN
        (transit degree needs paths and reads as 0).
        """
        from repro.datasets.serialization import load_as_rel, load_ppdc_ases

        rows = load_as_rel(as_rel_path)
        ppdc = load_ppdc_ases(ppdc_path) if ppdc_path else None

        asn_set: Set[int] = set()
        for a, b, _rel in rows:
            asn_set.add(a)
            asn_set.add(b)
        if ppdc:
            for asn, members in ppdc.items():
                asn_set.add(asn)
                asn_set.update(members)
        index = DenseIndex(asn_set)
        asns = index.asns
        ids = index.ids

        link_rows: List[Tuple[int, int, int, int]] = []
        customers: Dict[int, List[int]] = {}
        for a, b, rel in rows:
            lo, hi = (a, b) if a <= b else (b, a)
            flag = _NO_PROVIDER
            if rel is Relationship.P2C:
                # in as-rel rows the first AS is the provider
                flag = _PROVIDER_A if a == lo else _PROVIDER_B
                customers.setdefault(a, []).append(b)
            link_rows.append((ids[lo], ids[hi], int(rel), flag))
        link_rows.sort()

        definitions = [ConeDefinition.RECURSIVE.value]
        if ppdc is not None:
            definitions.append(ConeDefinition.PROVIDER_PEER_OBSERVED.value)

        snapshot = cls(
            index=index,
            meta={
                "source": f"files:{as_rel_path}",
                "clique": [],
                "definitions": sorted(definitions),
            },
            stats={},
        )
        snapshot._attach_links(link_rows)
        # the shared closure over the p2c rows, keyed by dense id
        snapshot._cones[ConeDefinition.RECURSIVE.value] = closure_bits(
            len(asns),
            {
                ids[provider]: [ids[customer] for customer in custs]
                for provider, custs in customers.items()
            },
        )
        if ppdc is not None:
            encode = BitsetFamily(index).encode
            snapshot._cones[ConeDefinition.PROVIDER_PEER_OBSERVED.value] = [
                encode(ppdc.get(asn, ())) | 1 << i
                for i, asn in enumerate(asns)
            ]

        cone_bits = snapshot._cones[
            definitions[-1] if ppdc is not None else definitions[0]
        ]
        customers_of, peers_of, providers_of = snapshot._degree_counts()
        order = sorted(
            range(len(asns)),
            key=lambda i: (
                -cone_bits[i].bit_count(),
                -(customers_of[i] + peers_of[i] + providers_of[i]),
                asns[i],
            ),
        )
        rank_rows = [
            (
                position,
                asns[i],
                cone_bits[i].bit_count(),
                -1,
                -1,
                0,
                customers_of[i] + peers_of[i] + providers_of[i],
                customers_of[i],
                peers_of[i],
                providers_of[i],
            )
            for position, i in enumerate(order, start=1)
        ]
        snapshot._attach_ranks(rank_rows)
        snapshot.stats = snapshot._summary_stats(
            [row[2] for row in link_rows], [row[2] for row in rank_rows]
        )
        snapshot.version = snapshot.content_version()
        return snapshot

    # ------------------------------------------------------------------
    # internal wiring
    # ------------------------------------------------------------------

    def _attach_links(self, rows) -> None:
        self._link_rows = rows
        if isinstance(rows, _np.ndarray):
            # one vectorized key computation; .tolist() hands back
            # Python ints for the dict keys
            keys = (
                (rows["a"].astype("<u8") << _np.uint64(32)) | rows["b"]
            ).tolist()
            self._link_index = {key: i for i, key in enumerate(keys)}
        else:
            self._link_index = {
                (a_id << 32) | b_id: i for i, (a_id, b_id, _c, _f) in
                enumerate(rows)
            }

    def _attach_ranks(self, rows) -> None:
        self._rank_rows = rows
        if isinstance(rows, _np.ndarray):
            self._rank_of = {
                asn: i for i, asn in enumerate(rows["asn"].tolist())
            }
        else:
            self._rank_of = {row[1]: i for i, row in enumerate(rows)}

    def _links(self):
        if self._link_rows is None:
            blob = self._load_section("links")
            if self._mapped:
                self._attach_links(_links_view(blob))
            else:
                self._attach_links(_decode_links(bytes(blob)))
        return self._link_rows

    def _ranks(self):
        if self._rank_rows is None:
            blob = self._load_section("ranks")
            if self._mapped:
                self._attach_ranks(_ranks_view(blob))
            else:
                self._attach_ranks(_decode_ranks(bytes(blob)))
        return self._rank_rows

    def _links_as_tuples(self) -> List[Tuple[int, int, int, int]]:
        """Link rows as plain-int tuples (for iteration-heavy callers)."""
        rows = self._links()
        if isinstance(rows, _np.ndarray):
            return rows.tolist()
        return rows

    def _ranks_as_tuples(self) -> List[Tuple[int, ...]]:
        rows = self._ranks()
        if isinstance(rows, _np.ndarray):
            return rows.tolist()
        return rows

    def _cone_bits(self, definition: ConeDefinition):
        if definition.value not in self.meta["definitions"]:
            raise KeyError(
                f"definition {definition.value!r} not in this snapshot "
                f"(built from {self.meta.get('source')})"
            )
        bits = self._cones.get(definition.value)
        if bits is None:
            blob = self._load_section(_cone_section(definition))
            if self._mapped:
                bits = LazyConeBits(blob, len(self.asns))
            else:
                bits = _decode_cones(bytes(blob), len(self.asns))
            self._cones[definition.value] = bits
        return bits

    def _load_section(self, name: str) -> bytes:
        if self._section_loader is None:
            raise SnapshotFormatError(f"section {name!r} missing")
        return self._section_loader(name)

    def _degree_counts(self) -> Tuple[List[int], List[int], List[int]]:
        customers = [0] * len(self.asns)
        peers = [0] * len(self.asns)
        providers = [0] * len(self.asns)
        for a_id, b_id, code, flag in self._links_as_tuples():
            if code == int(Relationship.P2C):
                prov, cust = (
                    (a_id, b_id) if flag == _PROVIDER_A else (b_id, a_id)
                )
                customers[prov] += 1
                providers[cust] += 1
            elif code == int(Relationship.P2P):
                peers[a_id] += 1
                peers[b_id] += 1
        return customers, peers, providers

    def _summary_stats(self, codes, sizes) -> Dict[str, object]:
        """Stats over each link row's as-rel code and each rank row's
        cone size (labels in order of first appearance)."""
        labels, first, counts = _np.unique(
            _np.asarray(codes, dtype=_np.int64),
            return_index=True,
            return_counts=True,
        )
        sizes = _np.sort(_np.asarray(sizes, dtype=_np.int64))[::-1]
        return {
            "n_ases": len(self.asns),
            "n_links": len(codes),
            "links_by_relationship": {
                Relationship(int(labels[k])).label: int(counts[k])
                for k in _np.argsort(first).tolist()
            },
            "cone_sizes": {
                "max": int(sizes[0]) if len(sizes) else 0,
                "median": int(sizes[len(sizes) // 2]) if len(sizes) else 0,
                "mean": (int(sizes.sum()) / len(sizes)) if len(sizes) else 0.0,
            },
        }

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def __contains__(self, asn: int) -> bool:
        return asn in self._ids

    def relationship(self, a: int, b: int) -> Optional[Relationship]:
        row = self._link_row(a, b)
        return None if row is None else Relationship(row[2])

    def provider_of(self, a: int, b: int) -> Optional[int]:
        row = self._link_row(a, b)
        if row is None or row[3] == _NO_PROVIDER:
            return None
        return self.asns[row[0] if row[3] == _PROVIDER_A else row[1]]

    def _link_row(
        self, a: int, b: int
    ) -> Optional[Tuple[int, int, int, int]]:
        a_id, b_id = self._ids.get(a), self._ids.get(b)
        if a_id is None or b_id is None:
            return None
        if a_id > b_id:
            a_id, b_id = b_id, a_id
        links = self._links()
        index = self._link_index.get((a_id << 32) | b_id)
        return None if index is None else links[index]

    def cone(
        self,
        asn: int,
        definition: ConeDefinition = ConeDefinition.PROVIDER_PEER_OBSERVED,
    ) -> Set[int]:
        """Cone members incl. self — matches ``CustomerCones.cone``."""
        asn_id = self._ids.get(asn)
        if asn_id is None:
            return {asn}
        return decode_bits(self._cone_bits(definition)[asn_id], self.asns)

    def cone_size(
        self,
        asn: int,
        definition: ConeDefinition = ConeDefinition.PROVIDER_PEER_OBSERVED,
    ) -> int:
        asn_id = self._ids.get(asn)
        if asn_id is None:
            return 1
        return self._cone_bits(definition)[asn_id].bit_count()

    def rank_entry(self, asn: int) -> Optional[ASRankEntry]:
        index = self._rank_of_index(asn)
        return None if index is None else _row_to_rank_entry(
            self._ranks()[index]
        )

    def _rank_of_index(self, asn: int) -> Optional[int]:
        self._ranks()
        return self._rank_of.get(asn)

    def ranks(self, offset: int = 0, limit: Optional[int] = None
              ) -> List[ASRankEntry]:
        rows = self._ranks()
        window = rows[offset:] if limit is None else rows[
            offset:offset + limit
        ]
        return [_row_to_rank_entry(row) for row in window]

    def __len__(self) -> int:
        return len(self.asns)

    @property
    def definitions(self) -> List[ConeDefinition]:
        return [ConeDefinition(v) for v in self.meta["definitions"]]

    def rel_graph(self):
        """The snapshot's routing view: a frozen
        :class:`~repro.graph.relgraph.RelGraph` over the link rows.

        Compiled once per snapshot (cached) on the snapshot's own dense
        index, so route-table bitsets and CSR arrays built against it
        stay valid for the snapshot's life.  Sibling (s2s) links merge
        into the peer adjacency — the same treatment
        :meth:`RelGraph.from_as_graph` applies for propagation.
        """
        if self._rel_graph is None:
            from repro.graph.relgraph import RelGraph

            n = len(self.asns)
            providers: List[List[int]] = [[] for _ in range(n)]
            customers: List[List[int]] = [[] for _ in range(n)]
            peers: List[List[int]] = [[] for _ in range(n)]
            p2c = int(Relationship.P2C)
            for a_id, b_id, code, flag in self._links_as_tuples():
                if code == p2c:
                    prov, cust = (
                        (a_id, b_id) if flag == _PROVIDER_A else (b_id, a_id)
                    )
                    customers[prov].append(cust)
                    providers[cust].append(prov)
                else:
                    peers[a_id].append(b_id)
                    peers[b_id].append(a_id)
            for rows in (providers, customers, peers):
                for row in rows:
                    row.sort()
            self._rel_graph = RelGraph(self.index, providers, customers,
                                       peers)
        return self._rel_graph

    # ------------------------------------------------------------------
    # encoding
    # ------------------------------------------------------------------

    def encode_sections(self) -> Dict[str, bytes]:
        """All sections as canonical bytes (the store writes these)."""
        sections: Dict[str, bytes] = {
            "asns": struct.pack(f"<{len(self.asns)}Q", *self.asns),
            "links": _encode_links(self._links_as_tuples()),
            "ranks": _encode_ranks(self._ranks_as_tuples()),
            "stats": _json_bytes(self.stats),
            "meta": _json_bytes(self.meta),
        }
        for definition in self.definitions:
            sections[_cone_section(definition)] = _encode_cones(
                self._cone_bits(definition)
            )
        return sections

    def sections(self) -> Dict[str, bytes]:
        """The canonical section bytes: those :meth:`build` hashed for
        the version, else encoded now (a loaded or hand-built
        snapshot)."""
        if self._encoded is not None:
            return self._encoded
        return self.encode_sections()

    def content_version(self) -> str:
        """Content hash over the canonical sections (12 hex digits)."""
        return _content_hash(self.encode_sections())

    @classmethod
    def from_sections(
        cls,
        meta_blob: bytes,
        stats_blob: bytes,
        asns_blob: bytes,
        version: str,
        loader: Callable[[str], bytes],
        eager: bool = False,
        mapped: bool = False,
    ) -> "Snapshot":
        """Rebuild from decoded header sections + a section loader.

        ``eager=True`` (the store's eager loads) decodes every section
        through ``loader`` up front; otherwise links/cones/ranks
        materialize on first query via ``loader``.  ``mapped=True``
        (the store's mmap path) decodes links/ranks as read-only numpy
        views over the loader's buffers and cones as
        :class:`LazyConeBits` — zero copies, bit-identical answers.
        """
        try:
            meta = json.loads(meta_blob)
            stats = json.loads(stats_blob)
        except ValueError as exc:
            raise SnapshotFormatError(f"bad meta/stats JSON: {exc}") from None
        if len(asns_blob) % 8:
            raise SnapshotFormatError("asns section not a multiple of 8")
        asns = list(struct.unpack(f"<{len(asns_blob) // 8}Q", asns_blob))
        snapshot = cls(asns=asns, meta=meta, stats=stats, version=version)
        snapshot._section_loader = loader
        snapshot._mapped = mapped
        if eager:
            snapshot._attach_links(_decode_links(loader("links")))
            snapshot._attach_ranks(_decode_ranks(loader("ranks")))
            for definition in snapshot.definitions:
                snapshot._cones[definition.value] = _decode_cones(
                    loader(_cone_section(definition)), len(asns)
                )
        return snapshot

    def close(self) -> None:
        """Release the store's section reader (the file mapping).

        Safe to call on eagerly loaded snapshots (no-op) and
        idempotent; an mmap-backed snapshot's mapping is released
        best-effort — outstanding numpy views keep the pages alive
        until they are collected.
        """
        if self._section_reader is not None:
            self._section_reader.close()


# ---------------------------------------------------------------------------
# section codecs
# ---------------------------------------------------------------------------


def _cone_section(definition: ConeDefinition) -> str:
    return f"cones:{definition.value}"


def _json_bytes(value: object) -> bytes:
    return json.dumps(value, sort_keys=True, separators=(",", ":")).encode()


def _content_hash(sections: Dict[str, bytes]) -> str:
    """The content version of ``sections``: 12 hex digits of one
    sha256 over every section's name, length and bytes, by name."""
    digest = hashlib.sha256()
    for name, blob in sorted(sections.items()):
        digest.update(name.encode())
        digest.update(struct.pack("<Q", len(blob)))
        digest.update(blob)
    return digest.hexdigest()[:12]


def _encode_links(rows: Iterable[Tuple[int, int, int, int]]) -> bytes:
    return b"".join(_LINK_STRUCT.pack(*row) for row in rows)


def _decode_links(blob: bytes) -> List[Tuple[int, int, int, int]]:
    if len(blob) % _LINK_STRUCT.size:
        raise SnapshotFormatError("links section truncated")
    return [tuple(row) for row in _LINK_STRUCT.iter_unpack(blob)]


def _links_view(blob):
    """Read-only structured numpy view over a links section buffer."""
    if len(blob) % _LINK_STRUCT.size:
        raise SnapshotFormatError("links section truncated")
    return _np.frombuffer(blob, dtype=LINK_DTYPE)


def _ranks_view(blob):
    """Read-only structured numpy view over a ranks section buffer."""
    if len(blob) % _RANK_STRUCT.size:
        raise SnapshotFormatError("ranks section truncated")
    return _np.frombuffer(blob, dtype=RANK_DTYPE)


def _encode_ranks(rows: Iterable[Tuple[int, ...]]) -> bytes:
    return b"".join(_RANK_STRUCT.pack(*row) for row in rows)


def _decode_ranks(blob: bytes) -> List[Tuple[int, ...]]:
    if len(blob) % _RANK_STRUCT.size:
        raise SnapshotFormatError("ranks section truncated")
    return [tuple(row) for row in _RANK_STRUCT.iter_unpack(blob)]


def _encode_cones(bits) -> bytes:
    # index-based so LazyConeBits encodes through the same path as a
    # plain list (materializing each bitset once)
    chunks: List[bytes] = []
    for i in range(len(bits)):
        mask = bits[i]
        blob = mask.to_bytes((mask.bit_length() + 7) // 8, "little")
        chunks.append(struct.pack("<I", len(blob)))
        chunks.append(blob)
    return b"".join(chunks)


def _decode_cones(blob: bytes, n: int) -> List[int]:
    bits: List[int] = []
    offset = 0
    for _ in range(n):
        if offset + 4 > len(blob):
            raise SnapshotFormatError("cones section truncated")
        (length,) = struct.unpack_from("<I", blob, offset)
        offset += 4
        if offset + length > len(blob):
            raise SnapshotFormatError("cones section truncated")
        bits.append(int.from_bytes(blob[offset:offset + length], "little"))
        offset += length
    if offset != len(blob):
        raise SnapshotFormatError("cones section has trailing bytes")
    return bits


def _row_to_rank_entry(row: Tuple[int, ...]) -> ASRankEntry:
    # int() coercion: a row may be a numpy structured-view record, and
    # the entry's fields end up in json.dumps, which rejects np ints
    return ASRankEntry(
        rank=int(row[0]),
        asn=int(row[1]),
        cone_ases=int(row[2]),
        cone_prefixes=None if row[3] < 0 else int(row[3]),
        cone_addresses=None if row[4] < 0 else int(row[4]),
        transit_degree=int(row[5]),
        node_degree=int(row[6]),
        num_customers=int(row[7]),
        num_peers=int(row[8]),
        num_providers=int(row[9]),
    )
