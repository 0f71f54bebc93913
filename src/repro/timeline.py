"""Time-travel: a delta-encoded timeline of snapshot eras.

The paper's signature analysis is longitudinal (1998-2013): cone
growth, clique churn, and relationship flips only mean something when
tracked era over era.  A :class:`Timeline` packages an ordered
sequence of :class:`~repro.serve.snapshot.Snapshot` eras into one
checksummed container the serving tier can time-travel over
(``?as_of=``, ``/eras``, ``/diff``, ``/history``).

Storage model — eras share the DenseIndex prefix.  The evolution
model only ever *adds* ASes and mints each new ASN above every
existing one, so each era's sorted ASN list is a prefix-extension of
the previous era's and dense ids are stable across eras.  Era 0 is a
full REPROSNP section set; every later era stores only what changed:

* ``asns+``   — the new-ASN suffix (packed ``<Q``).
* ``links-``  — canonical ``(a_id, b_id)`` pairs that vanished
  (packed ``<II``).
* ``links+``  — rows added *or retyped* (packed like a full ``links``
  section); reconstruction is delete-then-upsert over the previous
  era's row map, then a sort — provably the same sorted row list a
  full snapshot would carry.
* ``cones:*`` — per-AS bitset XOR against the previous era for shared
  ids (cones mostly grow, so the XOR is sparse), full bitsets for new
  ids; framed exactly like a full cones section.
* ``ranks``/``stats``/``meta`` — stored full (the rank table reorders
  too much to delta and the JSON blobs are tiny).

Every delta-era section is stored zlib-compressed: a cone XOR mask is
almost all zero bytes (a cone that gained two members differs in two
bits), and the rank rows are small ints in wide fields, so DEFLATE
takes the delta payload to a few percent of the full sections.  Full
eras stay raw — era 0 reads exactly like a REPROSNP payload.

If a pair of adjacent eras does *not* share the prefix (hand-built
snapshots, differing definition sets), that era degrades to ``full``
— correctness never depends on the growth model, only the compression
does.

The container reuses the REPROSNP framing (fixed header + JSON header
+ 64-byte-aligned payload, per-section sha256, atomic replace-on-save)
under its own magic, with section names prefixed ``era{i}:``.  The
timeline version is content-derived over every section, so any byte
of any era changing changes the version — the serving cache key.

A loaded timeline reads its file through the same mapped,
checksum-on-first-touch section reader as an ``mmap`` snapshot load.
``snapshot(era)`` materializes eras on demand by walking deltas
forward from the nearest cached ancestor and keeps a small LRU of
reconstructed snapshots, so historical reads pay the delta walk once.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
import re
import struct
import tempfile
import threading
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.cone import ConeDefinition
from repro.relationships import Relationship
from repro.serve.snapshot import (
    Snapshot,
    SnapshotFormatError,
    _NO_PROVIDER,
    _PROVIDER_A,
    _cone_section,
    _decode_cones,
    _decode_links,
    _decode_ranks,
    _encode_cones,
    _encode_links,
    _encode_ranks,
    _json_bytes,
)
from repro.serve.store import (
    FORMAT_VERSION,
    SECTION_ALIGNMENT,
    TimelineLookupError,
    _FIXED,
    _align,
    open_sections,
    read_container_header,
)

__all__ = [
    "EraInfo",
    "Timeline",
    "TimelineFormatError",
    "TimelineLookupError",
    "TIMELINE_MAGIC",
    "build_timeline",
    "default_era_dates",
    "era_snapshots",
    "load_timeline",
    "read_timeline_header",
    "save_timeline",
]

TIMELINE_MAGIC = b"REPROTLN"
_PAIR_STRUCT = struct.Struct("<II")

#: the paper's observation window starts here; era i defaults to
#: January 1st of ``start_year + i``
DEFAULT_START_YEAR = 1998


class TimelineFormatError(SnapshotFormatError):
    """Raised on a malformed, truncated or corrupted timeline blob."""


@dataclass(frozen=True)
class EraInfo:
    """One era's header entry (everything but the payload bytes)."""

    index: int
    label: str
    date: str
    kind: str  # "full" | "delta"
    snapshot_version: str
    n_ases: int
    n_links: int

    def to_header(self) -> Dict[str, object]:
        return {
            "label": self.label,
            "date": self.date,
            "kind": self.kind,
            "snapshot_version": self.snapshot_version,
            "n_ases": self.n_ases,
            "n_links": self.n_links,
        }


def default_era_dates(
    n: int, start_year: int = DEFAULT_START_YEAR
) -> List[str]:
    """One ISO date per era: Jan 1 of consecutive years."""
    return [f"{start_year + i:04d}-01-01" for i in range(n)]


# ---------------------------------------------------------------------------
# delta codec
# ---------------------------------------------------------------------------


def _link_tuple_map(
    snapshot: Snapshot,
) -> Dict[Tuple[int, int], Tuple[int, int]]:
    return {
        (int(a), int(b)): (int(code), int(flag))
        for a, b, code, flag in snapshot._links_as_tuples()
    }


def _prefix_compatible(prev: Snapshot, nxt: Snapshot) -> bool:
    """Can ``nxt`` be stored as a delta against ``prev``?"""
    prev_asns = list(prev.asns)
    next_asns = list(nxt.asns)
    return (
        len(next_asns) >= len(prev_asns)
        and next_asns[: len(prev_asns)] == prev_asns
        and prev.meta.get("definitions") == nxt.meta.get("definitions")
    )


def _encode_delta(prev: Snapshot, nxt: Snapshot) -> Dict[str, bytes]:
    """Encode ``nxt`` as sections relative to ``prev`` (prefix-checked
    by the caller)."""
    n_prev = len(prev.asns)
    suffix = list(nxt.asns[n_prev:])
    sections: Dict[str, bytes] = {
        "asns+": struct.pack(f"<{len(suffix)}Q", *suffix),
    }

    prev_map = _link_tuple_map(prev)
    next_map = _link_tuple_map(nxt)
    removed = sorted(key for key in prev_map if key not in next_map)
    upserts = sorted(
        (a, b, code, flag)
        for (a, b), (code, flag) in next_map.items()
        if prev_map.get((a, b)) != (code, flag)
    )
    sections["links-"] = b"".join(
        _PAIR_STRUCT.pack(a, b) for a, b in removed
    )
    sections["links+"] = _encode_links(upserts)

    for definition in nxt.definitions:
        prev_bits = prev._cone_bits(definition)
        next_bits = nxt._cone_bits(definition)
        delta = [prev_bits[i] ^ next_bits[i] for i in range(n_prev)]
        delta.extend(next_bits[i] for i in range(n_prev, len(nxt.asns)))
        sections[_cone_section(definition)] = _encode_cones(delta)

    sections["ranks"] = _encode_ranks(nxt._ranks_as_tuples())
    sections["stats"] = _json_bytes(nxt.stats)
    sections["meta"] = _json_bytes(nxt.meta)
    return sections


def _decode_link_keys(blob: bytes) -> List[Tuple[int, int]]:
    if len(blob) % _PAIR_STRUCT.size:
        raise TimelineFormatError("links- section truncated")
    return [tuple(pair) for pair in _PAIR_STRUCT.iter_unpack(blob)]


def _timeline_version(sections: Dict[str, bytes]) -> str:
    """Content hash over every era section (12 hex digits) — the same
    recipe as :meth:`Snapshot.content_version` so rebuilds that change
    nothing keep their ETags."""
    digest = hashlib.sha256()
    for name in sorted(sections):
        blob = sections[name]
        digest.update(name.encode())
        digest.update(struct.pack("<Q", len(blob)))
        digest.update(blob)
    return digest.hexdigest()[:12]


# ---------------------------------------------------------------------------
# the timeline
# ---------------------------------------------------------------------------


class Timeline:
    """An ordered sequence of snapshot eras behind one version string.

    ``loader`` maps era-prefixed section names (``era0:links``,
    ``era2:asns+``) to bytes — an in-memory dict right after
    :func:`build_timeline`, copies out of a checksumming
    :class:`~repro.serve.store.MappedSectionReader` after
    :func:`load_timeline`.
    """

    #: reconstructed-snapshot LRU size; 2 is the working minimum (a
    #: delta era materializes against its predecessor)
    DEFAULT_CACHE = 4

    def __init__(
        self,
        eras: Sequence[EraInfo],
        loader: Callable[[str], bytes],
        version: str,
        section_names: Sequence[str],
        path: Optional[str] = None,
        cache_size: int = DEFAULT_CACHE,
        sections: Optional[Dict[str, bytes]] = None,
        reader=None,
    ):
        if not eras:
            raise TimelineFormatError("a timeline needs at least one era")
        self.eras: List[EraInfo] = list(eras)
        self.version = version
        self.path = path
        self._load = loader
        self._section_names = list(section_names)
        self._sections = sections  # only set for in-memory builds
        self._reader = reader
        self._cache_size = max(2, cache_size)
        self._cache: "OrderedDict[int, Snapshot]" = OrderedDict()
        # RLock: materializing a delta era recurses into snapshot(i-1)
        self._lock = threading.RLock()

    def __len__(self) -> int:
        return len(self.eras)

    @property
    def latest(self) -> Snapshot:
        return self.snapshot(len(self.eras) - 1)

    def era_bytes(self, index: int) -> int:
        """Stored payload bytes for one era (sum of its sections)."""
        prefix = f"era{index}:"
        return sum(
            len(self._load(name))
            for name in self._section_names
            if name.startswith(prefix)
        )

    # -- era resolution -------------------------------------------------

    def resolve(self, token) -> int:
        """Era index for an ``as_of`` token: an era index, an era
        label, or an ISO date (latest era dated at or before it).

        Raises :class:`TimelineLookupError` on anything malformed or
        out of range.
        """
        if isinstance(token, int):
            return self._check_index(token)
        text = str(token).strip()
        if not text:
            raise TimelineLookupError("empty as_of value")
        if re.fullmatch(r"[+-]?\d+", text):
            return self._check_index(int(text))
        for info in self.eras:
            if info.label == text:
                return info.index
        try:
            datetime.date.fromisoformat(text)
        except ValueError:
            raise TimelineLookupError(
                f"as_of {text!r} is not an era index, era label, or "
                f"YYYY-MM-DD date"
            ) from None
        best = None
        for info in self.eras:
            if info.date <= text:
                best = info.index
        if best is None:
            raise TimelineLookupError(
                f"no era at or before {text} (earliest is "
                f"{self.eras[0].date})"
            )
        return best

    def _check_index(self, era: int) -> int:
        if not 0 <= era < len(self.eras):
            raise TimelineLookupError(
                f"era {era} out of range 0..{len(self.eras) - 1}"
            )
        return era

    # -- materialization ------------------------------------------------

    def snapshot(self, era: int) -> Snapshot:
        """The fully materialized :class:`Snapshot` for one era."""
        era = self._check_index(era)
        with self._lock:
            cached = self._cache.get(era)
            if cached is not None:
                self._cache.move_to_end(era)
                return cached
            snapshot = self._materialize(era)
            self._cache[era] = snapshot
            self._cache.move_to_end(era)
            while len(self._cache) > self._cache_size:
                self._cache.popitem(last=False)
            return snapshot

    def _section(self, era: int, name: str) -> bytes:
        blob = self._load(f"era{era}:{name}")
        if self.eras[era].kind == "delta":
            try:
                return zlib.decompress(bytes(blob))
            except zlib.error as exc:
                raise TimelineFormatError(
                    f"era {era} section {name!r} does not inflate: {exc}"
                ) from None
        return blob

    def _materialize(self, era: int) -> Snapshot:
        info = self.eras[era]
        if info.kind == "full":
            prefix = f"era{era}:"
            loader = self._load
            snapshot = Snapshot.from_sections(
                meta_blob=bytes(self._section(era, "meta")),
                stats_blob=bytes(self._section(era, "stats")),
                asns_blob=bytes(self._section(era, "asns")),
                version=info.snapshot_version,
                loader=lambda name: loader(prefix + name),
            )
            return snapshot
        if info.kind != "delta":
            raise TimelineFormatError(
                f"era {era} has unknown kind {info.kind!r}"
            )
        base = self.snapshot(era - 1)

        suffix_blob = bytes(self._section(era, "asns+"))
        if len(suffix_blob) % 8:
            raise TimelineFormatError("asns+ section not a multiple of 8")
        suffix = list(
            struct.unpack(f"<{len(suffix_blob) // 8}Q", suffix_blob)
        )
        asns = list(base.asns) + suffix
        n = len(asns)

        link_map = _link_tuple_map(base)
        for key in _decode_link_keys(bytes(self._section(era, "links-"))):
            if link_map.pop(key, None) is None:
                raise TimelineFormatError(
                    f"era {era} removes link {key} absent from era "
                    f"{era - 1}"
                )
        for a, b, code, flag in _decode_links(
            bytes(self._section(era, "links+"))
        ):
            link_map[(a, b)] = (code, flag)
        rows = sorted(
            (a, b, code, flag)
            for (a, b), (code, flag) in link_map.items()
        )

        try:
            meta = json.loads(bytes(self._section(era, "meta")))
            stats = json.loads(bytes(self._section(era, "stats")))
        except ValueError as exc:
            raise TimelineFormatError(
                f"era {era} meta/stats JSON: {exc}"
            ) from None

        snapshot = Snapshot(
            asns=asns,
            meta=meta,
            stats=stats,
            version=info.snapshot_version,
        )
        snapshot._attach_links(rows)
        snapshot._attach_ranks(
            _decode_ranks(bytes(self._section(era, "ranks")))
        )
        n_prev = len(base.asns)
        for definition in snapshot.definitions:
            delta = _decode_cones(
                bytes(self._section(era, _cone_section(definition))), n
            )
            prev_bits = base._cone_bits(definition)
            bits = [prev_bits[i] ^ delta[i] for i in range(n_prev)]
            bits.extend(delta[n_prev:])
            snapshot._cones[definition.value] = bits
        return snapshot

    def verify_content(self) -> None:
        """Materialize every era and check its content version.

        Stronger (and slower) than the per-section checksums: proves
        the delta walk reconstructs exactly the snapshot that was
        encoded at build time.
        """
        for info in self.eras:
            rebuilt = self.snapshot(info.index)
            version = rebuilt.content_version()
            if version != info.snapshot_version:
                raise TimelineFormatError(
                    f"era {info.index} materialized to {version}, "
                    f"header says {info.snapshot_version}"
                )

    # -- analytics ------------------------------------------------------

    def diff(
        self, era_a: int, era_b: int, max_examples: int = 10
    ) -> Dict[str, object]:
        """Era-over-era comparison, computed set-wise in ASN space.

        Works across any era pair (including ``full``-fallback eras
        whose id spaces differ) because everything is compared by ASN,
        never by dense id.
        """
        era_a = self._check_index(era_a)
        era_b = self._check_index(era_b)
        snap_a = self.snapshot(era_a)
        snap_b = self.snapshot(era_b)

        asns_a = set(snap_a.asns)
        asns_b = set(snap_b.asns)
        born = sorted(asns_b - asns_a)
        gone = sorted(asns_a - asns_b)

        links_a = _asn_link_map(snap_a)
        links_b = _asn_link_map(snap_b)
        added = sorted(k for k in links_b if k not in links_a)
        removed = sorted(k for k in links_a if k not in links_b)
        flips: Dict[str, int] = {}
        flip_examples: List[List[object]] = []
        for key in links_a.keys() & links_b.keys():
            before, after = links_a[key], links_b[key]
            if before == after:
                continue
            transition = f"{before}->{after}"
            flips[transition] = flips.get(transition, 0) + 1
            if len(flip_examples) < max_examples:
                flip_examples.append(
                    [key[0], key[1], before, after]
                )
        flip_examples.sort()

        clique_a = set(snap_a.meta.get("clique", ()))
        clique_b = set(snap_b.meta.get("clique", ()))

        shared_defs = sorted(
            set(snap_a.meta["definitions"])
            & set(snap_b.meta["definitions"])
        )
        shared_asns = sorted(asns_a & asns_b)
        cones: Dict[str, Dict[str, int]] = {}
        for value in shared_defs:
            definition = ConeDefinition(value)
            grown = shrunk = unchanged = 0
            growth = churn = 0
            for asn in shared_asns:
                cone_a = snap_a.cone(asn, definition)
                cone_b = snap_b.cone(asn, definition)
                if len(cone_b) > len(cone_a):
                    grown += 1
                elif len(cone_b) < len(cone_a):
                    shrunk += 1
                else:
                    unchanged += 1
                growth += len(cone_b) - len(cone_a)
                churn += len(cone_a ^ cone_b)
            cones[value] = {
                "grown": grown,
                "shrunk": shrunk,
                "unchanged": unchanged,
                "total_growth": growth,
                "membership_churn": churn,
            }

        return {
            "era_a": era_a,
            "era_b": era_b,
            "snapshot_a": snap_a.version,
            "snapshot_b": snap_b.version,
            "ases": {
                "a": len(asns_a),
                "b": len(asns_b),
                "new_count": len(born),
                "vanished_count": len(gone),
                "new": born[:max_examples],
                "vanished": gone[:max_examples],
            },
            "links": {
                "a": len(links_a),
                "b": len(links_b),
                "added": len(added),
                "removed": len(removed),
                "flips": dict(sorted(flips.items())),
                "flip_examples": flip_examples[:max_examples],
            },
            "clique": {
                "a": sorted(clique_a),
                "b": sorted(clique_b),
                "entered": sorted(clique_b - clique_a),
                "left": sorted(clique_a - clique_b),
            },
            "cones": cones,
        }

    def history(self, asn: int) -> List[Dict[str, object]]:
        """Per-era rank/degree/cone-size series for one AS."""
        series: List[Dict[str, object]] = []
        for info in self.eras:
            snapshot = self.snapshot(info.index)
            row: Dict[str, object] = {
                "era": info.index,
                "label": info.label,
                "date": info.date,
                "snapshot": info.snapshot_version,
                "present": asn in snapshot,
            }
            entry = snapshot.rank_entry(asn)
            if entry is not None:
                row.update(
                    rank=entry.rank,
                    cone_ases=entry.cone_ases,
                    transit_degree=entry.transit_degree,
                    node_degree=entry.node_degree,
                    num_customers=entry.num_customers,
                    num_peers=entry.num_peers,
                    num_providers=entry.num_providers,
                )
            series.append(row)
        return series

    def close(self) -> None:
        """Release the backing reader; idempotent."""
        with self._lock:
            self._cache.clear()
        if self._reader is not None:
            self._reader.close()


def _asn_link_map(snapshot: Snapshot) -> Dict[Tuple[int, int], str]:
    """Canonical (asn_lo, asn_hi) -> oriented relationship label.

    ``p2c`` means the lower-numbered AS is the provider, ``c2p`` the
    higher-numbered one — so a provider-direction flip shows up as a
    relationship change even though the code stays P2C.
    """
    asns = snapshot.asns
    out: Dict[Tuple[int, int], str] = {}
    p2c = int(Relationship.P2C)
    for a_id, b_id, code, flag in snapshot._links_as_tuples():
        if code == p2c and flag != _NO_PROVIDER:
            label = "p2c" if flag == _PROVIDER_A else "c2p"
        else:
            label = Relationship(code).label
        out[(int(asns[a_id]), int(asns[b_id]))] = label
    return out


# ---------------------------------------------------------------------------
# build / save / load
# ---------------------------------------------------------------------------


def build_timeline(
    snapshots: Sequence[Tuple[str, Snapshot]],
    dates: Optional[Sequence[str]] = None,
    start_year: int = DEFAULT_START_YEAR,
) -> Timeline:
    """Delta-encode an ordered ``(label, Snapshot)`` sequence.

    Era 0 is stored full; each later era is stored as a delta when it
    prefix-extends its predecessor (the evolution model guarantees
    this) and degrades to full otherwise.  ``dates`` defaults to one
    year per era starting at ``start_year``.
    """
    if not snapshots:
        raise ValueError("build_timeline needs at least one snapshot")
    if dates is None:
        dates = default_era_dates(len(snapshots), start_year)
    if len(dates) != len(snapshots):
        raise ValueError(
            f"{len(snapshots)} snapshots but {len(dates)} dates"
        )
    if list(dates) != sorted(dates):
        raise ValueError("era dates must be non-decreasing")

    sections: Dict[str, bytes] = {}
    eras: List[EraInfo] = []
    prev: Optional[Snapshot] = None
    for i, (label, snapshot) in enumerate(snapshots):
        if prev is None or not _prefix_compatible(prev, snapshot):
            kind = "full"
            encoded = snapshot.sections()
        else:
            kind = "delta"
            encoded = {
                name: zlib.compress(blob, 6)
                for name, blob in _encode_delta(prev, snapshot).items()
            }
        for name, blob in encoded.items():
            sections[f"era{i}:{name}"] = blob
        eras.append(
            EraInfo(
                index=i,
                label=label,
                date=str(dates[i]),
                kind=kind,
                snapshot_version=(
                    snapshot.version or snapshot.content_version()
                ),
                n_ases=len(snapshot.asns),
                n_links=len(snapshot._links_as_tuples()),
            )
        )
        prev = snapshot

    return Timeline(
        eras=eras,
        loader=sections.__getitem__,
        version=_timeline_version(sections),
        section_names=sorted(sections),
        sections=sections,
    )


def era_snapshots(
    series,
    collector_config=None,
    inference_config=None,
    vps_per_as: float = 0.05,
    workers: int = 0,
) -> List[Tuple[str, Snapshot]]:
    """Run the longitudinal pipeline over a ``(label, ASGraph)``
    series and compile one full :class:`Snapshot` per era.

    Vantage points persist across eras (as RouteViews' did), so the
    observed deltas are topology changes, not collector churn.  This
    is the builder behind ``repro-asrank timeline build``, the bench
    and the smoke.
    """
    from repro.analysis.timeseries import series_metrics
    from repro.asrank import ASRank

    metrics = series_metrics(
        series,
        collector_config=collector_config,
        inference_config=inference_config,
        vps_per_as=vps_per_as,
        workers=workers,
    )
    snapshots: List[Tuple[str, Snapshot]] = []
    for (label, graph), era in zip(series, metrics):
        facade = ASRank(
            era.result.paths,
            config=era.result.config,
            prefixes_by_asn={a.asn: a.prefixes for a in graph.ases()},
        )
        facade._result = era.result
        snapshots.append(
            (label, facade.snapshot(source=f"era:{label}"))
        )
    return snapshots


def save_timeline(timeline: Timeline, path: str) -> str:
    """Write ``timeline`` to ``path`` atomically; returns its version."""
    sections = timeline._sections
    if sections is None:
        # re-serialize a file-backed timeline from its reader
        sections = {
            name: bytes(timeline._load(name))
            for name in timeline._section_names
        }
    table: Dict[str, Dict[str, object]] = {}
    payload_parts: List[bytes] = []
    offset = 0
    for name in sorted(sections):
        blob = sections[name]
        padded = _align(offset, SECTION_ALIGNMENT)
        if padded != offset:
            payload_parts.append(b"\0" * (padded - offset))
            offset = padded
        table[name] = {
            "offset": offset,
            "length": len(blob),
            "sha256": hashlib.sha256(blob).hexdigest(),
        }
        payload_parts.append(blob)
        offset += len(blob)
    payload = b"".join(payload_parts)
    header = json.dumps(
        {
            "version": timeline.version,
            "payload_sha256": hashlib.sha256(payload).hexdigest(),
            "minor": 0,
            "alignment": SECTION_ALIGNMENT,
            "eras": [info.to_header() for info in timeline.eras],
            "sections": table,
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode()
    payload_start = _align(_FIXED.size + len(header), SECTION_ALIGNMENT)
    header += b" " * (payload_start - _FIXED.size - len(header))

    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tln.tmp")
    try:
        with os.fdopen(fd, "wb") as stream:
            stream.write(
                _FIXED.pack(TIMELINE_MAGIC, FORMAT_VERSION, len(header))
            )
            stream.write(header)
            stream.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return timeline.version


def _read_timeline_header(stream) -> Dict[str, object]:
    return read_container_header(
        stream, TIMELINE_MAGIC, ("version", "eras", "sections"),
        TimelineFormatError,
    )


def read_timeline_header(path: str) -> Tuple[Dict[str, object], int]:
    """The parsed JSON header and the payload's file offset (what
    ``repro-asrank timeline info`` prints from)."""
    with open(path, "rb") as stream:
        header = _read_timeline_header(stream)
        return header, stream.tell()


def _eras_from_header(header: Dict[str, object]) -> List[EraInfo]:
    if not isinstance(header["eras"], list):
        raise TimelineFormatError("era table is not a JSON list")
    eras: List[EraInfo] = []
    for i, entry in enumerate(header["eras"]):
        try:
            info = EraInfo(
                index=i,
                label=str(entry["label"]),
                date=str(entry["date"]),
                kind=str(entry["kind"]),
                snapshot_version=str(entry["snapshot_version"]),
                n_ases=int(entry["n_ases"]),
                n_links=int(entry["n_links"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TimelineFormatError(
                f"era {i} header entry malformed: {exc}"
            ) from None
        if info.kind not in ("full", "delta"):
            raise TimelineFormatError(
                f"era {i} has unknown kind {info.kind!r}"
            )
        if i == 0 and info.kind != "full":
            raise TimelineFormatError("era 0 must be stored full")
        eras.append(info)
    return eras


def load_timeline(
    path: str, verify: bool = False, cache_size: int = Timeline.DEFAULT_CACHE
) -> Timeline:
    """Open a timeline file behind a checksumming section reader.

    The file is mapped once (:func:`~repro.serve.store.open_sections`)
    and each section is sha256-verified on first touch, then copied out
    of the mapping for the bytes-based era decode — ``os.replace`` of
    the path never changes what an open timeline serves.
    ``verify=True`` forces every section through its checksum up
    front, the same contract a pre-fork worker relies on before
    committing a reload.
    """
    header, reader = open_sections(path, _read_timeline_header)
    if verify:
        reader.verify_all()
    return Timeline(
        eras=_eras_from_header(header),
        loader=lambda name: bytes(reader(name)),
        version=str(header["version"]),
        section_names=sorted(header["sections"]),
        path=path,
        cache_size=cache_size,
        reader=reader,
    )
