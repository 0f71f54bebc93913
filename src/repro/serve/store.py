"""Single-file snapshot container + the hot-swappable store.

File layout (all little-endian)::

    offset 0   magic        8 bytes  b"REPROSNP"
    offset 8   format       u32      container format version (1)
    offset 12  header_len   u32      length of the JSON header
    offset 16  header       JSON     {"version", "payload_sha256",
                                      "minor", "alignment",
                                      "sections": {name: {offset,
                                      length, sha256}}}
    then       payload      bytes    section blobs, concatenated

Since format minor 1 the header is space-padded and every section
offset is zero-padded so each section starts on a 64-byte boundary in
the file — mmap'd numpy views land aligned.  Minor-0 files (unpadded)
load unchanged: readers only ever trust the header's offset table.

Integrity is two-level: the header carries a sha256 over the whole
payload (verified on eager loads) and one per section (verified on
eager loads and on first access in mmap loads), so a flipped payload
byte or a section entry pointing at the wrong span is rejected on
either path.  The header's own labels (``version``, ``minor``) carry
no checksum.  The section table itself is checked before any payload
byte is read: every entry must name a non-overlapping, in-file span
and a sha256, else the load fails with a typed format error.
``save_snapshot`` writes to a temp file in the target directory and
``os.replace``s it into place, so a concurrently reloading server
never observes a half-written file.

Two load modes (``load_snapshot(path, mode=...)``):

* ``eager`` — read + checksum the whole payload and every section,
  decode every section.
* ``mmap`` — map the file read-only and hand sections out as
  zero-copy views of the mapping; numpy decodes links/ranks as array
  views over the mapped pages and cones stay packed with per-AS lazy
  access, so N worker processes mapping the same file share one
  physical copy of the payload.  Where the platform cannot map the
  file, the same reader runs over a copy of its bytes — results are
  bit-identical in both modes.

:class:`SnapshotStore` is what the server holds: the current
:class:`~repro.serve.snapshot.Snapshot` behind one attribute, swapped
atomically by ``reload()`` — in-flight requests keep the reference
they started with, new requests see the new version.
"""

from __future__ import annotations

import hashlib
import json
import mmap as _mmap_module
import os
import re
import struct
import tempfile
import threading
from typing import Callable, Dict, Optional, Tuple, Type

from repro import perf
from repro.serve.snapshot import Snapshot, SnapshotFormatError

MAGIC = b"REPROSNP"
FORMAT_VERSION = 1
#: header minor version: 1 marks 64-byte-aligned section offsets;
#: minor-0 (pre-alignment) files load unchanged
MINOR_VERSION = 1
#: section offsets are padded to this boundary in the file so mmap'd
#: numpy views start aligned
SECTION_ALIGNMENT = 64
_FIXED = struct.Struct("<8sII")

LOAD_MODES = ("eager", "mmap")
_SHA256_HEX = re.compile(r"[0-9a-f]{64}")


class TimelineLookupError(ValueError):
    """An ``as_of``/era token that does not resolve against the
    mounted timeline.

    Lives here (not in :mod:`repro.timeline`) so the handler layer can
    catch it without a circular import; the serving layer maps it to a
    400 — a bad era reference is a client error, never a server fault.
    """


def _align(offset: int, alignment: int) -> int:
    return -(-offset // alignment) * alignment


def save_snapshot(snapshot: Snapshot, path: str) -> str:
    """Write ``snapshot`` to ``path`` atomically; returns its version."""
    with perf.stage("snapshot-save"):
        sections = snapshot.sections()
        table: Dict[str, Dict[str, object]] = {}
        payload_parts = []
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
        version = snapshot.version or snapshot.content_version()
        header = json.dumps(
            {
                "version": version,
                "payload_sha256": hashlib.sha256(payload).hexdigest(),
                "minor": MINOR_VERSION,
                "alignment": SECTION_ALIGNMENT,
                "sections": table,
            },
            sort_keys=True,
            separators=(",", ":"),
        ).encode()
        # space-pad the header (JSON tolerates trailing whitespace) so
        # the payload itself starts on an aligned file offset
        payload_start = _align(_FIXED.size + len(header), SECTION_ALIGNMENT)
        header += b" " * (payload_start - _FIXED.size - len(header))

        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".snap.tmp")
        try:
            with os.fdopen(fd, "wb") as stream:
                stream.write(
                    _FIXED.pack(MAGIC, FORMAT_VERSION, len(header))
                )
                stream.write(header)
                stream.write(payload)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    return version


def _check_section_table(
    sections: object,
    payload_size: int,
    error: Type[SnapshotFormatError],
) -> None:
    """Raise ``error`` unless the section table can be trusted for
    slicing: every entry an object with non-negative int
    ``offset``/``length`` and a 64-hex-digit ``sha256``, lying inside
    the ``payload_size`` bytes after the header and sharing no byte
    with any other section."""
    if not isinstance(sections, dict):
        raise error("section table is not a JSON object")
    spans = []
    for name, entry in sections.items():
        if not isinstance(entry, dict):
            raise error(f"section {name!r} entry is not an object")
        offset, length = entry.get("offset"), entry.get("length")
        if not all(type(v) is int and v >= 0 for v in (offset, length)):
            raise error(
                f"section {name!r} offset/length are not non-negative ints"
            )
        digest = entry.get("sha256")
        if not (isinstance(digest, str) and _SHA256_HEX.fullmatch(digest)):
            raise error(f"section {name!r} sha256 is not 64 hex digits")
        if offset + length > payload_size:
            raise error(
                f"section {name!r} truncated: runs past the end of the file"
            )
        if length:
            spans.append((offset, offset + length, name))
    spans.sort()
    for (_, end, first), (start, _, second) in zip(spans, spans[1:]):
        if start < end:
            raise error(f"sections {first!r} and {second!r} overlap")


def read_container_header(
    stream,
    magic: bytes,
    required: Tuple[str, ...],
    error: Type[SnapshotFormatError],
) -> Dict[str, object]:
    """Parse the fixed + JSON header of either container (REPROSNP,
    REPROTLN) off ``stream``, left at the payload offset; the header
    must be an object carrying the ``required`` keys and a sound
    section table."""
    fixed = stream.read(_FIXED.size)
    if len(fixed) < _FIXED.size:
        raise error("file too short for a header")
    found, fmt, header_len = _FIXED.unpack(fixed)
    if found != magic:
        raise error(f"bad magic {found!r}")
    if fmt != FORMAT_VERSION:
        raise error(f"unsupported container format {fmt}")
    header_blob = stream.read(header_len)
    if len(header_blob) < header_len:
        raise error("truncated header")
    try:
        header = json.loads(header_blob)
    except ValueError as exc:
        raise error(f"bad header JSON: {exc}") from None
    if not isinstance(header, dict):
        raise error("header is not a JSON object")
    for key in required:
        if key not in header:
            raise error(f"header missing {key!r}")
    payload_size = os.fstat(stream.fileno()).st_size - stream.tell()
    _check_section_table(header["sections"], payload_size, error)
    return header


def _read_header(stream) -> Dict[str, object]:
    return read_container_header(
        stream, MAGIC, ("version", "payload_sha256", "sections"),
        SnapshotFormatError,
    )


def read_snapshot_header(path: str) -> Tuple[Dict[str, object], int]:
    """The parsed JSON header and the payload's file offset.

    What ``repro-asrank snapshot info`` prints the section table from;
    no payload bytes are read or verified.
    """
    with open(path, "rb") as stream:
        header = _read_header(stream)
        return header, stream.tell()


class MappedSectionReader:
    """Zero-copy section access over one read-only ``mmap``.

    ``__call__`` returns a ``memoryview`` slice of the mapping — no
    bytes are copied; the kernel shares the physical pages between
    every process mapping the same file.  Each section's sha256 is
    verified lazily on its first touch (hashing reads the mapped pages
    in place).  Where the platform supports it the mapping is advised
    ``MADV_WILLNEED`` so first-touch latency is a readahead, not a
    page-fault-per-4k walk.

    ``mapping`` may also be plain ``bytes`` (the copy
    :func:`open_sections` falls back to where the platform cannot map
    the file); everything above holds unchanged over it.

    ``close()`` is best-effort: the mapping can only be released once
    every exported view (numpy arrays included) is gone, so an
    outstanding view downgrades close to a no-op and the OS reclaims
    the mapping when the last reference dies.
    """

    def __init__(self, path: str, header: Dict[str, object],
                 payload_offset: int, mapping):
        self._path = path
        self._sections: Dict[str, Dict[str, object]] = header["sections"]
        self._payload_offset = payload_offset
        self._map = mapping
        self._view = memoryview(mapping)
        self._verified: set = set()
        self._lock = threading.Lock()
        if hasattr(self._map, "madvise") and hasattr(
            _mmap_module, "MADV_WILLNEED"
        ):
            try:
                self._map.madvise(_mmap_module.MADV_WILLNEED)
            except OSError:
                pass

    def __call__(self, name: str) -> memoryview:
        entry = self._sections.get(name)
        if entry is None:
            raise SnapshotFormatError(f"section {name!r} missing")
        if self._view is None:
            raise SnapshotFormatError(
                f"section {name!r} requested after the mapping of "
                f"{self._path} was closed"
            )
        start = self._payload_offset + int(entry["offset"])
        stop = start + int(entry["length"])
        if stop > len(self._view):
            raise SnapshotFormatError(f"section {name!r} truncated")
        view = self._view[start:stop]
        with self._lock:
            if name not in self._verified:
                if hashlib.sha256(view).hexdigest() != entry["sha256"]:
                    raise SnapshotFormatError(
                        f"section {name!r} checksum mismatch "
                        f"(corrupted snapshot)"
                    )
                self._verified.add(name)
        return view

    def verify_all(self) -> None:
        """Force every section through its first-touch checksum."""
        for name in self._sections:
            self(name)

    def close(self) -> None:
        if self._view is not None:
            self._view.release()
            self._view = None
        close = getattr(self._map, "close", None)
        if close is not None:
            try:
                close()
            except BufferError:
                # numpy views over the mapping are still alive; the
                # mapping is freed when the last of them is collected
                pass
            self._map = None


def open_sections(
    path: str,
    read_header: Callable[..., Dict[str, object]],
) -> Tuple[Dict[str, object], MappedSectionReader]:
    """Parse ``path``'s header and map the file behind one reader.

    The mapping pins the inode, so a concurrent ``os.replace`` of the
    path never changes what the reader serves.  Where the platform
    cannot map the file, the same reader runs over a copy of its
    bytes.
    """
    with open(path, "rb") as stream:
        header = read_header(stream)
        payload_offset = stream.tell()
        try:
            mapping = _mmap_module.mmap(
                stream.fileno(), 0, access=_mmap_module.ACCESS_READ
            )
        except (OSError, ValueError, OverflowError):
            stream.seek(0)
            mapping = stream.read()
    return header, MappedSectionReader(path, header, payload_offset, mapping)


def _check_mode(mode: Optional[str]) -> str:
    mode = mode or "eager"
    if mode not in LOAD_MODES:
        raise ValueError(
            f"unknown snapshot load mode {mode!r}; one of {LOAD_MODES}"
        )
    return mode


def load_snapshot(
    path: str,
    mode: Optional[str] = None,
    verify: bool = False,
) -> Snapshot:
    """Load a snapshot file.

    ``mode`` picks the load path (``eager``, the default, or ``mmap``;
    see the module docstring).  ``verify=True`` forces every section
    through its checksum up front even in mmap mode — what a pre-fork
    worker does before *committing* to a new snapshot, so a corrupt
    section can never surface mid-request after a hot reload.
    """
    mode = _check_mode(mode)
    with perf.stage("snapshot-load"):
        if mode == "mmap":
            header, reader = open_sections(path, _read_header)
            if verify:
                reader.verify_all()
            snapshot = Snapshot.from_sections(
                meta_blob=bytes(reader("meta")),
                stats_blob=bytes(reader("stats")),
                asns_blob=reader("asns"),
                version=str(header["version"]),
                loader=reader,
                mapped=True,
            )
            snapshot._section_reader = reader
            return snapshot

        # eager: one read, whole-payload checksum, decode everything
        with open(path, "rb") as stream:
            header = _read_header(stream)
            payload = stream.read()
        if hashlib.sha256(payload).hexdigest() != header["payload_sha256"]:
            raise SnapshotFormatError(
                f"{path}: payload checksum mismatch (corrupted snapshot)"
            )
        blobs: Dict[str, bytes] = {}
        for name, entry in header["sections"].items():
            start = entry["offset"]
            blob = payload[start:start + entry["length"]]
            # the payload checksum does not cover the table: an entry
            # pointing at the wrong span must fail its own digest
            if hashlib.sha256(blob).hexdigest() != entry["sha256"]:
                raise SnapshotFormatError(
                    f"section {name!r} checksum mismatch "
                    f"(corrupted snapshot)"
                )
            blobs[name] = blob

        def section(name: str) -> bytes:
            blob = blobs.get(name)
            if blob is None:
                raise SnapshotFormatError(f"section {name!r} missing")
            return blob

        return Snapshot.from_sections(
            meta_blob=section("meta"),
            stats_blob=section("stats"),
            asns_blob=section("asns"),
            version=str(header["version"]),
            loader=section,
            eager=True,
        )


def read_payload_header(path: str) -> Tuple[Dict[str, object], int]:
    """Sniff the magic and parse either container's header — what the
    CLI uses to fail fast on a missing/garbled file before forking a
    fleet."""
    from repro import timeline as _timeline

    with open(path, "rb") as probe:
        magic = probe.read(len(_timeline.TIMELINE_MAGIC))
    if magic == _timeline.TIMELINE_MAGIC:
        return _timeline.read_timeline_header(path)
    return read_snapshot_header(path)


def load_payload(path: str, mode: Optional[str] = None,
                 verify: bool = False):
    """Sniff the container magic and load a snapshot *or* a timeline.

    Every serving entry point (store, worker prepare, CLI serve) goes
    through this, so a ``REPROTLN`` timeline file drops in anywhere a
    ``REPROSNP`` file does.  Returns a :class:`Snapshot` or a
    :class:`repro.timeline.Timeline` — both carry ``.version``.
    """
    from repro import timeline as _timeline

    with open(path, "rb") as probe:
        magic = probe.read(len(_timeline.TIMELINE_MAGIC))
    if magic == _timeline.TIMELINE_MAGIC:
        return _timeline.load_timeline(path, verify=verify)
    return load_snapshot(path, mode=mode, verify=verify)


class SnapshotStore:
    """The server's mount point: one current snapshot, swapped atomically.

    ``current`` is a single attribute read; Python attribute assignment
    is atomic, so handlers grab a reference once per request and keep
    serving the version they started with while ``reload()`` swaps in
    a new one mid-flight.

    A store can mount a whole :class:`repro.timeline.Timeline` instead
    of a single snapshot (``timeline=`` or a ``REPROTLN`` file at
    ``path``): ``current`` is then the latest era and ``timeline``
    exposes the historical eras to the ``as_of`` serving path.
    ``cache_version`` is what response caches and ETags must key on —
    the timeline version when one is mounted (any era changing changes
    it), the snapshot version otherwise.
    """

    def __init__(
        self,
        snapshot: Optional[Snapshot] = None,
        path: Optional[str] = None,
        mode: Optional[str] = None,
        timeline=None,
    ):
        if snapshot is None and path is None and timeline is None:
            raise ValueError(
                "SnapshotStore needs a snapshot, a timeline or a path"
            )
        self.path = path
        self.mode = _check_mode(mode)
        self._reload_lock = threading.Lock()
        self.reloads = 0
        self.timeline = None
        if timeline is not None:
            self._adopt(timeline)
        elif snapshot is not None:
            self.current: Snapshot = snapshot
        else:
            self._adopt(load_payload(path, mode=self.mode))

    def _adopt(self, payload) -> None:
        """Point ``current``/``timeline`` at a loaded payload."""
        from repro.timeline import Timeline

        if isinstance(payload, Timeline):
            self.timeline = payload
            self.current = payload.latest
        else:
            self.timeline = None
            self.current = payload

    @property
    def cache_version(self) -> str:
        timeline = self.timeline
        return timeline.version if timeline is not None \
            else self.current.version

    def reload(self, path: Optional[str] = None) -> Snapshot:
        """Load (or re-load) the file and swap it in atomically.

        Raises without touching ``current`` if the file is missing or
        corrupted — a bad rebuild never takes down a serving store.
        """
        with self._reload_lock:
            target = path or self.path
            if target is None:
                raise SnapshotFormatError(
                    "store has no file to reload from"
                )
            fresh = load_payload(target, mode=self.mode)
            self.path = target
            self._adopt(fresh)
            self.reloads += 1
            perf.counter("snapshot-reloads")
        return self.current

    def swap(self, payload, path: Optional[str] = None) -> None:
        """Install an already-loaded snapshot or timeline (worker
        commit, tests).

        ``path`` updates the store's reload source alongside — a
        worker committing a coordinated reload points later
        ``reload()`` calls at the file it just adopted.
        """
        with self._reload_lock:
            self._adopt(payload)
            if path is not None:
                self.path = path
            self.reloads += 1
