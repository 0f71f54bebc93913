"""Zero-copy shared-memory codec for frozen columnar graphs.

:class:`SharedRelGraph` packs one frozen graph — the
:class:`~repro.graph.index.DenseIndex` ASN table, the three
relationship-typed CSR adjacencies and the IXP route-server link map
— into a single named ``multiprocessing.shared_memory`` segment.
Worker processes attach the segment read-only and build numpy views
straight into the mapping: no pickling, no copying, one physical copy
of the graph no matter how many workers collect over it.

Segment layout (all little-endian, sections 8-byte aligned)::

    [0:8)    magic  b"RGSHM01\\n"
    [8:12)   uint32 header length L
    [12:12+L) JSON header:
             {"n": <row count>,
              "sections": [[name, dtype, offset, count], ...]}
    [..]     section payloads in header order

Section names: ``asns``; ``<view>_indptr``/``<view>_indices`` for
``prov``/``cust``/``peer``; optional ``ixp_a``/``ixp_b``/``ixp_rs``
(the ``via_ixp`` link map as parallel columns).  Dtypes follow the
repo-wide int32-first policy: every column is int32 unless its value
range forces int64.

Ownership rules:

* the process that calls :meth:`pack` owns the segment — it must
  eventually :meth:`unlink` it (a module registry plus ``atexit``
  backstop does this for owners that forget; the collector ties a
  segment's life to its ``Collector`` via ``weakref.finalize``);
* attachers (pool workers) never unlink; they cache one attachment per
  segment name for the life of the process and deregister from the
  ``resource_tracker`` so a worker exiting early cannot tear the
  segment down under its siblings (CPython < 3.13 registers attachers
  as if they were owners);
* on Linux the ``/dev/shm`` entry disappears at owner unlink even
  while workers still map it, so no orphans survive the owning
  process.
"""

from __future__ import annotations

import atexit
import json
import os
import struct
import threading
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as _np

from repro.graph.csr import Csr, CsrRows

from multiprocessing import resource_tracker as _resource_tracker
from multiprocessing import shared_memory as _shm

_MAGIC = b"RGSHM01\n"
_ALIGN = 8
_VIEWS = ("prov", "cust", "peer")

# segments owned by this process, by name; the atexit backstop unlinks
# whatever an owner did not release explicitly
_OWNED: Dict[str, "SharedRelGraph"] = {}
# attachments cached by this (worker) process, by name
_ATTACHED: Dict[str, "SharedGraphIndex"] = {}
_LOCK = threading.Lock()
_NAME_COUNTER = 0


def _next_name() -> str:
    global _NAME_COUNTER
    with _LOCK:
        _NAME_COUNTER += 1
        return f"repro_rg_{os.getpid()}_{_NAME_COUNTER}"


def _column(values: Sequence[int]):
    """An int32 column, widened to int64 only when values demand it."""
    arr = _np.asarray(values, dtype=_np.int64)
    if arr.size == 0 or (
        int(arr.min()) >= -(2**31) and int(arr.max()) < 2**31
    ):
        return arr.astype(_np.int32)
    return arr


class SharedRelGraph:
    """Owner handle for one packed graph segment."""

    __slots__ = ("name", "n", "_shm", "_sections", "_owner")

    def __init__(self, shm_obj, n: int, sections, owner: bool):
        self.name = shm_obj.name
        self.n = n
        self._shm = shm_obj
        self._sections = sections  # name -> (dtype str, offset, count)
        self._owner = owner

    # ------------------------------------------------------------------
    # packing (owner side)
    # ------------------------------------------------------------------

    @classmethod
    def pack(
        cls,
        rel,
        via_ixp: Optional[Dict[Tuple[int, int], int]] = None,
        name: Optional[str] = None,
    ) -> "SharedRelGraph":
        """Pack a :class:`~repro.graph.relgraph.RelGraph` into a segment.

        ``via_ixp`` (a ``canonical pair -> route-server ASN`` map, the
        generator's ``graph.via_ixp``) rides along as three parallel
        columns so workers need no topology object at all.  Returns
        the owning handle, registered for ``atexit`` unlink.
        """
        csr = rel.csr()
        arrays: List[Tuple[str, "_np.ndarray"]] = [
            ("asns", _column(rel.index.asns))
        ]
        for view_name, view in zip(
            _VIEWS, (csr.providers, csr.customers, csr.peers)
        ):
            indptr, indices = view
            arrays.append(
                (f"{view_name}_indptr", _np.ascontiguousarray(indptr))
            )
            arrays.append(
                (f"{view_name}_indices", _np.ascontiguousarray(indices))
            )
        if via_ixp:
            pairs = sorted(via_ixp.items())
            arrays.append(("ixp_a", _column([p[0][0] for p in pairs])))
            arrays.append(("ixp_b", _column([p[0][1] for p in pairs])))
            arrays.append(("ixp_rs", _column([p[1] for p in pairs])))

        sections: Dict[str, Tuple[str, int, int]] = {}
        entries = []
        offset = 0  # relative to the data region; rebased below
        for sec_name, arr in arrays:
            offset = (offset + _ALIGN - 1) // _ALIGN * _ALIGN
            sections[sec_name] = (str(arr.dtype), offset, int(arr.size))
            entries.append([sec_name, str(arr.dtype), offset, int(arr.size)])
            offset += arr.nbytes
        header = json.dumps(
            {"n": len(rel.index), "sections": entries},
            separators=(",", ":"),
        ).encode("ascii")
        data_base = (
            (len(_MAGIC) + 4 + len(header) + _ALIGN - 1)
            // _ALIGN * _ALIGN
        )
        total = data_base + offset

        shm_obj = _shm.SharedMemory(
            create=True, size=max(total, 1), name=name or _next_name()
        )
        buf = shm_obj.buf
        buf[: len(_MAGIC)] = _MAGIC
        struct.pack_into("<I", buf, len(_MAGIC), len(header))
        buf[len(_MAGIC) + 4: len(_MAGIC) + 4 + len(header)] = header
        for sec_name, arr in arrays:
            _, rel_off, count = sections[sec_name]
            dest = _np.frombuffer(
                buf, dtype=arr.dtype, count=count,
                offset=data_base + rel_off,
            )
            dest[:] = arr
        rebased = {
            sec: (dtype, data_base + rel_off, count)
            for sec, (dtype, rel_off, count) in sections.items()
        }
        packed = cls(shm_obj, len(rel.index), rebased, owner=True)
        with _LOCK:
            _OWNED[packed.name] = packed
        return packed

    # ------------------------------------------------------------------
    # attaching (worker side)
    # ------------------------------------------------------------------

    @classmethod
    def attach(cls, name: str) -> "SharedRelGraph":
        """Map an existing segment read-only (never unlinks it)."""
        # CPython < 3.13 registers every attach with the resource
        # tracker as if it owned the segment (bpo-39959); with a
        # fork-shared tracker that later collides with the owner's own
        # registration, and with a spawn-private tracker the segment
        # would be unlinked when this worker exits.  Suppress the
        # registration for the duration of the attach instead.
        with _LOCK:
            saved = _resource_tracker.register
            _resource_tracker.register = lambda *a, **k: None
            try:
                shm_obj = _shm.SharedMemory(name=name)
            finally:
                _resource_tracker.register = saved
        buf = shm_obj.buf
        if bytes(buf[: len(_MAGIC)]) != _MAGIC:
            shm_obj.close()
            raise ValueError(f"segment {name!r} is not a packed RelGraph")
        (header_len,) = struct.unpack_from("<I", buf, len(_MAGIC))
        header = json.loads(
            bytes(buf[len(_MAGIC) + 4: len(_MAGIC) + 4 + header_len])
        )
        data_base = (
            (len(_MAGIC) + 4 + header_len + _ALIGN - 1) // _ALIGN * _ALIGN
        )
        sections = {
            sec: (dtype, data_base + rel_off, count)
            for sec, dtype, rel_off, count in header["sections"]
        }
        return cls(shm_obj, int(header["n"]), sections, owner=False)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------

    def section(self, name: str) -> "_np.ndarray":
        """Read-only numpy view of one section (zero-copy)."""
        dtype, offset, count = self._sections[name]
        arr = _np.frombuffer(
            self._shm.buf, dtype=_np.dtype(dtype), count=count, offset=offset
        )
        arr.flags.writeable = False
        return arr

    def has_section(self, name: str) -> bool:
        return name in self._sections

    def csr(self) -> Csr:
        """The three CSR views, backed directly by the segment."""
        views = tuple(
            (self.section(f"{v}_indptr"), self.section(f"{v}_indices"))
            for v in _VIEWS
        )
        return Csr.from_arrays(*views)

    def via_ixp(self) -> Dict[Tuple[int, int], int]:
        """The packed IXP link map (empty when not packed)."""
        if not self.has_section("ixp_a"):
            return {}
        a = self.section("ixp_a").tolist()
        b = self.section("ixp_b").tolist()
        rs = self.section("ixp_rs").tolist()
        return {(x, y): z for x, y, z in zip(a, b, rs)}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Drop this process's mapping (views become invalid).

        When live numpy views still pin the mapping the close is
        deferred to process exit (the OS reclaims it; on Linux the
        ``/dev/shm`` entry is already gone once the owner unlinked) and
        the handle's destructor is disarmed so garbage collection does
        not retry and raise an unraisable :class:`BufferError`.
        """
        try:
            self._shm.close()
        except BufferError:
            self._shm.close = lambda: None

    def unlink(self) -> None:
        """Remove the segment (owner only); idempotent."""
        with _LOCK:
            _OWNED.pop(self.name, None)
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
            self._owner = False
        self.close()


class SharedGraphIndex:
    """A :class:`~repro.bgp.propagation.GraphIndex`-shaped view of a
    packed segment: ``asns``/``index`` lookup tables plus the typed
    adjacency, everything the batched engine, the reference leak pass
    and path reconstruction consume — built from the mapping, not from
    a pickled topology."""

    __slots__ = (
        "shared", "asns", "index", "providers", "customers", "peers",
        "via_ixp", "_csr",
    )

    def __init__(self, shared: SharedRelGraph):
        self.shared = shared
        self._csr = shared.csr()
        # the lookup tables are materialized once per process: tiny
        # next to the adjacency, and path walks then run at list speed
        self.asns: List[int] = shared.section("asns").tolist()
        self.index: Dict[int, int] = {
            asn: i for i, asn in enumerate(self.asns)
        }
        self.providers = CsrRows(self._csr.providers)
        self.customers = CsrRows(self._csr.customers)
        self.peers = CsrRows(self._csr.peers)
        self.via_ixp = shared.via_ixp()

    def __len__(self) -> int:
        return len(self.asns)

    def csr(self) -> Csr:
        return self._csr


def attach_index(name: str) -> SharedGraphIndex:
    """Worker-side attach, cached per process per segment name."""
    with _LOCK:
        cached = _ATTACHED.get(name)
    if cached is not None:
        return cached
    view = SharedGraphIndex(SharedRelGraph.attach(name))
    with _LOCK:
        return _ATTACHED.setdefault(name, view)


def release(name: str) -> None:
    """Owner-side unlink by name; safe when already released."""
    with _LOCK:
        packed = _OWNED.get(name)
    if packed is not None:
        packed.unlink()


def unlink_all() -> None:
    """Unlink every segment this process still owns (atexit backstop)."""
    with _LOCK:
        owned = list(_OWNED.values())
    for packed in owned:
        packed.unlink()


atexit.register(unlink_all)
