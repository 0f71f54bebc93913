"""StreamIngestor: UPDATE batches in, content-versioned snapshots out.

The ingestor owns the :class:`~repro.stream.corpus.LiveCorpus`.  Every
publish reads the corpus's two views, the sanitized corpus (stage 1 over
the table's distinct raw paths) and the prefix map, then takes one of
two levels:

* **noop** — the sanitized corpus's columns (``flat`` and ``off``) and
  the prefix map both equal those of the last published facade; the
  previous snapshot object is reused unchanged.
* **full** — everything else: a batch recompute over the two views, the
  same pipeline as :func:`repro.stream.corpus.asrank_from_rib_rows`
  (the QA oracle).

Neither level builds the corpus's tuple views.  The resulting snapshot
goes to a pluggable publisher: :class:`StorePublisher` swaps it into an
in-process :class:`~repro.serve.store.SnapshotStore` (single server hot
reload), :class:`FleetPublisher` saves it to disk and drives the
:class:`~repro.serve.workers.WorkerFleet` two-phase coordinated reload.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence

import numpy as _np

from repro.core.cone import ConeDefinition
from repro.core.inference import InferenceConfig
from repro.core.paths import PathSet
from repro.mrt.reader import RibRecord, UpdateRecord
from repro.stream.corpus import LiveCorpus


@dataclass
class LiveState:
    """What a publish keeps resident for the next one."""

    facade: object  # repro.asrank.ASRank, inference and cones computed
    filtered: PathSet  # post-poison-filter corpus (link counters)
    prefixes_by_asn: Dict[int, List]
    snapshot: Optional[object] = None


@dataclass
class IngestStats:
    """Counters surfaced through ``/metrics`` and ``/stream``."""

    batches: int = 0
    updates: int = 0
    announces: int = 0
    withdrawals: int = 0
    links_added: int = 0
    links_removed: int = 0
    publishes: int = 0
    noop_publishes: int = 0
    full_publishes: int = 0
    apply_seconds: float = 0.0
    build_seconds: float = 0.0
    last_apply_seconds: float = 0.0
    last_build_seconds: float = 0.0
    last_publish_mode: Optional[str] = None
    last_publish_version: Optional[str] = None
    last_publish_unix: Optional[float] = None
    # read only by perfbench/streaming.py; always 0 and empty
    delta_publishes: int = 0
    fallbacks: Dict[str, int] = field(default_factory=dict)

    def as_dict(self, now: Optional[float] = None) -> Dict[str, object]:
        out: Dict[str, object] = {
            "batches": self.batches,
            "updates": self.updates,
            "announces": self.announces,
            "withdrawals": self.withdrawals,
            "links_added": self.links_added,
            "links_removed": self.links_removed,
            "publishes": self.publishes,
            "noop_publishes": self.noop_publishes,
            "full_publishes": self.full_publishes,
            "apply_seconds": round(self.apply_seconds, 6),
            "build_seconds": round(self.build_seconds, 6),
            "last_apply_seconds": round(self.last_apply_seconds, 6),
            "last_build_seconds": round(self.last_build_seconds, 6),
            "last_publish_mode": self.last_publish_mode,
            "last_publish_version": self.last_publish_version,
        }
        if self.last_publish_unix is not None and now is not None:
            out["last_publish_age_s"] = round(now - self.last_publish_unix, 3)
        return out


class StorePublisher:
    """Swap each published snapshot into an in-process store."""

    def __init__(self, store) -> None:
        self.store = store

    def __call__(self, snapshot) -> None:
        self.store.swap(snapshot)


class FleetPublisher:
    """Save each snapshot to ``path`` and coordinate a fleet reload."""

    def __init__(self, fleet, path: str) -> None:
        self.fleet = fleet
        self.path = path

    def __call__(self, snapshot) -> None:
        from repro.serve.store import save_snapshot

        save_snapshot(snapshot, self.path)
        self.fleet.reload(self.path)


class StreamIngestor:
    """Publishes snapshots of live inference over UPDATE batches."""

    def __init__(
        self,
        ixp_asns: Iterable[int] = frozenset(),
        config: Optional[InferenceConfig] = None,
        source: str = "stream",
        base_rows: Optional[Iterable[RibRecord]] = None,
        publisher: Optional[Callable[[object], None]] = None,
    ) -> None:
        self.ixp_asns = frozenset(ixp_asns)
        self.config = config or InferenceConfig()
        self.source = source
        self.corpus = LiveCorpus(base_rows, ixp_asns=self.ixp_asns)
        self.publisher = publisher
        self.live: Optional[LiveState] = None
        self.stats = IngestStats()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # ingest
    # ------------------------------------------------------------------

    def apply_batch(self, updates: Iterable[UpdateRecord]) -> None:
        updates = list(updates)
        announced, withdrawn = self.corpus.apply(updates)
        with self._lock:
            self.stats.batches += 1
            self.stats.updates += len(updates)
            self.stats.announces += announced
            self.stats.withdrawals += withdrawn

    def publish(self):
        """Build and publish a snapshot for the current table.

        Returns the published :class:`~repro.serve.snapshot.Snapshot`
        (the previous one on a noop).  Every returned snapshot is
        bit-identical to a batch recompute over ``self.corpus.rows()``.
        """
        start = time.perf_counter()
        sanitized = self.corpus.sanitized()
        prefixes = self.corpus.prefixes_by_asn()
        live = self.live
        added = removed = 0
        if (
            live is not None
            and _np.array_equal(sanitized.off, live.facade.paths.off)
            and _np.array_equal(sanitized.flat, live.facade.paths.flat)
            and prefixes == live.prefixes_by_asn
        ):
            mode, state = "noop", live
            built = applied = time.perf_counter()
        else:
            mode, state = "full", self._full_state(sanitized, prefixes)
            applied = time.perf_counter()
            state.snapshot = state.facade.snapshot(source=self.source)
            built = time.perf_counter()
            if self.publisher is not None:
                self.publisher(state.snapshot)
            new = state.filtered.link_index.keys
            old = live.filtered.link_index.keys if live else new[:0]
            added = len(_np.setdiff1d(new, old, assume_unique=True))
            removed = len(_np.setdiff1d(old, new, assume_unique=True))
        snapshot = state.snapshot
        self.live = state

        with self._lock:
            st = self.stats
            st.publishes += 1
            if mode == "noop":
                st.noop_publishes += 1
            else:
                st.full_publishes += 1
            st.links_added += added
            st.links_removed += removed
            st.last_apply_seconds = applied - start
            st.last_build_seconds = built - applied
            st.apply_seconds += st.last_apply_seconds
            st.build_seconds += st.last_build_seconds
            st.last_publish_mode = mode
            st.last_publish_version = snapshot.version
            st.last_publish_unix = time.time()
        return snapshot

    def run(
        self,
        batches: Iterable[Sequence[UpdateRecord]],
        publish_every: int = 1,
    ) -> List[object]:
        """Apply batches in order, publishing every ``publish_every``
        batches (and once at the end if work is pending)."""
        published: List[object] = []
        pending = 0
        for batch in batches:
            self.apply_batch(batch)
            pending += 1
            if publish_every and pending >= publish_every:
                published.append(self.publish())
                pending = 0
        if pending or not published:
            published.append(self.publish())
        return published

    # ------------------------------------------------------------------
    # status
    # ------------------------------------------------------------------

    def status(self) -> Dict[str, object]:
        """Point-in-time ingest status for ``/stream`` and ``--status``."""
        with self._lock:
            out = self.stats.as_dict(now=time.time())
        out["source"] = self.source
        out["table_rows"] = len(self.corpus)
        return out

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _full_state(self, sanitized: PathSet, prefixes) -> LiveState:
        """Batch recompute, staged so apply/build timings separate."""
        from repro.asrank import ASRank

        facade = ASRank(
            sanitized, config=self.config, prefixes_by_asn=prefixes
        )
        facade.result  # force inference
        for definition in ConeDefinition:
            facade.cones(definition)
        return LiveState(
            facade=facade,
            filtered=facade.result.paths,
            prefixes_by_asn=prefixes,
        )
