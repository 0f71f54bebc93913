"""Live-stream ingest: snapshots published from MRT UPDATE batches.

The batch pipeline rebuilds the world from scratch for every era; this
package is the streaming twin.  :class:`~repro.stream.corpus.LiveCorpus`
maintains the per-(prefix, peer) RIB table under announce/withdraw
semantics, and :class:`~repro.stream.ingest.StreamIngestor` turns
batches of decoded UPDATE records into published snapshots.  A publish
is either a noop (the sanitized corpus and the prefix map are
unchanged, so the previous snapshot is reused) or a full batch
recompute over the live table's maintained views.

The correctness contract is differential and absolute: every published
snapshot is bit-identical (equal content version) to a batch recompute
over the same final corpus — QA family 10 checks it on every publish of
seeded worlds.
"""

from repro.stream.corpus import (
    LiveCorpus,
    asrank_from_rib_rows,
    prefixes_from_rows,
)
from repro.stream.ingest import (
    FleetPublisher,
    IngestStats,
    StorePublisher,
    StreamIngestor,
)

__all__ = [
    "FleetPublisher",
    "IngestStats",
    "LiveCorpus",
    "StorePublisher",
    "StreamIngestor",
    "asrank_from_rib_rows",
    "prefixes_from_rows",
]
