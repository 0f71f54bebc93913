"""repro.graph — the shared columnar graph core.

One canonical home for the dense representations every layer of the
reproduction used to hand-roll separately:

* :class:`~repro.graph.index.DenseIndex` — the ASN ↔ dense-id mapping
  (sorted, deterministic, immutable);
* :class:`~repro.graph.bitset.BitsetFamily` /
  :class:`~repro.graph.bitset.ClosureBitsets` /
  :func:`~repro.graph.bitset.closure_bits` — Python-int bitsets over
  dense ids and the system's only transitive-closure implementations;
* :class:`~repro.graph.csr.Csr` — relationship-typed CSR adjacency
  over numpy arrays, built from per-row lists
  (:func:`~repro.graph.csr.csr_arrays`) or pair columns
  (:func:`~repro.graph.csr.csr_from_pairs`) and read row by row
  through :class:`~repro.graph.csr.CsrRows`;
* :class:`~repro.graph.relgraph.RelGraph` — the frozen graph object
  built once per world and consumed by inference, cones, propagation
  and the snapshot store;
* :class:`~repro.graph.shm.SharedRelGraph` — the zero-copy
  shared-memory codec that packs a frozen graph into one named segment
  for worker processes to map read-only.

See docs/ARCHITECTURE.md for which layer owns what.
"""

from repro.graph.bitset import (
    BitsetFamily,
    ClosureBitsets,
    closure_bits,
    decode_bits,
)
from repro.graph.csr import (
    MAX_INT32,
    Csr,
    CsrOverflowError,
    CsrRows,
    csr_arrays,
    csr_from_pairs,
)
from repro.graph.index import MAX_ASN, DenseIndex
from repro.graph.relgraph import RelGraph
from repro.graph.shm import SharedGraphIndex, SharedRelGraph

__all__ = [
    "BitsetFamily",
    "ClosureBitsets",
    "Csr",
    "CsrOverflowError",
    "CsrRows",
    "DenseIndex",
    "MAX_ASN",
    "MAX_INT32",
    "RelGraph",
    "SharedGraphIndex",
    "SharedRelGraph",
    "closure_bits",
    "csr_arrays",
    "csr_from_pairs",
    "decode_bits",
]
