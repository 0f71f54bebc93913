"""Relationship-typed CSR adjacency over dense ids.

The flat ``(indptr, indices)`` form every vectorized sweep wants: row
``i``'s neighbors are ``indices[indptr[i]:indptr[i+1]]``.  One
:class:`Csr` bundles the three relationship-typed views (providers,
customers, peers) that route propagation and any future traversal
consume.  Arrays are numpy.

Dtype policy: ``indices`` is always int32 (dense ids are bounded by
the row count, which :data:`MAX_INT32` caps); ``indptr`` is int32
while the entry count fits and falls back to int64 beyond that.  A
graph that cannot be addressed in 32 bits at all (≥ 2^31 rows) raises
:class:`CsrOverflowError` instead of silently wrapping.

Determinism: building from the same adjacency lists always yields
byte-identical arrays — ``indptr`` is a running sum and ``indices``
a concatenation, with no hashing or ordering freedom anywhere.
:func:`csr_from_pairs` builds the same arrays from unordered
``(row, neighbor)`` columns: one sort puts every row's neighbors in
ascending order, which is what the per-row sorted lists hold.

:class:`CsrRows` serves one view row by row (``rows[i]`` is row
``i``'s neighbor slice), the shape of the propagation world's
adjacency in-process and in shared-memory workers alike.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as _np

#: largest value an int32 cell can hold; the row-count ceiling for any
#: columnar structure addressed by dense int32 ids
MAX_INT32 = 2**31 - 1


class CsrOverflowError(OverflowError):
    """A CSR build would overflow its 32-bit id space."""


def csr_arrays(adjacency: Sequence[Sequence[int]]) -> Tuple[object, object]:
    """``(indptr, indices)`` numpy arrays for one adjacency.

    ``indices`` is int32 — dense ids, bounded by the row count, which
    must itself fit int32 (:class:`CsrOverflowError` otherwise).
    ``indptr`` is int32 while the total entry count fits, int64 beyond.
    """
    if len(adjacency) > MAX_INT32:
        raise CsrOverflowError(
            f"{len(adjacency)} rows cannot be addressed by int32 dense ids"
        )
    counts = [len(row) for row in adjacency]
    total = sum(counts)
    ptr_dtype = _np.int32 if total <= MAX_INT32 else _np.int64
    indptr = _np.zeros(len(adjacency) + 1, dtype=ptr_dtype)
    _np.cumsum(counts, out=indptr[1:])
    indices = _np.fromiter(
        (neighbor for row in adjacency for neighbor in row),
        dtype=_np.int32,
        count=total,
    )
    return indptr, indices


def csr_from_pairs(rows, cols, n: int) -> Tuple[object, object]:
    """``(indptr, indices)`` for ``n`` rows from parallel pair columns.

    Pair ``k`` puts ``cols[k]`` into row ``rows[k]``; every row's
    neighbors come out in ascending order and a repeated pair counts
    once, so the arrays (dtypes included) equal :func:`csr_arrays`
    over the per-row sorted, duplicate-free lists.  Both columns hold
    ids in ``[0, n)``.
    """
    if n > MAX_INT32:
        raise CsrOverflowError(
            f"{n} rows cannot be addressed by int32 dense ids"
        )
    # one sort of ``row * n + col`` orders rows, then neighbors within
    # a row; n <= MAX_INT32 keeps the key inside int64
    key = _np.sort(
        _np.asarray(rows, dtype=_np.int64) * n
        + _np.asarray(cols, dtype=_np.int64)
    )
    if key.size:
        fresh = _np.empty(key.size, dtype=bool)
        fresh[0] = True
        _np.not_equal(key[1:], key[:-1], out=fresh[1:])
        key = key[fresh]
    rows, cols = _np.divmod(key, max(n, 1))
    ptr_dtype = _np.int32 if rows.size <= MAX_INT32 else _np.int64
    indptr = _np.zeros(n + 1, dtype=ptr_dtype)
    _np.cumsum(_np.bincount(rows, minlength=n), out=indptr[1:])
    return indptr, cols.astype(_np.int32)


def gather_rows(flat, starts, lengths):
    """Concatenate the slices ``flat[starts[i]:starts[i] + lengths[i]]``.

    Returns ``(flat, offsets)`` of the gathered ragged array (int64
    offsets, with a final sentinel).
    """
    offsets = _np.zeros(len(lengths) + 1, dtype=_np.int64)
    _np.cumsum(lengths, out=offsets[1:])
    index = _np.arange(offsets[-1], dtype=_np.int64) + _np.repeat(
        starts - offsets[:-1], lengths
    )
    return flat[index], offsets


def sort_unique(values, return_inverse: bool = False):
    """The sorted distinct ``values`` (1-d integers) by one sort and an
    adjacent-difference mask (``numpy.unique`` hashes integers, slower,
    and its first plain call in a process imports ``numpy.ma``, ~10 ms).

    With ``return_inverse``: ``(unique, inverse, order)``, where
    ``unique[inverse]`` is ``values`` and ``order`` its stable argsort,
    which values that fit beside their position in 64 bits get from a
    plain sort of ``(value << bits) | position``, faster than argsort.
    """
    if not return_inverse:
        ordered = _np.sort(values)
    else:
        n = len(values)
        bits = max(n - 1, 0).bit_length()
        if n and values.min() >= 0 and (
            int(values.max()).bit_length() + bits <= 64
        ):
            packed = values.astype(_np.uint64)
            packed <<= _np.uint64(bits)
            packed |= _np.arange(n, dtype=_np.uint64)
            packed.sort()
            order = (packed & _np.uint64((1 << bits) - 1)).view(_np.int64)
            packed >>= _np.uint64(bits)
            ordered = packed.astype(values.dtype, copy=False)
        else:
            order = _np.argsort(values, kind="stable")
            ordered = values[order]
    first = _np.ones(len(ordered), dtype=bool)
    _np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    if not return_inverse:
        return ordered[first]
    inverse = _np.empty(len(values), dtype=_np.int64)
    inverse[order] = _np.cumsum(first) - 1
    return ordered[first], inverse, order


class Csr:
    """The three relationship-typed CSR views of one graph."""

    __slots__ = ("providers", "customers", "peers")

    def __init__(
        self,
        providers: Sequence[Sequence[int]],
        customers: Sequence[Sequence[int]],
        peers: Sequence[Sequence[int]],
    ):
        self.providers = csr_arrays(providers)
        self.customers = csr_arrays(customers)
        self.peers = csr_arrays(peers)

    @classmethod
    def from_arrays(
        cls,
        providers: Tuple[object, object],
        customers: Tuple[object, object],
        peers: Tuple[object, object],
    ) -> "Csr":
        """Adopt prebuilt ``(indptr, indices)`` pairs without copying.

        The zero-copy constructor the shared-memory codec uses: the
        views may be backed by a mapped segment, so consumers must not
        mutate them.
        """
        csr = cls.__new__(cls)
        csr.providers = providers
        csr.customers = customers
        csr.peers = peers
        return csr


class CsrRows:
    """Row-by-row view of one CSR ``(indptr, indices)`` pair.

    ``rows[i]`` is dense id ``i``'s sorted neighbor slice (an int32
    array view, no copy); :meth:`tolist` is every row as a list of
    Python ints.  Read-only: the arrays may be shared with a
    :class:`Csr` or mapped from a shared-memory segment.
    """

    __slots__ = ("indptr", "indices")

    def __init__(self, view: Tuple[object, object]):
        self.indptr, self.indices = view

    def __getitem__(self, i: int):
        return self.indices[self.indptr[i]:self.indptr[i + 1]]

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def tolist(self) -> List[List[int]]:
        """Every row as a list of Python ints."""
        flat = self.indices.tolist()
        bounds = self.indptr.tolist()
        return [flat[a:b] for a, b in zip(bounds, bounds[1:])]
