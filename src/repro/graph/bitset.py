"""Bitsets over dense ids: the system's one set-of-ASes encoding.

A *bitset* here is a plain Python int whose bit ``i`` means "the AS
with dense id ``i`` is a member".  Arbitrary-precision ints make
union/intersection single C-level ops and membership a shift-and-mask,
which is why cones, snapshots and the inference cycle check all speak
this encoding.  :class:`BitsetFamily` binds the encoding to one
:class:`~repro.graph.index.DenseIndex` so conversions to and from ASN
sets stay consistent, and :func:`pack_bits` / :func:`unpack_bits`
convert between one bitset per id and numpy ``(id, member)`` pair
arrays a block of rows at a time.  The two closure helpers below are
the *only* transitive-closure implementations in the repository:

* :func:`closure_bits` — the batch form: full closure of a DAG given
  per-id children lists (recursive cones, file-built snapshots);
* :class:`ClosureBitsets` — the incremental form: descendant bitsets
  maintained edge by edge (the inference engine's O(1) cycle refusal).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set

import numpy as _np

from repro.graph.index import DenseIndex


def decode_bits(bits: int, asns: Sequence[int]) -> Set[int]:
    """Expand a bitset into the ASN set it encodes (``asns[i]`` per bit)."""
    out: Set[int] = set()
    while bits:
        low = bits & -bits
        out.add(asns[low.bit_length() - 1])
        bits ^= low
    return out


#: packed bytes per row block of :func:`pack_bits` / :func:`unpack_bits`
_BLOCK_BYTES = 1 << 22


def pack_bits(n: int, upper, member) -> List[int]:
    """One bitset per dense id ``i < n``: bit ``i`` plus bit
    ``member[k]`` for every ``upper[k] == i`` (int64 id arrays; pairs
    may repeat).

    The pairs are ORed straight into little-endian packed rows, a block
    of rows at a time, and each row becomes an int with one
    ``int.from_bytes``: extra memory is the pairs plus one block, never
    an ``n`` by ``n`` matrix.
    """
    width = max(1, (n + 7) // 8)
    step = max(1, _BLOCK_BYTES // width)
    bits: List[int] = []
    for r0 in range(0, n, step):
        r1 = min(n, r0 + step)
        if r1 - r0 < n:
            keep = (upper >= r0) & (upper < r1)
            u, m = upper[keep], member[keep]
        else:
            u, m = upper, member
        block = _np.zeros((r1 - r0) * width, dtype=_np.uint8)
        own = _np.arange(r0, r1)
        for rows, members in ((u, m), (own, own)):
            at = rows - r0
            at *= width
            at += members >> 3
            _np.bitwise_or.at(
                block, at,
                _np.left_shift(_np.uint8(1), (members & 7).astype(_np.uint8)),
            )
        view = memoryview(block)
        bits.extend(
            int.from_bytes(view[k:k + width], "little")
            for k in range(0, len(block), width)
        )
    return bits


def unpack_bits(masks: Sequence[int], n: int):
    """The set bits of ``masks`` (bitsets over ids ``< n``) as int64
    ``(row, member)`` arrays, row by row and ascending within a row.

    The inverse of :func:`pack_bits`, also a block of packed rows at a
    time; only the nonzero bytes are unpacked, so extra memory is the
    pairs plus one block.
    """
    width = max(1, (n + 7) // 8)
    step = max(1, _BLOCK_BYTES // width)
    rows, members = [], []
    for r0 in range(0, len(masks), step):
        block = _np.frombuffer(
            b"".join(
                mask.to_bytes(width, "little") for mask in masks[r0:r0 + step]
            ),
            dtype=_np.uint8,
        )
        at = _np.flatnonzero(block)
        k, bit = _np.nonzero(
            _np.unpackbits(block[at, None], axis=1, bitorder="little")
        )
        at = at[k]
        rows.append(at // width + r0)
        members.append(at % width * 8 + bit)
    if not rows:
        return _np.zeros(0, dtype=_np.int64), _np.zeros(0, dtype=_np.int64)
    return _np.concatenate(rows), _np.concatenate(members)


class BitsetFamily:
    """Bitset codec bound to one :class:`DenseIndex`.

    All bitsets produced by one family share an id space, so set
    algebra between them is meaningful; mixing families is a bug the
    caller owns (bitsets are plain ints and carry no tag).
    """

    __slots__ = ("index",)

    def __init__(self, index: DenseIndex):
        self.index = index

    def singleton(self, asn: int) -> int:
        return 1 << self.index.id_of(asn)

    def encode(self, asns: Iterable[int]) -> int:
        ids = self.index.ids
        bits = 0
        for asn in asns:
            bits |= 1 << ids[asn]
        return bits

    def decode(self, bits: int) -> Set[int]:
        return decode_bits(bits, self.index.asns)

    def contains(self, bits: int, asn: int) -> bool:
        dense_id = self.index.get(asn)
        return dense_id is not None and bool(bits >> dense_id & 1)

    def union(self, bitsets: Iterable[int]) -> int:
        bits = 0
        for mask in bitsets:
            bits |= mask
        return bits


def closure_bits(n: int, children: Dict[int, Iterable[int]]) -> List[int]:
    """Transitive closure of a DAG as bitsets, one per dense id.

    ``children`` maps a dense id to the ids reachable in one step
    (p2c: provider -> customers).  The result's entry ``i`` has bit
    ``i`` set (every node reaches itself) plus every transitively
    reachable id.  Iterative post-order, so deep hierarchies don't
    recurse; the engine refuses cycles upstream, making the DAG
    assumption safe.
    """
    bits: List[int] = [1 << i for i in range(n)]
    WHITE, GRAY, BLACK = 0, 1, 2
    color = [WHITE] * n
    for root in range(n):
        if color[root] != WHITE:
            continue
        stack = [(root, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                mask = 1 << node
                for child in children.get(node, ()):
                    mask |= bits[child]
                bits[node] = mask
                color[node] = BLACK
                continue
            if color[node] != WHITE:
                continue
            color[node] = GRAY
            stack.append((node, True))
            for child in children.get(node, ()):
                if color[child] == WHITE:
                    stack.append((child, False))
    return bits


class ClosureBitsets:
    """Incremental transitive closure of a growing p2c DAG.

    Maintains, per dense id, the strict-descendant bitset and the
    bitset of direct parents (ints, so no container per id);
    :meth:`add_edge` updates the ancestors that gain descendants, and
    :meth:`descends` answers the inference engine's would-this-edge-
    close-a-cycle question with one shift.  Sized once, for the ``n``
    ids of one index.
    """

    __slots__ = ("desc", "parents")

    def __init__(self, n: int) -> None:
        self.desc: List[int] = [0] * n
        self.parents: List[int] = [0] * n

    def add_edge(self, parent_id: int, child_id: int) -> None:
        """Record ``parent -> child``; both ids must be ``< n``.

        The parent and every ancestor of it gain the child's whole
        subtree as descendants.  The climb stops at a node whose
        ``desc`` already holds that subtree: a node's ``desc`` contains
        the ``desc`` of everything below it, so its ancestors hold the
        subtree too.
        """
        desc, parents = self.desc, self.parents
        parents[child_id] |= 1 << parent_id
        below = desc[child_id] | (1 << child_id)
        stack = [parent_id]
        while stack:
            node = stack.pop()
            if desc[node] & below == below:
                continue
            desc[node] |= below
            bits = parents[node]
            while bits:
                low = bits & -bits
                stack.append(low.bit_length() - 1)
                bits ^= low

    def descends(self, ancestor_id: int, node_id: int) -> bool:
        """Is ``node_id`` a strict descendant of ``ancestor_id``?"""
        return bool(self.desc[ancestor_id] >> node_id & 1)
