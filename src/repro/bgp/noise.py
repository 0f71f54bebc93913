"""Measurement-noise model for observed AS paths.

Real BGP data is not a clean print-out of the routing state: ASes
prepend their own ASN for traffic engineering, IXP route servers leave
their ASN in paths, and origins sometimes *poison* announcements with a
third-party ASN.  The paper's sanitization stage exists to strip or
discard exactly these artifacts, so the substrate must produce them.

Noise is applied at path-materialization time, deterministically from
the scenario seed, so corpora are reproducible.  (Prepending in the
real world also influences path *selection*; we apply it after
selection, a simplification that preserves what matters here — the
pattern the sanitizer must remove.)

:class:`ColumnNoiser` noises whole blocks of paths held as columns
(int64 ``flat`` hops plus row offsets ``off``).  The route-server insert
and the prepend count depend only on the directed edge, so they are
computed once per distinct edge and expanded with ``numpy.repeat``;
the prepend count is hashed once per session and noise configuration
for the process's life (a bounded LRU memo), since collecting one
world again asks for the same sessions.  Only the per-path poison, loop
and reserved-ASN draws run one path at a time, from one
``random.Random`` per origin.  The one-path-at-a-time noiser it
replaced is the QA oracle in :mod:`repro.qa.oracles`; it calls the
uncached :func:`prepend_count`, so it checks the memo too.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as _np

from repro.graph.csr import sort_unique


@dataclass
class NoiseConfig:
    """Rates for each artifact class; zero disables the artifact."""

    seed: int = 1
    # whether IXP route servers leave their ASN in observed paths
    ixp_insertion: bool = True
    # fraction of (AS, neighbor) export adjacencies that prepend
    prepend_prob: float = 0.03
    max_prepend: int = 3
    # fraction of materialized paths that carry an injected clique ASN
    # between two genuine hops (the "poisoned path" artifact)
    poison_prob: float = 0.002
    # fraction of paths where the origin appears twice (loop artifact —
    # e.g. BGP poisoning for measurement, discarded by sanitization)
    loop_prob: float = 0.001
    # fraction of paths corrupted with a reserved/private ASN
    reserved_asn_prob: float = 0.0005

    @classmethod
    def none(cls) -> "NoiseConfig":
        """A configuration with every artifact turned off."""
        return cls(ixp_insertion=False, prepend_prob=0.0, poison_prob=0.0,
                   loop_prob=0.0, reserved_asn_prob=0.0)


#: a private-use ASN occasionally leaking into paths
RESERVED_ASN = 64512


#: prepend counts the process keeps (:func:`_prepend_memo`): a
#: simulate-internet op reads ~1,600 sessions; full, the memo holds
#: ~16 MiB (CPython 3.11, 64-bit)
_PREPEND_MEMO_SIZE = 1 << 16


def prepend_count(config: NoiseConfig, asn: int, toward: int) -> int:
    """How many extra copies ``asn`` inserts when exporting to ``toward``:
    a deterministic per-adjacency hash into a local RNG, so a session
    prepends identically whichever origin's route it exports."""
    return _prepend_draw(
        config.seed, config.prepend_prob, config.max_prepend, asn, toward
    )


def _prepend_draw(
    seed: int, prepend_prob: float, max_prepend: int, asn: int, toward: int
) -> int:
    local = random.Random((seed << 32) ^ (asn << 16) ^ toward)
    if local.random() < prepend_prob:
        return local.randint(1, max(1, max_prepend))
    return 0


#: :func:`prepend_count` by its arguments, for the column noiser:
#: seeding a ``random.Random`` is most of a session's cost
_prepend_memo = functools.lru_cache(maxsize=_PREPEND_MEMO_SIZE)(_prepend_draw)


class ColumnNoiser:
    """Applies IXP insertion, prepending, poisoning and loop artifacts
    to paths held as columns (collector order: VP first, origin last).

    ``clique`` is the pool poisoned paths draw from; ``via_ixp`` maps a
    canonical link to the route server it crosses.  ``misses`` counts
    the prepend counts this noiser had to hash (the process-wide memo
    held none).
    """

    def __init__(
        self,
        config: NoiseConfig,
        clique: Sequence[int],
        via_ixp: Mapping[Tuple[int, int], int],
    ):
        self._config = config
        self._clique = clique
        self._via_ixp = via_ixp if config.ixp_insertion else {}
        self.misses = 0

    def apply(self, flat, off, origins: Sequence[int], per_origin):
        """The observed form of the true paths ``(flat, off)``, whose
        rows are ``per_origin[i]`` paths of ``origins[i]`` in turn;
        returns the observed ``(flat, off)``."""
        flat, off = self._edge_artifacts(flat, off)
        return self._drawn_artifacts(flat, off, origins, per_origin)

    def _edge_table(self, edges) -> Tuple["_np.ndarray", "_np.ndarray"]:
        """``(route server or -1, prepend count)`` per packed
        ``(prev << 32) | asn`` edge."""
        config = self._config
        n = len(edges)
        prev = (edges >> _np.uint64(32)).astype(_np.int64)
        asn = (edges & _np.uint64(0xFFFFFFFF)).astype(_np.int64)
        rs = _np.full(n, -1, dtype=_np.int64)
        if self._via_ixp:
            found = list(map(self._via_ixp.get, zip(
                _np.minimum(prev, asn).tolist(),
                _np.maximum(prev, asn).tolist(),
            )))
            at = [i for i, server in enumerate(found) if server is not None]
            rs[at] = [found[i] for i in at]
        if config.prepend_prob <= 0:
            return rs, _np.zeros(n, dtype=_np.int64)
        missed = _prepend_memo.cache_info().misses
        prepends = _np.fromiter(map(
            _prepend_memo, repeat(config.seed, n),
            repeat(config.prepend_prob, n), repeat(config.max_prepend, n),
            asn.tolist(), prev.tolist(),
        ), dtype=_np.int64, count=n)
        self.misses += _prepend_memo.cache_info().misses - missed
        return rs, prepends

    def _edge_artifacts(self, flat, off):
        """Each hop after the first becomes its edge's segment: the
        route server on the ``prev``–``asn`` link, ``asn`` itself, then
        ``asn``'s prepends toward ``prev``."""
        config = self._config
        if not self._via_ixp and config.prepend_prob <= 0:
            return flat, off
        hops = _np.ones(len(flat), dtype=bool)
        hops[off[:-1]] = False  # a path's first hop has no edge
        hops = _np.flatnonzero(hops)
        keys = flat[hops - 1].astype(_np.uint64) << _np.uint64(32)
        keys |= flat[hops].astype(_np.uint64)
        edges, inverse, _ = sort_unique(keys, return_inverse=True)
        rs, prepends = self._edge_table(edges)
        rs, prepends = rs[inverse], prepends[inverse]
        has_rs = rs >= 0
        width = _np.ones(len(flat), dtype=_np.int64)
        width[hops] += has_rs + prepends
        out = _np.repeat(flat, width)
        ends = _np.zeros(len(flat) + 1, dtype=_np.int64)
        _np.cumsum(width, out=ends[1:])
        out[ends[hops[has_rs]]] = rs[has_rs]
        return out, ends[off]

    def _drawn_artifacts(self, flat, off, origins, per_origin):
        """The per-path poison, loop and reserved-ASN draws.

        Each origin's paths draw, in row order, from one RNG seeded by
        the origin, so the draws never depend on how origins are split
        into blocks or across workers.
        """
        config = self._config
        clique = self._clique
        poison = config.poison_prob > 0 and len(clique) > 0
        loop = config.loop_prob > 0
        reserved = config.reserved_asn_prob > 0
        if not (poison or loop or reserved):
            return flat, off
        lengths = _np.diff(off).tolist()
        bounds = off.tolist()
        edited: Dict[int, List[int]] = {}
        row = 0
        for origin, count in zip(origins, per_origin.tolist()):
            rng = random.Random((config.seed << 20) ^ origin)
            draw = rng.random
            for i in range(row, row + count):
                size = lengths[i]
                path = None
                if poison and size >= 3 and draw() < config.poison_prob:
                    spot = rng.randrange(1, size - 1)
                    asn = rng.choice(clique)
                    path = flat[bounds[i]:bounds[i + 1]].tolist()
                    if asn not in path:
                        path.insert(spot, asn)
                        size += 1
                if loop and size >= 3 and draw() < config.loop_prob:
                    # the origin re-appears earlier in the path
                    if path is None:
                        path = flat[bounds[i]:bounds[i + 1]].tolist()
                    path.insert(rng.randrange(1, size - 1), path[-1])
                    size += 1
                if reserved and size >= 2 and (
                    draw() < config.reserved_asn_prob
                ):
                    if path is None:
                        path = flat[bounds[i]:bounds[i + 1]].tolist()
                    path.insert(rng.randrange(1, size), RESERVED_ASN)
                if path is not None:
                    edited[i] = path
            row += count
        return _splice(flat, off, edited) if edited else (flat, off)


def _splice(flat, off, edited: Dict[int, List[int]]):
    """``(flat, off)`` with the rows ``edited`` names replaced (keys in
    ascending order)."""
    rows = _np.fromiter(edited, dtype=_np.int64, count=len(edited))
    lengths = _np.diff(off)
    kept = _np.ones(len(lengths), dtype=bool)
    kept[rows] = False
    new_lengths = lengths.copy()
    new_lengths[rows] = [len(path) for path in edited.values()]
    new_off = _np.zeros(len(off), dtype=_np.int64)
    _np.cumsum(new_lengths, out=new_off[1:])
    out = _np.empty(int(new_off[-1]), dtype=flat.dtype)
    at_kept = _np.repeat(kept, new_lengths)
    out[at_kept] = flat[_np.repeat(kept, lengths)]
    out[~at_kept] = [asn for path in edited.values() for asn in path]
    return out, new_off
