"""IPv6 prefix value type.

The IPv6 counterpart of :class:`repro.net.prefix.Prefix`, used by the
dual-plane (congruence) experiments.  Text parsing and formatting
delegate to :mod:`ipaddress` (the `::` compression rules are fiddly);
arithmetic stays on plain integers for speed.
"""

from __future__ import annotations

import ipaddress
from typing import Iterable, Iterator, List, Tuple

from repro.net.prefix import PrefixError

_MAX128 = (1 << 128) - 1


class Prefix6:
    """An IPv6 prefix ``network/length`` in canonical (masked) form."""

    __slots__ = ("network", "length")
    _family = 6

    def __init__(self, network: int, length: int):
        if not 0 <= length <= 128:
            raise PrefixError(f"prefix length {length} out of range")
        if not 0 <= network <= _MAX128:
            raise PrefixError("network out of 128-bit range")
        mask = (_MAX128 >> length) ^ _MAX128 if length else 0
        if network & ~mask & _MAX128:
            raise PrefixError(f"host bits set in IPv6 prefix /{length}")
        object.__setattr__(self, "network", network)
        object.__setattr__(self, "length", length)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Prefix6 is immutable")

    def __copy__(self) -> "Prefix6":
        return self

    def __deepcopy__(self, memo: dict) -> "Prefix6":
        return self

    def __reduce__(self):
        return (Prefix6, (self.network, self.length))

    @classmethod
    def parse(cls, text: str) -> "Prefix6":
        try:
            net = ipaddress.IPv6Network(text.strip(), strict=True)
        except (ipaddress.AddressValueError, ipaddress.NetmaskValueError,
                ValueError) as err:
            raise PrefixError(f"bad IPv6 prefix {text!r}: {err}") from err
        return cls(int(net.network_address), net.prefixlen)

    @property
    def num_addresses(self) -> int:
        return 1 << (128 - self.length)

    @property
    def broadcast(self) -> int:
        return self.network | ((1 << (128 - self.length)) - 1)

    def contains(self, other: "Prefix6") -> bool:
        if other.length < self.length:
            return False
        mask = (_MAX128 >> self.length) ^ _MAX128 if self.length else 0
        return (other.network & mask) == self.network

    def subnets(self, new_length: int) -> Iterator["Prefix6"]:
        if new_length < self.length or new_length > 128:
            raise PrefixError("bad subnet length")
        step = 1 << (128 - new_length)
        for network in range(self.network, self.broadcast + 1, step):
            yield Prefix6(network, new_length)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Prefix6):
            return NotImplemented
        return self.network == other.network and self.length == other.length

    # ``_family`` leads the key: every IPv4 prefix sorts before every
    # IPv6 one, and same-family prefixes order by (network, length)

    def __lt__(self, other: "Prefix6") -> bool:
        return (self._family, self.network, self.length) < (
            other._family, other.network, other.length
        )

    def __le__(self, other: "Prefix6") -> bool:
        return (self._family, self.network, self.length) <= (
            other._family, other.network, other.length
        )

    def __gt__(self, other: "Prefix6") -> bool:
        return (self._family, self.network, self.length) > (
            other._family, other.network, other.length
        )

    def __ge__(self, other: "Prefix6") -> bool:
        return (self._family, self.network, self.length) >= (
            other._family, other.network, other.length
        )

    def __hash__(self) -> int:
        return hash((Prefix6, self.network, self.length))

    def __repr__(self) -> str:
        return f"Prefix6({str(self)!r})"

    def __str__(self) -> str:
        return str(
            ipaddress.IPv6Network((self.network, self.length), strict=True)
        )


class Prefix6Allocator:
    """Sequential, non-overlapping IPv6 allocation from ``2000::/3``.

    Real RIR v6 allocation hands out /32s to networks and /48s to
    sites; the allocator carves aligned blocks of any requested length
    from consecutive /16-sized lanes, so allocations never collide.
    """

    def __init__(self, pool: str = "2001::/16"):
        self._pool = Prefix6.parse(pool)
        self._cursor = self._pool.network
        self._allocated: List[Prefix6] = []

    def allocate(self, length: int) -> Prefix6:
        if not self._pool.length <= length <= 64:
            raise PrefixError(f"allocation length /{length} unsupported")
        size = 1 << (128 - length)
        # align the cursor up to the block size
        aligned = (self._cursor + size - 1) & ~(size - 1)
        if aligned + size - 1 > self._pool.broadcast:
            raise PrefixError("IPv6 pool exhausted")
        prefix = Prefix6(aligned, length)
        self._cursor = aligned + size
        self._allocated.append(prefix)
        return prefix

    @property
    def allocated(self) -> List[Prefix6]:
        return list(self._allocated)
