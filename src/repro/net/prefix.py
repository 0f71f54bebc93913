"""IPv4 prefix value type.

A small, hashable, total-ordered prefix type is the currency of the BGP
substrate: route announcements, RIB entries, MRT records, and cone
address-counting all speak :class:`Prefix`.  We implement it directly on
integers rather than wrapping :mod:`ipaddress` because the simulator
creates and compares millions of prefixes and the stdlib objects are an
order of magnitude heavier.
"""

from __future__ import annotations

from typing import Iterator

_MAX32 = 0xFFFFFFFF


class PrefixError(ValueError):
    """Raised for malformed prefix text or out-of-range network/length."""


def _dotted(value: int) -> str:
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def _parse_dotted(text: str) -> int:
    parts = text.split(".")
    if len(parts) != 4:
        raise PrefixError(f"expected dotted quad, got {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise PrefixError(f"non-numeric octet in {text!r}")
        octet = int(part)
        if octet > 255:
            raise PrefixError(f"octet out of range in {text!r}")
        value = (value << 8) | octet
    return value


class Prefix:
    """An IPv4 prefix ``network/length`` in canonical (masked) form.

    Instances are immutable, hashable, and ordered first by network
    address then by length, which yields the conventional RIB ordering;
    every IPv4 prefix sorts before every :class:`~repro.net.prefix6.Prefix6`.
    """

    __slots__ = ("network", "length")
    _family = 4

    def __init__(self, network: int, length: int):
        if not 0 <= length <= 32:
            raise PrefixError(f"prefix length {length} out of range")
        if not 0 <= network <= _MAX32:
            raise PrefixError(f"network {network:#x} out of range")
        mask = _MAX32 ^ ((1 << (32 - length)) - 1) if length else 0
        if network & ~mask & _MAX32:
            raise PrefixError(
                f"host bits set: {_dotted(network)}/{length} is not canonical"
            )
        object.__setattr__(self, "network", network)
        object.__setattr__(self, "length", length)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Prefix is immutable")

    def __copy__(self) -> "Prefix":
        return self

    def __deepcopy__(self, memo: dict) -> "Prefix":
        return self

    def __reduce__(self):
        return (Prefix, (self.network, self.length))

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``a.b.c.d/len`` text into a :class:`Prefix`."""
        text = text.strip()
        if "/" not in text:
            raise PrefixError(f"missing '/': {text!r}")
        net_text, _, len_text = text.partition("/")
        if not len_text.isdigit():
            raise PrefixError(f"non-numeric length in {text!r}")
        return cls(_parse_dotted(net_text), int(len_text))

    @classmethod
    def from_host_count(cls, network: int, hosts: int) -> "Prefix":
        """Smallest prefix at ``network`` covering at least ``hosts`` addresses."""
        if hosts < 1:
            raise PrefixError("need at least one host")
        length = 32
        while length > 0 and (1 << (32 - length)) < hosts:
            length -= 1
        return cls(network & cls._mask_for(length), length)

    @staticmethod
    def _mask_for(length: int) -> int:
        return (_MAX32 ^ ((1 << (32 - length)) - 1)) if length else 0

    @property
    def num_addresses(self) -> int:
        """Number of IPv4 addresses covered by this prefix."""
        return 1 << (32 - self.length)

    @property
    def broadcast(self) -> int:
        """Highest address covered by this prefix."""
        return self.network | ((1 << (32 - self.length)) - 1)

    def contains(self, other: "Prefix") -> bool:
        """True when ``other`` is equal to or more specific than this prefix."""
        if other.length < self.length:
            return False
        return (other.network & Prefix._mask_for(self.length)) == self.network

    def contains_address(self, address: int) -> bool:
        """True when the 32-bit ``address`` falls inside this prefix."""
        return (address & Prefix._mask_for(self.length)) == self.network

    def subnets(self, new_length: int) -> Iterator["Prefix"]:
        """Yield the subdivision of this prefix into ``new_length`` prefixes."""
        if new_length < self.length:
            raise PrefixError("new length shorter than prefix length")
        if new_length > 32:
            raise PrefixError("new length beyond /32")
        step = 1 << (32 - new_length)
        for network in range(self.network, self.broadcast + 1, step):
            yield Prefix(network, new_length)

    def supernet(self, new_length: int) -> "Prefix":
        """The covering prefix of ``new_length`` bits."""
        if new_length > self.length:
            raise PrefixError("supernet must be shorter")
        return Prefix(self.network & Prefix._mask_for(new_length), new_length)

    def __contains__(self, other: object) -> bool:
        if isinstance(other, Prefix):
            return self.contains(other)
        if isinstance(other, int):
            return self.contains_address(other)
        return NotImplemented  # type: ignore[return-value]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Prefix):
            return NotImplemented
        return self.network == other.network and self.length == other.length

    # ``_family`` leads the key: every IPv4 prefix sorts before every
    # IPv6 one, and same-family prefixes order by (network, length)

    def __lt__(self, other: "Prefix") -> bool:
        return (self._family, self.network, self.length) < (
            other._family, other.network, other.length
        )

    def __le__(self, other: "Prefix") -> bool:
        return (self._family, self.network, self.length) <= (
            other._family, other.network, other.length
        )

    def __gt__(self, other: "Prefix") -> bool:
        return (self._family, self.network, self.length) > (
            other._family, other.network, other.length
        )

    def __ge__(self, other: "Prefix") -> bool:
        return (self._family, self.network, self.length) >= (
            other._family, other.network, other.length
        )

    def __hash__(self) -> int:
        return hash((self.network, self.length))

    def __repr__(self) -> str:
        return f"Prefix({str(self)!r})"

    def __str__(self) -> str:
        return f"{_dotted(self.network)}/{self.length}"
