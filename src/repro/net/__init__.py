"""IPv4 prefix machinery used throughout the reproduction.

The paper measures customer cones in three units: ASes, announced
prefixes, and IPv4 addresses.  This package provides the prefix type,
prefix allocation to ASes, and a longest-prefix-match trie; cones are
sized in prefixes and addresses by
:func:`repro.core.rank.cone_prefix_sizes`.
"""

from repro.net.prefix import Prefix, PrefixError
from repro.net.allocation import PrefixAllocator
from repro.net.trie import PrefixTrie

__all__ = [
    "Prefix",
    "PrefixError",
    "PrefixAllocator",
    "PrefixTrie",
]
