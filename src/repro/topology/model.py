"""Ground-truth AS graph model.

:class:`ASGraph` stores the ASes, their prefixes, and the labeled links
(provider→customer, peer, sibling).  It enforces the structural
invariants the paper's algorithm assumes about the real Internet:

* no cycles in the provider→customer DAG;
* at most one relationship per AS pair;
* an AS never peers with or provides transit to itself.

The graph is the oracle for validation and the substrate the BGP
simulator propagates routes over.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.net.prefix import Prefix
from repro.relationships import Relationship, canonical_pair


class TopologyError(ValueError):
    """Raised when an operation would violate a structural invariant."""


class ASType(enum.Enum):
    """Business role of an AS; drives degree, prefix count and peering."""

    CLIQUE = "clique"  # tier-1 transit-free provider
    LARGE_TRANSIT = "large_transit"  # tier-2 backbone
    SMALL_TRANSIT = "small_transit"  # regional transit
    ACCESS = "access"  # eyeball/broadband network
    CONTENT = "content"  # content/CDN network, peers widely
    ENTERPRISE = "enterprise"  # multihomed corporate network
    STUB = "stub"  # single-homed edge network
    IXP_RS = "ixp_rs"  # IXP route server (path artifact, not a business AS)


#: AS types that normally provide transit to others.
TRANSIT_TYPES = frozenset(
    {ASType.CLIQUE, ASType.LARGE_TRANSIT, ASType.SMALL_TRANSIT}
)


@dataclass
class AS:
    """One autonomous system with its role, region and originated space.

    ``prefixes6`` is non-empty for networks that have deployed IPv6;
    the dual-plane (congruence) experiments route the v6 plane over the
    subgraph of such networks.
    """

    asn: int
    type: ASType
    region: int = 0
    prefixes: List[Prefix] = field(default_factory=list)
    prefixes6: List = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.asn <= 0:
            raise TopologyError(f"ASN must be positive, got {self.asn}")

    @property
    def num_addresses(self) -> int:
        return sum(p.num_addresses for p in self.prefixes)

    @property
    def v6_enabled(self) -> bool:
        return bool(self.prefixes6)


class ASGraph:
    """Mutable AS graph with labeled relationships and invariant checks.

    The AS table and the adjacency change only through the methods
    below (``add_as``, the ``add_*`` link methods, ``remove_link``);
    each change bumps :attr:`edits`, which is what lets a compiled view
    of the graph (:meth:`repro.graph.relgraph.RelGraph.from_as_graph`)
    know it is still current.  The neighbour-set dicts are public for
    reading; writing into them directly bypasses that count.
    """

    def __init__(self) -> None:
        self._edits = 0
        self._ases: Dict[int, AS] = {}
        self.providers: Dict[int, Set[int]] = {}
        self.customers: Dict[int, Set[int]] = {}
        self.peers: Dict[int, Set[int]] = {}
        self.siblings: Dict[int, Set[int]] = {}
        self._links: Dict[Tuple[int, int], Relationship] = {}
        # for P2C links, remembers which member of the canonical pair is
        # the provider
        self._link_provider: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    # node management
    # ------------------------------------------------------------------

    def add_as(self, asys: AS) -> None:
        if asys.asn in self._ases:
            raise TopologyError(f"AS{asys.asn} already present")
        self._ases[asys.asn] = asys
        self.providers[asys.asn] = set()
        self.customers[asys.asn] = set()
        self.peers[asys.asn] = set()
        self.siblings[asys.asn] = set()
        self._edits += 1

    @property
    def edits(self) -> int:
        """Changes made through the methods so far: ASes added, links
        added or removed."""
        return self._edits

    def get_as(self, asn: int) -> AS:
        try:
            return self._ases[asn]
        except KeyError:
            raise TopologyError(f"unknown AS{asn}") from None

    def __contains__(self, asn: int) -> bool:
        return asn in self._ases

    def __len__(self) -> int:
        return len(self._ases)

    def ases(self) -> Iterator[AS]:
        return iter(self._ases.values())

    def asns(self) -> List[int]:
        return sorted(self._ases)

    # ------------------------------------------------------------------
    # link management
    # ------------------------------------------------------------------

    def add_p2c(self, provider: int, customer: int) -> None:
        """Add a provider→customer link, refusing cycles and duplicates."""
        self._check_new_link(provider, customer)
        if self._creates_p2c_cycle(provider, customer):
            raise TopologyError(
                f"p2c {provider}->{customer} would create a provider cycle"
            )
        key = canonical_pair(provider, customer)
        self._links[key] = Relationship.P2C
        self._link_provider[key] = provider
        self.customers[provider].add(customer)
        self.providers[customer].add(provider)
        self._edits += 1

    def add_p2c_unchecked(self, provider: int, customer: int) -> None:
        """Add a provider→customer link without the per-link cycle scan.

        The BFS in :meth:`add_p2c` is what makes bulk wiring quadratic:
        at internet scale it revisits most of the graph for every link.
        Callers that wire strictly tier-by-tier (providers always drawn
        from tiers created earlier) produce a DAG by construction, so
        they may skip the scan and rely on the global cycle check in
        :meth:`validate_invariants` instead.  Duplicate/self/unknown
        links are still refused.
        """
        self._check_new_link(provider, customer)
        key = canonical_pair(provider, customer)
        self._links[key] = Relationship.P2C
        self._link_provider[key] = provider
        self.customers[provider].add(customer)
        self.providers[customer].add(provider)
        self._edits += 1

    def add_p2p(self, a: int, b: int) -> None:
        """Add a settlement-free peering link."""
        self._check_new_link(a, b)
        self._links[canonical_pair(a, b)] = Relationship.P2P
        self.peers[a].add(b)
        self.peers[b].add(a)
        self._edits += 1

    def add_p2p_if_absent(self, a: int, b: int) -> bool:
        """One-lookup peering insert for bulk wiring.

        Returns ``False`` (instead of raising) when the pair is already
        linked, folding the caller's would-be ``relationship()`` probe
        and the insert into a single dict lookup.  The caller vouches
        that both ASes exist and ``a != b``.
        """
        key = (a, b) if a < b else (b, a)  # canonical_pair, sans the call
        if key in self._links:
            return False
        self._links[key] = Relationship.P2P
        self.peers[a].add(b)
        self.peers[b].add(a)
        self._edits += 1
        return True

    def add_s2s(self, a: int, b: int) -> None:
        """Add a sibling link (common ownership)."""
        self._check_new_link(a, b)
        self._links[canonical_pair(a, b)] = Relationship.S2S
        self.siblings[a].add(b)
        self.siblings[b].add(a)
        self._edits += 1

    def _check_new_link(self, a: int, b: int) -> None:
        if a == b:
            raise TopologyError(f"self-link on AS{a}")
        if a not in self._ases or b not in self._ases:
            raise TopologyError(f"link references unknown AS: {a} or {b}")
        if canonical_pair(a, b) in self._links:
            raise TopologyError(f"link {a}-{b} already labeled")

    def _creates_p2c_cycle(self, provider: int, customer: int) -> bool:
        """Would ``provider -> customer`` close a cycle of p2c links?"""
        if provider == customer:
            return True
        # cycle iff provider is reachable from customer via p2c edges
        queue = deque([customer])
        seen = {customer}
        while queue:
            node = queue.popleft()
            for nxt in self.customers[node]:
                if nxt == provider:
                    return True
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
        return False

    def remove_link(self, a: int, b: int) -> None:
        key = canonical_pair(a, b)
        rel = self._links.pop(key, None)
        if rel is None:
            raise TopologyError(f"no link {a}-{b}")
        self._edits += 1
        if rel is Relationship.P2C:
            provider = self._link_provider.pop(key)
            customer = b if provider == a else a
            self.customers[provider].discard(customer)
            self.providers[customer].discard(provider)
        elif rel is Relationship.P2P:
            self.peers[a].discard(b)
            self.peers[b].discard(a)
        else:
            self.siblings[a].discard(b)
            self.siblings[b].discard(a)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def relationship(self, a: int, b: int) -> Optional[Relationship]:
        """Relationship label of the a—b link, None when not linked."""
        return self._links.get(canonical_pair(a, b))

    def provider_of(self, a: int, b: int) -> Optional[int]:
        """For a p2c link, which endpoint is the provider; else None."""
        key = canonical_pair(a, b)
        if self._links.get(key) is not Relationship.P2C:
            return None
        return self._link_provider[key]

    def links(self) -> Iterator[Tuple[int, int, Relationship]]:
        """Iterate links as ``(a, b, rel)``; for P2C, ``a`` is the provider."""
        for key, rel in self._links.items():
            if rel is Relationship.P2C:
                provider = self._link_provider[key]
                customer = key[1] if provider == key[0] else key[0]
                yield provider, customer, rel
            else:
                yield key[0], key[1], rel

    def num_links(self) -> int:
        return len(self._links)

    def neighbors(self, asn: int) -> Set[int]:
        """All linked neighbors of ``asn`` regardless of relationship."""
        return (
            self.providers[asn]
            | self.customers[asn]
            | self.peers[asn]
            | self.siblings[asn]
        )

    def degree(self, asn: int) -> int:
        return len(self.neighbors(asn))

    def clique_asns(self) -> List[int]:
        """The planted tier-1 clique, sorted."""
        # bound once: an enum member lookup per AS costs more than the
        # rest of the scan
        clique = ASType.CLIQUE
        return sorted(a.asn for a in self._ases.values() if a.type is clique)

    def ixp_asns(self) -> FrozenSet[int]:
        """ASNs of IXP route servers (path artifacts to be sanitized)."""
        ixp_rs = ASType.IXP_RS
        return frozenset(
            a.asn for a in self._ases.values() if a.type is ixp_rs
        )

    def transit_free(self) -> List[int]:
        """ASes with no providers (should be exactly the clique + isolates)."""
        return sorted(
            asn for asn in self._ases if not self.providers[asn]
        )

    def customer_cone(self, asn: int) -> Set[int]:
        """Ground-truth recursive customer cone, including ``asn`` itself."""
        cone = {asn}
        queue = deque([asn])
        while queue:
            node = queue.popleft()
            for customer in self.customers[node]:
                if customer not in cone:
                    cone.add(customer)
                    queue.append(customer)
        return cone

    def prefix_origins(self) -> Dict[Prefix, int]:
        """Map every originated prefix to its origin ASN."""
        origins: Dict[Prefix, int] = {}
        for asys in self._ases.values():
            for prefix in asys.prefixes:
                if prefix in origins:
                    raise TopologyError(
                        f"{prefix} originated by both AS{origins[prefix]} "
                        f"and AS{asys.asn}"
                    )
                origins[prefix] = asys.asn
        return origins

    def prefix6_origins(self) -> Dict[object, int]:
        """Map every originated IPv6 prefix to its origin ASN."""
        origins: Dict[object, int] = {}
        for asys in self._ases.values():
            for prefix in asys.prefixes6:
                if prefix in origins:
                    raise TopologyError(
                        f"{prefix} originated by both AS{origins[prefix]} "
                        f"and AS{asys.asn}"
                    )
                origins[prefix] = asys.asn
        return origins

    def v6_asns(self) -> Set[int]:
        """ASNs that have deployed IPv6."""
        return {a.asn for a in self._ases.values() if a.v6_enabled}

    # ------------------------------------------------------------------
    # integrity
    # ------------------------------------------------------------------

    def validate_invariants(self) -> List[str]:
        """Return a list of invariant violations (empty when healthy)."""
        problems: List[str] = []
        # every non-clique, non-IXP AS must have a provider (reachability)
        for asys in self._ases.values():
            if asys.type in (ASType.CLIQUE, ASType.IXP_RS):
                continue
            if not self.providers[asys.asn]:
                problems.append(f"AS{asys.asn} ({asys.type.value}) has no provider")
        # the clique must be fully meshed with p2p links
        clique = self.clique_asns()
        for i, a in enumerate(clique):
            for b in clique[i + 1:]:
                if self.relationship(a, b) is not Relationship.P2P:
                    problems.append(f"clique pair {a}-{b} not p2p")
        # clique members must be transit-free
        for asn in clique:
            if self.providers[asn]:
                problems.append(f"clique AS{asn} has providers")
        # p2c DAG acyclicity (defensive; add_p2c already refuses cycles)
        state: Dict[int, int] = {}

        def has_cycle(start: int) -> bool:
            stack: List[Tuple[int, Iterator[int]]] = [(start, iter(self.customers[start]))]
            state[start] = 1
            while stack:
                node, it = stack[-1]
                advanced = False
                for nxt in it:
                    mark = state.get(nxt, 0)
                    if mark == 1:
                        return True
                    if mark == 0:
                        state[nxt] = 1
                        stack.append((nxt, iter(self.customers[nxt])))
                        advanced = True
                        break
                if not advanced:
                    state[node] = 2
                    stack.pop()
            return False

        for asn in self._ases:
            if state.get(asn, 0) == 0 and has_cycle(asn):
                problems.append("p2c cycle detected")
                break
        return problems
