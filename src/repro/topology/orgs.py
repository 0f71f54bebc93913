"""Organizations: the WHOIS layer above ASes.

CAIDA's sibling handling (and its ``as-org`` dataset) maps ASes to the
organizations that operate them: two ASes under one organization are
*siblings* (s2s), not customers or peers of each other.  This module
assigns organizations to a ground-truth graph — multi-AS organizations
arise both from explicit s2s links and from acquisitions among transit
networks — and renders/parses a WHOIS-style ``as-org`` text dataset, so
the sibling-inference pipeline consumes the same kind of input the real
system does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.relationships import canonical_pair
from repro.topology.model import ASGraph, ASType


@dataclass
class Organization:
    """One operating organization and the ASNs it holds."""

    org_id: str
    name: str
    asns: List[int] = field(default_factory=list)


class OrgRegistry:
    """ASN → organization mapping with sibling queries."""

    def __init__(self, orgs: Iterable[Organization] = ()):
        self._orgs: Dict[str, Organization] = {}
        self._by_asn: Dict[int, str] = {}
        for org in orgs:
            self.add(org)

    def add(self, org: Organization) -> None:
        if org.org_id in self._orgs:
            raise ValueError(f"duplicate org id {org.org_id}")
        self._orgs[org.org_id] = org
        for asn in org.asns:
            if asn in self._by_asn:
                raise ValueError(f"AS{asn} already assigned to an org")
            self._by_asn[asn] = org.org_id

    def __len__(self) -> int:
        return len(self._orgs)

    def organizations(self) -> List[Organization]:
        return sorted(self._orgs.values(), key=lambda o: o.org_id)

    def org_of(self, asn: int) -> Optional[Organization]:
        org_id = self._by_asn.get(asn)
        return self._orgs.get(org_id) if org_id else None

    def are_siblings(self, a: int, b: int) -> bool:
        """Same organization, different ASNs."""
        if a == b:
            return False
        org_a, org_b = self._by_asn.get(a), self._by_asn.get(b)
        return org_a is not None and org_a == org_b

    def sibling_pairs(self) -> Set[Tuple[int, int]]:
        """All canonical sibling pairs across the registry."""
        pairs: Set[Tuple[int, int]] = set()
        for org in self._orgs.values():
            members = sorted(org.asns)
            for i, a in enumerate(members):
                for b in members[i + 1:]:
                    pairs.add(canonical_pair(a, b))
        return pairs

    def multi_as_orgs(self) -> List[Organization]:
        return [o for o in self.organizations() if len(o.asns) > 1]


def assign_organizations(
    graph: ASGraph,
    acquisition_rate: float = 0.03,
    seed: int = 31,
) -> OrgRegistry:
    """Assign every business AS to an organization.

    Explicit s2s links in the graph always share an organization
    (connected components of the sibling relation).  Additionally, a
    fraction of transit networks have "acquired" another AS under the
    same organization — siblings with no direct link, the case WHOIS
    catches and path data cannot.
    """
    rng = random.Random(seed)
    # bound once: an enum member lookup per AS costs more than the test
    ixp_rs = ASType.IXP_RS
    business = [a.asn for a in graph.ases() if a.type is not ixp_rs]
    assigned: Dict[int, int] = {}  # asn -> component label
    next_label = 0

    # 1. sibling-link components
    for asn in sorted(business):
        if asn in assigned:
            continue
        stack = [asn]
        label = next_label
        next_label += 1
        while stack:
            node = stack.pop()
            if node in assigned:
                continue
            assigned[node] = label
            stack.extend(graph.siblings[node])

    members: Dict[int, List[int]] = {}
    for asn, label in assigned.items():
        members.setdefault(label, []).append(asn)

    # 2. acquisitions among transit networks: merge two components
    transit_types = (ASType.LARGE_TRANSIT, ASType.SMALL_TRANSIT)
    transit = [a.asn for a in graph.ases() if a.type in transit_types]
    for asn in sorted(transit):
        if rng.random() >= acquisition_rate:
            continue
        target = rng.choice(transit)
        label_a, label_b = assigned[asn], assigned[target]
        if label_a == label_b:
            continue
        # an acquisition would convert any existing business link between
        # the two groups into a sibling link; keep the model simple by
        # only merging unrelated networks
        if any(
            graph.relationship(a, b) is not None
            for a in members[label_a]
            for b in members[label_b]
        ):
            continue
        for moved in members.pop(label_b):
            assigned[moved] = label_a
            members[label_a].append(moved)

    registry = OrgRegistry()
    for index, label in enumerate(sorted(members)):
        asns = sorted(members[label])
        registry.add(
            Organization(
                org_id=f"ORG-{index + 1:05d}",
                name=f"SyntheticNet-{asns[0]}",
                asns=asns,
            )
        )
    return registry


# ---------------------------------------------------------------------------
# WHOIS-style as-org text dataset (CAIDA as-org2info flavour)
# ---------------------------------------------------------------------------


def render_as_org(registry: OrgRegistry) -> str:
    """Serialize the registry as a CAIDA ``as-org``-style text file.

    Two sections: organization records and ASN records, each
    pipe-separated with a format header comment.
    """
    lines = ["# format:org_id|name"]
    for org in registry.organizations():
        lines.append(f"{org.org_id}|{org.name}")
    lines.append("# format:aut|org_id")
    for org in registry.organizations():
        for asn in sorted(org.asns):
            lines.append(f"{asn}|{org.org_id}")
    return "\n".join(lines) + "\n"


def parse_as_org(text: str) -> OrgRegistry:
    """Parse the text form back into a registry.

    Tolerates interleaved sections and unknown comment lines, like the
    real dataset's consumers must.
    """
    names: Dict[str, str] = {}
    asns_by_org: Dict[str, List[int]] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("|")
        if len(fields) < 2:
            continue
        if fields[0].isdigit():
            asns_by_org.setdefault(fields[1], []).append(int(fields[0]))
        else:
            names[fields[0]] = fields[1]
    registry = OrgRegistry()
    for org_id in sorted(set(names) | set(asns_by_org)):
        registry.add(
            Organization(
                org_id=org_id,
                name=names.get(org_id, org_id),
                asns=sorted(asns_by_org.get(org_id, [])),
            )
        )
    return registry
