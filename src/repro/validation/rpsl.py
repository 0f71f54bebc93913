"""RPSL (RFC 2622) aut-num policies as a validation source.

Networks in some registries (RIPE especially) publish their routing
policy as ``aut-num`` objects.  The conventional encodings leak the
business relationship:

* ``import: from AS-x accept ANY`` — x sends us everything: x is our
  **provider**;
* ``export: to AS-x announce AS-SELF`` (or a customer as-set) combined
  with accepting ANY — classic customer-side policy;
* ``export: to AS-x announce ANY`` — we send x everything: x is our
  **customer**;
* symmetric ``accept <their set>`` / ``announce <our set>`` — **peer**.

This module generates aut-num text for a configurable subset of a
ground-truth graph (with a registry-region bias) and a parser that
recovers relationship assertions from the text, mirroring the paper's
IRR mining.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.relationships import Relationship
from repro.topology.model import ASGraph, ASType
from repro.validation.ground_truth import ValidationCorpus, ValidationRecord


@dataclass
class RpslObject:
    """One parsed aut-num object."""

    asn: int
    imports: List[Tuple[int, str]] = field(default_factory=list)  # (peer, filter)
    exports: List[Tuple[int, str]] = field(default_factory=list)  # (peer, filter)

    def as_text(self) -> str:
        lines = [f"aut-num:        AS{self.asn}"]
        lines.append(f"as-name:        SYNTH-AS{self.asn}")
        for peer, policy_filter in self.imports:
            lines.append(f"import:         from AS{peer} accept {policy_filter}")
        for peer, policy_filter in self.exports:
            lines.append(f"export:         to AS{peer} announce {policy_filter}")
        lines.append("source:         SYNTHETIC")
        return "\n".join(lines) + "\n"


def _customer_set(asn: int) -> str:
    return f"AS{asn}:AS-CUSTOMERS"


def generate_rpsl(
    graph: ASGraph,
    registration_rate: float = 0.25,
    seed: int = 17,
    staleness: float = 0.0,
) -> List[RpslObject]:
    """Author aut-num objects for a random subset of the graph's ASes.

    Each registered AS writes policy lines for every neighbor using the
    conventional encodings, exactly as a diligent RIPE member would.

    ``staleness`` models the IRR's well-known data-quality problem (the
    paper discusses it): with this probability per neighbor, the
    registered policy describes a *previous* relationship — a current
    peer still registered as a provider, a current provider registered
    as a peer — because nobody updated the object after the business
    changed.
    """
    rng = random.Random(seed)
    objects: List[RpslObject] = []
    for asys in graph.ases():
        if asys.type is ASType.IXP_RS:
            continue
        if rng.random() >= registration_rate:
            continue
        asn = asys.asn
        obj = RpslObject(asn=asn)

        def write_provider_lines(neighbor: int) -> None:
            obj.imports.append((neighbor, "ANY"))
            obj.exports.append((neighbor, _customer_set(asn)))

        def write_peer_lines(neighbor: int) -> None:
            obj.imports.append((neighbor, _customer_set(neighbor)))
            obj.exports.append((neighbor, _customer_set(asn)))

        def write_customer_lines(neighbor: int) -> None:
            obj.imports.append((neighbor, _customer_set(neighbor)))
            obj.exports.append((neighbor, "ANY"))

        for provider in sorted(graph.providers[asn]):
            if staleness and rng.random() < staleness:
                write_peer_lines(provider)  # outdated: used to be a peer
            else:
                write_provider_lines(provider)
        for peer in sorted(graph.peers[asn]):
            if staleness and rng.random() < staleness:
                write_provider_lines(peer)  # outdated: used to buy transit
            else:
                write_peer_lines(peer)
        for customer in sorted(graph.customers[asn]):
            if staleness and rng.random() < staleness:
                write_peer_lines(customer)
            else:
                write_customer_lines(customer)
        objects.append(obj)
    return objects


def parse_rpsl(text: str) -> List[RpslObject]:
    """Parse one or more aut-num objects from RPSL text.

    Objects are separated by blank lines or new ``aut-num:`` attributes;
    unknown attributes are ignored, per RPSL's extensible design.
    """
    objects: List[RpslObject] = []
    current: Optional[RpslObject] = None
    for raw_line in text.splitlines():
        line = raw_line.strip()
        if not line or line.startswith(("%", "#")):
            continue
        if ":" not in line:
            continue
        attribute, _, value = line.partition(":")
        attribute = attribute.strip().lower()
        value = value.strip()
        if attribute == "aut-num":
            asn = _parse_asn(value)
            current = RpslObject(asn=asn) if asn is not None else None
            if current is not None:
                objects.append(current)
        elif current is None:
            continue
        elif attribute == "import":
            parsed = _parse_policy(value, "from", "accept")
            if parsed is not None:
                current.imports.append(parsed)
        elif attribute == "export":
            parsed = _parse_policy(value, "to", "announce")
            if parsed is not None:
                current.exports.append(parsed)
    return objects


def _parse_asn(token: str) -> Optional[int]:
    token = token.strip().upper()
    if token.startswith("AS") and token[2:].isdigit():
        return int(token[2:])
    return None


def _parse_policy(
    value: str, peer_keyword: str, filter_keyword: str
) -> Optional[Tuple[int, str]]:
    """Extract ``(peer_asn, filter)`` from an import/export value."""
    tokens = value.split()
    lowered = [t.lower() for t in tokens]
    try:
        peer_idx = lowered.index(peer_keyword) + 1
        filter_idx = lowered.index(filter_keyword) + 1
    except ValueError:
        return None
    if peer_idx >= len(tokens) or filter_idx >= len(tokens):
        return None
    peer = _parse_asn(tokens[peer_idx])
    if peer is None:
        return None
    return peer, " ".join(tokens[filter_idx:])


def relationships_from_objects(
    objects: Iterable[RpslObject],
) -> Iterable[ValidationRecord]:
    """Recover relationship assertions from parsed aut-num objects.

    The decision table mirrors the paper's IRR mining: ``accept ANY``
    from a neighbor marks it as provider, ``announce ANY`` to a
    neighbor marks it as customer, and symmetric customer-set exchange
    marks a peer.
    """
    for obj in objects:
        import_filters: Dict[int, str] = {p: f for p, f in obj.imports}
        export_filters: Dict[int, str] = {p: f for p, f in obj.exports}
        for neighbor in sorted(set(import_filters) | set(export_filters)):
            accepts = import_filters.get(neighbor, "").upper()
            announces = export_filters.get(neighbor, "").upper()
            if accepts == "ANY" and announces != "ANY":
                yield ValidationRecord(
                    a=obj.asn, b=neighbor, relationship=Relationship.P2C,
                    provider=neighbor, source="rpsl",
                )
            elif announces == "ANY" and accepts != "ANY":
                yield ValidationRecord(
                    a=obj.asn, b=neighbor, relationship=Relationship.P2C,
                    provider=obj.asn, source="rpsl",
                )
            elif accepts and announces:
                # both sides exchange bounded sets: peers (ANY/ANY — a
                # mutual-transit oddity — is skipped as unparseable)
                if accepts != "ANY" and announces != "ANY":
                    yield ValidationRecord(
                        a=obj.asn, b=neighbor, relationship=Relationship.P2P,
                        provider=None, source="rpsl",
                    )


def rpsl_corpus(
    graph: ASGraph,
    registration_rate: float = 0.25,
    seed: int = 17,
    staleness: float = 0.0,
) -> ValidationCorpus:
    """Generate, serialize, re-parse and mine RPSL for ``graph``.

    Round-trips through the textual form on purpose: the parser is part
    of the system under test.
    """
    objects = generate_rpsl(graph, registration_rate, seed, staleness)
    text = "\n".join(obj.as_text() for obj in objects)
    parsed = parse_rpsl(text)
    corpus = ValidationCorpus()
    for record in relationships_from_objects(parsed):
        corpus.add(record)
    return corpus
