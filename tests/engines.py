"""Route state from both propagation engines, for hand-checked tests."""

from repro.bgp.propagation import propagate_batch
from repro.qa.oracles import propagate_origin


def propagate(index, origin_asn, leakers=None):
    """``origin_asn``'s route state from the production (batched) engine.

    The single-origin oracle must compute the same state, so every
    expectation a test checks on the result pins both engines.
    """
    state = propagate_batch(index, [origin_asn], {origin_asn: leakers})[0]
    oracle = propagate_origin(index, origin_asn, leakers=leakers)
    assert state.origin == oracle.origin
    assert state.cls == oracle.cls
    assert state.nexthop == oracle.nexthop
    assert state.pathlen == oracle.pathlen
    return state


def provider_closure(index, seeds):
    """The dense ids ``seeds`` plus, transitively, all their providers:
    the cells an ``observers`` propagation must compute exactly."""
    closure, stack = set(seeds), list(seeds)
    while stack:
        for provider in index.providers[stack.pop()]:
            if int(provider) not in closure:
                closure.add(int(provider))
                stack.append(int(provider))
    return closure
