"""Unit tests for the IPv4 prefix value type, and for the QA oracle's
address-space summation over it."""

import pytest
from hypothesis import given, strategies as st

from repro.net.prefix import Prefix, PrefixError
from repro.qa.oracles import summarize_address_space


class TestParse:
    def test_parse_basic(self):
        p = Prefix.parse("10.0.0.0/8")
        assert p.network == 10 << 24
        assert p.length == 8

    def test_parse_host_route(self):
        p = Prefix.parse("192.0.2.1/32")
        assert p.length == 32
        assert str(p) == "192.0.2.1/32"

    def test_parse_default_route(self):
        p = Prefix.parse("0.0.0.0/0")
        assert p.length == 0
        assert p.num_addresses == 1 << 32

    def test_parse_strips_whitespace(self):
        assert Prefix.parse("  10.0.0.0/8 ") == Prefix.parse("10.0.0.0/8")

    @pytest.mark.parametrize(
        "text",
        [
            "10.0.0.0",  # missing length
            "10.0.0/8",  # short quad
            "10.0.0.0.0/8",  # long quad
            "10.0.0.256/32",  # octet out of range
            "10.0.0.0/33",  # length out of range
            "10.0.0.0/-1",  # negative length
            "10.0.0.0/x",  # non-numeric length
            "a.b.c.d/8",  # non-numeric quad
            "",  # empty
        ],
    )
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(PrefixError):
            Prefix.parse(text)

    def test_rejects_host_bits(self):
        with pytest.raises(PrefixError):
            Prefix.parse("10.0.0.1/8")

    def test_constructor_rejects_bad_length(self):
        with pytest.raises(PrefixError):
            Prefix(0, 40)

    def test_constructor_rejects_bad_network(self):
        with pytest.raises(PrefixError):
            Prefix(1 << 33, 8)


class TestProperties:
    def test_num_addresses(self):
        assert Prefix.parse("10.0.0.0/8").num_addresses == 1 << 24
        assert Prefix.parse("192.0.2.0/24").num_addresses == 256
        assert Prefix.parse("192.0.2.4/32").num_addresses == 1

    def test_broadcast(self):
        p = Prefix.parse("192.0.2.0/24")
        assert p.broadcast == p.network + 255

    def test_str_round_trip(self):
        for text in ("10.0.0.0/8", "172.16.0.0/12", "192.0.2.128/25"):
            assert str(Prefix.parse(text)) == text

    def test_repr_contains_text(self):
        assert "10.0.0.0/8" in repr(Prefix.parse("10.0.0.0/8"))

    def test_immutability(self):
        p = Prefix.parse("10.0.0.0/8")
        with pytest.raises(AttributeError):
            p.length = 9

    def test_hashable_and_equal(self):
        a = Prefix.parse("10.0.0.0/8")
        b = Prefix(10 << 24, 8)
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_ordering(self):
        p8 = Prefix.parse("10.0.0.0/8")
        p9 = Prefix.parse("10.0.0.0/9")
        p24 = Prefix.parse("192.0.2.0/24")
        assert p8 < p9 < p24
        assert p24 > p9 >= p8
        assert sorted([p24, p9, p8]) == [p8, p9, p24]

    def test_every_v4_prefix_sorts_before_every_v6_prefix(self):
        from repro.net.prefix6 import Prefix6

        v4 = Prefix.parse("0.0.0.0/0")
        v6 = Prefix6.parse("::/0")
        # same (network, length): only the family tells them apart
        assert v4 != v6
        assert v4 < v6 and v4 <= v6 and not v4 > v6 and not v4 >= v6
        assert v6 > v4 and v6 >= v4 and not v6 < v4 and not v6 <= v4
        top4 = Prefix.parse("255.255.255.255/32")
        low6 = Prefix6.parse("::1/128")
        assert sorted([low6, v6, top4, v4]) == [v4, top4, v6, low6]


class TestContainment:
    def test_contains_more_specific(self):
        assert Prefix.parse("10.0.0.0/8").contains(Prefix.parse("10.1.0.0/16"))

    def test_contains_self(self):
        p = Prefix.parse("10.0.0.0/8")
        assert p.contains(p)

    def test_does_not_contain_shorter(self):
        assert not Prefix.parse("10.0.0.0/16").contains(Prefix.parse("10.0.0.0/8"))

    def test_does_not_contain_disjoint(self):
        assert not Prefix.parse("10.0.0.0/8").contains(Prefix.parse("11.0.0.0/8"))

    def test_contains_address(self):
        p = Prefix.parse("192.0.2.0/24")
        assert p.contains_address(p.network + 7)
        assert not p.contains_address(p.network - 1)

    def test_in_operator(self):
        outer = Prefix.parse("10.0.0.0/8")
        assert Prefix.parse("10.2.0.0/16") in outer
        assert (10 << 24) + 5 in outer


class TestSubnets:
    def test_split_in_two(self):
        halves = list(Prefix.parse("10.0.0.0/8").subnets(9))
        assert [str(h) for h in halves] == ["10.0.0.0/9", "10.128.0.0/9"]

    def test_split_same_length_is_identity(self):
        p = Prefix.parse("10.0.0.0/8")
        assert list(p.subnets(8)) == [p]

    def test_split_rejects_shorter(self):
        with pytest.raises(PrefixError):
            list(Prefix.parse("10.0.0.0/8").subnets(7))

    def test_split_rejects_beyond_32(self):
        with pytest.raises(PrefixError):
            list(Prefix.parse("10.0.0.0/8").subnets(33))

    def test_supernet(self):
        assert str(Prefix.parse("10.128.0.0/9").supernet(8)) == "10.0.0.0/8"

    def test_supernet_rejects_longer(self):
        with pytest.raises(PrefixError):
            Prefix.parse("10.0.0.0/8").supernet(9)

    def test_from_host_count(self):
        p = Prefix.from_host_count(10 << 24, 300)
        assert p.num_addresses >= 300
        assert p.length == 23


class TestSummarize:
    def test_empty(self):
        assert summarize_address_space([]) == 0

    def test_single(self):
        assert summarize_address_space([Prefix.parse("192.0.2.0/24")]) == 256

    def test_duplicates_count_once(self):
        p = Prefix.parse("192.0.2.0/24")
        assert summarize_address_space([p, p]) == 256

    def test_nested_count_once(self):
        outer = Prefix.parse("10.0.0.0/8")
        inner = Prefix.parse("10.1.0.0/16")
        assert summarize_address_space([outer, inner]) == outer.num_addresses

    def test_disjoint_sum(self):
        a = Prefix.parse("10.0.0.0/24")
        b = Prefix.parse("11.0.0.0/24")
        assert summarize_address_space([a, b]) == 512

    def test_adjacent_merge(self):
        a = Prefix.parse("10.0.0.0/25")
        b = Prefix.parse("10.0.0.128/25")
        assert summarize_address_space([a, b]) == 256


# property-based coverage --------------------------------------------------

prefix_strategy = st.integers(min_value=0, max_value=32).flatmap(
    lambda length: st.integers(min_value=0, max_value=(1 << 32) - 1).map(
        lambda raw: Prefix(
            (raw >> (32 - length) << (32 - length)) if length else 0, length
        )
    )
)


@given(prefix_strategy)
def test_text_round_trip(prefix):
    assert Prefix.parse(str(prefix)) == prefix


@given(prefix_strategy)
def test_broadcast_geq_network(prefix):
    assert prefix.broadcast >= prefix.network
    assert prefix.broadcast - prefix.network + 1 == prefix.num_addresses


@given(st.lists(prefix_strategy, max_size=12))
def test_summarize_matches_brute_force(prefixes):
    # brute force on /24 granularity would be huge; restrict to short
    # prefixes by mapping everything into a /16 window
    scoped = [p for p in prefixes if p.length >= 20]
    expected = set()
    for p in scoped:
        expected.update(range(p.network, p.broadcast + 1))
    assert summarize_address_space(scoped) == len(expected)


@given(prefix_strategy, prefix_strategy)
def test_containment_antisymmetry(a, b):
    if a.contains(b) and b.contains(a):
        assert a == b
