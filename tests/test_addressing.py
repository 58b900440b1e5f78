"""Address arithmetic vectors and round-trip properties.

Expected values were derived by hand (bit-level EUI-64 walkthrough) or via the
independent helpers below, never from the code under test.
"""

import ipaddress
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slaacsim.addressing import (
    AddressParseError,
    Ipv6Address,
    MacAddress,
    Prefix,
    PrefixLengthUnsupported,
    derive_eui64,
    global_from,
    iid_text,
    link_local_from,
    parse_iid,
    parse_ipv4,
)
from slaacsim.messages import (
    MAX_ROUTER_LIFETIME,
    PrefixInfo,
    RouterAdvertisement,
    RouterPreference,
    Timer,
)


def eui64_by_string_splice(mac_text: str) -> str:
    """Independent EUI-64 oracle: hex-string splicing, no integer arithmetic."""
    parts = mac_text.split(":")
    parts[0] = "%02x" % (int(parts[0], 16) ^ 0x02)
    spliced = parts[:3] + ["ff", "fe"] + parts[3:]
    return ":".join("".join(spliced[i : i + 2]) for i in range(0, 8, 2))


def canonical_v6_by_group_scan(value: int) -> str:
    """Independent canonical-compression oracle (longest zero run, leftmost tie)."""
    groups = [format((value >> (112 - 16 * i)) & 0xFFFF, "x") for i in range(8)]
    best_start, best_len = -1, 0
    i = 0
    while i < 8:
        if groups[i] != "0":
            i += 1
            continue
        j = i
        while j < 8 and groups[j] == "0":
            j += 1
        if j - i > best_len:
            best_start, best_len = i, j - i
        i = j
    if best_len < 2:
        return ":".join(groups)
    head = ":".join(groups[:best_start])
    tail = ":".join(groups[best_start + best_len :])
    return head + "::" + tail


def fault_offset_by_regex(text: str) -> int:
    """Independent oracle for an invalid IPv6 literal's offset: the first
    character outside the literal's alphabet, else the start of a second
    "::", else the fifth digit of an over-long group, else 0."""
    outside = re.search(r"[^0-9a-fA-F:.]", text)
    if outside:
        return outside.start()
    second = re.match(r"(.*?::.*?)::", text)
    if second:
        return len(second[1])
    long_group = re.search(r"[^:.]{5}", text)
    return long_group.start() + 4 if long_group else 0


# --- modified EUI-64 -------------------------------------------------------

EUI64_VECTORS = [
    ("00:1a:2b:3c:4d:5e", "021a:2bff:fe3c:4d5e"),
    ("00:00:00:00:00:00", "0200:00ff:fe00:0000"),
    ("02:00:00:00:00:00", "0000:00ff:fe00:0000"),
]


@pytest.mark.parametrize("mac_text,expected", EUI64_VECTORS)
def test_eui64_vectors(mac_text, expected):
    iid = derive_eui64(MacAddress.parse(mac_text))
    assert iid_text(iid) == expected
    assert iid_text(iid) == eui64_by_string_splice(mac_text)


@given(st.binary(min_size=6, max_size=6))
def test_eui64_structure(octets):
    iid = derive_eui64(MacAddress(octets))
    as_bytes = iid.to_bytes(8, "big")
    assert as_bytes[3] == 0xFF and as_bytes[4] == 0xFE
    assert (octets[0] ^ as_bytes[0]) == 0x02
    assert iid_text(iid) == eui64_by_string_splice(str(MacAddress(octets)))


# --- link-local and global formation ---------------------------------------

def test_link_local_vectors():
    assert str(link_local_from(0)) == "fe80::"
    assert str(link_local_from(0x021A2BFFFE3C4D5E)) == "fe80::21a:2bff:fe3c:4d5e"
    assert str(link_local_from(0xFFFFFFFFFFFFFFFF)) == "fe80::ffff:ffff:ffff:ffff"


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_link_local_split(iid):
    addr = link_local_from(iid)
    assert int(addr) & 0xFFFFFFFFFFFFFFFF == iid
    assert int(addr) >> 64 == 0xFE80 << 48


def test_global_from_vectors():
    p = Prefix.parse("2001:db8:1::/64")
    assert str(global_from(p, 0x021A2BFFFE3C4D5E)) == "2001:db8:1:0:21a:2bff:fe3c:4d5e"
    assert str(global_from(p, 0)) == "2001:db8:1::"
    zero = Prefix.parse("::/64")
    assert int(global_from(zero, 0xDEADBEEF)) == 0xDEADBEEF


def test_global_from_rejects_non_64():
    with pytest.raises(PrefixLengthUnsupported):
        global_from(Prefix.parse("2001:db8::/48"), 1)


@given(
    st.integers(min_value=0, max_value=2**64 - 1),
    st.integers(min_value=0, max_value=2**64 - 1),
)
def test_global_from_bijection(high, iid):
    prefix = Prefix(Ipv6Address(high << 64), 64)
    addr = global_from(prefix, iid)
    assert int(addr) >> 64 == high
    assert int(addr) & 0xFFFFFFFFFFFFFFFF == iid


# --- parse / print ----------------------------------------------------------

def test_parse_vectors():
    assert int(Ipv6Address.parse("fe80::1")) == (0xFE80 << 112) | 1
    assert int(Ipv6Address.parse("::")) == 0
    assert str(Ipv6Address.parse("2001:0db8:0:0:0:0:0:1")) == "2001:db8::1"


def test_parse_round_trip_seeded():
    rng = random.Random(0x5EED)
    for _ in range(1000):
        value = rng.getrandbits(128)
        addr = Ipv6Address(value)
        assert Ipv6Address.parse(str(addr)) == addr
        assert str(addr) == canonical_v6_by_group_scan(value)


@given(st.integers(min_value=0, max_value=2**128 - 1))
def test_print_is_canonical(value):
    addr = Ipv6Address(value)
    text = str(addr)
    assert text == text.lower()
    assert Ipv6Address.parse(text) == addr
    assert text == canonical_v6_by_group_scan(value)


def test_parse_error_offset():
    with pytest.raises(AddressParseError) as exc:
        Ipv6Address.parse("fe80::zz")
    assert exc.value.offset == 6
    with pytest.raises(AddressParseError):
        Ipv6Address.parse("1:2:3:4:5:6:7:8:9")


# (text, offset): a second "::" is faulty at its start, an over-long group
# at its fifth digit, and any other fault (too many groups) at 0.
@pytest.mark.parametrize(
    "text, offset",
    [
        ("1::2::3", 4),
        ("fe80::1::", 7),
        ("12345::1", 4),
        ("2001:db8::1:abcde", 16),
        ("1:2:3:4:5:6:7:8:9", 0),
    ],
)
def test_parse_error_offset_of_a_fault_inside_the_alphabet(text, offset):
    with pytest.raises(AddressParseError) as exc:
        Ipv6Address.parse(text)
    assert exc.value.offset == offset
    assert str(exc.value) == f"invalid IPv6 address at offset {offset}: {text!r}"


_HEX = "0123456789abcdefABCDEF"
_GROUP = st.text(_HEX, min_size=1, max_size=4)
# A dotted tail: a valid quad, or three to five parts of up to four digits.
_V4_TAIL = st.lists(st.integers(0, 255).map(str), min_size=4, max_size=4).map(".".join) | st.lists(
    st.text("0123456789", max_size=4), min_size=3, max_size=5
).map(".".join)


@st.composite
def _structured(draw) -> str:
    tail = draw(st.none() | _V4_TAIL)
    width = 8 if tail is None else 6  # the groups a full literal has
    compressed = draw(st.booleans())  # "::" stands for at least one group
    count = draw(st.integers(0, width) if compressed else st.sampled_from([width - 1, width, width + 1]))
    groups = draw(st.lists(_GROUP, min_size=count, max_size=count))
    if groups and draw(st.booleans()):  # one group empty or five digits long
        groups[draw(st.integers(0, count - 1))] = draw(st.sampled_from(["", "12345"]))
    if compressed:
        cut = draw(st.integers(0, count))
        text = ":".join(groups[:cut]) + "::" + ":".join(groups[cut:])
    else:
        text = ":".join(groups)
    if tail is not None:
        text += tail if text.endswith(":") or not text else ":" + tail
    zone = draw(st.none() | st.text(_HEX, max_size=3))  # the stdlib takes "%<zone>"
    return text if zone is None else f"{text}%{zone}"


# Well-formed and nearly well-formed literals, and free text over the
# literal's alphabet, a zone sign and a digit of another script.
_LITERALS = _structured() | st.text(_HEX + ":.%\u0663", max_size=48)


@settings(max_examples=300)
@given(_LITERALS)
def test_parse_agrees_with_the_stdlib(text):
    try:
        expected = int(ipaddress.IPv6Address(text))
    except ValueError:
        expected = None
    if expected is not None and "%" not in text:
        assert Ipv6Address.parse(text) == expected
        return
    with pytest.raises(AddressParseError) as exc:
        Ipv6Address.parse(text)
    offset = fault_offset_by_regex(text)
    assert exc.value.offset == offset
    assert str(exc.value) == f"invalid IPv6 address at offset {offset}: {text!r}"


@pytest.mark.parametrize("text", ["10.0.0", "10.0.0.256", "", "fe80::1", "10.0.0.1 "])
def test_ipv4_parse_error(text):
    with pytest.raises(AddressParseError) as exc:
        parse_ipv4(text)
    assert exc.value.offset == 0
    assert str(exc.value) == f"invalid IPv4 address at offset 0: {text!r}"


def test_ipv4_parse():
    assert str(parse_ipv4("10.0.0.1")) == "10.0.0.1"


@pytest.mark.parametrize("text", ["fe80::1%eth0", "fe80::1%1", "2001:db8::%", "%"])
def test_scoped_literal_rejected_at_its_zone(text):
    with pytest.raises(AddressParseError) as exc:
        Ipv6Address.parse(text)
    assert exc.value.offset == text.index("%")


# --- the address type ----------------------------------------------------------

def test_ipv6_address_is_an_int_with_its_hash():
    addr = Ipv6Address(5)
    assert addr == 5 and 5 == addr
    assert hash(addr) == hash(5)
    assert {5: "x"}[addr] == "x"
    assert not hasattr(addr, "__dict__")
    with pytest.raises(AttributeError):
        addr.extra = 1


def test_mac_address_is_its_octets_with_their_hash():
    mac = MacAddress.parse("00:1a:2b:3c:4d:5e")
    octets = bytes.fromhex("001a2b3c4d5e")
    assert mac == octets and hash(mac) == hash(octets)
    assert mac == MacAddress(octets) and isinstance(MacAddress(octets), MacAddress)
    assert not hasattr(mac, "__dict__")


def test_ipv6_address_order_is_numeric():
    values = [2**128 - 1, 0, 0xFE80 << 112, 1, 0x2001 << 112]
    assert sorted(Ipv6Address(v) for v in values) == [Ipv6Address(v) for v in sorted(values)]
    assert Ipv6Address.parse("::1") < Ipv6Address.parse("fe80::") < Ipv6Address.parse("ff02::1")


def test_ipv6_address_text_is_compressed_in_every_form():
    addr = Ipv6Address.parse("2001:db8:0:0:0:0:0:1")
    assert str(addr) == "2001:db8::1"
    assert "%s" % addr == "2001:db8::1"
    assert format(addr, "") == "2001:db8::1"
    assert f"{addr}" == "2001:db8::1"
    assert f"a={addr} b={Ipv6Address(0)}" == "a=2001:db8::1 b=::"


@pytest.mark.parametrize("value", [-1, 2**128])
def test_ipv6_address_out_of_range(value):
    with pytest.raises(ValueError):
        Ipv6Address(value)


def test_no_timer_equals_an_address():
    # A timer key is a Timer or the address of a DAD deadline.
    addresses = [Ipv6Address(0), Ipv6Address(1), Ipv6Address.parse("fe80::1")]
    for timer in Timer:
        assert all(timer != addr and addr != timer for addr in addresses)
        assert timer not in set(addresses)


def test_mac_text_round_trip():
    mac = MacAddress.parse("00:1A:2B:3C:4D:5E")
    assert str(mac) == "00:1a:2b:3c:4d:5e"
    assert MacAddress.parse(str(mac)) == mac
    with pytest.raises(ValueError, match="^MAC must be 6 octets, got 5$"):
        MacAddress.parse("00:1a:2b:3c:4d")


GOOD_MAC = "00:1a:2b:3c:4d:5e"


def _with_pair(index: int, pair: str) -> str:
    pairs = GOOD_MAC.split(":")
    pairs[index] = pair
    return ":".join(pairs)


# (text, offset, reason) for MACs that are not all hex pairs: the offset is
# the first byte of the first bad pair. A wrong count of good pairs is the
# constructor's error (test_mac_pair_count_is_the_constructors_error).
MAC_ERRORS = [
    *((_with_pair(i, "g0"), 3 * i, "bad hex pair") for i in range(6)),
    ("00:1a:2bc:3c:4d:5e", 6, "bad hex pair"),
    ("00:1a:2:3c:4d:5e", 6, "bad hex pair"),
    (_with_pair(3, "\uff10a"), 9, "bad hex pair"),  # fullwidth digit zero
    (_with_pair(5, "\u0660\u0661"), 15, "bad hex pair"),  # Arabic-Indic digits
    ("00:1a:2b:3c:4d: 5", 15, "bad hex pair"),
    ("00:1a:2b:3c:4d:5e\n", 15, "bad hex pair"),
    ("", 0, "bad hex pair"),
]


@pytest.mark.parametrize("text, offset, reason", MAC_ERRORS)
def test_mac_parse_error_offset_and_reason(text, offset, reason):
    with pytest.raises(AddressParseError) as exc:
        MacAddress.parse(text)
    assert exc.value.offset == offset
    assert str(exc.value) == f"{reason} at offset {offset}: {text!r}"


@given(st.binary(min_size=6, max_size=6))
def test_mac_text_is_six_lower_case_pairs(octets):
    text = str(MacAddress(octets))
    assert text == ":".join(f"{b:02x}" for b in octets)
    assert MacAddress.parse(text) == MacAddress.parse(text.upper()) == MacAddress(octets)


@pytest.mark.parametrize("length", [5, 7, 0])
def test_mac_needs_six_octets(length):
    with pytest.raises(ValueError, match=f"^MAC must be 6 octets, got {length}$"):
        MacAddress(bytes(length))


# "" holds no pair at all: it is a bad hex pair at offset 0 (MAC_ERRORS).
@pytest.mark.parametrize("text, count", [("00:1a:2b:3c:4d", 5), ("00:1a:2b:3c:4d:5e:6f", 7)])
def test_mac_pair_count_is_the_constructors_error(text, count):
    with pytest.raises(ValueError, match=f"^MAC must be 6 octets, got {count}$") as exc:
        MacAddress.parse(text)
    assert not isinstance(exc.value, AddressParseError)


@pytest.mark.parametrize("length", [-1, 129])
def test_prefix_length_out_of_range(length):
    with pytest.raises(ValueError, match=f"^prefix length {length} out of range$"):
        Prefix(Ipv6Address(0), length)
    assert str(Prefix(Ipv6Address(0), 128)) == "::/128"
    assert str(Prefix(Ipv6Address(0), 0)) == "::/0"


@pytest.mark.parametrize(
    "valid, preferred, message",
    [
        (-1, 0, "lifetimes must be non-negative"),
        (0, -1, "lifetimes must be non-negative"),
        (10, 11, "preferred lifetime exceeds valid lifetime"),
    ],
)
def test_prefix_info_lifetimes_out_of_range(valid, preferred, message):
    prefix = Prefix.parse("2001:db8:1::/64")
    with pytest.raises(ValueError, match=f"^{message}$"):
        PrefixInfo(prefix, valid, preferred)
    assert PrefixInfo(prefix, 10, 10).preferred_lifetime == 10


@pytest.mark.parametrize("lifetime", [-1, MAX_ROUTER_LIFETIME + 1])
def test_router_lifetime_out_of_range(lifetime):
    mac, ip = MacAddress.parse("00:00:5e:00:53:01"), Ipv6Address.parse("fe80::1")
    with pytest.raises(ValueError, match=f"^router lifetime {lifetime} out of range 0..65535$"):
        RouterAdvertisement(mac, ip, lifetime, RouterPreference.MEDIUM)
    for edge in (0, MAX_ROUTER_LIFETIME):
        assert RouterAdvertisement(mac, ip, edge, RouterPreference.MEDIUM).router_lifetime == edge


def test_prefix_host_bits_must_be_zero():
    with pytest.raises(ValueError):
        Prefix(Ipv6Address(1), 64)
    p = Prefix.parse("2001:db8:1::/64")
    assert str(p) == "2001:db8:1::/64"
    assert Prefix.parse(str(p)) == p


def test_iid_text_round_trip():
    assert iid_text(0x021A2BFFFE3C4D5E) == "021a:2bff:fe3c:4d5e"
    assert parse_iid("021a:2bff:fe3c:4d5e") == 0x021A2BFFFE3C4D5E
    assert parse_iid("021a2bfffe3c4d5e") == 0x021A2BFFFE3C4D5E


@pytest.mark.parametrize(
    "text", ["021a:2bff:fe3c", "021a:2bff:fe3c:4d5e:00", "021a:2bff:fe3c:4d5g", "", "\uff10" * 16]
)
def test_iid_parse_error(text):
    with pytest.raises(AddressParseError) as exc:
        parse_iid(text)
    assert exc.value.offset == 0
    assert str(exc.value) == f"IID needs 16 hex digits at offset 0: {text!r}"
