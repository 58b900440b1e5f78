"""Port filtering, advertisement signing, and digest-bound identifiers."""

import random
from dataclasses import FrozenInstanceError, replace

import pytest

from slaacsim.addressing import Ipv6Address, MacAddress, Prefix
from slaacsim.defense import (
    PortClass,
    SwitchPort,
    cga_generate,
    filter_ingress,
    key_secret,
    sign_ra,
    verify_ra,
)
from slaacsim.messages import (
    AuthToken,
    NeighborSolicitation,
    PrefixInfo,
    RouterAdvertisement,
    RouterPreference,
)

R1_MAC = MacAddress.parse("00:00:5e:00:53:01")
A1_MAC = MacAddress.parse("00:00:5e:00:53:66")
R1_IP = Ipv6Address.parse("fe80::1")


def make_ra(src_mac=R1_MAC, lifetime=1800) -> RouterAdvertisement:
    return RouterAdvertisement(src_mac, R1_IP, lifetime, RouterPreference.HIGH)


def port(port_class=PortClass.HOST_FACING, ra_guard=False, acl=None) -> SwitchPort:
    return SwitchPort("p1", port_class, ra_guard, acl)


# -- ingress filtering ---------------------------------------------------------

def test_ra_guard_drops_ra_on_host_port():
    assert filter_ingress(port(ra_guard=True), make_ra()) == "ra-guard"


def test_ra_guard_spares_router_ports():
    guarded = port(PortClass.ROUTER_FACING, ra_guard=True)
    assert filter_ingress(guarded, make_ra()) is None


def test_acl_forwards_listed_source():
    allowing = port(PortClass.ROUTER_FACING, acl=frozenset({R1_MAC}))
    assert filter_ingress(allowing, make_ra()) is None


def test_acl_drops_unlisted_source():
    allowing = port(acl=frozenset({R1_MAC}))
    assert filter_ingress(allowing, make_ra(src_mac=A1_MAC)) == "acl"


def test_empty_acl_drops_every_ra():
    assert filter_ingress(port(acl=frozenset()), make_ra()) == "acl"


def test_non_ra_messages_always_pass():
    guarded = port(ra_guard=True, acl=frozenset())
    ns = NeighborSolicitation(R1_IP)
    assert filter_ingress(guarded, ns) is None


def test_switch_port_is_frozen():
    guarded = port(ra_guard=True)
    with pytest.raises(FrozenInstanceError):
        guarded.ra_guard = False


# -- signing -----------------------------------------------------------------------

@pytest.fixture
def trusted():
    return {"k1": key_secret("k1")}


def test_sign_then_verify_round_trip(trusted):
    assert verify_ra(sign_ra(make_ra(), "k1"), trusted)


def test_mutated_lifetime_fails_verification(trusted):
    signed = sign_ra(make_ra(lifetime=1800), "k1")
    tampered = replace(signed, router_lifetime=0)
    assert not verify_ra(tampered, trusted)


TWO_PREFIXES = (
    PrefixInfo(Prefix.parse("2001:db8:1::/64"), 3600, 1800),
    PrefixInfo(Prefix.parse("2001:db8:2::/64"), 7200, 7200),
)
EXTRA_PREFIX = PrefixInfo(Prefix.parse("2001:db8:3::/64"), 3600, 3600)

PREFIX_CHANGES = {
    "prefix": lambda p: replace(p, prefix=Prefix.parse("2001:db8:9::/64")),
    "valid_lifetime": lambda p: replace(p, valid_lifetime=p.valid_lifetime + 1),
    "preferred_lifetime": lambda p: replace(p, preferred_lifetime=p.preferred_lifetime - 1),
}


def _with_prefix_changed(ra, index, change):
    prefixes = list(ra.prefixes)
    prefixes[index] = change(prefixes[index])
    return replace(ra, prefixes=tuple(prefixes))


TAMPERINGS = {
    "src_mac": lambda ra: replace(ra, src_mac=A1_MAC),
    "src_ip": lambda ra: replace(ra, src_ip=Ipv6Address.parse("fe80::66")),
    "router_lifetime": lambda ra: replace(ra, router_lifetime=0),
    "preference": lambda ra: replace(ra, preference=RouterPreference.LOW),
    "prefix-added": lambda ra: replace(ra, prefixes=ra.prefixes + (EXTRA_PREFIX,)),
    "prefix-dropped": lambda ra: replace(ra, prefixes=ra.prefixes[:1]),
    **{
        f"prefixes[{i}].{name}": (lambda ra, i=i, change=change: _with_prefix_changed(ra, i, change))
        for i in range(len(TWO_PREFIXES))
        for name, change in PREFIX_CHANGES.items()
    },
}


@pytest.mark.parametrize("tamper", TAMPERINGS.values(), ids=TAMPERINGS.keys())
def test_signature_covers_every_semantic_field(trusted, tamper):
    signed = sign_ra(replace(make_ra(), prefixes=TWO_PREFIXES), "k1")
    assert verify_ra(signed, trusted)
    tampered = tamper(signed)
    assert tampered != signed and tampered.auth == signed.auth
    assert not verify_ra(tampered, trusted)


def test_signed_fields_are_made_once_per_advertisement():
    ra = replace(make_ra(), prefixes=TWO_PREFIXES)
    assert ra.signed_fields is ra.signed_fields
    copy = replace(ra)
    assert copy.signed_fields == ra.signed_fields
    assert copy.signed_fields is not ra.signed_fields


def test_unsigned_ra_fails_verification(trusted):
    assert not verify_ra(make_ra(), trusted)


def test_unknown_key_fails_verification(trusted):
    signed = sign_ra(make_ra(), "k1")
    assert not verify_ra(signed, {})


def test_tag_made_with_another_secret_fails_verification(trusted):
    # The forgery an attacker can make: a trusted key id over a tag made
    # with a secret it holds.
    forged = sign_ra(make_ra(), "k2")
    forged = replace(forged, auth=AuthToken("k1", forged.auth.tag))
    assert not verify_ra(forged, trusted)


@pytest.mark.parametrize("index", [0, 7, 15])
def test_tag_with_one_byte_flipped_fails_verification(trusted, index):
    signed = sign_ra(make_ra(), "k1")
    tag = bytearray(signed.auth.tag)
    tag[index] ^= 0x01
    flipped = replace(signed, auth=AuthToken("k1", bytes(tag)))
    assert not verify_ra(flipped, trusted)


def test_tag_is_128_bits(trusted):
    assert len(sign_ra(make_ra(), "k1").auth.tag) == 16


def test_tag_known_answer():
    # Keyed BLAKE2b-128 over the advertisement's signed fields; a change of
    # MAC must change this literal on purpose.
    assert sign_ra(make_ra(), "k1").auth.tag.hex() == "78d906e78046df90977813f57335ce10"


# -- digest-bound identifiers ----------------------------------------------------------

def test_cga_is_deterministic():
    assert cga_generate("key", 7) == cga_generate("key", 7)


def test_cga_distinct_keys_collide_nowhere_in_sample():
    rng = random.Random(7)
    keys = [f"key-{rng.getrandbits(64):x}" for _ in range(1000)]
    iids = {cga_generate(k, 0) for k in keys}
    assert len(iids) == len(keys)


def test_cga_round_trip_and_mutations():
    iid = cga_generate("key", 7)
    assert cga_generate("key", 7) == iid
    assert cga_generate("other", 7) != iid
    assert cga_generate("key", 8) != iid


def test_cga_clears_flag_bits():
    for modifier in range(32):
        iid = cga_generate("key", modifier)
        assert iid >> 56 & 0x03 == 0
        assert iid < 1 << 64
