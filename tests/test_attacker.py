"""Adversary plays: capture, lifetime-zero replay, persona forging."""

from dataclasses import replace

import pytest

from conftest import attach, queued_timers, records

from slaacsim.addressing import Ipv6Address, MacAddress, Prefix
from slaacsim.attacker import FORGING_MODES, AttackMode, Attacker, NoCapturedRa, PersonaMissing
from slaacsim.defense import key_secret, sign_ra
from slaacsim.messages import (
    PrefixInfo,
    RouterAdvertisement,
    RouterPreference,
    Timer,
)
from slaacsim.router import Router
from slaacsim.scenario import build_engine, parse_scenario

A1_MAC = MacAddress.parse("00:00:5e:00:53:66")
A1_IP = Ipv6Address.parse("fe80::66")
R1_MAC = MacAddress.parse("00:00:5e:00:53:01")
R1_IP = Ipv6Address.parse("fe80::1")
R2_MAC = MacAddress.parse("00:00:5e:00:53:02")
R2_IP = Ipv6Address.parse("fe80::2")


def make_attacker(persona=None) -> Attacker:
    return Attacker("A1", persona)


def make_persona(can_route=True) -> Router:
    """A1's persona, with the settings a scenario gives every persona."""
    prefix = PrefixInfo(Prefix.parse("2001:db8:bad::/64"), 3600, 3600)
    ra = RouterAdvertisement(A1_MAC, A1_IP, 9000, RouterPreference.HIGH, (prefix,))
    return Router("A1", ra, 10_000, can_route, send_key=None, ra_enabled=True, jitter_ms=0)


def legit_ra(lifetime=1800) -> RouterAdvertisement:
    return RouterAdvertisement(R1_MAC, R1_IP, lifetime, RouterPreference.HIGH)


def test_capture_keeps_latest_ra_per_sender(engine):
    attacker = make_attacker()
    attach(engine, attacker)
    r2_ra = RouterAdvertisement(R2_MAC, R2_IP, 600, RouterPreference.LOW)
    attacker.on_message(engine, legit_ra(1800), "R1", 0)
    attacker.on_message(engine, r2_ra, "R2", 5)
    attacker.on_message(engine, legit_ra(900), "R1", 10)
    assert list(attacker.captured_ras) == ["R2", "R1"]
    assert [r.attrs for r in records(engine, "ra-captured")] == [
        (("src", str(R1_IP)), ("lifetime", "1800")),
        (("src", str(R2_IP)), ("lifetime", "600")),
        (("src", str(R1_IP)), ("lifetime", "900")),
    ]
    # Each replay is the latest RA from its target, or the latest from anyone.
    assert attacker.spoof_kill_ra("R2") == replace(r2_ra, router_lifetime=0)
    assert attacker.spoof_kill_ra() == replace(legit_ra(900), router_lifetime=0)
    assert attacker.spoof_kill_ra("R1") == replace(legit_ra(900), router_lifetime=0)


def test_spoof_zeroes_lifetime_and_keeps_source(engine):
    attacker = make_attacker()
    attach(engine, attacker)
    attacker.on_message(engine, legit_ra(), "R1", 0)
    spoof = attacker.spoof_kill_ra("R1")
    assert spoof.router_lifetime == 0
    assert spoof.src_mac == R1_MAC and spoof.src_ip == R1_IP
    assert spoof.prefixes == legit_ra().prefixes


def test_spoof_without_capture_raises():
    with pytest.raises(NoCapturedRa):
        make_attacker().spoof_kill_ra("R1")


def test_spoof_strips_auth_token(engine):
    attacker = make_attacker()
    attach(engine, attacker)
    attacker.on_message(engine, sign_ra(legit_ra(), "k1"), "R1", 0)
    assert attacker.spoof_kill_ra("R1").auth is None


def test_forge_uses_attacker_source(engine):
    attacker = make_attacker(make_persona())
    assert isinstance(attacker.persona, Router)
    ra = attacker.persona.ra
    assert ra.src_mac == A1_MAC and ra.src_ip == A1_IP
    assert ra.router_lifetime == 9000 and ra.auth is None
    assert str(ra.prefixes[0].prefix) == "2001:db8:bad::/64"


def test_forge_without_persona_raises(engine):
    attacker = make_attacker()
    attach(engine, attacker)
    for mode in FORGING_MODES:
        with pytest.raises(PersonaMissing):
            attacker.run_playbook(engine, mode, None, 0)
    assert records(engine, "ra-sent") == []


def test_kill_playbook_emits_exactly_one_spoof(engine):
    attacker = make_attacker()
    attach(engine, attacker)
    attacker.on_message(engine, legit_ra(), "R1", 0)
    attacker.run_playbook(engine, AttackMode.KILL_ROUTER, "R1", 5_000)
    assert len(records(engine, "ra-sent")) == 1
    assert not any(timer is Timer.RA for _, _, timer in queued_timers(engine))


def test_passive_playbook_emits_nothing(engine):
    attacker = make_attacker(make_persona())
    attach(engine, attacker)
    attacker.run_playbook(engine, AttackMode.PASSIVE, None, 0)
    assert records(engine, "ra-sent") == []


def test_mitm_playbook_kills_then_forges_periodically(engine):
    attacker = make_attacker(make_persona())
    attach(engine, attacker)
    attacker.on_message(engine, legit_ra(), "R1", 0)
    attacker.run_playbook(engine, AttackMode.FAKE_ROUTER_MITM, None, 5_000)
    sent = records(engine, "ra-sent")
    assert len(sent) == 2  # the kill replay, then the first forgery
    assert dict(sent[0].attrs)["lifetime"] == "0"
    assert dict(sent[0].attrs)["src"] == str(R1_IP)
    assert dict(sent[1].attrs)["src"] == str(A1_IP)
    engine.run_until(15_000)
    assert len(records(engine, "ra-sent")) == 3  # re-forged at 15 s
    assert attacker.routes()


REARMED = """\
switch SW1 ports=2
node host H1 mac=00:1a:2b:3c:4d:5e
node attacker A1 mac=00:00:5e:00:53:66 persona-prefix=2001:db8:bad::/64 persona-interval=10
attach H1 SW1.p1 class=host
attach A1 SW1.p2 class=host
at 5 attack A1 fake-router
at 12 attack A1 blackhole
at 17 attack A1 fake-router
run 60
"""


@pytest.mark.parametrize(
    "extra,forged_s",
    [
        ("", [5, 12, 17, 27, 37, 47, 57]),
        ("at 40 attack A1 passive\n", [5, 12, 17, 27, 37]),
    ],
)
def test_rearming_restarts_the_one_forging_schedule(extra, forged_s):
    # Each arming forges at once and restarts the schedule from its own time;
    # the ticks booked by the earlier armings (15, 22, 25, ... s) send nothing,
    # and neither does any tick after a non-forging arming.
    engine = build_engine(parse_scenario(REARMED.replace("run 60", extra + "run 60")))
    engine.execute(60_000)
    sent = [r.time for r in records(engine, "ra-sent") if r.node == "A1"]
    assert sent == [t * 1000 for t in forged_s]
    assert [r.time for r in records(engine, "ra-received") if r.node == "H1"] == [
        t + 1 for t in sent
    ]


def test_blackhole_playbook_never_routes(engine):
    attacker = make_attacker(make_persona(can_route=True))
    attach(engine, attacker)
    attacker.run_playbook(engine, AttackMode.BLACKHOLE_GATEWAY, None, 0)
    assert not attacker.routes()


def test_dualstack_playbook_routes_per_persona(engine):
    attacker = make_attacker(make_persona(can_route=True))
    attach(engine, attacker)
    attacker.run_playbook(engine, AttackMode.DUAL_STACK_ROGUE, None, 0)
    assert attacker.routes()
    assert records(engine, "ra-sent")
    non_routing = make_attacker(make_persona(can_route=False))
    non_routing.run_playbook(engine, AttackMode.DUAL_STACK_ROGUE, None, 0)
    assert not non_routing.routes()


def test_attacker_never_emits_valid_auth(engine):
    # Even when signed RAs are captured, everything the attacker emits is
    # unauthenticated.
    from slaacsim.defense import verify_ra

    engine.trusted_keys["k1"] = key_secret("k1")
    attacker = make_attacker(make_persona())
    attach(engine, attacker)
    attacker.on_message(engine, sign_ra(legit_ra(), "k1"), "R1", 0)
    emissions = [
        attacker.spoof_kill_ra("R1"),
        attacker.persona.ra,
    ]
    assert all(not verify_ra(ra, engine.trusted_keys) for ra in emissions)
