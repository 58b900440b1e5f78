"""Router advertisement emission, and probes the engine sends through a router."""

import dataclasses

import pytest

from conftest import SCENARIO_DIR, attrs, records

import slaacsim.router
from slaacsim.addressing import Ipv6Address, MacAddress, Prefix
from slaacsim.defense import key_secret, verify_ra
from slaacsim.engine import Deliver
from slaacsim.host import AddressEntry, AddressState, DefaultRouterEntry, Host
from slaacsim.messages import (
    AddressFamily,
    PrefixInfo,
    RouterAdvertisement,
    RouterPreference,
    RouterSolicitation,
)
from slaacsim.router import Router
from slaacsim.scenario import build_engine, parse_scenario

R1_MAC = MacAddress.parse("00:00:5e:00:53:01")
R1_IP = Ipv6Address.parse("fe80::1")
PREFIX_INFO = PrefixInfo(Prefix.parse("2001:db8:1::/64"), 3600, 3600)


def make_router(node_id="R1", src_ip=R1_IP, prefixes=(PREFIX_INFO,), **kw) -> Router:
    """A router sending an RA from R1's MAC; ``kw`` overrides its schedule settings."""
    ra = RouterAdvertisement(R1_MAC, src_ip, 1800, RouterPreference.HIGH, prefixes)
    settings = dict(interval_ms=10_000, can_route=True, send_key=None, ra_enabled=True, jitter_ms=0)
    settings.update(kw)
    return Router(node_id, ra, **settings)


def emitted_ras(engine):
    """The queued emissions' messages, one per emission whatever its fan-out."""
    return [a.msg for (*_, a) in sorted(engine._queue) if isinstance(a, Deliver)]


def test_periodic_ra_carries_config_fields(engine):
    router = make_router()
    engine.add_node(router)
    engine.add_node(make_router(node_id="R2", src_ip=Ipv6Address.parse("fe80::2")))
    engine.add_node(Host("H1", MacAddress.parse("00:1a:2b:3c:4d:5e")))
    router.emit_periodic_ra(engine, 0)
    (ra,) = emitted_ras(engine)
    assert ra.src_mac == R1_MAC and ra.src_ip == R1_IP
    assert ra.router_lifetime == 1800
    assert ra.preference is RouterPreference.HIGH
    assert ra.prefixes == (PREFIX_INFO,)
    # next emission booked one interval out
    assert any(at == 10_000 for (at, _, node_id, _) in engine._queue if node_id is not None)


def test_ra_without_prefixes_is_default_router_only(engine):
    router = make_router(prefixes=())
    engine.add_node(router)
    router.emit_periodic_ra(engine, 0)
    assert attrs(records(engine, "ra-sent")[0])["prefixes"] == "-"


def test_signed_ra_verifies_against_anchor(engine):
    engine.trusted_keys["k1"] = key_secret("k1")
    router = make_router(send_key="k1")
    engine.add_node(router)
    ra = router.ra
    assert ra.auth is not None
    assert verify_ra(ra, engine.trusted_keys)


def test_signing_router_signs_its_one_ra_once(monkeypatch):
    signed = []
    real_sign_ra = slaacsim.router.sign_ra

    def counting_sign_ra(ra, key_id):
        signed.append(key_id)
        return real_sign_ra(ra, key_id)

    monkeypatch.setattr(slaacsim.router, "sign_ra", counting_sign_ra)
    sc = parse_scenario(SCENARIO_DIR.joinpath("baseline_send.txt").read_text())
    engine = build_engine(sc)
    sent = []
    original = engine.broadcast

    def recording_broadcast(src_id, msg, now):
        sent.append((src_id, msg))
        original(src_id, msg, now)

    engine.broadcast = recording_broadcast
    engine.execute(sc.run_ms)
    assert signed == ["k1"]
    from_r1 = [msg for src, msg in sent if src == "R1"]
    assert len(from_r1) > 1
    assert len(from_r1) == len([r for r in records(engine, "ra-sent") if r.node == "R1"])
    assert all(msg is engine.nodes["R1"].ra for msg in from_r1)
    assert verify_ra(from_r1[0], engine.trusted_keys)


def test_router_config_is_frozen():
    ra = make_router().ra
    with pytest.raises(dataclasses.FrozenInstanceError):
        ra.router_lifetime = 0


def test_router_interval_must_be_positive():
    with pytest.raises(ValueError, match="positive"):
        make_router(interval_ms=0)


def test_solicitation_gets_immediate_response(engine):
    router = make_router()
    engine.add_node(router)
    rs = RouterSolicitation(Ipv6Address.parse("fe80::9"))
    router.on_message(engine, rs, "H1", 0)
    router.on_message(engine, rs, "H1", 0)  # no rate limiting
    assert len(records(engine, "ra-sent")) == 2


def test_disabled_router_stays_silent(engine):
    router = make_router()
    router.enabled = False
    engine.add_node(router)
    rs = RouterSolicitation(Ipv6Address.parse("fe80::9"))
    router.on_message(engine, rs, "H1", 0)
    router.emit_periodic_ra(engine, 0)
    assert records(engine, "ra-sent") == []


def test_periodic_emission_count(engine):
    # A lone router over a 25 s run at a 10 s interval emits at 0, 10, 20.
    router = make_router()
    engine.add_node(router)
    engine.bootstrap()
    engine.run_until(25_000)
    assert len(records(engine, "ra-sent")) == 3


def probe_through(engine, router):
    """Measure once with H1 holding a global address and ``router`` as its
    default router, so the engine sends one probe through it."""
    engine.add_node(router)
    host = Host("H1", MacAddress.parse("00:1a:2b:3c:4d:5e"))
    host.addresses.append(
        AddressEntry(Ipv6Address.parse("2001:db8:1::5"), AddressState.ASSIGNED, PREFIX_INFO.prefix)
    )
    host.router_list.append(DefaultRouterEntry(R1_IP, 1_800_000, RouterPreference.HIGH, 0))
    engine.add_node(host)
    return engine.measure(0).hosts["H1"]


def test_forward_delivers_to_sink(engine):
    metrics = probe_through(engine, make_router())
    assert metrics.family_in_use is AddressFamily.IPV6
    (delivered,) = records(engine, "data-delivered")
    assert attrs(delivered)["path"] == "H1>R1>ext" and attrs(delivered)["via"] == "R1"
    assert records(engine, "blackhole-drop") == []
    assert (engine.emitted, engine.delivered, engine.dropped) == (1, 1, 0)


def test_forward_blackholes_without_routing(engine):
    router = make_router(can_route=False)  # routes=no
    assert not router.routes()
    probe_through(engine, router)
    (drop,) = records(engine, "blackhole-drop")
    assert drop.node == "R1" and attrs(drop)["origin"] == "H1"
    assert records(engine, "data-delivered") == []
    assert (engine.emitted, engine.delivered, engine.dropped) == (1, 0, 1)
