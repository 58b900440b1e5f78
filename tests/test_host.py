"""Host state machine: DAD, RA processing, router selection, lifetimes, and
the path a measure picks from the host's selections."""

from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import (
    SCENARIO_DIR,
    attach,
    attrs,
    eui64_host,
    matches_reference,
    queued_deliveries,
    queued_timers,
    records,
)

import slaacsim.host as host_module
from slaacsim import defense
from slaacsim.addressing import Ipv6Address, MacAddress, Prefix, derive_eui64, parse_ipv4
from slaacsim.defense import key_secret, verify_ra
from slaacsim.engine import Engine, TraceRecord
from slaacsim.host import (
    NO_EXPIRY,
    AddressEntry,
    AddressState,
    DefaultRouterEntry,
    Host,
    apply_two_hour_rule,
    receive_ra,
)
from slaacsim.messages import (
    MS,
    NeighborSolicitation,
    PrefixInfo,
    RouterAdvertisement,
    RouterPreference,
    Timer,
)
from slaacsim.router import Router
from slaacsim.scenario import build_engine, parse_scenario

H1_MAC = MacAddress.parse("00:1a:2b:3c:4d:5e")
R1_MAC = MacAddress.parse("00:00:5e:00:53:01")
R1_IP = Ipv6Address.parse("fe80::1")
PREFIX = Prefix.parse("2001:db8:1::/64")


def make_host(iid=derive_eui64(H1_MAC), ipv6_enabled=True, ipv4=None, send_only=False) -> Host:
    return Host("H1", iid, ipv6_enabled, ipv4, send_only)


def make_ra(lifetime=1800, preference=RouterPreference.HIGH, prefixes=None,
            valid=3600, preferred=3600, src_ip=R1_IP):
    if prefixes is None:
        prefixes = (PrefixInfo(PREFIX, valid, preferred),)
    return RouterAdvertisement(R1_MAC, src_ip, lifetime, preference, tuple(prefixes))


def in_order(table: dict) -> list:
    """A host's address or router entries in the order it made them."""
    return list(table.values())


# -- begin_autoconf -----------------------------------------------------------

def test_begin_autoconf_emits_dad_probe(engine):
    host = make_host()
    attach(engine, host)
    host.begin_autoconf(engine, 0)
    probe = records(engine, "ns-sent")
    assert len(probe) == 1
    assert attrs(probe[0])["target"] == "fe80::21a:2bff:fe3c:4d5e"
    entry = in_order(host.addresses)[0]
    assert entry.state is AddressState.TENTATIVE
    # The DAD deadline is keyed by the tentative address itself.
    assert queued_timers(engine) == [(1000, "H1", entry.address)]


def test_dad_probe_is_queued_once_for_each_other_node_in_node_order(engine):
    host = make_host()
    for node in (host, eui64_host("H3", R1_MAC), eui64_host("H2", R1_MAC)):
        attach(engine, node)
    host.begin_autoconf(engine, 0)
    rows = queued_deliveries(engine)
    assert [(at, dst) for at, dst, _ in rows] == [(1, "H3"), (1, "H2")]
    target = in_order(host.addresses)[0].address
    assert all(isinstance(msg, NeighborSolicitation) and msg.target == target for *_, msg in rows)
    assert engine.metrics.emitted == 2


def test_begin_autoconf_disabled_host_is_silent(engine):
    host = make_host(ipv6_enabled=False)
    attach(engine, host)
    host.begin_autoconf(engine, 0)
    assert host.addresses == {}
    assert engine.trace_records == []


def test_begin_autoconf_with_zero_iid(engine):
    host = make_host(iid=0)
    attach(engine, host)
    host.begin_autoconf(engine, 0)
    assert attrs(records(engine, "ns-sent")[0])["target"] == "fe80::"


# -- neighbor solicitation -----------------------------------------------------

def assigned_entry(text: str) -> AddressEntry:
    return AddressEntry(Ipv6Address.parse(text), AddressState.ASSIGNED)


@pytest.mark.parametrize("sender", ["H9", "H0"])
def test_ns_for_assigned_address_is_defended(engine, sender):
    # An assigned holder defends whichever id solicits, smaller or larger.
    host = make_host()
    attach(engine, host)
    entry = assigned_entry("fe80::1")
    host.addresses[entry.address] = entry
    ns = NeighborSolicitation(Ipv6Address.parse("fe80::1"))
    host.on_message(engine, ns, sender, 0)
    assert in_order(host.addresses)[0].state is AddressState.ASSIGNED
    out = records(engine, "na-sent")
    assert len(out) == 1 and attrs(out[0])["target"] == "fe80::1"


def test_ns_for_unknown_target_is_ignored(engine):
    host = make_host()
    attach(engine, host)
    entry = assigned_entry("fe80::1")
    host.addresses[entry.address] = entry
    ns = NeighborSolicitation(Ipv6Address.parse("fe80::2"))
    host.on_message(engine, ns, "H9", 0)
    assert engine.trace_records == []


def test_simultaneous_dad_smaller_id_wins(engine):
    host = make_host()
    attach(engine, host)
    host.begin_autoconf(engine, 0)
    target = in_order(host.addresses)[0].address
    ns = NeighborSolicitation(target)
    host.on_message(engine, ns, "H2", 0)  # H1 < H2: defend
    assert in_order(host.addresses)[0].state is AddressState.TENTATIVE
    assert records(engine, "na-sent")
    host.on_message(engine, ns, "H0", 0)  # H1 > H0: abandon
    assert in_order(host.addresses)[0].state is AddressState.ABANDONED
    assert len(records(engine, "dad-failed")) == 1
    # The deadline stays queued, and firing it leaves the abandoned entry be.
    assert queued_timers(engine) == [(1000, "H1", target)]
    engine.run_until(1000)
    assert in_order(host.addresses)[0].state is AddressState.ABANDONED
    assert not records(engine, "addr-assigned")


# -- DAD completion ------------------------------------------------------------

def test_link_local_assignment_solicits_routers(engine):
    host = make_host()
    attach(engine, host)
    host.begin_autoconf(engine, 0)
    host.dad_deadline(engine, in_order(host.addresses)[0].address, 1000)
    assert in_order(host.addresses)[0].state is AddressState.ASSIGNED
    assert records(engine, "rs-sent")
    host.dad_deadline(engine, in_order(host.addresses)[0].address, 2000)  # not tentative: a no-op
    assert len(records(engine, "addr-assigned")) == len(records(engine, "rs-sent")) == 1


def test_global_assignment_sends_no_rs(engine):
    host = make_host()
    attach(engine, host)
    receive_ra(engine, make_ra(), "R1", (host,), 0)
    entry = in_order(host.addresses)[0]
    assert entry.prefix == PREFIX and entry.state is AddressState.TENTATIVE
    host.dad_deadline(engine, entry.address, 1000)
    assert entry.state is AddressState.ASSIGNED
    assert not records(engine, "rs-sent")


# -- RA processing ---------------------------------------------------------------

def test_ra_installs_router_and_address(engine):
    host = make_host()
    attach(engine, host)
    receive_ra(engine, make_ra(), "R1", (host,), 0)
    assert len(host.router_list) == 1
    assert in_order(host.router_list)[0].expires_at == 1800 * 1000
    entry = in_order(host.addresses)[0]
    assert str(entry.address) == "2001:db8:1:0:21a:2bff:fe3c:4d5e"
    assert entry.state is AddressState.TENTATIVE
    assert records(engine, "ns-sent")


def test_lifetime_zero_removes_default_router(engine):
    host = make_host()
    attach(engine, host)
    receive_ra(engine, make_ra(), "R1", (host,), 0)
    receive_ra(engine, make_ra(lifetime=0), "R1", (host,), 10)
    assert host.router_list == {}
    assert attrs(records(engine, "router-removed")[0])["reason"] == "lifetime-zero"
    assert host.select_default_router(20) is None
    # only a fresh positive-lifetime RA from the same router re-adds it
    receive_ra(engine, make_ra(lifetime=600), "R1", (host,), 30)
    assert host.select_default_router(40).router_ip == R1_IP


def test_non_64_autonomous_prefix_is_ignored(engine):
    host = make_host()
    attach(engine, host)
    ra = make_ra(prefixes=(PrefixInfo(Prefix.parse("2001:db8::/48"), 3600, 3600),))
    receive_ra(engine, ra, "R1", (host,), 0)
    assert host.addresses == {}
    assert len(host.router_list) == 1  # a prefix that forms no address still installs the router
    assert attrs(records(engine, "prefix-ignored")[0])["reason"] == "length"


@pytest.mark.parametrize(
    "text,forms", [("fe80::/64", False), ("febf:ffff::/64", False), ("fec0::/64", True)]
)
def test_link_local_prefix_forms_no_address(engine, text, forms):
    # RFC 4862 §5.5.3(b). A prefix inside fe80::/10 must not give the host a
    # second entry for its own link-local address: that entry restarts DAD and
    # holds the link-local assignment back past its deadline. fec0::/64 lies
    # just outside the range.
    host = make_host()
    attach(engine, host)
    host.begin_autoconf(engine, 0)
    ra = make_ra(prefixes=(PrefixInfo(Prefix.parse(text), 3600, 3600),))
    receive_ra(engine, ra, "R1", (host,), 1)
    ignored = [] if forms else [{"prefix": text, "reason": "link-local"}]
    assert [attrs(r) for r in records(engine, "prefix-ignored")] == ignored
    engine.run_until(2000)
    assigned = [(r.time, attrs(r)["origin"]) for r in records(engine, "addr-assigned")]
    assert assigned == [(1000, "link-local")] + ([(1001, "slaac")] if forms else [])


def test_abandoned_prefix_is_never_recreated(engine):
    host = make_host()
    attach(engine, host)
    receive_ra(engine, make_ra(), "R1", (host,), 0)
    entry = in_order(host.addresses)[0]
    host.on_message(engine, NeighborSolicitation(entry.address), "H0", 5)
    assert entry.state is AddressState.ABANDONED
    receive_ra(engine, make_ra(), "R1", (host,), 10)
    assert len(host.addresses) == 1


def test_valid_lifetime_zero_forms_no_address(engine):
    # RFC 4862 §5.5.3(d): only a prefix with a nonzero valid lifetime forms an
    # address, so a later RA for the prefix still can; §5.5.3(e) still
    # updates an address the prefix already formed.
    host = make_host()
    attach(engine, host)
    receive_ra(engine, make_ra(valid=0, preferred=0), "R1", (host,), 0)
    assert host.addresses == {}
    assert [attrs(r) for r in records(engine, "prefix-ignored")] == [
        {"prefix": "2001:db8:1::/64", "reason": "valid-zero"}
    ]
    assert not records(engine, "dad-start")
    receive_ra(engine, make_ra(), "R1", (host,), 10)
    [entry] = host.addresses.values()
    assert entry.state is AddressState.TENTATIVE
    receive_ra(engine, make_ra(valid=0, preferred=0), "R1", (host,), 20)
    assert entry.valid_until == 20
    assert attrs(records(engine, "addr-lifetime")[0])["valid_ms"] == "0"
    assert len(records(engine, "prefix-ignored")) == 1


def test_ra_records_are_stamped_with_the_engine_time(engine):
    # Engine.trace stamps a record with the engine's time, not a handler's
    # now; the records receive_ra appends itself do the same.
    host = make_host()
    attach(engine, host)
    engine.now = 7
    receive_ra(engine, make_ra(), "R1", (host,), 500)
    receive_ra(engine, make_ra(), "R1", (host,), 600)
    kinds = [r.kind for r in map(TraceRecord._make, engine.trace_records)]
    assert {"router-added", "router-refreshed", "addr-lifetime"} <= set(kinds)
    assert {r[0] for r in engine.trace_records} == {7}


def test_send_only_host_drops_unauthenticated_ra(engine):
    host = make_host(send_only=True)
    attach(engine, host)
    receive_ra(engine, make_ra(), "R1", (host,), 0)
    assert host.router_list == {} and host.addresses == {}
    assert records(engine, "ra-rejected-send")


def test_send_only_host_accepts_signed_ra(engine):
    from slaacsim.defense import key_secret, sign_ra

    engine.trusted_keys["k1"] = key_secret("k1")
    host = make_host(send_only=True)
    attach(engine, host)
    receive_ra(engine, sign_ra(make_ra(), "k1"), "R1", (host,), 0)
    assert len(host.router_list) == 1


def test_disabled_host_ignores_ra(engine):
    host = make_host(ipv6_enabled=False)
    attach(engine, host)
    receive_ra(engine, make_ra(), "R1", (host,), 0)
    assert host.router_list == {} and host.addresses == {}


# -- two-hour rule -----------------------------------------------------------------

def rule_oracle(remaining: int, received: int) -> int:
    # Independent closed form: accept anything that raises the lifetime or
    # exceeds the floor; otherwise hold at min(remaining, floor).
    return received if (received > 7_200_000 or received > remaining) else min(remaining, 7_200_000)


@pytest.mark.parametrize(
    "remaining,received,expected",
    [(10000, 100, 7200), (5000, 100, 5000), (5000, 9000, 9000)],
)
def test_two_hour_rule_examples(remaining, received, expected):
    # Vectors in seconds; the rule works in milliseconds.
    remaining, received, expected = remaining * MS, received * MS, expected * MS
    assert apply_two_hour_rule(remaining, received) == expected
    assert rule_oracle(remaining, received) == expected


def test_two_hour_rule_exhaustive_regions():
    grid = [
        0, 1_000, 100_000, 5_000_000,
        7_199_000, 7_199_999, 7_200_000, 7_200_001, 7_201_000,
        9_000_000, 10_000_000, 100_000_000,
    ]
    for remaining in grid:
        for received in grid:
            assert apply_two_hour_rule(remaining, received) == rule_oracle(remaining, received)


@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=7_200_000))
def test_two_hour_rule_floor(remaining, received):
    # An unauthenticated short lifetime can never push the address below
    # min(remaining, two hours).
    if received <= remaining:
        assert apply_two_hour_rule(remaining, received) >= min(remaining, 7_200_000)


@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=0, max_value=10**9))
@example(100, 1000)  # the received lifetime is longer
@example(1000, 100)  # shorter, against at most two hours left
@example(10**9, 100)  # shorter, against more than two hours left
def test_two_hour_rule_keeps_its_own_result(remaining, received):
    # A repeat of an RA finds what the first left and keeps it, so the
    # engine may copy a repeated delivery.
    kept = apply_two_hour_rule(remaining, received)
    assert apply_two_hour_rule(kept, received) == kept


def test_refresh_without_policy_takes_received_lifetime(engine):
    host = make_host()
    attach(engine, host)
    receive_ra(engine, make_ra(valid=10000, preferred=10000), "R1", (host,), 0)
    receive_ra(engine, make_ra(valid=100, preferred=50), "R1", (host,), 1000)
    assert in_order(host.addresses)[0].valid_until == 1000 + 100 * 1000


def test_refresh_with_policy_applies_floor():
    engine = Engine(link_latency_ms=1, seed=0, two_hour_rule=True, switch_id="SW1")
    host = make_host()
    attach(engine, host)
    receive_ra(engine, make_ra(valid=10000, preferred=10000), "R1", (host,), 0)
    receive_ra(engine, make_ra(valid=100, preferred=50), "R1", (host,), 1000)
    entry = in_order(host.addresses)[0]
    assert entry.valid_until == 1000 + 7200 * 1000
    assert entry.preferred_until <= entry.valid_until


# -- one-pass RA handling against the reference simulator ---------------------------
# tests/reference.py takes an RA in four steps: router list, screening, new
# entry, lifetime refresh. The corpus runs here at its own link latency; the
# branches below are ones no corpus scenario reaches.

def link(*node_lines: str, tail: str = "run 25") -> str:
    """A one-switch scenario: each node line's node attached in order, a
    router at a router-class port, any other node at a host-class one."""
    lines = [f"switch SW1 ports={len(node_lines)}", *node_lines]
    for i, line in enumerate(node_lines, start=1):
        kind, node_id = line.split()[1:3]
        lines.append(f"attach {node_id} SW1.p{i} class={'router' if kind == 'router' else 'host'}")
    return "\n".join([*lines, tail, ""])


HOST_LINE = "node host H1 mac=00:1a:2b:3c:4d:5e"
R1_LINE = "node router R1 mac=00:00:5e:00:53:01"
R2_LINE = "node router R2 mac=00:00:5e:00:53:02"


def hosts(count: int, options: str = "") -> list[str]:
    """Host lines H1.. with distinct MACs, each with ``options``."""
    return [f"node host H{i} mac=02:00:00:00:00:{i:02x}{options}" for i in range(1, count + 1)]

# Branches of host.receive_ra that no corpus scenario reaches, each with a
# record that shows the branch was taken.
RA_BRANCHES = {
    # Both prefix-ignored reasons, then a /64 that forms an address.
    "ignored-prefixes": (
        link(f"{R1_LINE} prefix=fe80::/64,2001:db8:2::/48,2001:db8:1::/64", HOST_LINE),
        ("reason=link-local", "reason=length", "origin=slaac"),
    ),
    # No default router, and a prefix whose zero valid lifetime forms no address.
    "zero-lifetimes": (
        link(f"{R1_LINE} prefix=2001:db8:1::/64 lifetime=0 valid=0 preferred=0", HOST_LINE),
        ("reason=valid-zero",),
    ),
    # Each router's RAs refresh the one address both advertise.
    "two-routers-one-prefix": (
        link(
            f"{R1_LINE} prefix=2001:db8:1::/64 valid=600 preferred=300",
            "node router R2 mac=00:00:5e:00:53:02 prefix=2001:db8:1::/64 interval=7",
            HOST_LINE,
        ),
        ("valid_ms=600000", "valid_ms=3600000"),
    ),
    # The rule keeps the remaining lifetime against a forged short one, and
    # takes the router's longer one.
    "two-hour-rule-forged": (
        link(
            f"{R1_LINE} prefix=2001:db8:1::/64",
            HOST_LINE,
            "node attacker A1 mac=00:00:5e:00:53:66 persona-prefix=2001:db8:1::/64"
            " persona-valid=100 persona-preferred=50",
            tail="policy global two-hour-rule\nat 5 attack A1 fake-router\nrun 25",
        ),
        ("node=A1 kind=ra-sent src=fe80::200:5eff:fe00:5366", "valid_ms=3595000"),
    ),
    # H2 loses DAD for the address the RA forms, so later RAs skip its entry.
    "dad-failed-prefix": (
        link(
            f"{R1_LINE} prefix=2001:db8:1::/64",
            HOST_LINE,
            "node host H2 mac=00:1a:2b:3c:4d:5e",
            tail="allow-dup-mac\nrun 25",
        ),
        ("node=H2 kind=dad-failed addr=2001:db8:1:0:21a:2bff:fe3c:4d5e",),
    ),
    # Bursts, each under one more condition: the hosts finish DAD and solicit
    # in one millisecond, R1 answers each RS at once with its one RA, and the
    # engine copies the repeats of that delivery (no corpus scenario has one).
    # Here R1's RA, valid 20 s, meets an address R2's RA (valid 9000 s, R2
    # silent from 0 s) set: the rule keeps two hours, then keeps them again.
    "burst-two-hour-rule": (
        link(
            f"{R1_LINE} prefix=2001:db8:1::/64 valid=20 preferred=10",
            f"{R2_LINE} prefix=2001:db8:1::/64 valid=9000 preferred=9000",
            *hosts(3),
            tail="policy global two-hour-rule\nat 0 disable R2\nrun 25",
        ),
        ("t=1 node=H3 kind=addr-lifetime addr=2001:db8:1::ff:fe00:3 valid_ms=9000000",
         "t=1002 node=H3 kind=addr-lifetime addr=2001:db8:1::ff:fe00:3 valid_ms=7200000"),
    ),
    # A burst of R1's RA, valid 0, for the address R2's RA formed: each
    # repeat books its end for the millisecond being served.
    "burst-valid-zero": (
        link(
            f"{R1_LINE} prefix=2001:db8:1::/64 valid=0 preferred=0",
            f"{R2_LINE} prefix=2001:db8:1::/64",
            *hosts(3),
            tail="at 0 disable R2\nrun 25",
        ),
        ("t=1002 node=H3 kind=addr-abandoned",),
    ),
    "burst-send-unsigned": (
        link(f"{R1_LINE} prefix=2001:db8:1::/64", *hosts(3, " send=on")),
        ("t=1002 node=H3 kind=ra-rejected-send",),
    ),
    "burst-attacker": (
        link(f"{R1_LINE} prefix=2001:db8:1::/64", *hosts(3),
             "node attacker A1 mac=00:00:5e:00:53:66"),
        ("t=1002 node=A1 kind=ra-captured",),
    ),
    "burst-ipv6-off": (
        link(f"{R1_LINE} prefix=2001:db8:1::/64", *hosts(3), "node host H9 mac=02:00:00:00:00:09 ipv6=off"),
        ("t=1002 node=H9 kind=ra-received",),
    ),
    "burst-latency-zero": (
        link(f"{R1_LINE} prefix=2001:db8:1::/64", *hosts(3), tail="link-latency 0\nrun 25"),
        ("t=1000 node=H3 kind=addr-lifetime",),
    ),
    "burst-lifetime-zero": (
        link(f"{R1_LINE} prefix=2001:db8:1::/64 lifetime=0", *hosts(3)),
        ("t=1002 node=H3 kind=addr-lifetime",),
    ),
    # Three hosts with one IID: H3 abandons the link-local address on H1's
    # probe, then hears H2's probe for the address it abandoned.
    "three-hosts-one-iid": (
        link(
            f"{R1_LINE} prefix=2001:db8:1::/64",
            HOST_LINE,
            "node host H2 mac=00:1a:2b:3c:4d:5e",
            "node host H3 mac=00:1a:2b:3c:4d:5e",
            tail="allow-dup-mac\nrun 25",
        ),
        ("node=H2 kind=dad-failed addr=fe80::21a:2bff:fe3c:4d5e",
         "node=H3 kind=dad-failed addr=fe80::21a:2bff:fe3c:4d5e"),
    ),
}


@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIO_DIR.glob("*.txt")))
def test_one_pass_ra_matches_reference_on_corpus(name):
    matches_reference(parse_scenario((SCENARIO_DIR / f"{name}.txt").read_text()))


@pytest.mark.parametrize("name", sorted(RA_BRANCHES))
def test_one_pass_ra_matches_reference_off_corpus(name):
    text, shown = RA_BRANCHES[name]
    output = matches_reference(parse_scenario(text))
    for part in shown:
        assert part in output, part


# -- router selection ----------------------------------------------------------------

def router_entry(ip: str, pref, expires=10_000_000, refreshed=0):
    return DefaultRouterEntry(Ipv6Address.parse(ip), expires, pref, refreshed)


def routers(entries) -> dict:
    """A default-router list as a host keys it: each entry by its router_ip."""
    return {entry.router_ip: entry for entry in entries}


def test_host_entries_are_slotted():
    for entry in (assigned_entry("2001:db8:1::5"), router_entry("fe80::1", RouterPreference.HIGH)):
        assert not hasattr(entry, "__dict__")
        with pytest.raises(AttributeError):
            entry.extra = 1


def test_selection_prefers_high():
    host = make_host()
    host.router_list = routers([
        router_entry("fe80::1", RouterPreference.HIGH),
        router_entry("fe80::2", RouterPreference.MEDIUM),
    ])
    assert str(host.select_default_router(0).router_ip) == "fe80::1"


def test_selection_empty_list_is_none():
    assert make_host().select_default_router(0) is None


def test_selection_tie_breaks_on_recency_then_ip():
    host = make_host()
    host.router_list = routers([
        router_entry("fe80::1", RouterPreference.MEDIUM, refreshed=10_000),
        router_entry("fe80::2", RouterPreference.MEDIUM, refreshed=20_000),
    ])
    assert str(host.select_default_router(0).router_ip) == "fe80::2"
    in_order(host.router_list)[0].refreshed_at = 20_000
    assert str(host.select_default_router(0).router_ip) == "fe80::1"


def test_selection_skips_expired():
    host = make_host()
    host.router_list = routers([router_entry("fe80::1", RouterPreference.HIGH, expires=100)])
    assert host.select_default_router(100) is None
    assert host.select_default_router(99) is not None


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=2),
            st.integers(min_value=0, max_value=1000),
            st.integers(min_value=1, max_value=2**64 - 1),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_selection_argmax_invariance(entries):
    # Adding a router with strictly lower preference than the current pick
    # never changes the selection.
    host = make_host()
    host.router_list = routers([
        router_entry(str(Ipv6Address((0xFE80 << 112) | ip)), RouterPreference(p), refreshed=r)
        for p, r, ip in entries
    ])
    before = host.select_default_router(0)
    if before.preference is RouterPreference.LOW:
        return
    weaker = RouterPreference(before.preference - 1)
    # A bit above the low 64 keeps the added address off every drawn one.
    host.router_list.update(routers([router_entry("fe80:0:0:1::ffff", weaker, refreshed=99_999)]))
    after = host.select_default_router(0)
    assert after.router_ip == before.router_ip


# -- the measure's path -----------------------------------------------------------------

def dual_stack_host() -> Host:
    host = make_host(ipv4=(parse_ipv4("10.0.0.2"), "GW1"))
    entry = AddressEntry(
        Ipv6Address.parse("2001:db8:1:0:21a:2bff:fe3c:4d5e"), AddressState.ASSIGNED, prefix=PREFIX
    )
    host.addresses[entry.address] = entry
    return host


def path_link(host: Host) -> Engine:
    """An engine with ``host`` on a link beside router R1, which sends from
    fe80::1, and GW1, a router that H1's IPv4 address may name as its
    gateway. Both route."""
    engine = Engine(link_latency_ms=1, seed=0, two_hour_rule=False, switch_id="SW1")
    for node_id, src_ip in (("R1", R1_IP), ("GW1", Ipv6Address.parse("fe80::4"))):
        attach(engine, Router(node_id, make_ra(src_ip=src_ip), 1_000, True, None, True, 0))
    attach(engine, host)
    return engine


def measure_path(engine: Engine, now=0):
    """Measure at ``now``: H1's family in use, and the values of the
    path-resolved record and of the data-sent record (None when it sends
    nothing) that this measure made."""
    start = len(engine.trace_records)
    family = engine.measure(now).hosts["H1"].family_in_use
    made = {record[2]: attrs(record) for record in engine.trace_records[start:]}
    return family, made["path-resolved"], made.get("data-sent")


def test_resolution_prefers_ipv6():
    host = dual_stack_host()
    host.router_list = routers([router_entry("fe80::1", RouterPreference.HIGH)])
    family, resolved, sent = measure_path(path_link(host))
    assert family == resolved["family"] == sent["family"] == "ipv6"
    assert resolved["via"] == "R1"  # the node that sends from fe80::1
    assert sent["src"] == "2001:db8:1:0:21a:2bff:fe3c:4d5e"


def test_resolution_falls_back_to_ipv4():
    family, resolved, sent = measure_path(path_link(dual_stack_host()))  # no v6 router
    assert family == resolved["family"] == "ipv4" and resolved["via"] == "GW1"
    assert sent["src"] == "10.0.0.2"
    disabled = make_host(ipv6_enabled=False, ipv4=(parse_ipv4("10.0.0.2"), "GW1"))
    disabled.router_list = routers([router_entry("fe80::1", RouterPreference.HIGH)])  # IPv6 is off
    family, resolved, _ = measure_path(path_link(disabled))
    assert family == resolved["family"] == "ipv4" and resolved["via"] == "GW1"


def test_resolution_unreachable():
    family, resolved, sent = measure_path(path_link(make_host()))
    assert family == "none" and resolved["outcome"] == "unreachable" and sent is None


def test_resolution_through_a_router_that_is_no_node_is_unreachable():
    # IPv6 is picked before its gateway is looked up: no IPv4 fallback.
    host = dual_stack_host()
    host.router_list = routers([router_entry("fe80::99", RouterPreference.HIGH)])
    family, resolved, sent = measure_path(path_link(host))
    assert family == "none" and resolved["outcome"] == "unreachable" and sent is None


def test_resolution_needs_assigned_global():
    host = make_host()
    host.router_list = routers([router_entry("fe80::1", RouterPreference.HIGH)])
    family, resolved, sent = measure_path(path_link(host))  # router but no global address
    assert family == "none" and resolved["outcome"] == "unreachable" and sent is None


def test_resolution_prefers_a_preferred_source():
    # RFC 6724 rule 3: an address past its preferred lifetime (deprecated)
    # sources data only when no preferred address is assigned.
    host = make_host()
    host.router_list = routers([router_entry("fe80::1", RouterPreference.HIGH)])
    first = AddressEntry(
        Ipv6Address.parse("2001:db8:1::5"), AddressState.ASSIGNED, PREFIX,
        valid_until=9_000, preferred_until=1_000,
    )
    second = AddressEntry(
        Ipv6Address.parse("2001:db8:bad::5"), AddressState.ASSIGNED,
        Prefix.parse("2001:db8:bad::/64"), valid_until=9_000, preferred_until=5_000,
    )
    host.addresses = {first.address: first, second.address: second}
    engine = path_link(host)
    assert measure_path(engine, 999)[2]["src"] == str(first.address)  # both preferred
    assert measure_path(engine, 1_000)[2]["src"] == str(second.address)  # first deprecated
    assert measure_path(engine, 5_000)[2]["src"] == str(first.address)  # both deprecated
    host.addresses = {second.address: second}
    assert host.select_global_source(6_000) is second  # a lone deprecated address serves


def test_preferred_lifetime_picks_the_probe_source():
    text = """\
switch SW1 ports=3
node router R1 mac=00:00:5e:00:53:01 prefix=2001:db8:1::/64 preferred=0
node host H1 mac=00:1a:2b:3c:4d:5e
node attacker A1 mac=00:00:5e:00:53:66 persona-prefix=2001:db8:bad::/64
attach R1 SW1.p1 class=router
attach H1 SW1.p2 class=host
attach A1 SW1.p3 class=host
at 1 attack A1 dual-stack
at 5 measure
run 5
"""
    sources = []
    for dual_stack in (False, True):
        sc = parse_scenario(text if dual_stack else text.replace("at 1 attack A1 dual-stack\n", ""))
        engine = build_engine(sc)
        engine.execute(sc.run_ms)
        (sent,) = records(engine, "data-sent")
        sources.append(attrs(sent)["src"])
    # R1's address is deprecated from the start; it still serves while it is
    # the only one, and gives way to the persona's preferred address.
    assert sources == ["2001:db8:1:0:21a:2bff:fe3c:4d5e", "2001:db8:bad:0:21a:2bff:fe3c:4d5e"]


# -- lifetime sweep -------------------------------------------------------------------------

def test_tick_removes_expired_router(engine):
    host = make_host()
    attach(engine, host)
    host.router_list = routers([router_entry("fe80::1", RouterPreference.HIGH, expires=100_000)])
    host.tick_lifetimes(engine, 101_000)
    assert host.router_list == {}
    assert attrs(records(engine, "router-removed")[0])["reason"] == "expired"


def test_tick_abandons_expired_address(engine):
    # RFC 4862 §5.5.4: an expired address is invalid and leaves the interface.
    host = make_host()
    attach(engine, host)
    receive_ra(engine, make_ra(valid=10, preferred=10), "R1", (host,), 0)
    host.tick_lifetimes(engine, 10_000)
    assert host.addresses == {}
    assert [attrs(r) for r in records(engine, "addr-abandoned")] == [
        {"addr": "2001:db8:1:0:21a:2bff:fe3c:4d5e", "reason": "expired"}
    ]


def test_tick_drops_only_the_expired_entries_in_list_order(engine):
    host = make_host()
    attach(engine, host)
    host.begin_autoconf(engine, 0)
    prefixes = [Prefix.parse(f"2001:db8:{i}::/64") for i in (1, 2, 3)]
    ra = make_ra(prefixes=[PrefixInfo(p, v, v) for p, v in zip(prefixes, (10, 100, 10))])
    receive_ra(engine, ra, "R1", (host,), 0)
    host.router_list = routers([
        router_entry("fe80::1", RouterPreference.HIGH, expires=5_000),
        router_entry("fe80::2", RouterPreference.HIGH, expires=50_000),
        router_entry("fe80::3", RouterPreference.HIGH, expires=10_000),
    ])
    host.tick_lifetimes(engine, 10_000)
    assert [str(e.router_ip) for e in host.router_list.values()] == ["fe80::2"]
    assert [e.prefix for e in host.addresses.values()] == [None, prefixes[1]]
    assert [attrs(r)["router"] for r in records(engine, "router-removed")] == ["fe80::1", "fe80::3"]
    assert [attrs(r)["addr"] for r in records(engine, "addr-abandoned")] == [
        "2001:db8:1:0:21a:2bff:fe3c:4d5e", "2001:db8:3:0:21a:2bff:fe3c:4d5e"
    ]


def test_floor_follows_each_expiry_an_ra_sets(engine):
    host = make_host()
    attach(engine, host)
    assert host.expiry_floor == NO_EXPIRY
    receive_ra(engine, make_ra(lifetime=1800, valid=30, preferred=30), "R1", (host,), 0)
    assert host.expiry_floor == 30_000  # the address's end, before the router's
    # A refresh that lowers a lifetime lowers the floor; one that raises it
    # leaves the floor where it was, a bound the next sweep makes exact.
    receive_ra(engine, make_ra(lifetime=20, valid=30, preferred=30), "R1", (host,), 5_000)
    assert host.expiry_floor == 25_000
    receive_ra(engine, make_ra(lifetime=1800, valid=3600, preferred=3600), "R1", (host,), 10_000)
    assert host.expiry_floor == 25_000
    host.tick_lifetimes(engine, 25_000)
    assert host.expiry_floor == 1_810_000 and not records(engine, "router-removed")


def test_expiry_tick_before_the_floor_skips_the_sweep(engine):
    host = make_host()
    attach(engine, host)
    receive_ra(engine, make_ra(lifetime=1800, valid=10, preferred=10), "R1", (host,), 0)
    with mock.patch.object(host, "tick_lifetimes", wraps=host.tick_lifetimes) as sweep:
        host.on_timer(engine, Timer.EXPIRY, 9_999)
        assert sweep.call_count == 0
        host.on_timer(engine, Timer.EXPIRY, 10_000)
        assert sweep.call_count == 1
    assert host.addresses == {} and host.expiry_floor == 1_800_000
    assert [attrs(r)["reason"] for r in records(engine, "addr-abandoned")] == ["expired"]


def test_sweep_leaves_no_floor_once_nothing_can_expire(engine):
    # Link-local and DAD-failed entries never expire.
    host = make_host()
    attach(engine, host)
    host.begin_autoconf(engine, 0)
    receive_ra(engine, make_ra(lifetime=0, valid=10, preferred=10), "R1", (host,), 0)
    entry = in_order(host.addresses)[-1]
    host.on_message(engine, NeighborSolicitation(entry.address), "H0", 5)
    host.tick_lifetimes(engine, 5)
    assert host.expiry_floor == NO_EXPIRY


# One forged RA cuts H1's address to 1 s; R1 re-advertises at 10 s.
LIFETIME_CUT = """\
switch SW1 ports=4
node router R1 mac=00:00:5e:00:53:01 prefix=2001:db8:1::/64 lifetime=1800 preference=medium interval=10 valid=10000 preferred=10000
node host H1 mac=00:1a:2b:3c:4d:5e
node attacker A1 mac=00:00:5e:00:53:66 persona-prefix=2001:db8:1::/64 persona-lifetime=0 persona-valid=1 persona-preferred=1 persona-interval=1000
attach R1 SW1.p1 class=router
attach H1 SW1.p2 class=host
attach A1 SW1.p3 class=host
at 5 attack A1 blackhole
at 12 measure
run 13
"""


def test_address_cut_by_a_forged_lifetime_comes_back_after_the_next_ra():
    # RFC 4862 §5.5.3(d): once the cut address has expired and left, R1's
    # next RA forms it again, and it is back after DAD.
    sc = parse_scenario(LIFETIME_CUT)
    engine = build_engine(sc)
    metrics = engine.execute(sc.run_ms)
    address = "2001:db8:1:0:21a:2bff:fe3c:4d5e"
    assert [(r.time, attrs(r)) for r in records(engine, "addr-abandoned")] == [
        (6001, {"addr": address, "reason": "expired"})
    ]
    assert [r.time for r in records(engine, "dad-start") if attrs(r)["addr"] == address] == [1, 10001]
    assert [r.time for r in records(engine, "addr-assigned") if attrs(r)["addr"] == address] == [
        1001, 11001
    ]
    assert metrics.hosts["H1"].addresses == f"fe80::21a:2bff:fe3c:4d5e,{address}"
    assert metrics.dos_success is False


def test_dad_failed_address_never_comes_back_even_past_its_lifetime(engine):
    # RFC 4862 §5.4.5: after a DAD failure autoconfiguration stops; the entry
    # is not expired, so no tick drops it, and it keeps blocking its prefix.
    host = make_host()
    attach(engine, host)
    receive_ra(engine, make_ra(valid=10, preferred=10), "R1", (host,), 0)
    [entry] = host.addresses.values()
    host.on_message(engine, NeighborSolicitation(entry.address), "H0", 5)
    host.tick_lifetimes(engine, 20_000)
    assert in_order(host.addresses) == [entry] and entry.state is AddressState.ABANDONED
    assert not records(engine, "addr-abandoned")
    receive_ra(engine, make_ra(), "R1", (host,), 30_000)
    assert in_order(host.addresses) == [entry] and entry.state is AddressState.ABANDONED
    assert len(records(engine, "dad-start")) == 1


def test_tick_noop_when_nothing_expired(engine):
    host = make_host()
    attach(engine, host)
    host.router_list = routers([router_entry("fe80::1", RouterPreference.HIGH, expires=100_000)])
    host.tick_lifetimes(engine, 50_000)
    assert len(host.router_list) == 1
    assert engine.trace_records == []


# -- work shared by the receivers of one RA delivery -------------------------------------

def send_link(engine, hosts=10):
    """R1 with a signed RA and ``hosts`` send=on hosts that trust its key;
    returns R1."""
    engine.trusted_keys["k1"] = key_secret("k1")
    router = Router("R1", make_ra(), 10 * MS, True, "k1", True, 0)
    attach(engine, router)
    for i in range(hosts):
        attach(engine, Host(f"H{i}", i + 1, True, None, True))
    return router


def deliver(engine, *ras, at):
    """Broadcast each RA from R1 at ``at`` ms, then run to its delivery."""
    for ra in ras:
        engine.broadcast("R1", ra, at)
    engine.run_until(at + engine.link_latency_ms)


def test_one_delivery_computes_one_tag(engine):
    ra = send_link(engine).ra
    with mock.patch.object(defense, "_tag", wraps=defense._tag) as tag, \
            mock.patch.object(host_module, "verify_ra", wraps=verify_ra) as verify:
        deliver(engine, ra, at=0)
    assert tag.call_count == 1 and verify.call_count == 1
    assert len(records(engine, "router-added")) == 10


def test_each_delivery_of_one_ra_is_verified_afresh(engine):
    ra = send_link(engine).ra
    with mock.patch.object(host_module, "verify_ra", wraps=verify_ra) as verify:
        deliver(engine, ra, ra, at=0)  # two deliveries in one millisecond
        assert verify.call_count == 2
        deliver(engine, ra, at=5)
        assert verify.call_count == 3
    assert len(records(engine, "router-added")) == 10
    assert len(records(engine, "router-refreshed")) == 20


@pytest.mark.parametrize("tampered_first", [False, True])
def test_tampered_copy_in_the_same_millisecond_is_rejected_by_every_host(engine, tampered_first):
    ra = send_link(engine).ra
    tampered = replace(ra, router_lifetime=0)  # keeps the genuine tag
    deliver(engine, *((tampered, ra) if tampered_first else (ra, tampered)), at=0)
    assert [r.node for r in records(engine, "ra-rejected-send")] == [f"H{i}" for i in range(10)]
    assert [r.node for r in records(engine, "router-added")] == [f"H{i}" for i in range(10)]
    assert not records(engine, "router-removed")


def test_receivers_of_one_delivery_share_one_router_record_tuple(engine):
    ra = send_link(engine).ra
    deliver(engine, ra, at=0)
    deliver(engine, ra, at=5)
    for kind in ("router-added", "router-refreshed"):
        values = [r.values for r in records(engine, kind)]
        assert len(values) == 10 and all(v is values[0] for v in values), kind
    added, refreshed = (records(engine, kind)[0].values for kind in ("router-added", "router-refreshed"))
    assert added == refreshed[:2] + (1 + 1800 * MS,) and refreshed[2] == 6 + 1800 * MS


def test_a_call_outside_a_delivery_verifies_against_the_trust_set_it_sees(engine):
    # No verdict outlives its delivery: a direct call checks the RA itself,
    # against the trust lines as they stand at that call.
    ra = send_link(engine, hosts=1).ra
    host = engine.nodes["H0"]
    deliver(engine, ra, at=0)
    engine.trusted_keys.clear()
    receive_ra(engine, ra, "R1", (host,), 5)
    assert [r.node for r in records(engine, "ra-rejected-send")] == ["H0"]
    assert len(records(engine, "router-added")) == 1 and not records(engine, "router-refreshed")
