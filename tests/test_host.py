"""Host state machine: DAD, RA processing, router selection, lifetimes, and
next-hop resolution."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import attrs, queued_deliveries, queued_timers, records

from slaacsim.addressing import Ipv4Address, Ipv6Address, MacAddress, Prefix
from slaacsim.engine import Engine
from slaacsim.host import (
    AddressEntry,
    AddressState,
    DefaultRouterEntry,
    Host,
    apply_two_hour_rule,
)
from slaacsim.messages import (
    AddressFamily,
    NeighborAdvertisement,
    NeighborSolicitation,
    PrefixInfo,
    RouterAdvertisement,
    RouterPreference,
)
from slaacsim.scenario import build_engine, parse_scenario

H1_MAC = MacAddress.parse("00:1a:2b:3c:4d:5e")
R1_MAC = MacAddress.parse("00:00:5e:00:53:01")
R1_IP = Ipv6Address.parse("fe80::1")
PREFIX = Prefix.parse("2001:db8:1::/64")


def make_host(**kw) -> Host:
    return Host("H1", H1_MAC, **kw)


def make_ra(lifetime=1800, preference=RouterPreference.HIGH, prefixes=None,
            valid=3600, preferred=3600, src_ip=R1_IP):
    if prefixes is None:
        prefixes = (PrefixInfo(PREFIX, valid, preferred),)
    return RouterAdvertisement(R1_MAC, src_ip, lifetime, preference, tuple(prefixes))


# -- begin_autoconf -----------------------------------------------------------

def test_begin_autoconf_emits_dad_probe(engine):
    host = make_host()
    engine.add_node(host)
    host.begin_autoconf(engine, 0)
    probe = records(engine, "ns-sent")
    assert len(probe) == 1
    assert attrs(probe[0])["target"] == "fe80::21a:2bff:fe3c:4d5e"
    entry = host.addresses[0]
    assert entry.state is AddressState.TENTATIVE
    # The DAD deadline is keyed by the tentative address itself.
    assert queued_timers(engine) == [(1000, "H1", entry.address)]


def test_dad_probe_is_queued_once_for_each_other_node_in_node_order(engine):
    host = make_host()
    for node in (host, Host("H3", R1_MAC), Host("H2", R1_MAC)):
        engine.add_node(node)
    host.begin_autoconf(engine, 0)
    rows = queued_deliveries(engine)
    assert [(at, dst) for at, dst, _ in rows] == [(1, "H3"), (1, "H2")]
    target = host.addresses[0].address
    assert all(isinstance(msg, NeighborSolicitation) and msg.target == target for *_, msg in rows)
    assert engine.emitted == 2


def test_begin_autoconf_disabled_host_is_silent(engine):
    host = make_host(ipv6_enabled=False)
    engine.add_node(host)
    host.begin_autoconf(engine, 0)
    assert host.addresses == []
    assert engine.trace_records == []


def test_begin_autoconf_with_zero_iid(engine):
    host = make_host(iid_override=0)
    engine.add_node(host)
    host.begin_autoconf(engine, 0)
    assert attrs(records(engine, "ns-sent")[0])["target"] == "fe80::"


# -- neighbor solicitation / advertisement -------------------------------------

def assigned_entry(text: str) -> AddressEntry:
    return AddressEntry(Ipv6Address.parse(text), AddressState.ASSIGNED)


@pytest.mark.parametrize("sender", ["H9", "H0"])
def test_ns_for_assigned_address_is_defended(engine, sender):
    # An assigned holder defends whichever id solicits, smaller or larger.
    host = make_host()
    engine.add_node(host)
    host.addresses.append(assigned_entry("fe80::1"))
    ns = NeighborSolicitation(Ipv6Address.parse("fe80::1"))
    host.on_neighbor_solicitation(engine, ns, sender, 0)
    assert host.addresses[0].state is AddressState.ASSIGNED
    out = records(engine, "na-sent")
    assert len(out) == 1 and attrs(out[0])["target"] == "fe80::1"


def test_ns_for_unknown_target_is_ignored(engine):
    host = make_host()
    engine.add_node(host)
    host.addresses.append(assigned_entry("fe80::1"))
    ns = NeighborSolicitation(Ipv6Address.parse("fe80::2"))
    host.on_neighbor_solicitation(engine, ns, "H9", 0)
    assert engine.trace_records == []


def test_simultaneous_dad_smaller_id_wins(engine):
    host = make_host()
    engine.add_node(host)
    host.begin_autoconf(engine, 0)
    target = host.addresses[0].address
    ns = NeighborSolicitation(target)
    host.on_neighbor_solicitation(engine, ns, "H2", 0)  # H1 < H2: defend
    assert host.addresses[0].state is AddressState.TENTATIVE
    assert records(engine, "na-sent")
    host.on_neighbor_solicitation(engine, ns, "H0", 0)  # H1 > H0: abandon
    assert host.addresses[0].state is AddressState.ABANDONED
    assert len(records(engine, "dad-failed")) == 1
    # The deadline stays queued, and firing it leaves the abandoned entry be.
    assert queued_timers(engine) == [(1000, "H1", target)]
    engine.run_until(1000)
    assert host.addresses[0].state is AddressState.ABANDONED
    assert not records(engine, "addr-assigned")


def test_na_abandons_pending_tentative(engine):
    host = make_host()
    engine.add_node(host)
    host.begin_autoconf(engine, 0)
    target = host.addresses[0].address
    host.on_neighbor_advertisement(engine, NeighborAdvertisement(target), 5)
    assert host.addresses[0].state is AddressState.ABANDONED
    assert records(engine, "dad-failed")
    # the cancelled deadline never assigns
    host.dad_deadline(engine, target, 1000)
    assert host.addresses[0].state is AddressState.ABANDONED


def test_na_for_foreign_target_is_noop(engine):
    host = make_host()
    engine.add_node(host)
    host.begin_autoconf(engine, 0)
    foreign = Ipv6Address.parse("fe80::dead")
    host.on_neighbor_advertisement(engine, NeighborAdvertisement(foreign), 5)
    assert host.addresses[0].state is AddressState.TENTATIVE


def test_na_after_assignment_is_noop(engine):
    host = make_host()
    engine.add_node(host)
    host.begin_autoconf(engine, 0)
    target = host.addresses[0].address
    host.dad_deadline(engine, target, 1000)
    assert host.addresses[0].state is AddressState.ASSIGNED
    host.on_neighbor_advertisement(engine, NeighborAdvertisement(target), 1500)
    assert host.addresses[0].state is AddressState.ASSIGNED


# -- DAD completion ------------------------------------------------------------

def test_link_local_assignment_solicits_routers(engine):
    host = make_host()
    engine.add_node(host)
    host.begin_autoconf(engine, 0)
    host.dad_deadline(engine, host.addresses[0].address, 1000)
    assert host.addresses[0].state is AddressState.ASSIGNED
    assert records(engine, "rs-sent")
    host.dad_deadline(engine, host.addresses[0].address, 2000)  # not tentative: a no-op
    assert len(records(engine, "addr-assigned")) == len(records(engine, "rs-sent")) == 1


def test_global_assignment_sends_no_rs(engine):
    host = make_host()
    engine.add_node(host)
    host.process_ra(engine, make_ra(), 0)
    entry = host.addresses[0]
    assert entry.prefix == PREFIX and entry.state is AddressState.TENTATIVE
    host.dad_deadline(engine, entry.address, 1000)
    assert entry.state is AddressState.ASSIGNED
    assert not records(engine, "rs-sent")


# -- RA processing ---------------------------------------------------------------

def test_process_ra_installs_router_and_address(engine):
    host = make_host()
    engine.add_node(host)
    host.process_ra(engine, make_ra(), 0)
    assert len(host.router_list) == 1
    assert host.router_list[0].expires_at == 1800 * 1000
    entry = host.addresses[0]
    assert str(entry.address) == "2001:db8:1:0:21a:2bff:fe3c:4d5e"
    assert entry.state is AddressState.TENTATIVE
    assert records(engine, "ns-sent")


def test_lifetime_zero_removes_default_router(engine):
    host = make_host()
    engine.add_node(host)
    host.process_ra(engine, make_ra(), 0)
    host.process_ra(engine, make_ra(lifetime=0), 10)
    assert host.router_list == []
    assert attrs(records(engine, "router-removed")[0])["reason"] == "lifetime-zero"
    assert host.select_default_router(20) is None
    # only a fresh positive-lifetime RA from the same router re-adds it
    host.process_ra(engine, make_ra(lifetime=600), 30)
    assert host.select_default_router(40).router_ip == R1_IP


def test_non_64_autonomous_prefix_is_ignored(engine):
    host = make_host()
    engine.add_node(host)
    ra = make_ra(prefixes=(PrefixInfo(Prefix.parse("2001:db8::/48"), 3600, 3600),))
    host.process_ra(engine, ra, 0)
    assert host.addresses == []
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
    engine.add_node(host)
    host.begin_autoconf(engine, 0)
    ra = make_ra(prefixes=(PrefixInfo(Prefix.parse(text), 3600, 3600),))
    host.process_ra(engine, ra, 1)
    ignored = [] if forms else [{"prefix": text, "reason": "link-local"}]
    assert [attrs(r) for r in records(engine, "prefix-ignored")] == ignored
    engine.run_until(2000)
    assigned = [(r.time, attrs(r)["origin"]) for r in records(engine, "addr-assigned")]
    assert assigned == [(1000, "link-local")] + ([(1001, "slaac")] if forms else [])


def test_abandoned_prefix_is_never_recreated(engine):
    host = make_host()
    engine.add_node(host)
    host.process_ra(engine, make_ra(), 0)
    entry = host.addresses[0]
    host.on_neighbor_advertisement(
        engine, NeighborAdvertisement(entry.address), 5
    )
    assert entry.state is AddressState.ABANDONED
    host.process_ra(engine, make_ra(), 10)
    assert len(host.addresses) == 1


def test_send_only_host_drops_unauthenticated_ra(engine):
    host = make_host(send_only=True)
    engine.add_node(host)
    host.process_ra(engine, make_ra(), 0)
    assert host.router_list == [] and host.addresses == []
    assert records(engine, "ra-rejected-send")


def test_send_only_host_accepts_signed_ra(engine):
    from slaacsim.defense import key_secret, sign_ra

    engine.trusted_keys["k1"] = key_secret("k1")
    host = make_host(send_only=True)
    engine.add_node(host)
    host.process_ra(engine, sign_ra(make_ra(), "k1"), 0)
    assert len(host.router_list) == 1


def test_disabled_host_ignores_ra(engine):
    host = make_host(ipv6_enabled=False)
    engine.add_node(host)
    host.process_ra(engine, make_ra(), 0)
    assert host.router_list == [] and host.addresses == []


# -- two-hour rule -----------------------------------------------------------------

def rule_oracle(remaining: int, received: int) -> int:
    # Independent closed form: accept anything that raises the lifetime or
    # exceeds the floor; otherwise hold at min(remaining, floor).
    return received if (received > 7200 or received > remaining) else min(remaining, 7200)


@pytest.mark.parametrize(
    "remaining,received,expected",
    [(10000, 100, 7200), (5000, 100, 5000), (5000, 9000, 9000)],
)
def test_two_hour_rule_examples(remaining, received, expected):
    assert apply_two_hour_rule(remaining, received) == expected
    assert rule_oracle(remaining, received) == expected


def test_two_hour_rule_exhaustive_regions():
    grid = [0, 1, 100, 5000, 7199, 7200, 7201, 9000, 10000, 100000]
    for remaining in grid:
        for received in grid:
            assert apply_two_hour_rule(remaining, received) == rule_oracle(remaining, received)


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=7200))
def test_two_hour_rule_floor(remaining, received):
    # An unauthenticated short lifetime can never push the address below
    # min(remaining, two hours).
    if received <= remaining:
        assert apply_two_hour_rule(remaining, received) >= min(remaining, 7200)


def test_refresh_without_policy_takes_received_lifetime(engine):
    host = make_host()
    engine.add_node(host)
    host.process_ra(engine, make_ra(valid=10000, preferred=10000), 0)
    host.process_ra(engine, make_ra(valid=100, preferred=50), 1000)
    assert host.addresses[0].valid_until == 1000 + 100 * 1000


def test_refresh_with_policy_applies_floor():
    engine = Engine(two_hour_rule=True)
    host = make_host()
    engine.add_node(host)
    host.process_ra(engine, make_ra(valid=10000, preferred=10000), 0)
    host.process_ra(engine, make_ra(valid=100, preferred=50), 1000)
    entry = host.addresses[0]
    assert entry.valid_until == 1000 + 7200 * 1000
    assert entry.preferred_until <= entry.valid_until


# -- router selection ----------------------------------------------------------------

def router_entry(ip: str, pref, expires=10_000_000, refreshed=0):
    return DefaultRouterEntry(Ipv6Address.parse(ip), expires, pref, refreshed)


def test_selection_prefers_high():
    host = make_host()
    host.router_list = [
        router_entry("fe80::1", RouterPreference.HIGH),
        router_entry("fe80::2", RouterPreference.MEDIUM),
    ]
    assert str(host.select_default_router(0).router_ip) == "fe80::1"


def test_selection_empty_list_is_none():
    assert make_host().select_default_router(0) is None


def test_selection_tie_breaks_on_recency_then_ip():
    host = make_host()
    host.router_list = [
        router_entry("fe80::1", RouterPreference.MEDIUM, refreshed=10_000),
        router_entry("fe80::2", RouterPreference.MEDIUM, refreshed=20_000),
    ]
    assert str(host.select_default_router(0).router_ip) == "fe80::2"
    host.router_list[0].refreshed_at = 20_000
    assert str(host.select_default_router(0).router_ip) == "fe80::1"


def test_selection_skips_expired():
    host = make_host()
    host.router_list = [router_entry("fe80::1", RouterPreference.HIGH, expires=100)]
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
    host.router_list = [
        router_entry(str(Ipv6Address((0xFE80 << 112) | ip)), RouterPreference(p), refreshed=r)
        for p, r, ip in entries
    ]
    before = host.select_default_router(0)
    if before.preference is RouterPreference.LOW:
        return
    weaker = RouterPreference(before.preference - 1)
    host.router_list.append(router_entry("fe80::ffff", weaker, refreshed=99_999))
    after = host.select_default_router(0)
    assert after.router_ip == before.router_ip


# -- next-hop resolution ----------------------------------------------------------------

def dual_stack_host() -> Host:
    host = make_host(ipv4=(Ipv4Address.parse("10.0.0.2"), "GW1"))
    host.addresses.append(
        AddressEntry(
            Ipv6Address.parse("2001:db8:1:0:21a:2bff:fe3c:4d5e"),
            AddressState.ASSIGNED,
            prefix=PREFIX,
        )
    )
    return host


def test_resolution_prefers_ipv6():
    host = dual_stack_host()
    host.router_list = [router_entry("fe80::1", RouterPreference.HIGH)]
    hop = host.resolve_next_hop(0)
    assert hop.family is AddressFamily.IPV6
    assert str(hop.router_ip) == "fe80::1"


def test_resolution_falls_back_to_ipv4():
    host = dual_stack_host()
    hop = host.resolve_next_hop(0)  # no v6 router
    assert hop.family is AddressFamily.IPV4 and hop.gateway_node == "GW1"
    disabled = make_host(ipv6_enabled=False, ipv4=(Ipv4Address.parse("10.0.0.2"), "GW1"))
    hop = disabled.resolve_next_hop(0)
    assert hop.family is AddressFamily.IPV4


def test_resolution_unreachable():
    assert make_host().resolve_next_hop(0) is None


def test_resolution_needs_assigned_global():
    host = make_host()
    host.router_list = [router_entry("fe80::1", RouterPreference.HIGH)]
    assert host.resolve_next_hop(0) is None  # router but no global address


def test_resolution_prefers_a_preferred_source():
    # RFC 6724 rule 3: an address past its preferred lifetime (deprecated)
    # sources data only when no preferred address is assigned.
    host = make_host()
    host.router_list = [router_entry("fe80::1", RouterPreference.HIGH)]
    first = AddressEntry(
        Ipv6Address.parse("2001:db8:1::5"), AddressState.ASSIGNED, PREFIX,
        valid_until=9_000, preferred_until=1_000,
    )
    second = AddressEntry(
        Ipv6Address.parse("2001:db8:bad::5"), AddressState.ASSIGNED,
        Prefix.parse("2001:db8:bad::/64"), valid_until=9_000, preferred_until=5_000,
    )
    host.addresses = [first, second]
    assert host.resolve_next_hop(999).src_addr == first.address  # both preferred
    assert host.resolve_next_hop(1_000).src_addr == second.address  # first deprecated
    assert host.resolve_next_hop(5_000).src_addr == first.address  # both deprecated
    host.addresses = [second]
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
    engine.add_node(host)
    host.router_list = [router_entry("fe80::1", RouterPreference.HIGH, expires=100_000)]
    host.tick_lifetimes(engine, 101_000)
    assert host.router_list == []
    assert attrs(records(engine, "router-removed")[0])["reason"] == "expired"


def test_tick_abandons_expired_address(engine):
    host = make_host()
    engine.add_node(host)
    host.process_ra(engine, make_ra(valid=10, preferred=10), 0)
    host.tick_lifetimes(engine, 10_000)
    assert host.addresses[0].state is AddressState.ABANDONED
    assert records(engine, "addr-abandoned")


def test_tick_noop_when_nothing_expired(engine):
    host = make_host()
    engine.add_node(host)
    host.router_list = [router_entry("fe80::1", RouterPreference.HIGH, expires=100_000)]
    host.tick_lifetimes(engine, 50_000)
    assert len(host.router_list) == 1
    assert engine.trace_records == []
