"""Acceptance suite: one test per shipped claim, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is calibrated elsewhere.
"""

import ipaddress
import random

from conftest import GOLDEN_DIR, attrs, records, run_scenario, scenario_path, SCENARIO_DIR

from slaacsim.addressing import (
    Ipv6Address,
    MacAddress,
    Prefix,
    derive_eui64,
    global_from,
    iid_text,
    link_local_from,
)
from slaacsim.cli import run_command
from slaacsim.host import DAD_TIMEOUT_MS, AddressState, apply_two_hour_rule

H1_MAC = MacAddress.parse("00:1a:2b:3c:4d:5e")
LINK_LATENCY_MS = 1


def ok(criterion: int, summary: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} PASS - {summary}")


def assigned_addresses(engine, node: str) -> dict[str, int]:
    """addr text -> assignment time for one node."""
    return {
        attrs(r)["addr"]: r.time for r in records(engine, "addr-assigned") if r.node == node
    }


def test_criterion_01_address_derivation_vectors():
    vectors = [
        ("00:1a:2b:3c:4d:5e", "021a:2bff:fe3c:4d5e", "fe80::21a:2bff:fe3c:4d5e"),
        ("00:00:00:00:00:00", "0200:00ff:fe00:0000", "fe80::200:ff:fe00:0"),
        ("02:00:00:00:00:00", "0000:00ff:fe00:0000", "fe80::ff:fe00:0"),
    ]
    for mac_text, iid_expected, ll_expected in vectors:
        iid = derive_eui64(MacAddress.parse(mac_text))
        assert iid_text(iid) == iid_expected
        assert str(link_local_from(iid)) == ll_expected
    rng = random.Random(2026)
    for _ in range(1000):
        addr = Ipv6Address(rng.getrandbits(128))
        assert Ipv6Address.parse(str(addr)) == addr
        assert str(addr) == str(ipaddress.IPv6Address(int(addr)))
    ok(1, "EUI-64 vectors and 1000-case parse/print round trip")


def test_criterion_02_phase1_conformance():
    _, engine, _ = run_scenario("phase1_single")
    ll = "fe80::21a:2bff:fe3c:4d5e"
    assigned = assigned_addresses(engine, "H1")
    assert assigned == {ll: DAD_TIMEOUT_MS}  # assigned only after the DAD deadline

    _, engine, _ = run_scenario("phase1_dup")
    failures = records(engine, "dad-failed")
    assert len(failures) == 1 and failures[0].node == "H2"
    holders = [r.node for r in records(engine, "addr-assigned") if attrs(r)["addr"] == ll]
    assert holders == ["H1"]
    ok(2, "link-local assigned after DAD; duplicate leaves one holder, one dad-failed")


def test_criterion_03_phase2_conformance():
    sc, engine, metrics = run_scenario("baseline")
    expected = global_from(Prefix.parse("2001:db8:1::/64"), derive_eui64(H1_MAC))
    assigned = assigned_addresses(engine, "H1")
    assert str(expected) in assigned
    # Bound: link-local DAD + one RS/RA round trip + global DAD.
    bound = DAD_TIMEOUT_MS + 2 * LINK_LATENCY_MS + DAD_TIMEOUT_MS
    assert assigned[str(expected)] <= bound
    assert metrics.hosts["H1"].default_router == "R1"
    host = engine.nodes["H1"]
    entry = next(e for e in host.addresses.values() if str(e.address) == str(expected))
    assert entry.state is AddressState.ASSIGNED
    ok(3, f"global address assigned at t={assigned[str(expected)]} ms <= {bound} ms, router selected")


def test_criterion_04_router_kill_dos():
    _, engine, metrics = run_scenario("attack_kill")
    assert metrics.dos_success is True
    assert metrics.hosts["H1"].default_router == "none"
    assert engine.trace_text() == (GOLDEN_DIR / "attack_kill.trace").read_text()

    _, engine, metrics = run_scenario("attack_kill_raguard")
    assert metrics.dos_success is False
    assert metrics.hosts["H1"].default_router == "R1"
    drops = records(engine, "ra-dropped")
    assert drops and all(attrs(d)["reason"] == "ra-guard" for d in drops)
    assert run_command(["run", str(scenario_path("attack_kill")), "--check"]) == 0
    assert run_command(["run", str(scenario_path("attack_kill_raguard")), "--check"]) == 0
    ok(4, "kill spoof evicts the router (golden trace); RA Guard stops it")


def test_criterion_05_fake_router_mitm_and_defenses():
    _, engine, metrics = run_scenario("attack_mitm")
    assert metrics.mitm_success is True
    delivered = records(engine, "data-delivered")
    assert any("A1" in attrs(r)["path"].split(">") for r in delivered)

    for variant in ("attack_mitm_raguard", "attack_mitm_acl", "attack_mitm_send"):
        _, _, metrics = run_scenario(variant)
        assert metrics.mitm_success is False, variant
        assert metrics.hosts["H1"].default_router == "R1", variant

    # Defense non-interference: with no attacker, enabling each defense leaves
    # the whole trace byte-identical and phase-2 conformance intact.
    baseline_trace = run_scenario("baseline")[1].trace_text()
    for variant in ("baseline_raguard", "baseline_acl", "baseline_send"):
        _, engine, metrics = run_scenario(variant)
        assert engine.trace_text() == baseline_trace, variant
        assert metrics.hosts["H1"].default_router == "R1", variant
    ok(5, "MITM succeeds undefended; RA Guard/ACL/signing each stop it; defenses non-interfering")


def test_criterion_06_blackhole_dos():
    _, engine, metrics = run_scenario("attack_blackhole")
    assert metrics.dos_success is True
    drops = records(engine, "blackhole-drop")
    assert drops and all(r.node == "A1" for r in drops)
    ok(6, "non-routing gateway persona blackholes traffic")


def test_criterion_07_dual_stack_rogue():
    _, engine, metrics = run_scenario("attack_dualstack")
    assert metrics.dualstack_success is True
    assert metrics.hosts["H1"].family_in_use == "ipv6"
    assert any("A1" in attrs(r)["path"].split(">") for r in records(engine, "data-delivered"))

    _, _, metrics = run_scenario("attack_dualstack_v6off")
    assert metrics.dualstack_success is False
    assert metrics.hosts["H1"].family_in_use == "ipv4"
    ok(7, "rogue dual-stack router hijacks v6-enabled host; disabling IPv6 restores v4 path")


def test_criterion_08_router_preference_policy():
    assert run_command(["run", str(scenario_path("pref_legit_high")), "--check"]) == 0
    assert run_command(["run", str(scenario_path("pref_attacker_high")), "--check"]) == 0
    _, _, metrics = run_scenario("pref_legit_high")
    assert metrics.mitm_success is False
    _, _, metrics = run_scenario("pref_attacker_high")
    assert metrics.mitm_success is True  # the policy's documented limitation
    ok(8, "high-preference routers win; attacker claiming high shows the limitation")


def test_criterion_09_two_hour_rule():
    def oracle(remaining, received):
        return received if (received > 7_200_000 or received > remaining) else min(remaining, 7_200_000)

    grid = [
        0, 1_000, 100_000, 3_599_000, 3_600_000,
        7_199_000, 7_199_999, 7_200_000, 7_200_001, 7_201_000,
        9_000_000, 10_000_000, 86_400_000,
    ]
    for remaining in grid:
        for received in grid:
            assert apply_two_hour_rule(remaining, received) == oracle(remaining, received)

    def lifetime_updates(name):
        _, engine, _ = run_scenario(name)
        return [int(attrs(r)["valid_ms"]) for r in records(engine, "addr-lifetime")]

    protected = lifetime_updates("twohour_on")
    assert min(protected) == 7200 * 1000  # clamped, never below two hours
    unprotected = lifetime_updates("twohour_off")
    assert min(unprotected) == 100 * 1000  # the forged 100 s lifetime lands
    ok(9, "rule matches branch oracle; floor holds with policy on, breaks with it off")


def test_criterion_10_determinism_and_conservation():
    names = sorted(p.stem for p in SCENARIO_DIR.glob("*.txt"))
    assert len(names) >= 20
    for name in names:
        _, first, metrics = run_scenario(name)
        _, second, _ = run_scenario(name)
        assert first.trace_text() == second.trace_text(), name
        assert metrics.emitted == metrics.delivered + metrics.dropped + metrics.in_flight, name
        assert metrics.in_flight == 0, name
    ok(10, f"{len(names)} scenarios byte-stable across reruns; emitted = delivered + dropped")


def test_criterion_11_privacy_of_interface_identifiers():
    eui_net1 = run_scenario("privacy_eui64_net1")[2].hosts["H1"]
    eui_net2 = run_scenario("privacy_eui64_net2")[2].hosts["H1"]
    assert eui_net1.iid == eui_net2.iid == iid_text(derive_eui64(H1_MAC))
    assert eui_net1.addresses != eui_net2.addresses  # different prefixes, same IID

    cga_net1 = run_scenario("privacy_cga_net1")[2].hosts["H1"]
    cga_net2 = run_scenario("privacy_cga_net2")[2].hosts["H1"]
    assert cga_net1.iid != cga_net2.iid
    assert cga_net1.iid != eui_net1.iid
    ok(11, "EUI-64 identifier tracks the host across networks; fresh digest modifiers do not")
