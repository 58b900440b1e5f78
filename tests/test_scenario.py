"""Scenario parsing, validation, canonical round trip, and the CLI."""

import inspect
import sys

import pytest

from conftest import GOLDEN_DIR, SCENARIO_DIR, attrs, records, scenario_path
from mutants import BOUND_FAULTS, MINIMAL, bound_fault_text

from slaacsim import scenario
from slaacsim.addressing import Ipv6Address, MacAddress, Prefix, derive_eui64, parse_iid
from slaacsim.attacker import Attacker
from slaacsim.cli import main, run_command
from slaacsim.defense import PortClass, SwitchPort, cga_generate
from slaacsim.engine import Engine, HostMetrics, SimInvariantError
from slaacsim.host import Host
from slaacsim.messages import PrefixInfo, RouterAdvertisement, RouterPreference
from slaacsim.router import Router
from slaacsim.scenario import (
    MAX_PORTS,
    MAX_TIME_S,
    ScenarioParseError,
    ScenarioValidationError,
    build_engine,
    evaluate_expects,
    parse_scenario,
    print_scenario,
)

def test_minimal_scenario_parses():
    sc = parse_scenario(MINIMAL)
    assert [n.node_id for n in sc.nodes] == ["R1", "H1"]
    assert [n.kind for n in sc.nodes] == ["router", "host"]
    assert sc.run_ms == 4000 and sc.seed == 0
    assert sc.nodes[0].options["lifetime"] == 1800  # default filled


def test_defaults_derive_router_ip_from_mac():
    sc = parse_scenario(MINIMAL)
    assert str(sc.nodes[0].options["ip"]) == "fe80::200:5eff:fe00:5301"


H1_LINE = "node host H1 mac=00:1a:2b:3c:4d:5e"


@pytest.mark.parametrize(
    "options,iid",
    [
        (" iid=0123:4567:89ab:cdef", parse_iid("0123:4567:89ab:cdef")),
        (" cga-key=k1 cga-modifier=7", cga_generate("k1", 7)),
        ("", derive_eui64(MacAddress.parse("00:1a:2b:3c:4d:5e"))),
    ],
    ids=["iid", "cga", "eui64"],
)
def test_host_iid_is_the_given_one_else_cga_else_eui64(options, iid):
    sc = parse_scenario(MINIMAL.replace(H1_LINE, H1_LINE + options))
    assert build_engine(sc).nodes["H1"].iid == iid


@pytest.mark.parametrize("model", [Host, Engine, Router, SwitchPort, Attacker])
def test_model_constructors_state_no_default(model):
    # The scenario's option tables and Scenario fields state every default.
    params = inspect.signature(model).parameters.values()
    assert [p.name for p in params if p.default is not inspect.Parameter.empty] == []
    # Every node joins the link at a switch port.
    port = inspect.signature(Engine.add_node).parameters["port"]
    assert port.default is inspect.Parameter.empty


def test_advertisement_preference_has_no_default():
    preference = inspect.signature(RouterAdvertisement).parameters["preference"]
    assert preference.default is inspect.Parameter.empty


@pytest.mark.parametrize(
    "mutation,message_part",
    [
        ("attach R9 SW1.p1 class=router", "undeclared node"),
        ("at 1 attack A9 fake-router", "non-attacker"),
        ("policy SW1.p9 ra-guard", "unknown port"),
        ("trust nokey", "unknown key"),
        ("expect H9.default_router=R1", "unknown expectation"),
        ("expect dos_rate=1", "unknown expectation"),
        ("policy SW1.p0 ra-guard", "unknown port"),
        ("policy SW1.p02 ra-guard", "unknown port"),
    ],
)
def test_validation_rejects_dangling_references(mutation, message_part):
    text = MINIMAL.replace("attach R1", f"{mutation}\nattach R1", 1)
    with pytest.raises(ScenarioValidationError, match=message_part):
        parse_scenario(text)


@pytest.mark.parametrize("mode", ["fake-router", "blackhole", "dual-stack"])
def test_forging_attack_needs_a_persona(tmp_path, capsys, mode):
    # Without persona-* options the attacker has nothing to forge: the input
    # is invalid (exit 1), not a run that fails (exit 2).
    text = MINIMAL.replace(
        "node host H1 mac=00:1a:2b:3c:4d:5e",
        "node attacker A1 mac=00:00:5e:00:53:66",
    ).replace("attach H1 SW1.p2 class=host", "attach A1 SW1.p2 class=host")
    text = text.replace("run 4", f"at 1 attack A1 {mode}\nrun 4")
    with pytest.raises(ScenarioValidationError, match="has no persona for"):
        parse_scenario(text)
    parse_scenario(text.replace("53:66", "53:66 persona-routes=no"))  # any persona option will do
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    assert run_command(["run", str(bad)]) == 1
    assert "has no persona for" in capsys.readouterr().err


KILL_TARGETS = """\
switch SW1 ports=5
node router R1 mac=00:00:5e:00:53:01
node router R2 mac=00:00:5e:00:53:02 ra=off
node host H1 mac=00:1a:2b:3c:4d:5e
node attacker A1 mac=00:00:5e:00:53:66
node attacker A2 mac=00:00:5e:00:53:67
attach R1 SW1.p1 class=router
attach R2 SW1.p2 class=router
attach H1 SW1.p3 class=host
attach A1 SW1.p4 class=host
attach A2 SW1.p5 class=host
run 4
"""


@pytest.mark.parametrize("target", ["H1", "A1", "R2"])
def test_kill_router_target_must_send_a_capturable_ra(tmp_path, capsys, target):
    # A host, the attacker itself and an ra=off router never send an RA the
    # attacker can capture: the input is invalid (exit 1), not a run that
    # fails (exit 2).
    text = KILL_TARGETS.replace("run 4", f"at 3 attack A1 kill-router target={target}\nrun 4")
    message = f"attack target '{target}' sends no RA 'A1' can capture"
    with pytest.raises(ScenarioValidationError, match=message):
        parse_scenario(text)
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    assert run_command(["run", str(bad)]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("target", ["R1", "A2"])
def test_kill_router_may_target_an_advertising_router_or_another_attacker(target):
    parse_scenario(KILL_TARGETS.replace("run 4", f"at 3 attack A1 kill-router target={target}\nrun 4"))


def test_step_after_the_run_ends_rejected(tmp_path, capsys):
    # A step timed after the run ends would never run, and the run would
    # still report its flags as if it had.
    text = MINIMAL.replace("run 4", "at 5 measure\nrun 4")
    message = "at 5 is after the run ends at 4"
    with pytest.raises(ScenarioValidationError, match=message):
        parse_scenario(text)
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    assert run_command(["run", str(bad)]) == 1
    assert message in capsys.readouterr().err


def test_step_at_the_run_end_is_valid():
    # The run serves every event at or before its end time.
    sc = parse_scenario(MINIMAL.replace("run 4", "at 4 measure\nrun 4"))
    assert [time_ms for time_ms, _step in sc.directives] == [4000]


H1_MAC_TEXT = "mac=00:1a:2b:3c:4d:5e"


@pytest.mark.parametrize(
    "edits,message",
    [
        ([("run 4", "switch SW2 ports=2\nrun 4")], "line 6: only one switch is supported"),
        ([(H1_MAC_TEXT, f"{H1_MAC_TEXT} ipv4=10.0.0.2")],
         "line 3: ipv4 and gw4 must be given together"),
        ([(H1_MAC_TEXT, f"{H1_MAC_TEXT} iid=0000:0000:0000:0001 cga-key=k1 cga-modifier=0")],
         "line 3: iid and cga-key are mutually exclusive"),
        ([("run 4", "at 1 attack A1 fake-router target=R1\nrun 4")],
         "line 6: fake-router takes no target"),
        ([("switch SW1 ports=2\n", "")], "scenario needs a switch"),
        ([("ports=2", "ports=3"), ("run 4", "attach H1 SW1.p3 class=host\nrun 4")],
         "node 'H1' attached twice"),
        ([("run 4", "node host H2 mac=00:1a:2b:3c:4d:5f\nattach H2 SW1.p2 class=host\nrun 4")],
         "port 'p2' attached twice"),
        ([("run 4", "at 1 disable H1\nrun 4")], "enable/disable references non-router 'H1'"),
    ],
    ids=[
        "second-switch", "together", "exclusive", "no-target", "no-switch",
        "node-twice", "port-twice", "toggle-host",
    ],
)
def test_each_scenario_fault_exits_1_with_its_message(tmp_path, capsys, edits, message):
    text = MINIMAL
    for old, new in edits:
        text = text.replace(old, new, 1)
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    assert run_command(["run", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {bad}: {message}\n"


def test_duplicate_node_id_rejected():
    text = MINIMAL.replace(
        "node host H1 mac=00:1a:2b:3c:4d:5e",
        "node host H1 mac=00:1a:2b:3c:4d:5e\nnode host H1 mac=00:1a:2b:3c:4d:5f",
    )
    with pytest.raises(ScenarioValidationError, match="duplicate node id"):
        parse_scenario(text)


def test_node_id_equal_to_the_switch_id_rejected(tmp_path, capsys):
    # The switch's id labels its ra-dropped records, which would then read
    # as the host's own.
    text = MINIMAL.replace("switch SW1", "switch H1").replace("SW1.", "H1.")
    with pytest.raises(ScenarioValidationError, match="node id 'H1' is the switch's id"):
        parse_scenario(text)
    bad = tmp_path / "bad.txt"
    bad.write_text(text)
    assert run_command(["run", str(bad)]) == 1
    assert "node id 'H1' is the switch's id" in capsys.readouterr().err


def test_duplicate_mac_needs_opt_in():
    text = MINIMAL.replace("00:1a:2b:3c:4d:5e", "00:00:5e:00:53:01")
    with pytest.raises(ScenarioValidationError, match="duplicate MAC"):
        parse_scenario(text)
    assert parse_scenario(text + "allow-dup-mac\n").allow_dup_mac


def test_shared_router_address_rejected(tmp_path, capsys):
    # Explicit ip= on a second router: without the rule, H1 reported R2 as
    # its default router although R2 never advertised.
    text = MINIMAL.replace("ports=2", "ports=3").replace(
        "node router R1 mac=00:00:5e:00:53:01",
        "node router R1 mac=00:00:5e:00:53:01 ip=fe80::1\n"
        "node router R2 mac=00:00:5e:00:53:02 ip=fe80::1 ra=off routes=no",
    ) + "attach R2 SW1.p3 class=router\n"
    bad = tmp_path / "shared.txt"
    bad.write_text(text)
    assert run_command(["run", str(bad)]) == 1
    assert "share address(es) ['fe80::1']" in capsys.readouterr().err
    # The same MAC under allow-dup-mac derives the same link-local address.
    text = MINIMAL.replace("ports=2", "ports=3").replace(
        "node host H1", "node attacker A1 mac=00:00:5e:00:53:01\nnode host H1"
    ) + "attach A1 SW1.p3 class=host\nallow-dup-mac\n"
    with pytest.raises(ScenarioValidationError, match=r"\['fe80::200:5eff:fe00:5301'\]"):
        parse_scenario(text)
    # Hosts may still share one: that is the DAD conflict of phase1_dup.
    assert parse_scenario(scenario_path("phase1_dup").read_text()).allow_dup_mac


def test_unattached_node_rejected():
    text = MINIMAL.replace("attach H1 SW1.p2 class=host\n", "")
    with pytest.raises(ScenarioValidationError, match="not attached"):
        parse_scenario(text)


def test_parse_errors_carry_line_numbers():
    bad = MINIMAL.replace("node host H1 mac=00:1a:2b:3c:4d:5e", "node host H1 mac=xx")
    with pytest.raises(ScenarioParseError, match="line 3"):
        parse_scenario(bad)
    with pytest.raises(ScenarioParseError, match="line 1"):
        parse_scenario("bogus directive\n" + MINIMAL)
    with pytest.raises(ScenarioParseError, match="^line 4: bad port class 'switch'$"):
        parse_scenario(MINIMAL.replace("class=router", "class=switch"))


@pytest.mark.parametrize(
    "options,message",
    [
        # Reported in option-table order, whatever order the line gives them in.
        ("interval=0 lifetime=x", "line 2: lifetime: bad number 'x'"),
        ("lifetime=x interval=0", "line 2: lifetime: bad number 'x'"),
        ("jitter=-1 mac=00:00:5e:00:53:zz", "line 2: mac: bad hex pair at offset 15: '00:00:5e:00:53:zz'"),
        ("routes=maybe valid=1 preferred=2", "line 2: routes: bad value 'maybe' (want on/off or yes/no)"),
        ("valid=1 preferred=2", "line 2: preferred: preferred lifetime exceeds valid lifetime"),
        # Line-level faults come before any value is read.
        ("lifetime=x lifetime=1", "line 2: duplicate key 'lifetime'"),
        ("lifetime=x color=red", "line 2: unknown key 'color'"),
    ],
)
def test_node_line_with_several_faults_reports_the_first(options, message):
    given = options if "mac=" in options else f"mac=00:00:5e:00:53:01 {options}"
    text = MINIMAL.replace("node router R1 mac=00:00:5e:00:53:01", f"node router R1 {given}")
    with pytest.raises(ScenarioParseError) as exc:
        parse_scenario(text)
    assert str(exc.value) == message


R1_RA = RouterAdvertisement(
    MacAddress.parse("00:00:5e:00:53:01"), Ipv6Address.parse("fe80::1"), 1800, RouterPreference.MEDIUM
)

# Each value bound, stated once in the model: the key the parse error of its
# router line (mutants.BOUND_FAULTS) names, and a construction that breaks it.
BOUND_CHECKS = {
    "six-octets": ("mac", lambda: MacAddress(bytes(5))),
    "router-lifetime": (
        "lifetime",
        lambda: RouterAdvertisement(R1_RA.src_mac, R1_RA.src_ip, 65536, RouterPreference.MEDIUM),
    ),
    "preferred-not-above-valid": ("preferred", lambda: PrefixInfo(Prefix.parse("2001:db8:1::/64"), 1, 2)),
    "positive-interval": ("interval", lambda: Router("R1", R1_RA, 0, True, None, True, 0)),
}


@pytest.mark.parametrize("bound", list(BOUND_FAULTS))
def test_each_value_bound_is_stated_once(bound):
    # The parser reaches the model's own check: the node line reports the
    # text that a direct construction raises, after its line and key.
    key, construct = BOUND_CHECKS[bound]
    with pytest.raises(ValueError) as direct:
        construct()
    with pytest.raises(ScenarioParseError) as parsed:
        parse_scenario(bound_fault_text(BOUND_FAULTS[bound]))
    assert str(parsed.value) == f"line 2: {key}: {direct.value}"


@pytest.mark.parametrize("text", ["HIGH", "High", "h\u0131gh"])
@pytest.mark.parametrize("kind,key", [("router", "preference"), ("attacker", "persona-preference")])
def test_preference_is_one_of_three_exact_words(kind, key, text):
    # As every other keyword option: no case folding, so "hıgh" (dotless i),
    # which upper-cases to "HIGH", is no preference either.
    line = f"node {kind} R1 mac=00:00:5e:00:53:01 {key}={text}"
    bad = MINIMAL.replace("node router R1 mac=00:00:5e:00:53:01 prefix=2001:db8:1::/64", line)
    with pytest.raises(ScenarioParseError) as exc:
        parse_scenario(bad)
    assert str(exc.value) == f"line 2: {key}: unknown preference {text!r}"


def test_grammar_states_every_directive_of_the_table():
    grammar = scenario.__doc__.split("::\n\n", 1)[1].split("\n\n", 1)[0]
    # A directive's lines start four spaces in; its continuation lines further.
    heads = {line.split()[0] for line in grammar.splitlines() if not line.startswith(" " * 5)}
    assert heads == set(scenario._DIRECTIVES)


@pytest.mark.parametrize(
    "extra,message",
    [
        # The same id, MAC and address twice: the id is reported first.
        ("node router R1 mac=00:00:5e:00:53:01 ip=fe80::200:5eff:fe00:5301",
         "duplicate node id(s): ['R1']"),
        ("node router R2 mac=00:00:5e:00:53:01 ip=fe80::200:5eff:fe00:5301",
         "duplicate MAC(s) ['00:00:5e:00:53:01']; add allow-dup-mac to permit"),
        ("node router R2 mac=00:00:5e:00:53:02 ip=fe80::200:5eff:fe00:5301",
         "routers or attackers share address(es) ['fe80::200:5eff:fe00:5301']"),
        # Unattached and gw4 to a host: the attachment is reported first.
        ("node host H2 mac=00:1a:2b:3c:4d:5f ipv4=10.0.0.2 gw4=H1",
         "node(s) not attached to the switch: ['H2']"),
    ],
)
def test_scenario_with_several_faults_reports_the_first(extra, message):
    text = MINIMAL.replace("node host H1", f"{extra}\nnode host H1")
    with pytest.raises(ScenarioValidationError) as exc:
        parse_scenario(text)
    assert str(exc.value) == message


R1_MAC, R2_MAC = "00:00:5e:00:53:01", "00:00:5e:00:53:02"
POLICED = f"""\
switch SW1 ports=3
node router R1 mac={R1_MAC} prefix=2001:db8:1::/64
node router R2 mac={R2_MAC} prefix=2001:db8:2::/64
node host H1 mac=00:1a:2b:3c:4d:5e
attach R1 SW1.p1 class=host
attach R2 SW1.p2 class=router
attach H1 SW1.p3 class=host
policy SW1.p1 ra-guard
policy SW1.p1 acl={R1_MAC}
run 2
"""


@pytest.mark.parametrize(
    "acl_lines,r2_dropped",
    [
        ([R2_MAC, R1_MAC], True),  # the last acl line holds
        ([R1_MAC, R2_MAC], False),
    ],
)
def test_policy_lines_fold_into_each_port(acl_lines, r2_dropped):
    acls = "".join(f"policy SW1.p2 acl={mac}\n" for mac in acl_lines)
    engine = build_engine(parse_scenario(POLICED.replace("run 2", acls + "run 2")))
    engine.execute(2_000)
    r1, last = MacAddress.parse(R1_MAC), MacAddress.parse(acl_lines[-1])
    assert engine.node_port["R1"] == SwitchPort("p1", PortClass.HOST_FACING, True, frozenset({r1}))
    assert engine.node_port["R2"] == SwitchPort("p2", PortClass.ROUTER_FACING, False, frozenset({last}))
    assert engine.node_port["H1"] == SwitchPort("p3", PortClass.HOST_FACING, False, None)
    drops = {(attrs(r)["port"], attrs(r)["reason"]) for r in records(engine, "ra-dropped")}
    # RA Guard on a host-facing port drops even a source its ACL lists; an
    # ACL on a router-facing port drops every source it does not list.
    assert drops == ({("p1", "ra-guard"), ("p2", "acl")} if r2_dropped else {("p1", "ra-guard")})
    received = {attrs(r)["src"] for r in records(engine, "ra-received") if r.node == "H1"}
    assert len(received) == (0 if r2_dropped else 1)


def test_missing_run_directive_rejected():
    with pytest.raises(ScenarioValidationError, match="no run directive"):
        parse_scenario(MINIMAL.replace("run 4\n", ""))


def test_kill_router_requires_target():
    text = MINIMAL.replace(
        "node host H1 mac=00:1a:2b:3c:4d:5e",
        "node host H1 mac=00:1a:2b:3c:4d:5e\nnode attacker A1 mac=00:00:5e:00:53:66",
    ).replace("run 4", "attach A1 SW1.p2 class=host\nat 1 attack A1 kill-router\nrun 4")
    with pytest.raises(ScenarioParseError, match="target"):
        parse_scenario(text)


def test_gw4_must_reference_gateway_node():
    text = MINIMAL.replace(
        "node host H1 mac=00:1a:2b:3c:4d:5e",
        "node host H1 mac=00:1a:2b:3c:4d:5e ipv4=10.0.0.2 gw4=H1",
    )
    with pytest.raises(ScenarioValidationError, match="gw4"):
        parse_scenario(text)


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.txt")), ids=lambda p: p.stem)
def test_corpus_round_trips_through_canonical_writer(path):
    sc = parse_scenario(path.read_text())
    assert parse_scenario(print_scenario(sc)) == sc


def test_attacker_persona_round_trip():
    text = MINIMAL.replace(
        "node host H1 mac=00:1a:2b:3c:4d:5e",
        "node attacker A1 mac=00:00:5e:00:53:66 persona-prefix=2001:db8:bad::/64"
        " persona-preference=high persona-routes=no",
    ).replace("attach H1 SW1.p2 class=host", "attach A1 SW1.p2 class=host")
    sc = parse_scenario(text)
    decl = sc.nodes[-1]
    assert decl.kind == "attacker"
    assert decl.options["persona-routes"] is False and decl.options["persona-lifetime"] == 9000
    assert parse_scenario(print_scenario(sc)) == sc


# -- CLI ------------------------------------------------------------------------

def test_run_command_writes_outputs(tmp_path, capsys):
    trace = tmp_path / "out.trace"
    metrics = tmp_path / "out.metrics"
    code = run_command(
        ["run", str(scenario_path("attack_kill")), "--trace", str(trace), "--metrics", str(metrics)]
    )
    assert code == 0
    assert "dos_success=true" in capsys.readouterr().out
    assert trace.read_text().endswith("\n")
    body = metrics.read_text()
    assert "host=H1" in body and "dos_success=true" in body and "counters emitted=" in body


def test_invariant_violation_exits_2_with_one_line_on_stderr(monkeypatch, capsys):
    # An emission counted twice breaks message conservation, which execute()
    # checks once the run ends.
    broadcast = Engine.broadcast

    def counted_twice(engine, src_id, msg, now):
        broadcast(engine, src_id, msg, now)
        engine.metrics.emitted += 1

    monkeypatch.setattr(Engine, "broadcast", counted_twice)
    assert run_command(["run", str(scenario_path("baseline")), "--check"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invariant violation: message conservation broken: emitted=")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


@pytest.mark.parametrize("name, status", [("attack_kill", 0), ("no_such_scenario", 1)])
def test_main_exits_with_the_status_of_run_command(monkeypatch, capsys, name, status):
    argv = ["run", str(scenario_path(name)), "--check"]
    monkeypatch.setattr(sys, "argv", ["slaacsim", *argv])
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == status
    # It prints what run_command prints, and something: a check, or an error.
    from_main = capsys.readouterr()
    assert from_main.out + from_main.err
    assert run_command(argv) == status
    assert capsys.readouterr() == from_main


def test_run_command_metrics_match_the_golden_file(tmp_path):
    metrics = tmp_path / "out.metrics"
    assert run_command(["run", str(scenario_path("attack_kill")), "--metrics", str(metrics)]) == 0
    assert metrics.read_bytes() == (GOLDEN_DIR / "attack_kill.metrics").read_bytes()


# int() and float() also read other scripts' digits and "_" separators, and
# the canonical text then printed such a number rewritten in ASCII digits.
@pytest.mark.parametrize(
    "old,new,message",
    [
        ("prefix=2001:db8:1::/64", "prefix=2001:db8:1::/٦٤",
         "line 2: prefix: prefix needs /<length> at offset 12: '2001:db8:1::/٦٤'"),
        ("prefix=2001:db8:1::/64", "prefix=2001:db8:1::/64 lifetime=１８００",
         "line 2: lifetime: bad number '１８００'"),
        ("prefix=2001:db8:1::/64", "prefix=2001:db8:1::/64 interval=1_0",
         "line 2: interval: bad time '1_0'"),
        ("ports=2", "ports=٢", "line 1: bad number '٢'"),
        ("run 4", "at ٢ measure\nrun 4", "line 6: bad time '٢'"),
        ("run 4", "run 2_0", "line 6: bad time '2_0'"),
        ("run 4", "run 4 seed=٧", "line 6: bad number '٧'"),
        ("node host H1 mac=00:1a:2b:3c:4d:5e",
         "node host H1 mac=00:1a:2b:3c:4d:5e cga-key=k1 cga-modifier=٧",
         "line 3: cga-modifier: bad number '٧'"),
    ],
    ids=["prefix-length", "lifetime", "interval", "ports", "at", "run", "seed", "cga-modifier"],
)
def test_numbers_take_ascii_digits_only(tmp_path, capsys, old, new, message):
    bad = tmp_path / "digits.txt"
    bad.write_text(MINIMAL.replace(old, new, 1))
    assert run_command(["run", str(bad), "--dump-normalized"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}: {message}\n"


@pytest.mark.parametrize(
    "old,new",
    [
        ("R1", "none"),
        ("node host H1", "node host none"),
        ("SW1", "none"),
    ],
    ids=["router", "host", "switch"],
)
def test_none_is_not_an_id(old, new):
    # A router called none that a host used would print default_router=none,
    # the text for a host with no default router.
    text = MINIMAL.replace(old, new)
    with pytest.raises(ScenarioParseError, match=r"^line \d+: bad identifier 'none'$"):
        parse_scenario(text)


# A scoped literal names an interface zone, which a one-link scenario has none
# of; the stdlib parser accepts it, so it was taken with its zone dropped.
@pytest.mark.parametrize(
    "old,new,message",
    [
        ("mac=00:00:5e:00:53:01", "mac=00:00:5e:00:53:01 ip=fe80::1%eth0",
         "line 2: ip: invalid IPv6 address at offset 7: 'fe80::1%eth0'"),
        ("prefix=2001:db8:1::/64", "prefix=2001:db8:1::%z/64",
         "line 2: prefix: invalid IPv6 address at offset 12: '2001:db8:1::%z'"),
        ("node host H1 mac=00:1a:2b:3c:4d:5e",
         "node attacker H1 mac=00:1a:2b:3c:4d:5e persona-prefix=2001:db8:bad::%1/64",
         "line 3: persona-prefix: invalid IPv6 address at offset 14: '2001:db8:bad::%1'"),
    ],
    ids=["ip", "prefix", "persona-prefix"],
)
def test_scoped_ipv6_literal_rejected(tmp_path, capsys, old, new, message):
    bad = tmp_path / "scoped.txt"
    bad.write_text(MINIMAL.replace(old, new))
    with pytest.raises(ScenarioParseError, match=message.replace("(", r"\(")):
        parse_scenario(bad.read_text())
    assert run_command(["run", str(bad), "--dump-normalized"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {bad}: {message}\n"


def test_run_command_rejects_malformed_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("switch SW1 ports=1\nnode host H1 mac=zz\nrun 1\n")
    assert run_command(["run", str(bad)]) == 1
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args,message",
    [
        (["--trace", "{tmp}/missing/out.trace"], "No such file or directory"),
        (["--metrics", "{tmp}/missing/out.metrics"], "No such file or directory"),
        (["--trace", "{tmp}"], "Is a directory"),
    ],
)
def test_run_command_reports_unwritable_outputs(tmp_path, capsys, args, message):
    args = [a.format(tmp=tmp_path) for a in args]
    assert run_command(["run", str(scenario_path("baseline"))] + args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and "Traceback" not in err


def test_run_command_reports_unreadable_scenarios(tmp_path, capsys):
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(MINIMAL.replace("run 4", "# caf\xe9\nrun 4").encode("latin-1"))
    assert run_command(["run", str(latin1)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {latin1}: 'utf-8' codec can't decode")
    assert run_command(["run", str(tmp_path / "missing.txt")]) == 1
    assert "No such file or directory" in capsys.readouterr().err
    assert run_command(["run", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_check_flag_gates_on_expectations(tmp_path, capsys):
    assert run_command(["run", str(scenario_path("attack_kill")), "--check"]) == 0
    assert "check ok" in capsys.readouterr().out
    lying = tmp_path / "lying.txt"
    lying.write_text(
        scenario_path("attack_kill").read_text().replace(
            "expect dos_success=true", "expect dos_success=false"
        )
    )
    assert run_command(["run", str(lying), "--check"]) == 1
    assert "check failed" in capsys.readouterr().err


def test_dump_normalized_round_trips(capsys):
    assert run_command(["run", str(scenario_path("baseline")), "--dump-normalized"]) == 0
    dumped = capsys.readouterr().out
    sc = parse_scenario(scenario_path("baseline").read_text())
    assert parse_scenario(dumped) == sc


def test_dump_normalized_states_the_readme_defaults(tmp_path, capsys):
    # Every default a node, the link and the run take is printed, as the
    # README gives it.
    text = MINIMAL.replace(" prefix=2001:db8:1::/64", "").replace(
        "node host H1 mac=00:1a:2b:3c:4d:5e",
        "node attacker A1 mac=00:00:5e:00:53:66 persona-prefix=2001:db8:bad::/64\n"
        "node host H2 mac=00:1a:2b:3c:4d:5f",
    ).replace(
        "attach H1 SW1.p2 class=host",
        "attach A1 SW1.p2 class=host\nattach H2 SW1.p3 class=host",
    ).replace("ports=2", "ports=3")
    path = tmp_path / "defaults.txt"
    path.write_text(text)
    assert run_command(["run", str(path), "--dump-normalized"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "link-latency 0.001"  # one millisecond, printed in seconds
    assert lines[4] == "node host H2 mac=00:1a:2b:3c:4d:5f ipv6=on send=off"
    assert lines[-1] == "run 4 seed=0"
    assert lines[2:4] == [
        "node router R1 mac=00:00:5e:00:53:01 ip=fe80::200:5eff:fe00:5301"
        " lifetime=1800 preference=medium interval=10 valid=3600 preferred=3600"
        " routes=yes ra=on jitter=0",
        "node attacker A1 mac=00:00:5e:00:53:66 ip=fe80::200:5eff:fe00:5366"
        " persona-prefix=2001:db8:bad::/64 persona-lifetime=9000 persona-preference=medium"
        " persona-interval=10 persona-routes=yes persona-valid=3600 persona-preferred=3600",
    ]


def test_seed_override_changes_jittered_run(tmp_path, capsys):
    traces = []
    for seed in ("42", "7"):
        out = tmp_path / f"{seed}.trace"
        assert run_command(
            ["run", str(scenario_path("jitter_demo")), "--trace", str(out), "--seed", seed]
        ) == 0
        traces.append(out.read_text())
    capsys.readouterr()
    assert traces[0] != traces[1]


@pytest.mark.parametrize(
    "args,message",
    [
        (["run", "{jitter}", "--seed", "٧"], "argument --seed: bad number '٧'"),
        (["run", "{jitter}", "--seed", "abc"], "argument --seed: bad number 'abc'"),
        (["run", "{jitter}", "--bogus"], "unrecognized arguments: --bogus"),
        ([], "the following arguments are required: command"),
    ],
    ids=["seed-other-digits", "seed-not-a-number", "unknown-flag", "no-command"],
)
def test_usage_errors_exit_1_with_one_error_line(capsys, args, message):
    # Exit 2 means an invariant violation, so a usage error exits 1, and
    # --seed takes ASCII digits only, as seed= in a scenario file does.
    args = [a.format(jitter=scenario_path("jitter_demo")) for a in args]
    assert run_command(args) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize(
    "args,usage", [(["--help"], "usage: slaacsim "), (["run", "--help"], "usage: slaacsim run ")]
)
def test_help_returns_0_with_the_usage_on_stdout(capsys, args, usage):
    # Every outcome of run_command is a returned status, --help too.
    assert run_command(args) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith(usage) and captured.err == ""


def test_expect_takes_every_field_metrics_prints(tmp_path, capsys):
    addresses = "fe80::21a:2bff:fe3c:4d5e,2001:db8:1:0:21a:2bff:fe3c:4d5e"
    path = tmp_path / "addresses.txt"
    path.write_text(MINIMAL.replace("run 4", f"expect H1.addresses={addresses}\nrun 4"))
    assert run_command(["run", str(path), "--check"]) == 0
    assert "check ok (1 expectation(s))" in capsys.readouterr().out
    path.write_text(MINIMAL.replace("run 4", "expect H1.addresses=-\nrun 4"))
    assert run_command(["run", str(path), "--check"]) == 1
    assert capsys.readouterr().err == f"check failed: expect H1.addresses=-: got {addresses}\n"


def test_module_entry_point_runs():
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "slaacsim", "run", str(scenario_path("baseline")), "--check"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert "check ok" in result.stdout


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.txt")), ids=lambda p: p.stem)
def test_whole_corpus_checks_clean(path, capsys):
    # Exit status 2 (invariant violation) must be unreachable on shipped
    # scenarios, and every expectation must hold.
    assert run_command(["run", str(path), "--check"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.txt")), ids=lambda p: p.stem)
def test_check_compares_against_the_printed_text(path, tmp_path, capsys):
    out = tmp_path / "metrics.txt"
    assert run_command(["run", str(path), "--metrics", str(out)]) == 0
    stdout = capsys.readouterr().out
    printed = {}
    for line in out.read_text().splitlines():
        head, *fields = line.split()
        if head.startswith("host="):
            host = head[len("host="):]
            for key, value in (f.split("=", 1) for f in fields):
                if key in HostMetrics._fields:
                    printed[f"{host}.{key}"] = value
        elif head != "counters":
            assert not fields and head in stdout.splitlines()
            key, value = head.split("=", 1)
            printed[key] = value
    sc = parse_scenario(path.read_text() + "".join(f"expect {k}={v}\n" for k, v in printed.items()))
    hosts = [n for n in sc.nodes if n.kind == "host"]
    assert len(printed) == 3 + len(HostMetrics._fields) * len(hosts)
    metrics = build_engine(sc).execute(sc.run_ms)
    assert evaluate_expects(sc, metrics) == []
    sc.expects = [(key, "altered") for key in printed]
    assert evaluate_expects(sc, metrics) == [
        f"expect {key}=altered: got {value}" for key, value in printed.items()
    ]


def test_kill_router_before_any_capture_exits_1(tmp_path, capsys):
    # Validation cannot tell whether R1's RA reaches A1 before the step
    # replays it. A replay with nothing captured is a fault of the input
    # (exit 1), not an invariant violation (exit 2).
    text = MINIMAL.replace(
        "node host H1 mac=00:1a:2b:3c:4d:5e",
        "node attacker A1 mac=00:00:5e:00:53:66",
    ).replace("attach H1 SW1.p2 class=host", "attach A1 SW1.p2 class=host")
    early = text.replace("run 4", "at 0 attack A1 kill-router target=R1\nrun 4")
    # R1's first RA is still on the wire at 5 s.
    slow = "link-latency 6\n" + text.replace("run 4", "at 5 attack A1 kill-router target=R1\nrun 9")
    for scenario_text, at_ms in ((early, 0), (slow, 5000)):
        broken = tmp_path / "broken.txt"
        broken.write_text(scenario_text)
        assert run_command(["run", str(broken)]) == 1
        assert capsys.readouterr().err == (
            f"error: {broken}: attack A1 kill-router at t={at_ms} ms:"
            " A1 holds no captured RA from R1\n"
        )


def test_missing_persona_at_run_time_is_an_invariant_violation():
    # Validation rejects a forging attack without a persona, so a run that
    # meets one has broken an invariant.
    text = MINIMAL.replace(
        "node host H1 mac=00:1a:2b:3c:4d:5e",
        "node attacker A1 mac=00:00:5e:00:53:66 persona-routes=yes",
    ).replace("attach H1 SW1.p2 class=host", "attach A1 SW1.p2 class=host")
    engine = build_engine(parse_scenario(text.replace("run 4", "at 1 attack A1 fake-router\nrun 4")))
    engine.nodes["A1"].persona = None
    with pytest.raises(SimInvariantError, match="playbook failed: A1 has no fake-router persona"):
        engine.execute(4000)


def test_link_latency_directive():
    sc = parse_scenario("link-latency 0.005\n" + MINIMAL)
    assert sc.link_latency_ms == 5


def test_router_lifetime_range_checked_at_parse():
    with pytest.raises(ScenarioParseError, match="out of range"):
        parse_scenario(MINIMAL.replace("prefix=2001:db8:1::/64", "lifetime=70000"))
    with pytest.raises(ScenarioParseError, match="positive"):
        parse_scenario(MINIMAL.replace("prefix=2001:db8:1::/64", "interval=0"))


@pytest.mark.parametrize(
    "old,new",
    [
        ("run 4", "run inf"),
        ("run 4", "run nan"),
        ("run 4", f"run {MAX_TIME_S + 1}"),
        ("run 4", "at inf measure\nrun 4"),
        ("run 4", "at -inf measure\nrun 4"),
        ("switch SW1", "link-latency 1e400\nswitch SW1"),
        ("prefix=2001:db8:1::/64", "prefix=2001:db8:1::/64 jitter=inf"),
        ("prefix=2001:db8:1::/64", "prefix=2001:db8:1::/64 interval=nan"),
        ("prefix=2001:db8:1::/64", "prefix=2001:db8:1::/64 preferred=-1"),
        ("prefix=2001:db8:1::/64", "prefix=2001:db8:1::/64 valid=-1 preferred=-1"),
        ("ports=2", f"ports={MAX_PORTS + 1}"),
        ("ports=2", "ports=0"),
        (
            "node host H1 mac=00:1a:2b:3c:4d:5e",
            "node attacker H1 mac=00:1a:2b:3c:4d:5e persona-preferred=-1",
        ),
        (
            "node host H1 mac=00:1a:2b:3c:4d:5e",
            "node attacker H1 mac=00:1a:2b:3c:4d:5e persona-interval=inf",
        ),
        ("run 4", "policy SW1.p2 ra-guard bogus tokens\nrun 4"),
        ("run 4", "policy global two-hour-rule bogus\nrun 4"),
        ("run 4", "key R1 k1\nkey R1 k2\nrun 4"),
        ("run 4", "run 5 seed=3\nrun 9"),
        ("switch SW1", "link-latency 1\nlink-latency 2\nswitch SW1"),
    ],
)
def test_out_of_range_values_rejected_at_parse(old, new):
    # Each of these once escaped as a traceback (OverflowError, a ValueError
    # at build time), exhausted memory building the port set, or was
    # accepted with its trailing policy tokens silently dropped, with a
    # router's first signing key silently replaced by its second, or with a
    # second run or link-latency line silently merged into the first.
    with pytest.raises(ScenarioParseError, match=r"^line \d+: "):
        parse_scenario(MINIMAL.replace(old, new, 1))


def test_value_bounds_are_inclusive():
    text = MINIMAL.replace("ports=2", f"ports={MAX_PORTS}").replace("run 4", f"run {MAX_TIME_S}")
    sc = parse_scenario(text)
    assert sc.switch == ("SW1", MAX_PORTS) and sc.run_ms == MAX_TIME_S * 1000


@pytest.mark.parametrize(
    "old,new,line",
    [
        ("run 4", "run inf", 6),
        ("prefix=2001:db8:1::/64", "prefix=2001:db8:1::/64 preferred=-1", 2),
        ("ports=2", f"ports={MAX_PORTS + 1}", 1),
        ("run 4", "policy SW1.p2 ra-guard bogus tokens\nrun 4", 6),
        ("run 4", "policy global two-hour-rule bogus\nrun 4", 6),
        ("run 4", "key R1 k1\nkey R1 k2\nrun 4", 7),
        ("run 4", "run 5 seed=3\nrun 9", 7),
        ("switch SW1", "link-latency 1\nlink-latency 2\nswitch SW1", 2),
    ],
)
def test_run_command_reports_bad_values_by_line(tmp_path, capsys, old, new, line):
    bad = tmp_path / "bad.txt"
    bad.write_text(MINIMAL.replace(old, new, 1))
    assert run_command(["run", str(bad)]) == 1
    assert f"line {line}: " in capsys.readouterr().err
