"""Scenario parsing, validation, canonical round trip, and the CLI."""

import pytest

from conftest import SCENARIO_DIR, scenario_path

from slaacsim.cli import run_command
from slaacsim.scenario import (
    MAX_PORTS,
    MAX_TIME_S,
    ScenarioParseError,
    ScenarioValidationError,
    parse_scenario,
    print_scenario,
)

MINIMAL = """\
switch SW1 ports=2
node router R1 mac=00:00:5e:00:53:01 prefix=2001:db8:1::/64
node host H1 mac=00:1a:2b:3c:4d:5e
attach R1 SW1.p1 class=router
attach H1 SW1.p2 class=host
run 4
"""


def test_minimal_scenario_parses():
    sc = parse_scenario(MINIMAL)
    assert sc.node_ids() == ["R1", "H1"]
    assert [n.kind for n in sc.nodes] == ["router", "host"]
    assert sc.run_ms == 4000 and sc.seed == 0
    assert sc.nodes[0].options["lifetime"] == 1800  # default filled


def test_defaults_derive_router_ip_from_mac():
    sc = parse_scenario(MINIMAL)
    assert str(sc.nodes[0].options["ip"]) == "fe80::200:5eff:fe00:5301"


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


def test_duplicate_node_id_rejected():
    text = MINIMAL.replace(
        "node host H1 mac=00:1a:2b:3c:4d:5e",
        "node host H1 mac=00:1a:2b:3c:4d:5e\nnode host H1 mac=00:1a:2b:3c:4d:5f",
    )
    with pytest.raises(ScenarioValidationError, match="duplicate node id"):
        parse_scenario(text)


def test_duplicate_mac_needs_opt_in():
    text = MINIMAL.replace("00:1a:2b:3c:4d:5e", "00:00:5e:00:53:01")
    with pytest.raises(ScenarioValidationError, match="duplicate MAC"):
        parse_scenario(text)
    assert parse_scenario(text + "allow-dup-mac\n").allow_dup_mac


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


def test_run_command_rejects_malformed_scenario(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("switch SW1 ports=1\nnode host H1 mac=zz\nrun 1\n")
    assert run_command(["run", str(bad)]) == 1
    assert "line 2" in capsys.readouterr().err


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


def test_playbook_precondition_failure_exits_2(tmp_path, capsys):
    text = MINIMAL.replace(
        "node host H1 mac=00:1a:2b:3c:4d:5e",
        "node attacker A1 mac=00:00:5e:00:53:66",
    ).replace("attach H1 SW1.p2 class=host", "attach A1 SW1.p2 class=host")
    text = text.replace("run 4", "at 0 attack A1 kill-router target=R1\nrun 4")
    broken = tmp_path / "broken.txt"
    broken.write_text(text)
    assert run_command(["run", str(broken)]) == 2
    assert "invariant" in capsys.readouterr().err


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
    ],
)
def test_out_of_range_values_rejected_at_parse(old, new):
    # Each of these once escaped as a traceback (OverflowError, a ValueError
    # at build time), exhausted memory building the port set, or was
    # accepted with its trailing policy tokens silently dropped.
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
    ],
)
def test_run_command_reports_bad_values_by_line(tmp_path, capsys, old, new, line):
    bad = tmp_path / "bad.txt"
    bad.write_text(MINIMAL.replace(old, new, 1))
    assert run_command(["run", str(bad)]) == 1
    assert f"line {line}: " in capsys.readouterr().err
