"""The paper's result as a checked table: which first-hop policy stops which
attack. Every cell is one template link (router R1, victim H1, attacker A1)
with one attack armed at 5 s and one defense in place, measured at 7 s and,
in a run of its own, at 12 s, since a flag stays set once a measure sets it.
R1 re-advertises at 10 s.

The table is pinned in ``tests/golden/policy_matrix.txt`` and shown in the
README. After a deliberate change to a cell, rewrite the golden file with

    PYTHONPATH=src python tests/test_policy_matrix.py

and copy it into the README.
"""

from pathlib import Path

from slaacsim.scenario import build_engine, parse_scenario

GOLDEN = Path(__file__).resolve().parent / "golden" / "policy_matrix.txt"
README = Path(__file__).resolve().parent.parent / "README.md"

R1_MAC, A1_MAC = "00:00:5e:00:53:01", "00:00:5e:00:53:66"
ROUTER = f"node router R1 mac={R1_MAC} prefix=2001:db8:1::/64 lifetime=1800 preference=medium interval=10"
HOST = "node host H1 mac=00:1a:2b:3c:4d:5e"
PERSONA = (
    f"node attacker A1 mac={A1_MAC} persona-prefix=2001:db8:bad::/64 persona-lifetime=9000"
    " persona-preference=high persona-interval=10 persona-routes=yes"
)
# A forged advertisement for R1's own prefix that cuts the address to 1 s.
CUTTER = (
    f"node attacker A1 mac={A1_MAC} persona-prefix=2001:db8:1::/64 persona-lifetime=0"
    " persona-valid=1 persona-preferred=1 persona-interval=1000"
)

# Row label -> the attack directive's mode and target.
ATTACKS = {
    "`kill-router`": "kill-router target=R1",
    "`fake-router`": "fake-router",
    "`blackhole`": "blackhole",
    "`dual-stack`": "dual-stack",
    "lifetime cut": "blackhole",
}
DEFENSES = (
    "none",
    "`ra-guard`",
    "`acl=<R1 mac>`",
    "`send=on`",
    "`two-hour-rule`",
    "`ipv6=off`",
    "`R1 preference=high`",
    "`acl=<A1 mac>`",
)
MEASURES_S = (7, 12)


def cell_scenario(attack: str, defense: str, run_s: int) -> str:
    """The template link under ``attack`` (a row label) and ``defense`` (a
    column label), run for ``run_s`` seconds and measured at its end."""
    router, host, attacker = ROUTER, HOST, PERSONA
    nodes, tail = [], []
    if attack == "lifetime cut":
        router += " valid=10000 preferred=10000"
        attacker = CUTTER
    if defense == "`send=on`":
        host += " send=on"
        tail += ["key R1 k1", "trust k1"]
    elif defense == "`ipv6=off`":
        host += " ipv6=off"
    elif defense == "`R1 preference=high`":
        router = router.replace("preference=medium", "preference=high")
    elif defense == "`ra-guard`":
        tail.append("policy SW1.p3 ra-guard")
    elif defense == "`acl=<R1 mac>`":
        tail.append(f"policy SW1.p3 acl={R1_MAC}")
    elif defense == "`acl=<A1 mac>`":
        tail.append(f"policy SW1.p3 acl={A1_MAC}")
    elif defense == "`two-hour-rule`":
        tail.append("policy global two-hour-rule")
    if attack == "`dual-stack`":
        host += " ipv4=10.0.0.2 gw4=GW1"
        nodes.append("node router GW1 mac=00:00:5e:00:53:02 ra=off")
    nodes = [router, host, attacker, *nodes]
    attaches = [
        f"attach {line.split()[2]} SW1.p{port} class={line.split()[1].replace('attacker', 'host')}"
        for port, line in enumerate(nodes, start=1)
    ]
    lines = [
        f"switch SW1 ports={len(nodes)}", *nodes, *attaches, *tail,
        f"at 5 attack A1 {ATTACKS[attack]}", f"run {run_s}",
    ]
    return "\n".join(lines) + "\n"


def cell_flags(attack: str, defense: str, run_s: int) -> str:
    """The flags the cell's run ends with: D for dos_success, M for
    mitm_success, X for dualstack_success, or - for none."""
    sc = parse_scenario(cell_scenario(attack, defense, run_s))
    metrics = build_engine(sc).execute(sc.run_ms)
    flags = zip("DMX", (metrics.dos_success, metrics.mitm_success, metrics.dualstack_success))
    return "".join(letter for letter, raised in flags if raised) or "-"


def table() -> str:
    """The matrix as a Markdown table: each cell is its flags at 7 s, then at 12 s."""
    rows = [
        "| attack \\ defense | " + " | ".join(DEFENSES) + " |",
        "|" + " --- |" * (len(DEFENSES) + 1),
    ]
    for attack in ATTACKS:
        cells = [" / ".join(cell_flags(attack, d, s) for s in MEASURES_S) for d in DEFENSES]
        rows.append(f"| {attack} | " + " | ".join(cells) + " |")
    return "\n".join(rows) + "\n"


def test_every_cell_matches_the_golden_table():
    assert table() == GOLDEN.read_text()


def test_readme_shows_the_golden_table():
    assert GOLDEN.read_text() in README.read_text()


def test_a_cell_is_the_template_with_its_attack_and_defense():
    text = cell_scenario("`dual-stack`", "`send=on`", 12)
    assert text.splitlines() == [
        "switch SW1 ports=4",
        ROUTER,
        HOST + " send=on ipv4=10.0.0.2 gw4=GW1",
        PERSONA,
        "node router GW1 mac=00:00:5e:00:53:02 ra=off",
        "attach R1 SW1.p1 class=router",
        "attach H1 SW1.p2 class=host",
        "attach A1 SW1.p3 class=host",
        "attach GW1 SW1.p4 class=router",
        "key R1 k1",
        "trust k1",
        "at 5 attack A1 dual-stack",
        "run 12",
    ]


if __name__ == "__main__":
    GOLDEN.write_text(table())
