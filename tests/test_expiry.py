"""Lifetime expiry: generated short-lifetime links run alike on today's
host and on the reference simulator, which sweeps on every expiry tick and
keeps one heap; each host's expiry floor stays at or below its earliest live
expiry after every RA delivery and every timer it is served; and on a long
link nearly every expiry tick skips its sweep."""

import random
from unittest import mock

from conftest import SCENARIO_DIR, counting, link_text, matches_reference

import slaacsim.engine as engine_module
from slaacsim.host import NO_EXPIRY, AddressState, Host
from slaacsim.messages import Timer
from slaacsim.scenario import build_engine, parse_scenario

EXPIRY_SEEDS = range(150)


def expiry_text(seed: int) -> str:
    """A link where lifetimes run out within the run: 1-2 routers with
    router lifetimes of 3-40 s and valid lifetimes of 5-60 s, advertising
    every 2-13 s; 1-3 hosts; attacker A1 whose persona advertises R1's
    prefix with a valid lifetime of 1-10 s. The script toggles routers,
    arms kill-router and the forging modes, and the two-hour rule and RA
    Guard on A1's port are drawn. Runs last at most 300 s."""
    rng = random.Random(seed)
    routers = rng.randint(1, 2)
    hosts = rng.randint(1, 3)
    run_s = rng.randint(30, 300)
    lines = [f"switch SW1 ports={routers + hosts + 1}"]
    for r in range(1, routers + 1):
        valid = rng.randint(5, 60)
        lines.append(
            f"node router R{r} mac=00:00:5e:00:53:{r:02x} prefix=2001:db8:{rng.randint(1, 2)}::/64"
            f" lifetime={rng.randint(3, 40)} interval={rng.randint(2, 13)}"
            f" valid={valid} preferred={rng.randint(0, valid)}"
            + (" jitter=1" if rng.random() < 0.3 else "")
        )
    lines += [f"node host H{h} mac=02:00:00:00:00:{h:02x}" for h in range(1, hosts + 1)]
    persona_valid = rng.randint(1, 10)
    lines.append(
        "node attacker A1 mac=00:00:5e:00:53:66 persona-prefix=2001:db8:1::/64"
        f" persona-lifetime={rng.randint(0, 40)} persona-interval={rng.randint(2, 13)}"
        f" persona-valid={persona_valid} persona-preferred={rng.randint(0, persona_valid)}"
    )
    lines += [f"attach R{r} SW1.p{r} class=router" for r in range(1, routers + 1)]
    lines += [f"attach H{h} SW1.p{routers + h} class=host" for h in range(1, hosts + 1)]
    attacker_port = f"SW1.p{routers + hosts + 1}"
    lines.append(f"attach A1 {attacker_port} class=host")
    if rng.random() < 0.5:
        lines.append("policy global two-hour-rule")
    if rng.random() < 0.2:
        lines.append(f"policy {attacker_port} ra-guard")
    for _ in range(rng.randint(1, 5)):
        at = rng.randint(1, run_s)
        step = rng.choice(["disable", "enable", "kill-router", "forge", "passive", "measure"])
        if step in ("disable", "enable"):
            lines.append(f"at {at} {step} R{rng.randint(1, routers)}")
        elif step == "kill-router":
            lines.append(f"at {at} attack A1 kill-router target=R{rng.randint(1, routers)}")
        elif step == "forge":
            lines.append(f"at {at} attack A1 {rng.choice(['fake-router', 'blackhole'])}")
        elif step == "passive":
            lines.append(f"at {at} attack A1 passive")
        else:
            lines.append(f"at {at} measure")
    lines.append(f"run {run_s} seed={seed}")
    return "".join(line + "\n" for line in lines)


def test_generated_expiries_match_the_sweep_on_every_tick_and_the_heap_queue():
    expired = {"router-removed": 0, "addr-abandoned": 0}
    for seed in EXPIRY_SEEDS:
        output = matches_reference(parse_scenario(expiry_text(seed)))
        for line in output.splitlines():
            kind = line.split(" kind=", 1)[-1].split(" ", 1)[0]
            if kind in expired and line.endswith(" reason=expired"):
                expired[kind] += 1
    # The set reaches both kinds of expiry, so the reference's sweep is tested.
    assert all(expired.values()), expired


def earliest_expiry(host: Host):
    """The earliest expiry a host holds: a default router's, or the valid
    lifetime's end of an address that is not abandoned."""
    ends = [router.expires_at for router in host.router_list.values()]
    ends += [
        entry.valid_until
        for entry in host.addresses.values()
        if entry.state is not AddressState.ABANDONED and entry.valid_until is not None
    ]
    return min(ends, default=NO_EXPIRY)


def test_floor_never_passes_a_live_expiry():
    # A floor changes only where receive_ra lowers it and where an expiry
    # tick (Host.on_timer) sweeps, so every host's floor is checked after
    # each call of either.
    checks = []

    def check_floors(ctx):
        checks.append(ctx.now)
        for node in ctx.nodes.values():
            if isinstance(node, Host):
                assert node.expiry_floor <= earliest_expiry(node), (ctx.now, node.node_id)

    receive_ra, on_timer = engine_module.receive_ra, Host.on_timer

    def checked_receive_ra(ctx, *args):
        refreshed_only = receive_ra(ctx, *args)
        check_floors(ctx)
        return refreshed_only

    def checked_on_timer(host, ctx, *args):
        on_timer(host, ctx, *args)
        check_floors(ctx)

    texts = [path.read_text() for path in sorted(SCENARIO_DIR.glob("*.txt"))]
    texts += [expiry_text(seed) for seed in EXPIRY_SEEDS]
    texts.append(link_text(10, guard=True, run_s=7200))
    with mock.patch.object(engine_module, "receive_ra", checked_receive_ra), \
            mock.patch.object(Host, "on_timer", checked_on_timer):
        for text in texts:
            sc = parse_scenario(text)
            engine = build_engine(sc)
            checked = len(checks)
            engine.execute(sc.run_ms)
            assert len(checks) > checked


def test_sweeps_run_for_at_most_one_percent_of_expiry_ticks():
    # Every RA makes each of the 10 hosts book a router and an address
    # tick, and almost none of them finds anything expired.
    sc = parse_scenario(link_text(10, guard=True, run_s=7200))
    with counting(Host, "on_timer") as ticks, counting(Host, "tick_lifetimes") as sweeps:
        build_engine(sc).execute(sc.run_ms)
    expiry_ticks = sum(1 for call in ticks.call_args_list if call.args[2] is Timer.EXPIRY)
    assert expiry_ticks > 8000
    assert 0 < sweeps.call_count <= expiry_ticks // 100, (sweeps.call_count, expiry_ticks)


def expiry_bookings(text: str, run) -> tuple[list[int], object]:
    """The due times of the ``expiry`` ticks booked while ``run(engine, end)``
    steps the built link, and the engine."""
    sc = parse_scenario(text)
    engine = build_engine(sc)
    with counting(engine_module.Engine, "set_timer") as booked:
        run(engine, sc.run_ms)
    return [call.args[3] for call in booked.call_args_list if call.args[2] is Timer.EXPIRY], engine


def lifetime_records(engine) -> int:
    """The records of the lifetimes receive_ra set: one per router added or
    refreshed, address lifetime updated and SLAAC address formed."""
    kinds = ("router-added", "router-refreshed", "addr-lifetime")
    return sum(
        1 for _t, _node, kind, values in engine.trace_records
        if kind in kinds or (kind == "dad-start" and not str(values[0]).startswith("fe80:"))
    )


def test_no_expiry_past_the_end_is_booked():
    # A 60 s run of a fanout-like link: every router and address lifetime
    # outlasts the run, so receive_ra makes no booking call for one.
    text = link_text(10, guard=False, run_s=60)
    due, engine = expiry_bookings(text, engine_module.Engine.execute)
    assert due == [] and lifetime_records(engine) > 100
    # Stepped with run_until alone the engine has no end, and every
    # lifetime receive_ra sets is booked.
    due, engine = expiry_bookings(text, engine_module.Engine.run_until)
    assert len(due) == lifetime_records(engine) > 100


# With no link latency R1's first RA sets H1's router and address ends at
# 3000 and 5000 ms; its answer to H1's RS at 1000 ms refreshes them to 4000
# and 6000.
AT_THE_END = """\
link-latency 0
switch SW1 ports=2
node router R1 mac=00:00:5e:00:53:01 prefix=2001:db8:1::/64 lifetime=3 valid=5 preferred=4 interval=600
node host H1 mac=00:1a:2b:3c:4d:5e
attach R1 SW1.p1 class=router
attach H1 SW1.p2 class=host
"""


def test_an_expiry_due_at_the_end_is_booked_and_fires():
    for run_s, booked, fired in (
        (4, [3000, 4000], "t=4000 node=H1 kind=router-removed"),
        (5, [3000, 5000, 4000], "t=4000 node=H1 kind=router-removed"),
        (6, [3000, 5000, 4000, 6000], "t=6000 node=H1 kind=addr-abandoned"),
    ):
        due, engine = expiry_bookings(AT_THE_END + f"run {run_s}\n", engine_module.Engine.execute)
        assert due == booked, run_s
        assert fired + " " in engine.trace_text(), run_s
