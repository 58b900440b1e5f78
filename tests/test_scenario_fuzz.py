"""Generated scenarios: the canonical writer round-trips any valid scenario,
every valid one runs alike on the product and on the reference simulator
(which queues every timer on one heap), and no malformed scenario ends in an
exception other than a scenario or invariant error."""

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import matches_reference
from mutants import OUTCOMES, corpus_mutants, parse_outcome, recorded_texts

from slaacsim.engine import SimInvariantError
from slaacsim.scenario import ScenarioError, build_engine, parse_scenario, print_scenario

ON_OFF = st.sampled_from(["on", "off", "yes", "no"])


def _seconds_text(ms: int) -> str:
    # Deliberately non-canonical ("3.000"), so printing has work to do.
    return f"{ms // 1000}.{ms % 1000:03d}"


times = st.integers(0, 10**6).map(_seconds_text)
intervals = st.integers(1, 10**6).map(_seconds_text)


@st.composite
def _lifetimes(draw, key_prefix=""):
    valid = draw(st.integers(0, 10**6))
    preferred = draw(st.integers(0, valid))
    return [f"{key_prefix}valid={valid}", f"{key_prefix}preferred={preferred}"]


@st.composite
def _options(draw, required, optional):
    """``required`` plus a drawn subset of ``optional`` (a list of option
    lists, each included whole or not at all), in a drawn order."""
    chosen = list(required)
    for group in optional:
        if draw(st.booleans()):
            chosen.extend(group)
    return draw(st.permutations(chosen))


@st.composite
def scenario_texts(draw):
    kinds = draw(st.lists(st.sampled_from(["router", "host", "attacker"]), min_size=1, max_size=6))
    ids = [f"{kind[0].upper()}{i}" for i, kind in enumerate(kinds)]
    gateways = [i for i, kind in zip(ids, kinds) if kind != "host"]
    lines = []
    ra_senders = []  # the nodes a kill-router attack may target: routers with RA on, attackers
    personas = []  # the attackers a forging attack may arm
    for i, (node_id, kind) in enumerate(zip(ids, kinds)):
        mac = [f"mac=02:00:5e:00:53:{i:02x}"]
        if kind == "router":
            prefixes = draw(st.lists(st.integers(0, 0xFFFF), min_size=1, max_size=3))
            optional = [
                [f"ip=fe80::{i + 1:x}"],
                ["prefix=" + ",".join(f"2001:db8:{p:x}::/64" for p in prefixes)],
                [f"lifetime={draw(st.integers(0, 65535))}"],
                [f"preference={draw(st.sampled_from(['low', 'medium', 'high']))}"],
                [f"interval={draw(intervals)}"],
                draw(_lifetimes()),
                [f"routes={draw(ON_OFF)}"],
                [f"ra={draw(ON_OFF)}"],
                [f"jitter={draw(times)}"],
            ]
        elif kind == "host":
            optional = [[f"ipv6={draw(ON_OFF)}"], [f"send={draw(ON_OFF)}"]]
            if gateways:
                optional.append([f"ipv4=10.0.0.{i + 1}", f"gw4={draw(st.sampled_from(gateways))}"])
            if draw(st.booleans()):
                optional.append([f"iid={draw(st.integers(0, 2**64 - 1)):016x}"])
            else:
                optional.append(["cga-key=k", f"cga-modifier={draw(st.integers(-5, 5))}"])
        else:
            optional = [
                [f"ip=fe80::{i + 1:x}"],
                [f"persona-prefix=2001:db8:{draw(st.integers(0, 0xFFFF)):x}::/64"],
                [f"persona-lifetime={draw(st.integers(0, 65535))}"],
                [f"persona-preference={draw(st.sampled_from(['low', 'medium', 'high']))}"],
                [f"persona-interval={draw(intervals)}"],
                [f"persona-routes={draw(ON_OFF)}"],
                draw(_lifetimes("persona-")),
            ]
        options = draw(_options(mac, optional))
        lines.append(" ".join([f"node {kind} {node_id}", *options]))
        if kind == "attacker" or (kind == "router" and not {"ra=off", "ra=no"} & set(options)):
            ra_senders.append(node_id)
        if any(o.startswith("persona-") for o in options):
            personas.append(node_id)
    ports = draw(st.integers(len(ids), len(ids) + 4))
    lines.insert(0, f"switch SW1 ports={ports}")
    lines.insert(0, f"link-latency {draw(times)}")
    for port, node_id in enumerate(ids, start=1):
        lines.append(f"attach {node_id} SW1.p{port} class={draw(st.sampled_from(['router', 'host']))}")
        if draw(st.booleans()):
            lines.append(f"policy SW1.p{port} ra-guard")
    if draw(st.booleans()):
        lines.append("policy global two-hour-rule")
    routers = [i for i, kind in zip(ids, kinds) if kind == "router"]
    for router in routers:
        if draw(st.booleans()):
            lines.append(f"key {router} k{router}")
            if draw(st.booleans()):
                lines.append(f"trust k{router}")
    # A step may come at any time up to the end of the run, never after it.
    run_ms = draw(st.integers(0, 10**6))
    step_times = st.integers(0, run_ms).map(_seconds_text)
    for _ in range(draw(st.integers(0, 3))):
        at = f"at {draw(step_times)}"
        if routers and draw(st.booleans()):
            verb = draw(st.sampled_from(["enable", "disable"]))
            lines.append(f"{at} {verb} {draw(st.sampled_from(routers))}")
        else:
            lines.append(f"{at} measure")
    for attacker in (i for i, kind in zip(ids, kinds) if kind == "attacker"):
        targets = [t for t in ra_senders if t != attacker]
        if draw(st.booleans()):
            modes = ["passive"]
            if targets:
                modes.append("kill-router")
            if attacker in personas:
                modes += ["fake-router", "blackhole", "dual-stack"]
            mode = draw(st.sampled_from(modes))
            target = f" target={draw(st.sampled_from(targets))}" if mode == "kill-router" else ""
            lines.append(f"at {draw(step_times)} attack {attacker} {mode}{target}")
    if draw(st.booleans()):
        lines.append("expect dos_success=false")
    seed = f" seed={draw(st.integers(-5, 2**32))}" if draw(st.booleans()) else ""
    lines.append(f"run {_seconds_text(run_ms)}{seed}")
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None, derandomize=True)
@given(scenario_texts())
def test_canonical_text_round_trips(text):
    sc = parse_scenario(text)
    canonical = print_scenario(sc)
    assert parse_scenario(canonical) == sc
    assert print_scenario(parse_scenario(canonical)) == canonical
    build_engine(sc)


# Generated runs stop here: past it a periodic router only repeats itself.
GENERATED_RUN_MS = 20_000


@settings(max_examples=100, deadline=None, derandomize=True)
@given(scenario_texts())
def test_generated_scenarios_run_alike_with_every_timer_queued(text):
    sc = parse_scenario(text)
    matches_reference(sc, min(sc.run_ms, GENERATED_RUN_MS))


# Mutants run at most this long: a mutated `run 65536` is valid, and the
# extra simulated hours only repeat the periodic handlers at a cost of
# seconds each.
MAX_RUN_MS = 600_000


def test_corpus_mutations_fail_only_as_scenario_or_invariant_errors():
    escaped = []
    for mutant in corpus_mutants():
        try:
            sc = parse_scenario(mutant)
            build_engine(sc).execute(min(sc.run_ms, MAX_RUN_MS))
        except (ScenarioError, SimInvariantError):
            pass
        except Exception as exc:  # collected, so one failure shows every escape
            escaped.append(f"{type(exc).__name__}: {exc}\n{mutant}")
    assert not escaped, escaped[:3]


def test_corpus_mutants_parse_as_recorded():
    # The recorded outcomes pin each mutant's error text, or its canonical
    # text when it is valid, and then each value bound's error text;
    # `python tests/mutants.py` rewrites them.
    recorded = OUTCOMES.read_text().splitlines()
    texts = recorded_texts()
    assert len(recorded) == len(texts)
    for i, (text, want) in enumerate(zip(texts, recorded)):
        got = parse_outcome(text)
        assert got == want, f"text {i} (line {i + 1} of {OUTCOMES.name}):\n{text}"
