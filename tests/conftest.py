import contextlib
from pathlib import Path
from unittest import mock

import pytest

import reference
import slaacsim.scenario

from slaacsim.addressing import MacAddress, derive_eui64
from slaacsim.defense import PortClass, SwitchPort
from slaacsim.engine import Deliver, Engine, ScenarioError, TraceRecord
from slaacsim.host import Host
from slaacsim.router import Router
from slaacsim.scenario import build_engine, parse_scenario

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def scenario_path(name: str) -> Path:
    return SCENARIO_DIR / f"{name}.txt"


def load(name: str):
    return parse_scenario(scenario_path(name).read_text())


def run_scenario(name: str, seed=None):
    """Parse, build, and execute one shipped scenario; returns (scenario,
    engine, metrics)."""
    sc = load(name)
    engine = build_engine(sc, seed=seed)
    metrics = engine.execute(sc.run_ms)
    return sc, engine, metrics


def link_text(hosts: int, guard: bool, run_s: int) -> str:
    """A generated link like the benchmark's: R1 signing with trusted key k1,
    ``hosts`` hosts and attacker A1 running fake-router from t=5 s. With
    ``guard``, every host checks signatures, A1's port has RA Guard and the
    two-hour rule is on; without it, only H1 checks signatures."""
    lines = [
        f"switch SW1 ports={hosts + 2}",
        "node router R1 mac=00:00:5e:00:53:01 prefix=2001:db8:1::/64 interval=10 jitter=1",
        *(
            f"node host H{i} mac=02:00:00:00:{i >> 8:02x}:{i & 0xff:02x}"
            + (" send=on" if guard or i == 1 else "")
            for i in range(1, hosts + 1)
        ),
        "node attacker A1 mac=00:00:5e:00:53:66 persona-prefix=2001:db8:bad::/64"
        " persona-lifetime=9000 persona-preference=high persona-interval=10 persona-routes=yes",
        "attach R1 SW1.p1 class=router",
        *(f"attach H{i} SW1.p{i + 1} class=host" for i in range(1, hosts + 1)),
        f"attach A1 SW1.p{hosts + 2} class=host",
        *([f"policy SW1.p{hosts + 2} ra-guard", "policy global two-hour-rule"] if guard else []),
        "key R1 k1",
        "trust k1",
        "at 5 attack A1 fake-router",
        f"run {run_s} seed=7",
    ]
    return "".join(line + "\n" for line in lines)


@contextlib.contextmanager
def counting(owner, name):
    """Count the calls of ``owner.name`` made inside the block, each still
    made as written: a mock whose ``call_count`` shows that the code ran."""
    original = getattr(owner, name)
    with mock.patch.object(owner, name, autospec=True, side_effect=original) as calls:
        yield calls


def build_on(sc, engine_class, host_class=Host) -> Engine:
    """``sc`` built on an ``engine_class`` in place of Engine, with each host
    a ``host_class`` in place of Host."""
    with mock.patch.object(slaacsim.scenario, "Engine", engine_class), \
            mock.patch.object(slaacsim.scenario, "Host", host_class):
        return build_engine(sc)


def run_output(sc, t_end_ms=None) -> str:
    """The trace and metrics text of ``sc`` executed to ``t_end_ms``, by
    default its run time, or the text of the scenario error that ends the
    run (an attack step that replays an RA its attacker has not captured
    yet). A SimInvariantError is never caught. ``reference.run`` gives the
    same text."""
    try:
        engine = build_engine(sc)
        metrics = engine.execute(sc.run_ms if t_end_ms is None else t_end_ms)
    except ScenarioError as exc:
        return f"ScenarioError: {exc}"
    return engine.trace_text() + "\n".join(metrics.to_lines())


def matches_reference(sc, t_end_ms=None) -> str:
    """``run_output(sc, t_end_ms)``, once it is checked to equal the output
    of the reference simulator (tests/reference.py) on the same input."""
    output = run_output(sc, t_end_ms)
    assert output == reference.run(sc, t_end_ms), f"t_end_ms={t_end_ms}"
    return output


def eui64_host(node_id: str, mac: MacAddress) -> Host:
    """An IPv6-only host without SEND whose identifier is the EUI-64 of ``mac``,
    as a bare host line builds it."""
    return Host(node_id, derive_eui64(mac), ipv6_enabled=True, ipv4=None, send_only=False)


def attach(engine: Engine, node) -> None:
    """Put a hand-built node on the link at the next free port ``p<n>``: a
    router-class port for a Router, a host-class one for any other node,
    with neither RA Guard nor an ACL."""
    port_class = PortClass.ROUTER_FACING if isinstance(node, Router) else PortClass.HOST_FACING
    engine.add_node(node, SwitchPort(f"p{len(engine.nodes) + 1}", port_class, False, None))


def queued(engine: Engine):
    """Pending entries in service order, as (time, node id, action): the due
    times in order, each time's entries in booking order. The node id is
    None for anything but a timer. Checks first that the heap holds the time
    of each bucket once and nothing else, and that no bucket is empty."""
    assert sorted(engine._times) == sorted(engine._buckets)
    assert all(engine._buckets.values())
    return [
        (at, node_id, action)
        for at, bucket in sorted(engine._buckets.items())
        for node_id, action in bucket
    ]


def queued_deliveries(engine: Engine):
    """Pending deliveries in event order, as (time, receiver, message): one
    row per receiver of each queued emission, in node order."""
    return [
        (at, dst, action.msg)
        for (at, _, action) in queued(engine)
        if isinstance(action, Deliver)
        for dst in action.dsts
    ]


def queued_timers(engine: Engine):
    """Pending timers in event order, as (time, node, timer)."""
    return [(at, node_id, timer) for (at, node_id, timer) in queued(engine) if node_id is not None]


def records(engine: Engine, kind: str):
    """The records of one kind, in trace order, with their fields named."""
    return [TraceRecord._make(r) for r in engine.trace_records if r[2] == kind]


def attrs(record) -> dict:
    return dict(TraceRecord._make(record).attrs)


@pytest.fixture
def engine():
    return Engine(link_latency_ms=1, seed=0, two_hour_rule=False, switch_id="SW1")
