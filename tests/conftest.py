import heapq
from pathlib import Path
from unittest import mock

import pytest

import slaacsim.scenario

from slaacsim.addressing import MacAddress, derive_eui64
from slaacsim.defense import PortClass, SwitchPort
from slaacsim.engine import Deliver, Engine, SimInvariantError, TraceRecord
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


class EveryTimerEngine(Engine):
    """The queue without a horizon: every timer is booked, however long
    after the end of the run it is due."""

    def set_timer(self, node_id, timer, at_ms):
        if at_ms < self.now:
            raise SimInvariantError(f"cannot schedule into the past ({at_ms} < {self.now})")
        heapq.heappush(self._queue, (at_ms, next(self._seq), node_id, timer))


def build_on(sc, engine_class) -> Engine:
    """``sc`` built on an ``engine_class`` in place of Engine."""
    with mock.patch.object(slaacsim.scenario, "Engine", engine_class):
        return build_engine(sc)


def run_output(sc, engine_class, t_end_ms=None) -> str:
    """The trace and metrics text of ``sc`` built on an ``engine_class`` and
    executed to ``t_end_ms``, by default its run time."""
    engine = build_on(sc, engine_class)
    metrics = engine.execute(sc.run_ms if t_end_ms is None else t_end_ms)
    return engine.trace_text() + "\n".join(metrics.to_lines())


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


def queued_deliveries(engine: Engine):
    """Pending deliveries in event order, as (time, receiver, message): one
    row per receiver of each queued emission, in node order."""
    return [
        (at, dst, action.msg)
        for (at, *_, action) in sorted(engine._queue)
        if isinstance(action, Deliver)
        for dst in action.dsts
    ]


def queued_timers(engine: Engine):
    """Pending timers in event order, as (time, node, timer)."""
    return [
        (at, node_id, timer)
        for (at, _seq, node_id, timer) in sorted(engine._queue)
        if node_id is not None
    ]


def records(engine: Engine, kind: str):
    """The records of one kind, in trace order, with their fields named."""
    return [TraceRecord._make(r) for r in engine.trace_records if r[2] == kind]


def attrs(record) -> dict:
    return dict(TraceRecord._make(record).attrs)


@pytest.fixture
def engine():
    return Engine(link_latency_ms=1, seed=0, two_hour_rule=False, switch_id="SW1")
