from pathlib import Path

import pytest

from slaacsim.engine import Deliver, Engine, TimerFire
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


def queued_deliveries(engine: Engine):
    """Pending point-to-point deliveries in event order."""
    return [
        (at, action.dst, action.msg)
        for (at, _seq, action) in sorted(engine._queue)
        if isinstance(action, Deliver)
    ]


def queued_timers(engine: Engine):
    """Pending timers in event order, as (time, node, timer)."""
    return [
        (at, action.node, action.timer)
        for (at, _seq, action) in sorted(engine._queue)
        if isinstance(action, TimerFire)
    ]


def records(engine: Engine, kind: str):
    return [r for r in engine.trace_records if r.kind == kind]


def attrs(record) -> dict:
    return dict(record.attrs)


@pytest.fixture
def engine():
    return Engine()
