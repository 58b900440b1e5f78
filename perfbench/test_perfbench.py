"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import pytest

import layers
import workloads
from slaacsim import scenario


def _case(name: str, run: str = "") -> workloads.Case:
    text = (workloads.SCENARIO_DIR / f"{name}.txt").read_text()
    if run:
        text = "".join(
            run + "\n" if line.startswith("run ") else line + "\n" for line in text.splitlines()
        )
    return workloads.Case(name, text)


def _traced(case: workloads.Case) -> dict[str, float]:
    checker = workloads.Checker("corpus", workloads.DEFAULT_SEED)
    checker.recorded = {}
    workload = workloads.Workload("corpus", (case,))
    tracer = layers.Tracer()
    with layers.installed(tracer):
        sample = workloads.run_iteration(workload, checker, tracer.region)
    assert sample.failures == []
    return layers.layer_metrics(tracer, sample.deliveries, sample.trace_records)


def _counts(metrics: dict[str, float]) -> dict[str, float]:
    return {name: value for name, value in metrics.items() if not name.endswith("_s")}


def _originals() -> list:
    return [vars(owner)[attr] for _name, owner, attr in layers.TARGETS]


@pytest.mark.parametrize("name", ["fanout", "longrun"])
def test_generator_is_deterministic_and_parses(name):
    case = workloads.generate(name, 7)
    assert workloads.generate(name, 7) == case
    assert workloads.generate(name, 8).text != case.text
    sc = scenario.parse_scenario(case.text)
    hosts = [n for n in sc.nodes if n.node_id.startswith("H")]
    assert len({str(h.mac) for h in hosts}) == len(hosts)
    assert [f"{key}={value}" for key, value in sc.expects] == list(case.outcome)


def test_wrappers_restore_every_original():
    before = _originals()
    tracer = layers.Tracer()
    with pytest.raises(ZeroDivisionError):
        with layers.installed(tracer):
            assert _originals() != before
            1 / 0
    assert _originals() == before
    _traced(_case("attack_mitm"))
    assert _originals() == before


def test_missing_wrap_target_is_an_error(monkeypatch):
    before = _originals()
    monkeypatch.setattr(layers, "TARGETS", layers.TARGETS + (("x.gone", scenario, "gone"),))
    with pytest.raises(LookupError, match="gone"):
        with layers.installed(layers.Tracer()):
            pass
    monkeypatch.undo()
    assert _originals() == before


def test_counts_differ_iff_simulated_work_differs():
    first = _traced(_case("attack_mitm"))
    assert _counts(_traced(_case("attack_mitm"))) == _counts(first)
    longer = _traced(_case("attack_mitm", run="run 40"))
    assert _counts(longer) != _counts(first)
    assert longer["engine.deliveries"] > first["engine.deliveries"]


def test_self_times_account_for_traced_wall():
    metrics = _traced(_case("attack_kill"))
    layer_s = sum(
        value for name, value in metrics.items()
        if name.endswith("_s") and not name.startswith("tracing.")
    )
    assert layer_s + metrics["tracing.unattributed_s"] == pytest.approx(metrics["tracing.wall_s"])
    assert all(metrics[f"{name}_calls"] > 0 for name in ("scenario.parse", "engine.execute"))
