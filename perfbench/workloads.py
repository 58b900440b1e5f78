"""Workloads and output checks for the slaacsim benchmark.

`fanout` and `longrun` are scenarios generated from the benchmark seed;
`corpus` is the shipped scenario files. The program only ever receives
scenario text. One call to `run_iteration` is one workload run, driven through
the public API in the order `slaacsim run` uses: parse_scenario ->
build_engine -> Engine.execute -> trace_text -> evaluate_expects.
"""

from __future__ import annotations

import contextlib
import hashlib
import heapq
import ipaddress
import json
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, ContextManager

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCENARIO_DIR = ROOT / "scenarios"
GOLDEN = {"attack_kill": ROOT / "tests" / "golden" / "attack_kill.trace"}
EXPECTED = HERE / "expected.json"

if not (SRC / "slaacsim").is_dir():
    raise SystemExit(f"error: no slaacsim sources under {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from slaacsim import scenario  # noqa: E402
from slaacsim.engine import SimInvariantError  # noqa: E402

WORKLOADS = ("fanout", "longrun", "corpus")
DEFAULT_SEED = 1

# Sizes: one fanout or longrun run takes about 1.2 s of host time on a 2-core
# x86 VM under CPython 3.11, and one corpus run about 0.12 s. Single runs
# there vary by +-15% with the neighbours' load, so a measurement takes the
# median of many short runs rather than a few long ones.
FANOUT_HOSTS = 100
FANOUT_RUN_S = 60
LONGRUN_HOSTS = 10
LONGRUN_RUN_S = 2 * 3600
CORPUS_PASSES = 10
SETUP_REPEATS = 10
REFERENCE_ITEMS = 4000

_ROUTER = (
    "node router R1 mac=00:00:5e:00:53:01 prefix=2001:db8:1::/64 lifetime=1800"
    " preference=medium interval=10 jitter=1"
)
_ATTACKER = (
    "node attacker A1 mac=00:00:5e:00:53:66 persona-prefix=2001:db8:bad::/64"
    " persona-lifetime=9000 persona-preference=high persona-interval=10 persona-routes=yes"
)


@dataclass(frozen=True)
class Case:
    """One scenario a workload runs, and what its run must produce."""

    name: str
    text: str
    # Render the trace inside the timed region, as `slaacsim run --trace` does.
    render_timed: bool = True
    # Outcome lines (`H1.default_router=A1`, `mitm_success=true`) the run must print.
    outcome: tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    cases: tuple[Case, ...]
    passes: int = 1
    # Extra set-ups timed after each run, for a steady setup_s where one run
    # holds a single set-up of a few milliseconds.
    setup_repeats: int = 0


@dataclass
class Sample:
    """Host time and work of one workload run. Times are nanoseconds."""

    wall_ns: int = 0  # the timed region: scenario text to evaluated expects
    setup_ns: int = 0  # scenario text to a bootstrapped engine
    execute_ns: int = 0  # Engine.execute
    render_ns: int = 0  # trace rendering outside the timed region (longrun)
    deliveries: int = 0  # delivered + dropped
    trace_records: int = 0
    attempted: int = 0  # scenario runs
    failures: list[str] = field(default_factory=list)  # one entry per failed scenario run


def _mac(value: int) -> str:
    return ":".join(f"{b:02x}" for b in value.to_bytes(6, "big"))


def generate(name: str, seed: int) -> Case:
    """Scenario text for `fanout` or `longrun`. The seed picks the host MACs
    (distinct, locally administered unicast) and the scenario's run seed,
    which moves R1's jittered advertisement schedule."""
    rng = random.Random(seed)
    if name == "fanout":
        hosts = FANOUT_HOSTS
        # H1 checks signatures, so signing and verification run here too,
        # on a few hundred advertisements.
        send = {1}
        policies = []
        run_s = FANOUT_RUN_S
        outcome = ["H1.default_router=R1"]
        outcome += [f"H{i}.default_router=A1" for i in range(2, hosts + 1)]
        outcome += ["dos_success=false", "mitm_success=true", "dualstack_success=false"]
    elif name == "longrun":
        hosts = LONGRUN_HOSTS
        send = set(range(1, hosts + 1))
        policies = [f"policy SW1.p{hosts + 2} ra-guard", "policy global two-hour-rule"]
        run_s = LONGRUN_RUN_S
        outcome = [f"H{i}.default_router=R1" for i in range(1, hosts + 1)]
        outcome += ["dos_success=false", "mitm_success=false", "dualstack_success=false"]
    else:
        raise ValueError(f"no generator for workload {name!r}")
    macs = rng.sample(range(1, 1 << 40), hosts)
    lines = [f"switch SW1 ports={hosts + 2}", _ROUTER]
    for i, mac in enumerate(macs, start=1):
        lines.append(
            f"node host H{i} mac={_mac(0x02 << 40 | mac)}" + (" send=on" if i in send else "")
        )
    lines.append(_ATTACKER)
    lines.append("attach R1 SW1.p1 class=router")
    lines.extend(f"attach H{i} SW1.p{i + 1} class=host" for i in range(1, hosts + 1))
    lines.append(f"attach A1 SW1.p{hosts + 2} class=host")
    lines.extend(policies)
    lines += ["key R1 k1", "trust k1", "at 5 attack A1 fake-router"]
    lines.extend(f"expect {line}" for line in outcome)
    lines.append(f"run {run_s} seed={rng.randrange(1 << 31)}")
    return Case(name, "".join(line + "\n" for line in lines), name == "fanout", tuple(outcome))


def make_workload(name: str, seed: int) -> Workload:
    if name == "corpus":
        paths = sorted(SCENARIO_DIR.glob("*.txt"))
        if not paths:
            raise SystemExit(f"error: no scenarios under {SCENARIO_DIR}")
        return Workload(name, tuple(Case(p.stem, p.read_text()) for p in paths), CORPUS_PASSES)
    return Workload(name, (generate(name, seed),), setup_repeats=SETUP_REPEATS)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Checker:
    """Checks each scenario run's outputs. The first run of a case fixes its
    counts and digests; every later run of that case must repeat them."""

    def __init__(self, workload: str, seed: int):
        recorded = json.loads(EXPECTED.read_text())
        if workload == "corpus":
            self.recorded = recorded["corpus"]
        elif seed == recorded["seed"]:
            self.recorded = {workload: recorded[workload]}
        else:
            self.recorded = {}
        self.golden = {name: path.read_text() for name, path in GOLDEN.items()}
        self.first: dict[str, tuple] = {}

    def check(self, case: Case, normalized: str, engine, metrics, trace: str) -> list[str]:
        problems = []
        if scenario.print_scenario(scenario.parse_scenario(normalized)) != normalized:
            problems.append("normalized scenario text does not round-trip")
        printed = dict(line.split("=", 1) for line in metrics.flag_lines())
        printed.update(
            (f"{host}.default_router", hm.default_router or "none")
            for host, hm in metrics.hosts.items()
        )
        for line in case.outcome:
            key, want = line.split("=", 1)
            if printed.get(key) != want:
                problems.append(f"{key}={printed.get(key)}, want {want}")
        if case.name in self.golden and trace != self.golden[case.name]:
            problems.append("trace differs from the golden trace")
        digests = {"trace": _digest(trace), "metrics": _digest("\n".join(metrics.to_lines()))}
        counts = (
            metrics.emitted, metrics.delivered, metrics.dropped,
            metrics.in_flight, len(engine.trace_records),
        )
        recorded = self.recorded.get(case.name)
        if recorded is not None and recorded != digests:
            problems.append(f"digests {digests} differ from the recorded {recorded}")
        first = self.first.setdefault(case.name, (digests, counts))
        if first != (digests, counts):
            problems.append(f"run repeats differently: {(digests, counts)} after {first}")
        return problems


Region = Callable[[str], ContextManager]


def _set_up(case: Case):
    """Scenario text to a bootstrapped engine, with the normalized text."""
    sc = scenario.parse_scenario(case.text)
    normalized = scenario.print_scenario(sc)
    return sc, normalized, scenario.build_engine(sc)


def untraced(_name: str) -> ContextManager:
    return contextlib.nullcontext()


def run_case(case: Case, checker: Checker, sample: Sample, region: Region = untraced) -> None:
    """Run one scenario, add its host time and work to ``sample``, and record
    a failure if any check fails. ``region`` opens a traced region around the
    timed part (``"run"``) and around untimed rendering (``"render"``)."""
    clock = time.perf_counter_ns
    sample.attempted += 1
    trace = None
    try:
        with region("run"):
            t0 = clock()
            sc, normalized, engine = _set_up(case)
            t1 = clock()
            metrics = engine.execute(sc.run_ms)
            t2 = clock()
            if case.render_timed:
                trace = engine.trace_text()
            unmet = scenario.evaluate_expects(sc, metrics)
            t3 = clock()
    except (SimInvariantError, scenario.ScenarioError) as exc:
        sample.failures.append(f"{case.name}: {type(exc).__name__}: {exc}")
        return
    if trace is None:
        with region("render"):
            t4 = clock()
            trace = engine.trace_text()
            sample.render_ns += clock() - t4
    sample.wall_ns += t3 - t0
    sample.setup_ns += t1 - t0
    sample.execute_ns += t2 - t1
    sample.deliveries += metrics.delivered + metrics.dropped
    sample.trace_records += len(engine.trace_records)
    problems = unmet + checker.check(case, normalized, engine, metrics, trace)
    if problems:
        sample.failures.append(f"{case.name}: " + "; ".join(problems))


def time_setup(workload: Workload) -> int:
    """Host nanoseconds from scenario text to bootstrapped engines, for
    every set-up one workload run makes."""
    clock = time.perf_counter_ns
    t0 = clock()
    for _ in range(workload.passes):
        for case in workload.cases:
            _set_up(case)
    return clock() - t0


def reference_ns() -> int:
    """Host nanoseconds of a fixed computation that uses no slaacsim code, so
    no change to the program moves it. It mixes what the simulator spends
    its time on: heap operations, small tuples and dicts, f-strings and
    stdlib IPv6 text. Its time tracks the machine's current speed."""
    clock = time.perf_counter_ns
    t0 = clock()
    queue: list[tuple[int, int, dict]] = []
    for i in range(REFERENCE_ITEMS):
        heapq.heappush(queue, (i * 7919 % REFERENCE_ITEMS, i, {"node": f"H{i}"}))
    lines = []
    while queue:
        at, i, attrs = heapq.heappop(queue)
        address = ipaddress.IPv6Address(0xFE80 << 112 | i)
        lines.append(f"t={at} node={attrs['node']} kind=ref addr={address}")
    "".join(lines)
    return clock() - t0


def run_iteration(workload: Workload, checker: Checker, region: Region = untraced) -> Sample:
    """One workload run: every case, ``workload.passes`` times."""
    sample = Sample()
    for _ in range(workload.passes):
        for case in workload.cases:
            run_case(case, checker, sample, region)
    return sample


def peak_rss_mb() -> float:
    """Peak resident set of this process in MB (10**6 bytes). Read from
    VmHWM, which starts afresh at exec; ru_maxrss would carry over the
    parent's peak."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("/proc/self/status has no VmHWM line")
