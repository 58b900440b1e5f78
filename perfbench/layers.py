"""Per-layer tracing for the slaacsim benchmark.

`installed` replaces each layer's public functions, at the name the program
looks them up by, with wrappers that record a span (name, start, end, parent)
in memory, and puts the originals back on exit. Spans are recorded only
inside a region the benchmark opens, so its own checks are not counted.
A layer's self time is its spans' durations minus the spans they cover.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from typing import Callable, Iterator

import workloads  # noqa: F401  (puts the slaacsim sources on sys.path)
from slaacsim import addressing, attacker, engine, host, router, scenario

# (layer.function, owner the program looks the name up in, attribute).
# filter_ingress, sign_ra and verify_ra are imported by name into the modules
# that call them, so they are patched there, not in slaacsim.defense.
TARGETS = (
    ("scenario.parse", scenario, "parse_scenario"),
    ("scenario.print", scenario, "print_scenario"),
    ("scenario.build", scenario, "build_engine"),
    ("engine.execute", engine.Engine, "execute"),
    ("engine.broadcast", engine.Engine, "broadcast"),
    ("engine.schedule", engine.Engine, "schedule"),
    ("engine.set_timer", engine.Engine, "set_timer"),
    ("engine.trace", engine.Engine, "trace"),
    ("engine.trace_text", engine.Engine, "trace_text"),
    ("engine.measure", engine.Engine, "measure"),
    ("host.on_message", host.Host, "on_message"),
    ("host.on_timer", host.Host, "on_timer"),
    ("router.on_message", router.Router, "on_message"),
    ("router.on_timer", router.Router, "on_timer"),
    ("attacker.on_message", attacker.Attacker, "on_message"),
    ("attacker.on_timer", attacker.Attacker, "on_timer"),
    ("defense.filter_ingress", engine, "filter_ingress"),
    ("defense.sign_ra", router, "sign_ra"),
    ("defense.verify_ra", host, "verify_ra"),
    ("addressing.ipv6_str", addressing.Ipv6Address, "__str__"),
)

# Regions workloads.run_case opens: the timed part of a scenario run, and
# rendering done outside it.
REGIONS = ("run", "render")


class Tracer:
    """Spans of one traced workload run, in start order, plus outcome counts
    taken where the work happens."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.codes = array("H")
        self.parents = array("q")
        self.starts = array("q")
        self.ends = array("q")
        self.stack: list[int] = []
        self.useful_timers = 0  # Host.on_timer calls that appended a trace record
        self.ra_drops = 0  # filter_ingress calls that returned a drop reason

    def _code(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn: Callable) -> Callable:
        code = self._code(name)
        codes, parents, starts, ends = self.codes, self.parents, self.starts, self.ends
        stack = self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            index = len(codes)
            codes.append(code)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    @contextlib.contextmanager
    def region(self, name: str) -> Iterator[None]:
        """A top-level span; wrapped calls record spans only inside one."""
        if self.stack:
            raise RuntimeError(f"region {name!r} opened inside another span")
        index = len(self.codes)
        self.codes.append(self._code(name))
        self.parents.append(-1)
        self.ends.append(0)
        self.stack.append(index)
        self.starts.append(time.perf_counter_ns())
        try:
            yield
        finally:
            self.ends[index] = time.perf_counter_ns()
            self.stack.pop()

    def count_useful_timers(self, on_timer: Callable) -> Callable:
        @functools.wraps(on_timer)
        def counted(node, ctx, timer_id, now):
            before = len(ctx.trace_records)
            on_timer(node, ctx, timer_id, now)
            if len(ctx.trace_records) > before:
                self.useful_timers += 1

        return counted

    def count_drops(self, filter_ingress: Callable) -> Callable:
        @functools.wraps(filter_ingress)
        def counted(port, msg):
            reason = filter_ingress(port, msg)
            if reason is not None:
                self.ra_drops += 1
            return reason

        return counted

    def totals(self) -> tuple[dict[str, int], dict[str, int]]:
        """Calls and self nanoseconds per span name. Raises if a span does not
        lie inside its parent, so the self times add up to the regions."""
        count = len(self.codes)
        covered = [0] * count
        starts, ends, parents = self.starts, self.ends, self.parents
        for i in range(count):
            parent = parents[i]
            if not starts[i] <= ends[i]:
                raise RuntimeError(f"span {i} ({self.names[self.codes[i]]}) never closed")
            if parent >= 0:
                if not (starts[parent] <= starts[i] and ends[i] <= ends[parent]):
                    raise RuntimeError(f"span {i} lies outside its parent {parent}")
                covered[parent] += ends[i] - starts[i]
        calls = dict.fromkeys(self.names, 0)
        self_ns = dict.fromkeys(self.names, 0)
        for i in range(count):
            name = self.names[self.codes[i]]
            calls[name] += 1
            self_ns[name] += ends[i] - starts[i] - covered[i]
        return calls, self_ns

    def write(self, path) -> None:
        """Write every span, one per line: index, parent, name, start_ns, end_ns."""
        with open(path, "w") as out:
            out.write("index\tparent\tname\tstart_ns\tend_ns\n")
            for i, (code, parent, start, end) in enumerate(
                zip(self.codes, self.parents, self.starts, self.ends)
            ):
                out.write(f"{i}\t{parent}\t{self.names[code]}\t{start}\t{end}\n")


@contextlib.contextmanager
def installed(tracer: Tracer) -> Iterator[None]:
    """Wrap every target for the duration of the block. A target that no
    longer exists where the program looks it up is an error."""
    saved = []
    try:
        for name, owner, attr in TARGETS:
            if attr not in vars(owner):
                raise LookupError(f"wrap target {owner.__name__}.{attr} does not exist")
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            inner = original
            if name == "host.on_timer":
                inner = tracer.count_useful_timers(original)
            elif name == "defense.filter_ingress":
                inner = tracer.count_drops(original)
            setattr(owner, attr, tracer.wrap(name, inner))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def layer_metrics(tracer: Tracer, deliveries: int, trace_records: int) -> dict[str, float]:
    """Per-layer metrics of one traced workload run (times in seconds)."""
    calls, self_ns = tracer.totals()
    out: dict[str, float] = {}
    for name, _owner, _attr in TARGETS:
        out[f"{name}_calls"] = calls.get(name, 0)
        out[f"{name}_s"] = self_ns.get(name, 0) / 1e9
    timer_calls = calls.get("host.on_timer", 0)
    filter_calls = calls.get("defense.filter_ingress", 0)
    out["host.on_timer_useful_ratio"] = tracer.useful_timers / timer_calls if timer_calls else 0.0
    out["defense.ra_drop_ratio"] = tracer.ra_drops / filter_calls if filter_calls else 0.0
    out["engine.deliveries"] = deliveries
    out["engine.trace_records"] = trace_records
    out["tracing.wall_s"] = sum(self_ns.values()) / 1e9
    out["tracing.unattributed_s"] = sum(self_ns.get(r, 0) for r in REGIONS) / 1e9
    return out
