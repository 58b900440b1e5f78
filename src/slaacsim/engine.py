"""Deterministic discrete-event engine for one broadcast link behind one
switch: fixed-point millisecond clock, a calendar queue served one
millisecond at a time in booking order, per-ingress RA filtering,
append-only trace (formatted only when read), and metric extraction.

Trace line format (bit-exact): ``t=<ms> node=<id> kind=<kind> <k>=<v> ...``
with keys in TRACE_KEYS order, one record per line.
"""

from __future__ import annotations

import gc
import heapq
import itertools
import math
import random
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

from .addressing import Ipv6Address, iid_text
from .attacker import Attacker, AttackMode, NoCapturedRa
from .defense import SwitchPort, filter_ingress
from .host import AddressState, Host, receive_ra
from .messages import (
    AddressFamily,
    NdMessage,
    NeighborAdvertisement,
    NeighborSolicitation,
    RouterAdvertisement,
    RouterSolicitation,
    Timer,
    TimerKey,
)
from .router import Router

SINK = "ext"  # external-destination pseudo-node, reachable only via a routing box

# The attack flags, in output order: RunMetrics field names and expect keys.
FLAGS = ("dos_success", "mitm_success", "dualstack_success")

Node = Union[Host, Router, Attacker]


class SimInvariantError(AssertionError):
    """An internal consistency check failed; maps to CLI exit status 2."""


class ScenarioError(ValueError):
    """A scenario that cannot be run as written; maps to CLI exit status 1.
    Parsing and validation find most; the run finds an attack step that
    replays an advertisement its attacker has not captured yet."""


# Each trace kind's keys in line order; Engine.trace takes values in this order.
TRACE_KEYS: dict[str, tuple[str, ...]] = {
    "ra-sent": ("src", "lifetime", "pref", "prefixes"),
    "rs-sent": ("src",),
    "ns-sent": ("target",),
    "na-sent": ("target",),
    "ra-dropped": ("port", "reason", "src", "dst"),
    "ra-received": ("src", "lifetime", "pref"),
    "attack-mode": ("mode", "target"),
    "router-toggled": ("enabled",),
    "path-resolved": ("outcome", "via", "family"),
    "data-sent": ("dst", "family", "src", "payload"),
    "blackhole-drop": ("origin", "payload"),
    "data-delivered": ("origin", "via", "family", "payload", "path"),
    "dad-start": ("addr", "deadline"),
    "dad-failed": ("addr",),
    "addr-assigned": ("addr", "origin"),
    "addr-lifetime": ("addr", "valid_ms"),
    "addr-abandoned": ("addr", "reason"),
    "ra-rejected-send": ("src",),
    "prefix-ignored": ("prefix", "reason"),
    "router-added": ("router", "pref", "expires"),
    "router-refreshed": ("router", "pref", "expires"),
    "router-removed": ("router", "reason"),
    "ra-captured": ("src", "lifetime"),
}

# Each kind's newline-terminated text after ``node=<id>``. %s, not format():
# format() on an IntEnum such as RouterPreference gives its number, not name.
_TAIL_FORMATS = {
    kind: "".join([f" kind={kind}", *[f" {key}=%s" for key in keys], "\n"])
    for kind, keys in TRACE_KEYS.items()
}


class TraceRecord(NamedTuple):
    """Names the fields of one trace record for readers:
    ``TraceRecord._make(raw)`` on a bare tuple from ``Engine.trace_records``.
    Values are as given to Engine.trace, in TRACE_KEYS order. Text is made
    only when read; every value is immutable, so it reads the same whenever
    that is."""

    time: int
    node: str
    kind: str
    values: tuple[object, ...]

    @property
    def attrs(self) -> tuple[tuple[str, str], ...]:
        return tuple((k, str(v)) for k, v in zip(TRACE_KEYS[self.kind], self.values, strict=True))

    def line(self) -> str:
        """The record's trace line, without its newline."""
        tail = _TAIL_FORMATS[self.kind] % self.values
        return f"t={self.time} node={self.node}{tail}"[:-1]


class AdvertisedPrefixes(tuple):
    """An RA's prefix options as one trace value, shown as ``a/64,b/64`` or ``-``."""

    __slots__ = ()

    def __str__(self) -> str:
        return ",".join([str(p.prefix) for p in self]) or "-"


class Deliver(NamedTuple):
    msg: NdMessage
    src: str
    dsts: tuple[str, ...]  # every other node, delivered to in node order


@dataclass(frozen=True)
class AttackDirective:
    attacker: str
    mode: AttackMode
    target: Optional[str] = None


@dataclass(frozen=True)
class MeasureDirective:
    pass


@dataclass(frozen=True)
class ToggleDirective:
    node: str
    enabled: bool


ScriptStep = Union[AttackDirective, MeasureDirective, ToggleDirective]
Action = Union[Deliver, ScriptStep]


class HostMetrics(NamedTuple):
    """One host's measured values, each as the text `--metrics` shows and
    `expect` lines compare against, in `--metrics` order."""

    default_router: str  # "none" when the host has none
    family_in_use: str  # "none" when no path resolves
    iid: str
    addresses: str  # the assigned addresses, comma-separated; "-" when none


@dataclass
class RunMetrics:
    hosts: dict[str, HostMetrics] = field(default_factory=dict)
    dos_success: bool = False
    mitm_success: bool = False
    dualstack_success: bool = False
    emitted: int = 0
    delivered: int = 0
    dropped: int = 0
    in_flight: int = 0  # receivers of the emitted deliveries not yet served

    def texts(self) -> dict[str, str]:
        """The text of each flag and of each ``<host>.<field>``, keyed as
        `expect` lines name them; stdout, `--metrics` and `--check` all
        show this text."""
        texts = {flag: "true" if getattr(self, flag) else "false" for flag in FLAGS}
        for host_id, hm in self.hosts.items():
            texts.update((f"{host_id}.{k}", v) for k, v in zip(hm._fields, hm))
        return texts

    def flag_lines(self) -> list[str]:
        texts = self.texts()
        return [f"{flag}={texts[flag]}" for flag in FLAGS]

    def to_lines(self) -> list[str]:
        lines = []
        for host_id, hm in self.hosts.items():
            fields = "".join(f" {k}={v}" for k, v in zip(hm._fields, hm))
            lines.append(f"host={host_id}{fields}")
        lines.extend(self.flag_lines())
        lines.append(
            f"counters emitted={self.emitted} delivered={self.delivered}"
            f" dropped={self.dropped} in_flight={self.in_flight}"
        )
        return lines


class Engine(object):
    """Single-link simulation engine. Owns all node state; strictly
    single-threaded during a run."""

    def __init__(self, link_latency_ms: int, seed: int, two_hour_rule: bool, switch_id: str):
        self.link_latency_ms = link_latency_ms
        self.seed = seed
        self.rng: Optional[random.Random] = None  # seeded when a router that jitters joins
        self.two_hour_rule = two_hour_rule
        self.now = 0
        self.nodes: dict[str, Node] = {}
        self.switch_id = switch_id  # labels ra-dropped records
        self.node_port: dict[str, SwitchPort] = {}  # each node's ingress port
        self._receivers: dict[str, tuple[str, ...]] = {}  # sender -> every other node
        self._routers: list[Router] = []  # in node order: the only nodes an RS calls
        self.trusted_keys: dict[str, bytes] = {}  # key id -> secret, from trust lines
        self.attack_armed = False  # set by the first non-passive attack directive
        # Bare (time, node, kind, values) tuples; TraceRecord names the fields.
        self.trace_records: list[tuple[int, str, str, tuple[object, ...]]] = []
        # The run's one record: the message counters count into it as the run
        # goes, and each measure replaces its hosts.
        self.metrics = RunMetrics()
        # The calendar queue: a heap of due times, one per distinct time, and
        # each time's entries in booking order, (node id, timer) for a timer
        # and (None, action) for anything else. Serving the times in order and
        # each bucket in order is (time, booking) order. set_timer alone books.
        self._times: list[int] = []
        self._buckets: dict[int, list[tuple[Optional[str], Union[TimerKey, Action]]]] = {}
        # The end of the run, once execute() states it: no entry due later is
        # queued, and run_until() may not pass it.
        self._horizon = math.inf
        self._ip_owner: dict[Ipv6Address, str] = {}
        self._claims: dict[Ipv6Address, set[str]] = {}  # DAD target -> hosts
        self._payload_ids = itertools.count(1)

    # -- topology -------------------------------------------------------------

    def add_node(self, node: Node, port: SwitchPort) -> None:
        if node.node_id in self.nodes or node.node_id == SINK:
            raise ValueError(f"duplicate node id {node.node_id!r}")
        self.nodes[node.node_id] = node
        self.node_port[node.node_id] = port
        self._receivers.clear()
        # Only a router's or a persona's RAs put an address in a router list.
        if isinstance(node, Router):
            self._routers.append(node)
            self._ip_owner[node.ra.src_ip] = node.node_id
            if node.jitter_ms and self.rng is None:  # most runs draw nothing
                self.rng = random.Random(self.seed)
        elif isinstance(node, Attacker) and node.persona is not None:
            self._ip_owner[node.persona.ra.src_ip] = node.node_id

    # -- scheduling -------------------------------------------------------------

    def schedule(self, at_ms: int, action: Action) -> None:
        """Book a delivery or a script step; set_timer books it."""
        self.set_timer(None, action, at_ms)

    def set_timer(self, node_id: Optional[str], timer: Union[TimerKey, Action], at_ms: int) -> None:
        """The one booking: a timer of ``node_id``, or with None a delivery or a script step.
        One due after the horizon is left out, which moves no other entry."""
        if at_ms < self.now:
            raise SimInvariantError(f"cannot schedule into the past ({at_ms} < {self.now})")
        if at_ms <= self._horizon:
            bucket = self._buckets.get(at_ms)
            if bucket is None:
                self._buckets[at_ms] = [(node_id, timer)]
                heapq.heappush(self._times, at_ms)
            else:
                bucket.append((node_id, timer))

    def bootstrap(self) -> None:
        """Book each node's startup work at t=0, in declaration order."""
        for node in self.nodes.values():
            if isinstance(node, Router):
                self.set_timer(node.node_id, Timer.RA, 0)
            elif isinstance(node, Host):
                self.set_timer(node.node_id, Timer.AUTOCONF, 0)

    # -- tracing ---------------------------------------------------------------

    def trace(self, node: str, kind: str, *values) -> None:
        self.trace_records.append((self.now, node, kind, values))

    def trace_text(self) -> str:
        # An RA's values recur once per receiving host, so the text from ` kind=`
        # on is made once per kind and distinct (hashable, immutable) values tuple,
        # in a memo made at the kind's first record. Records with one time share a head.
        # Each line is three parts, joined once: no per-line string is made.
        tails: dict[str, dict[tuple[object, ...], str]] = {}
        parts: list[str] = []
        extend = parts.extend
        last_t = head = None
        for t, node, kind, values in self.trace_records:
            if t != last_t:
                last_t, head = t, f"t={t} node="
            memo = tails.get(kind)
            if memo is None:
                memo = tails[kind] = {}
            tail = memo.get(values)
            if tail is None:
                tail = memo[values] = _TAIL_FORMATS[kind] % values
            extend((head, node, tail))
        return "".join(parts)

    # -- delivery ----------------------------------------------------------------

    def broadcast(self, src_id: str, msg: NdMessage, now: int) -> None:
        """Enqueue one entry delivering to every other node after link latency,
        subject to filtering at the sender's ingress port on arrival."""
        if isinstance(msg, RouterAdvertisement):
            prefixes = AdvertisedPrefixes(msg.prefixes)
            self.trace(src_id, "ra-sent", msg.src_ip, msg.router_lifetime, msg.preference, prefixes)
        elif isinstance(msg, RouterSolicitation):
            self.trace(src_id, "rs-sent", msg.src_ip)
        elif isinstance(msg, NeighborSolicitation):
            self.trace(src_id, "ns-sent", msg.target)
        elif isinstance(msg, NeighborAdvertisement):
            self.trace(src_id, "na-sent", msg.target)
        dsts = self._receivers.get(src_id)
        if dsts is None:
            dsts = self._receivers[src_id] = tuple([n for n in self.nodes if n != src_id])
        if dsts:
            # In flight from now until served, or to the end if due after it.
            metrics = self.metrics
            metrics.emitted += len(dsts)
            metrics.in_flight += len(dsts)
            self.set_timer(None, Deliver(msg, src_id, dsts), now + self.link_latency_ms)

    def claim(self, node_id: str, address: Ipv6Address) -> None:
        """A host started DAD on ``address``: it hears NS for it from now on."""
        self._claims.setdefault(address, set()).add(node_id)

    def _handle_deliver(self, event: Deliver, now: int) -> None:
        msg, src, dsts = event
        port = self.node_port[src]
        # Port and message are frozen, so one verdict holds for every receiver.
        reason = filter_ingress(port, msg)
        if reason is not None:
            self.metrics.dropped += len(dsts)
            switch_id, port_id, src_ip = self.switch_id, port.port_id, msg.src_ip
            self.trace_records.extend([
                (now, switch_id, "ra-dropped", (port_id, reason, src_ip, dst)) for dst in dsts
            ])
            return
        # Every receiver counts as delivered; only those that act on the
        # message kind are called, in node order.
        self.metrics.delivered += len(dsts)
        nodes = self.nodes
        if isinstance(msg, RouterAdvertisement):
            receive_ra(self, msg, src, map(nodes.__getitem__, dsts), now)
        elif isinstance(msg, RouterSolicitation):  # only routers act on it
            for router in self._routers:
                if router.node_id != src:
                    router.on_message(self, msg, src, now)
        elif isinstance(msg, NeighborSolicitation):  # only claimants act on it
            claimants = self._claims.get(msg.target)
            # The sender is never among its receivers, so when it is the
            # only claimant nobody acts.
            if claimants and (len(claimants) > 1 or src not in claimants):
                for dst in dsts:
                    if dst in claimants:
                        nodes[dst].on_message(self, msg, src, now)
        # An NA calls no one: every host probes from t=0 on the same RAs, so
        # a DAD loser has already given up on the winner's NS.

    # -- run loop -------------------------------------------------------------

    def run_until(self, t_end_ms: int) -> None:
        """Process all events with time <= t_end, in time order and each
        time's in booking order. An entry booked for the time being served
        opens a fresh bucket for it, served next. An error raised while a
        bucket is served ends the run: the rest of that bucket is dropped."""
        if t_end_ms < self.now:
            raise SimInvariantError(f"cannot run back in time ({t_end_ms} < {self.now})")
        if t_end_ms > self._horizon:
            raise SimInvariantError(f"cannot run past the run's end ({t_end_ms} > {self._horizon})")
        times, buckets, nodes, metrics = self._times, self._buckets, self.nodes, self.metrics
        while times and times[0] <= t_end_ms:
            at = heapq.heappop(times)
            self.now = at
            for node_id, action in buckets.pop(at):
                if node_id is not None:
                    nodes[node_id].on_timer(self, action, at)
                elif isinstance(action, Deliver):
                    metrics.in_flight -= len(action.dsts)
                    self._handle_deliver(action, at)
                else:
                    self._handle_script(action, at)
        self.now = t_end_ms

    def _handle_script(self, step: ScriptStep, now: int) -> None:
        if isinstance(step, AttackDirective):
            node = self.nodes[step.attacker]
            if not isinstance(node, Attacker):
                raise SimInvariantError(f"{step.attacker} is not an attacker")
            self.trace(step.attacker, "attack-mode", step.mode, step.target or "-")
            try:
                node.run_playbook(self, step.mode, step.target, now)
            except NoCapturedRa as exc:
                raise ScenarioError(f"attack {step.attacker} {step.mode} at t={now} ms: {exc}") from exc
            except RuntimeError as exc:
                raise SimInvariantError(f"playbook failed: {exc}") from exc
            if step.mode is not AttackMode.PASSIVE:
                self.attack_armed = True
        elif isinstance(step, MeasureDirective):
            self.measure(now)
        elif isinstance(step, ToggleDirective):
            node = self.nodes[step.node]
            if not isinstance(node, Router):
                raise SimInvariantError(f"{step.node} is not a router")
            node.enabled = step.enabled
            self.trace(step.node, "router-toggled", "on" if step.enabled else "off")

    def execute(self, t_end_ms: int) -> RunMetrics:
        """Run to t_end, measuring at the end if no measure has recorded a
        host, then verify message conservation. A measure over no hosts
        records and traces nothing, so measuring again then changes no
        output. t_end is the run's end from then on: no entry due later is
        queued, and the engine cannot be run past it. Expects bootstrap() to
        have been called (the scenario builder does so)."""
        self._horizon = t_end_ms
        # A run makes no reference cycles (a test holds that), so a cyclic
        # collection during the loop would find nothing and only re-walk the
        # trace records. The pause is process-wide, which is safe because the
        # engine is single-threaded; the enabled state is restored as found.
        collecting = gc.isenabled()
        gc.disable()
        try:
            self.run_until(t_end_ms)
        finally:
            if collecting:
                # A loop that deferred a young collection would pay it at the
                # next allocation, re-walking the run's records to find
                # nothing. Freezing and unfreezing (two list splices) moves
                # every tracked object to the oldest generation and zeroes the
                # young count instead. A caller's frozen objects would be
                # unfrozen too, so then the collection runs as it would have.
                threshold = gc.get_threshold()[0]
                if threshold and gc.get_count()[0] > threshold and not gc.get_freeze_count():
                    gc.freeze()
                    gc.unfreeze()
                gc.enable()
        metrics = self.metrics
        if not metrics.hosts:
            self.measure(t_end_ms)
        if metrics.emitted != metrics.delivered + metrics.dropped + metrics.in_flight:
            raise SimInvariantError(
                f"message conservation broken: emitted={metrics.emitted}"
                f" delivered={metrics.delivered} dropped={metrics.dropped}"
                f" in_flight={metrics.in_flight}"
            )
        return metrics

    # -- measurement ---------------------------------------------------------------

    def measure(self, now: int) -> RunMetrics:
        """Send one payload per host toward the external sink and record
        each host's state in the run's metrics, replacing the last measure's.
        A host sends over IPv6 when it selects a default router and a global
        source, else over IPv4 when it has an address; an IPv6 router that
        is no node leaves it unreachable. The gateway delivers the payload
        when it routes and drops it (a blackhole) when it does not. A flag,
        once set, stays set; only measures after a non-passive attack has
        been armed set one."""
        metrics, nodes = self.metrics, self.nodes
        hosts = {}
        for host in nodes.values():
            if not isinstance(host, Host):
                continue
            host_id = host.node_id
            router = host.select_default_router(now)
            source = None
            if router is not None and host.ipv6_enabled:
                source = host.select_global_source(now)
            if source is not None:
                family, src = AddressFamily.IPV6, source.address
                gateway = self._ip_owner.get(router.router_ip)
            elif host.ipv4 is not None:
                family, (src, gateway) = AddressFamily.IPV4, host.ipv4
            else:
                gateway = None
            delivered = False
            if gateway not in nodes:
                family = None
                self.trace(host_id, "path-resolved", "unreachable", "-", "-")
            else:
                self.trace(host_id, "path-resolved", "via", gateway, family)
                if source is not None and source.state is not AddressState.ASSIGNED:
                    raise SimInvariantError(f"{host_id} sourced data from non-assigned {src}")
                payload = next(self._payload_ids)
                metrics.emitted += 1
                self.trace(host_id, "data-sent", SINK, family, src, payload)
                delivered = nodes[gateway].routes()
                if delivered:
                    metrics.delivered += 1
                    path = f"{host_id}>{gateway}>{SINK}"
                    self.trace(SINK, "data-delivered", host_id, gateway, family, payload, path)
                else:
                    metrics.dropped += 1
                    self.trace(gateway, "blackhole-drop", host_id, payload)
            default_router = "none"
            if router is not None:
                default_router = self._ip_owner.get(router.router_ip, str(router.router_ip))
            assigned = [str(e.address) for e in host.addresses.values()
                        if e.state is AddressState.ASSIGNED]
            hosts[host_id] = HostMetrics(
                default_router=default_router,
                family_in_use="none" if family is None else str(family),
                iid=iid_text(host.iid),
                addresses=",".join(assigned) or "-",
            )
            if not self.attack_armed:
                continue
            if not delivered:
                metrics.dos_success = True
            if isinstance(nodes.get(gateway), Attacker):
                metrics.mitm_success = True
                if family is AddressFamily.IPV6 and host.ipv4 is not None:
                    metrics.dualstack_success = True
        metrics.hosts = hosts
        return metrics
