"""Deterministic discrete-event engine for one broadcast link behind one
switch: fixed-point millisecond clock, (time, seq)-ordered queue, per-ingress
RA filtering, append-only trace (formatted only when read), and metric
extraction.

Trace line format (bit-exact): ``t=<ms> node=<id> kind=<kind> <k>=<v> ...``
with keys in TRACE_KEYS order, one record per line.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

from .addressing import Ipv6Address, iid_text
from .attacker import Attacker, AttackMode
from .defense import SwitchPort, filter_ingress
from .host import AddressState, Host
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

# One newline-terminated line format per kind. %s, not format(): format() on
# an IntEnum such as RouterPreference gives its number, str() its name.
_TRACE_FORMATS = {
    kind: " ".join([f"t=%d node=%s kind={kind}", *[f"{key}=%s" for key in keys]]) + "\n"
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
        return (_TRACE_FORMATS[self.kind] % (self.time, self.node, *self.values))[:-1]


class AdvertisedPrefixes(tuple):
    """An RA's prefix options as one trace value, shown as ``a/64,b/64`` or ``-``."""

    __slots__ = ()

    def __str__(self) -> str:
        return ",".join([str(p.prefix) for p in self]) or "-"


class Deliver(NamedTuple):
    msg: NdMessage
    src: str
    port: Optional[SwitchPort]  # ingress port (the sender's attach point)
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


@dataclass
class HostMetrics:
    default_router: Optional[str]
    family_in_use: Optional[AddressFamily]
    iid: int
    addresses: list[str]

    def field_texts(self) -> dict[str, str]:
        """Each field's text, in `--metrics` order; `expect` lines compare
        against the same text."""
        return {
            "default_router": self.default_router or "none",
            "family_in_use": str(self.family_in_use) if self.family_in_use else "none",
            "iid": iid_text(self.iid),
            "addresses": ",".join(self.addresses) or "-",
        }


@dataclass
class RunMetrics:
    hosts: dict[str, HostMetrics] = field(default_factory=dict)
    dos_success: bool = False
    mitm_success: bool = False
    dualstack_success: bool = False
    emitted: int = 0
    delivered: int = 0
    dropped: int = 0
    in_flight: int = 0

    def texts(self) -> dict[str, str]:
        """The text of each flag and of each ``<host>.<field>``, keyed as
        `expect` lines name them; stdout, `--metrics` and `--check` all
        show this text."""
        texts = {flag: "true" if getattr(self, flag) else "false" for flag in FLAGS}
        for host_id, hm in self.hosts.items():
            texts.update((f"{host_id}.{k}", v) for k, v in hm.field_texts().items())
        return texts

    def flag_lines(self) -> list[str]:
        texts = self.texts()
        return [f"{flag}={texts[flag]}" for flag in FLAGS]

    def to_lines(self) -> list[str]:
        lines = []
        for host_id, hm in self.hosts.items():
            fields = "".join(f" {k}={v}" for k, v in hm.field_texts().items())
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

    def __init__(self, link_latency_ms: int = 1, seed: int = 0, two_hour_rule: bool = False):
        self.link_latency_ms = link_latency_ms
        self.rng = random.Random(seed)
        self.two_hour_rule = two_hour_rule
        self.now = 0
        self.nodes: dict[str, Node] = {}
        self.switch_id: Optional[str] = None  # labels ra-dropped records
        self.node_port: dict[str, SwitchPort] = {}
        self.trusted_keys: dict[str, bytes] = {}  # key id -> secret, from trust lines
        self.attack_armed = False  # set by the first non-passive attack directive
        # Bare (time, node, kind, values) tuples; TraceRecord names the fields.
        self.trace_records: list[tuple[int, str, str, tuple[object, ...]]] = []
        self.metrics: Optional[RunMetrics] = None  # made by the first measure
        # (time, seq, node id, timer) for a timer, (time, seq, None, action)
        # for anything else.
        self._queue: list[tuple[int, int, Optional[str], Union[TimerKey, Action]]] = []
        self._seq = itertools.count()
        self._ip_owner: dict[Ipv6Address, str] = {}
        self._claims: dict[Ipv6Address, set[str]] = {}  # DAD target -> hosts
        self._payload_ids = itertools.count(1)
        self.emitted = 0
        self.delivered = 0
        self.dropped = 0

    # -- topology -------------------------------------------------------------

    def add_node(self, node: Node, port: Optional[SwitchPort] = None) -> None:
        if node.node_id in self.nodes or node.node_id == SINK:
            raise ValueError(f"duplicate node id {node.node_id!r}")
        self.nodes[node.node_id] = node
        if port is not None:
            self.node_port[node.node_id] = port
        # Only a router's or a persona's RAs put an address in a router list.
        if isinstance(node, Router):
            self._ip_owner[node.ra.src_ip] = node.node_id
        elif isinstance(node, Attacker) and node.persona is not None:
            self._ip_owner[node.persona.ra.src_ip] = node.node_id

    # -- scheduling -------------------------------------------------------------

    def schedule(self, at_ms: int, action: Action) -> None:
        if at_ms < self.now:
            raise SimInvariantError(f"cannot schedule into the past ({at_ms} < {self.now})")
        heapq.heappush(self._queue, (at_ms, next(self._seq), None, action))

    def set_timer(self, node_id: str, timer: TimerKey, at_ms: int) -> None:
        if at_ms < self.now:
            raise SimInvariantError(f"cannot schedule into the past ({at_ms} < {self.now})")
        heapq.heappush(self._queue, (at_ms, next(self._seq), node_id, timer))

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
        formats = _TRACE_FORMATS
        records = self.trace_records
        return "".join([formats[kind] % (t, node, *values) for t, node, kind, values in records])

    # -- delivery ----------------------------------------------------------------

    def broadcast(self, src_id: str, msg: NdMessage, now: int) -> None:
        """Enqueue one entry delivering to every other node after link latency,
        subject to filtering at the sender's ingress port on arrival."""
        self._trace_emission(src_id, msg)
        dsts = tuple([node_id for node_id in self.nodes if node_id != src_id])
        if dsts:
            self.emitted += len(dsts)
            port = self.node_port.get(src_id)
            self.schedule(now + self.link_latency_ms, Deliver(msg, src_id, port, dsts))

    def _trace_emission(self, src_id: str, msg: NdMessage) -> None:
        if isinstance(msg, RouterAdvertisement):
            prefixes = AdvertisedPrefixes(msg.prefixes)
            self.trace(src_id, "ra-sent", msg.src_ip, msg.router_lifetime, msg.preference, prefixes)
        elif isinstance(msg, RouterSolicitation):
            self.trace(src_id, "rs-sent", msg.src_ip)
        elif isinstance(msg, NeighborSolicitation):
            self.trace(src_id, "ns-sent", msg.target)
        elif isinstance(msg, NeighborAdvertisement):
            self.trace(src_id, "na-sent", msg.target)

    def claim(self, node_id: str, address: Ipv6Address) -> None:
        """A host started DAD on ``address``: it hears NS and NA for it from now on."""
        self._claims.setdefault(address, set()).add(node_id)

    def _handle_deliver(self, event: Deliver, now: int) -> None:
        msg, src, port, dsts = event
        # Port and message are frozen, so one verdict holds for every receiver.
        reason = None if port is None else filter_ingress(port, msg)
        if reason is not None:
            self.dropped += len(dsts)
            for dst in dsts:
                self.trace(self.switch_id, "ra-dropped", port.port_id, reason, msg.src_ip, dst)
            return
        # Every receiver counts as delivered; only those that act on the
        # message kind are called, in node order.
        self.delivered += len(dsts)
        nodes = self.nodes
        if isinstance(msg, RouterAdvertisement):
            for dst in dsts:
                node = nodes[dst]
                if isinstance(node, Host):
                    self.trace(dst, "ra-received", msg.src_ip, msg.router_lifetime, msg.preference)
                if not isinstance(node, Router):
                    node.on_message(self, msg, src, now)
        elif isinstance(msg, RouterSolicitation):
            for dst in dsts:
                node = nodes[dst]
                if isinstance(node, Router):
                    node.on_message(self, msg, src, now)
        else:  # NS or NA: only hosts that claimed the target act on it
            claimants = self._claims.get(msg.target)
            if claimants:
                for dst in dsts:
                    if dst in claimants:
                        nodes[dst].on_message(self, msg, src, now)

    # -- run loop -------------------------------------------------------------

    def run_until(self, t_end_ms: int) -> None:
        """Process all events with time <= t_end in (time, seq) order."""
        queue, nodes = self._queue, self.nodes
        while queue and queue[0][0] <= t_end_ms:
            at, _seq, node_id, action = heapq.heappop(queue)
            self.now = at
            if node_id is not None:
                nodes[node_id].on_timer(self, action, at)
            elif isinstance(action, Deliver):
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
        """Run to t_end, measuring at the end if the script never did, then
        add the message counters to the run's metrics and verify message
        conservation. Expects bootstrap() to have been called (the scenario
        builder does so)."""
        self.run_until(t_end_ms)
        if self.metrics is None:
            self.measure(t_end_ms)
        metrics = self.metrics
        metrics.emitted = self.emitted
        metrics.delivered = self.delivered
        metrics.dropped = self.dropped
        metrics.in_flight = sum(len(a.dsts) for _, _, _, a in self._queue if isinstance(a, Deliver))
        if metrics.emitted != metrics.delivered + metrics.dropped + metrics.in_flight:
            raise SimInvariantError(
                f"message conservation broken: emitted={metrics.emitted}"
                f" delivered={metrics.delivered} dropped={metrics.dropped}"
                f" in_flight={metrics.in_flight}"
            )
        return metrics

    # -- measurement ---------------------------------------------------------------

    def _probe(self, host: Host, now: int) -> tuple[Optional[AddressFamily], Optional[str], bool]:
        """Send one payload toward the sink. The gateway delivers it when it
        routes and drops it (a blackhole) when it does not. Returns the
        family, the gateway (both None when no path resolves) and whether
        the payload was delivered."""
        hop = host.resolve_next_hop(now)
        gateway = None
        if hop is not None:
            gateway = hop.gateway_node or self._ip_owner.get(hop.router_ip)
        if hop is None or gateway is None or gateway not in self.nodes:
            self.trace(host.node_id, "path-resolved", "unreachable", "-", "-")
            return None, None, False
        self.trace(host.node_id, "path-resolved", "via", gateway, hop.family)
        if hop.family is AddressFamily.IPV6:
            self._assert_source_assigned(host, hop.src_addr)
        payload = next(self._payload_ids)
        self.emitted += 1
        self.trace(host.node_id, "data-sent", SINK, hop.family, hop.src_addr, payload)
        if not self.nodes[gateway].routes():
            self.dropped += 1
            self.trace(gateway, "blackhole-drop", host.node_id, payload)
            return hop.family, gateway, False
        self.delivered += 1
        self.trace(
            SINK, "data-delivered",
            host.node_id, gateway, hop.family, payload, f"{host.node_id}>{gateway}>{SINK}",
        )
        return hop.family, gateway, True

    def _assert_source_assigned(self, host: Host, src_addr: Ipv6Address) -> None:
        for entry in host.addresses:
            if entry.address == src_addr and entry.state is AddressState.ASSIGNED:
                return
        raise SimInvariantError(f"{host.node_id} sourced data from non-assigned {src_addr}")

    def measure(self, now: int) -> RunMetrics:
        """Probe one data path per host toward the external sink and record
        each host's state in the run's metrics, replacing the last measure's.
        A flag, once set, stays set; only measures after a non-passive attack
        has been armed set one."""
        metrics = self.metrics
        if metrics is None:
            metrics = self.metrics = RunMetrics()
        hosts = {}
        for node in self.nodes.values():
            if not isinstance(node, Host):
                continue
            family, gateway, delivered = self._probe(node, now)
            selected = node.select_default_router(now)
            default_router = None
            if selected is not None:
                default_router = self._ip_owner.get(selected.router_ip, str(selected.router_ip))
            hosts[node.node_id] = HostMetrics(
                default_router=default_router,
                family_in_use=family,
                iid=node.iid,
                addresses=[
                    str(e.address) for e in node.addresses if e.state is AddressState.ASSIGNED
                ],
            )
            if not self.attack_armed:
                continue
            if not delivered:
                metrics.dos_success = True
            if isinstance(self.nodes.get(gateway), Attacker):
                metrics.mitm_success = True
                if family is AddressFamily.IPV6 and node.ipv4 is not None:
                    metrics.dualstack_success = True
        metrics.hosts = hosts
        return metrics
