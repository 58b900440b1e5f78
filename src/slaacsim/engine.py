"""Deterministic discrete-event engine for one broadcast link behind one
switch: fixed-point millisecond clock, (time, seq)-ordered queue, per-ingress
RA filtering, append-only trace (formatted only when read), and metric
extraction.

Trace line format (bit-exact): ``t=<ms> node=<id> kind=<kind> <k>=<v> ...``
with keys in fixed per-kind order, one record per line.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass, field
from typing import Optional, Union

from .addressing import Ipv6Address, iid_text, split_global
from .attacker import Attacker, AttackMode
from .defense import SwitchPort, TrustAnchorRegistry, filter_ingress
from .host import AddressState, Host
from .messages import (
    AddressFamily,
    DataMessage,
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

Node = Union[Host, Router, Attacker]


class SimInvariantError(AssertionError):
    """An internal consistency check failed; maps to CLI exit status 2."""


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One trace event with its attribute values as given to Engine.trace.
    Text is made only when read; every value is immutable, so it reads the
    same whenever that is."""

    time: int
    node: str
    kind: str
    values: tuple[tuple[str, object], ...]

    @property
    def attrs(self) -> tuple[tuple[str, str], ...]:
        return tuple((k, str(v)) for k, v in self.values)

    def line(self) -> str:
        head = f"t={self.time} node={self.node} kind={self.kind}"
        return head + "".join([f" {k}={v!s}" for k, v in self.values])


@dataclass(frozen=True)
class Deliver:
    msg: NdMessage
    dst: str
    src: str
    port: Optional[SwitchPort]  # ingress port (the sender's attach point)


@dataclass(frozen=True)
class TimerFire:
    node: str
    timer: TimerKey


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
Action = Union[Deliver, TimerFire, ScriptStep]


@dataclass
class ProbeResult:
    family: Optional[AddressFamily]  # None when no path resolves
    delivered: bool
    path: tuple[str, ...]


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

    def flag_lines(self) -> list[str]:
        return [
            f"dos_success={_bool_text(self.dos_success)}",
            f"mitm_success={_bool_text(self.mitm_success)}",
            f"dualstack_success={_bool_text(self.dualstack_success)}",
        ]

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


def _bool_text(value: bool) -> str:
    return "true" if value else "false"


class Engine(object):
    """Single-link simulation engine. Owns all node state; strictly
    single-threaded during a run."""

    def __init__(self, link_latency_ms: int = 1, seed: int = 0, two_hour_rule: bool = False):
        self.link_latency_ms = link_latency_ms
        self.rng = random.Random(seed)
        self.two_hour_rule = two_hour_rule
        self.now = 0
        self.nodes: dict[str, Node] = {}
        self.switch_id: Optional[str] = None
        self.ports: dict[str, SwitchPort] = {}
        self.node_port: dict[str, SwitchPort] = {}
        self.keystore = TrustAnchorRegistry()  # every created signing key
        self.trust_registry = TrustAnchorRegistry()  # the trusted subset
        self.trace_records: list[TraceRecord] = []
        self.measurements: list[RunMetrics] = []
        self._queue: list[tuple[int, int, Action]] = []
        self._seq = itertools.count()
        self._ip_owner: dict[Ipv6Address, str] = {}
        self._payload_ids = itertools.count(1)
        self.emitted = 0
        self.delivered = 0
        self.dropped = 0

    # -- topology -------------------------------------------------------------

    def add_switch(self, switch_id: str, port_count: int) -> None:
        if self.switch_id is not None:
            raise ValueError("only one switch per link")
        self.switch_id = switch_id
        for i in range(1, port_count + 1):
            port_id = f"p{i}"
            self.ports[port_id] = SwitchPort(port_id)

    def add_node(self, node: Node, port_id: Optional[str] = None, port_class=None) -> None:
        if node.node_id in self.nodes or node.node_id == SINK:
            raise ValueError(f"duplicate node id {node.node_id!r}")
        self.nodes[node.node_id] = node
        if port_id is not None:
            port = self.ports[port_id]
            if port.attached_node is not None:
                raise ValueError(f"port {port_id} already occupied")
            port.attached_node = node.node_id
            if port_class is not None:
                port.port_class = port_class
            self.node_port[node.node_id] = port
        if isinstance(node, Router):
            self._ip_owner[node.config.link_local] = node.node_id
        elif isinstance(node, Attacker):
            self._ip_owner[node.link_local] = node.node_id

    # -- scheduling -------------------------------------------------------------

    def schedule(self, at_ms: int, action: Action) -> None:
        if at_ms < self.now:
            raise SimInvariantError(f"cannot schedule into the past ({at_ms} < {self.now})")
        heapq.heappush(self._queue, (at_ms, next(self._seq), action))

    def set_timer(self, node_id: str, timer: TimerKey, at_ms: int) -> None:
        self.schedule(at_ms, TimerFire(node_id, timer))

    def bootstrap(self) -> None:
        """Book each node's startup work at t=0, in declaration order."""
        for node in self.nodes.values():
            if isinstance(node, Router):
                self.set_timer(node.node_id, Timer.RA, 0)
            elif isinstance(node, Host):
                self.set_timer(node.node_id, Timer.AUTOCONF, 0)

    # -- tracing ---------------------------------------------------------------

    def trace(self, node: str, kind: str, **attrs) -> None:
        self.trace_records.append(TraceRecord(self.now, node, kind, tuple(attrs.items())))

    def trace_text(self) -> str:
        return "".join([rec.line() + "\n" for rec in self.trace_records])

    # -- delivery ----------------------------------------------------------------

    def broadcast(self, src_id: str, msg: NdMessage, now: int) -> None:
        """Enqueue one delivery per other attached node after link latency,
        subject to filtering at the sender's ingress port on arrival."""
        self._trace_emission(src_id, msg)
        port = self.node_port.get(src_id)
        for node_id in self.nodes:
            if node_id == src_id:
                continue
            self.emitted += 1
            self.schedule(now + self.link_latency_ms, Deliver(msg, node_id, src_id, port))

    def _trace_emission(self, src_id: str, msg: NdMessage) -> None:
        if isinstance(msg, RouterAdvertisement):
            prefixes = ",".join(str(p.prefix) for p in msg.prefixes) or "-"
            self.trace(
                src_id, "ra-sent",
                src=msg.src_ip, lifetime=msg.router_lifetime,
                pref=msg.preference, prefixes=prefixes,
            )
        elif isinstance(msg, RouterSolicitation):
            self.trace(src_id, "rs-sent", src=msg.src_ip)
        elif isinstance(msg, NeighborSolicitation):
            self.trace(src_id, "ns-sent", target=msg.target)
        elif isinstance(msg, NeighborAdvertisement):
            self.trace(src_id, "na-sent", target=msg.target)

    def _handle_deliver(self, event: Deliver, now: int) -> None:
        if event.port is not None:
            reason = filter_ingress(event.port, event.msg)
            if reason is not None:
                self.dropped += 1
                self.trace(
                    self.switch_id, "ra-dropped",
                    port=event.port.port_id, reason=reason,
                    src=event.msg.src_ip, dst=event.dst,
                )
                return
        self.delivered += 1
        node = self.nodes[event.dst]
        if isinstance(node, Host) and isinstance(event.msg, RouterAdvertisement):
            self.trace(
                event.dst, "ra-received",
                src=event.msg.src_ip, lifetime=event.msg.router_lifetime,
                pref=event.msg.preference,
            )
        node.on_message(self, event.msg, event.src, now)

    # -- run loop -------------------------------------------------------------

    def run_until(self, t_end_ms: int) -> None:
        """Process all events with time <= t_end in (time, seq) order."""
        while self._queue and self._queue[0][0] <= t_end_ms:
            at, _seq, action = heapq.heappop(self._queue)
            self.now = at
            if isinstance(action, Deliver):
                self._handle_deliver(action, at)
            elif isinstance(action, TimerFire):
                self.nodes[action.node].on_timer(self, action.timer, at)
            else:
                self._handle_script(action, at)
        self.now = t_end_ms

    def _handle_script(self, step: ScriptStep, now: int) -> None:
        if isinstance(step, AttackDirective):
            node = self.nodes[step.attacker]
            if not isinstance(node, Attacker):
                raise SimInvariantError(f"{step.attacker} is not an attacker")
            self.trace(step.attacker, "attack-mode", mode=step.mode, target=step.target or "-")
            try:
                node.run_playbook(self, step.mode, step.target, now)
            except RuntimeError as exc:
                raise SimInvariantError(f"playbook failed: {exc}") from exc
        elif isinstance(step, MeasureDirective):
            self.measure(now)
        elif isinstance(step, ToggleDirective):
            node = self.nodes[step.node]
            if not isinstance(node, Router):
                raise SimInvariantError(f"{step.node} is not a router")
            node.enabled = step.enabled
            self.trace(step.node, "router-toggled", enabled="on" if step.enabled else "off")

    def execute(self, t_end_ms: int) -> RunMetrics:
        """Run to t_end, measuring at the end if the script never did, then
        verify message conservation and produce the merged metrics. Expects
        bootstrap() to have been called (the scenario builder does so)."""
        self.run_until(t_end_ms)
        if not self.measurements:
            self.measure(t_end_ms)
        metrics = self.final_metrics()
        if metrics.emitted != metrics.delivered + metrics.dropped + metrics.in_flight:
            raise SimInvariantError(
                f"message conservation broken: emitted={metrics.emitted}"
                f" delivered={metrics.delivered} dropped={metrics.dropped}"
                f" in_flight={metrics.in_flight}"
            )
        return metrics

    # -- measurement ---------------------------------------------------------------

    def deliver_to_sink(self, msg: DataMessage, via: str, now: int) -> list[str]:
        path = [msg.src_node, via, SINK]
        self.delivered += 1
        self.trace(
            SINK, "data-delivered",
            origin=msg.src_node, via=via, family=msg.family,
            payload=msg.payload_id, path=">".join(path),
        )
        return path

    def _probe(self, host: Host, now: int) -> ProbeResult:
        hop = host.resolve_next_hop(now)
        gateway = None
        if hop is not None:
            gateway = hop.gateway_node or self._ip_owner.get(hop.router_ip)
        if hop is None or gateway is None or gateway not in self.nodes:
            self.trace(host.node_id, "path-resolved", outcome="unreachable", via="-", family="-")
            return ProbeResult(None, False, (host.node_id,))
        self.trace(host.node_id, "path-resolved", outcome="via", via=gateway, family=hop.family)
        if hop.family is AddressFamily.IPV6:
            self._assert_source_assigned(host, hop.src_addr, now)
        msg = DataMessage(host.node_id, SINK, hop.family, hop.src_addr, next(self._payload_ids))
        self.emitted += 1
        self.trace(
            host.node_id, "data-sent",
            dst=SINK, family=hop.family, src=hop.src_addr, payload=msg.payload_id,
        )
        path = self.nodes[gateway].forward(self, msg, now)
        if path is None:
            self.dropped += 1
            return ProbeResult(hop.family, False, (host.node_id, gateway))
        return ProbeResult(hop.family, True, tuple(path))

    def _assert_source_assigned(self, host: Host, src_addr: str, now: int) -> None:
        for entry in host.addresses:
            if str(entry.address) == src_addr and entry.state is AddressState.ASSIGNED:
                return
        raise SimInvariantError(f"{host.node_id} sourced data from non-assigned {src_addr}")

    def measure(self, now: int) -> RunMetrics:
        """Snapshot per-host state and attack outcomes, probing one data path
        per host toward the external sink. Attack flags stay false in
        attacker-free scenarios."""
        snapshot = RunMetrics()
        under_attack = any(isinstance(n, Attacker) for n in self.nodes.values())
        for node in self.nodes.values():
            if not isinstance(node, Host):
                continue
            probe = self._probe(node, now)
            selected = node.select_default_router(now)
            default_router = None
            if selected is not None:
                default_router = self._ip_owner.get(selected.router_ip, str(selected.router_ip))
            observed_global = node.first_assigned_global(now)
            iid = split_global(observed_global.address)[1] if observed_global else node.iid
            snapshot.hosts[node.node_id] = HostMetrics(
                default_router=default_router,
                family_in_use=probe.family,
                iid=iid,
                addresses=[
                    str(e.address) for e in node.addresses if e.state is AddressState.ASSIGNED
                ],
            )
            if not under_attack:
                continue
            attacker_on_path = any(isinstance(self.nodes.get(h), Attacker) for h in probe.path)
            if not probe.delivered:
                snapshot.dos_success = True
            if attacker_on_path:
                snapshot.mitm_success = True
                if probe.family is AddressFamily.IPV6 and node.ipv4 is not None:
                    snapshot.dualstack_success = True
        self.measurements.append(snapshot)
        return snapshot

    def final_metrics(self) -> RunMetrics:
        """Host state from the last measurement; attack flags hold if any
        measurement saw the attack succeed."""
        merged = RunMetrics()
        if self.measurements:
            last = self.measurements[-1]
            merged.hosts = last.hosts
            merged.dos_success = any(m.dos_success for m in self.measurements)
            merged.mitm_success = any(m.mitm_success for m in self.measurements)
            merged.dualstack_success = any(m.dualstack_success for m in self.measurements)
        merged.emitted = self.emitted
        merged.delivered = self.delivered
        merged.dropped = self.dropped
        merged.in_flight = sum(1 for _, _, action in self._queue if isinstance(action, Deliver))
        return merged
