"""A plain reference simulator: the one oracle the product's runs are
compared with (through ``conftest.matches_reference``).

    run(sc, t_end_ms=None) -> str

takes a parsed ``Scenario`` and returns its trace text followed by its
``--metrics`` lines, as ``slaacsim run --trace/--metrics`` write them, or
``ScenarioError: <message>`` when an attack step ends the run.

It is written to be read, not to be fast, and repeats none of the product's
shortcuts:
- one heap of ``(time, seq, entry)``, with one entry per receiver of each
  broadcast, every timer booked however long after the end it is due, and
  each timer served as it comes;
- every receiver is called with every message it is delivered, and ignores
  the kinds it does not act on;
- every expiry tick sweeps the host's router list and addresses;
- a host takes an RA in four steps (router list, prefix screening, a new
  address, or a lifetime refresh under the two-hour rule), and each
  ``send=on`` host checks the signature for itself;
- each trace line is written by its own f-string.

It shares with the product only the message and address value types, the
defense primitives (port filtering, signing, verifying, CGA identifiers),
and the step and error types a ``Scenario`` holds.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass, replace
from typing import Optional

from slaacsim.addressing import (
    Ipv6Address,
    Prefix,
    derive_eui64,
    global_from,
    iid_text,
    is_link_local,
    link_local_from,
)
from slaacsim.defense import (
    RA_GUARD,
    SwitchPort,
    cga_generate,
    filter_ingress,
    key_secret,
    sign_ra,
    verify_ra,
)
from slaacsim.engine import AttackDirective, MeasureDirective, ScenarioError
from slaacsim.messages import (
    MS,
    NeighborAdvertisement,
    NeighborSolicitation,
    PrefixInfo,
    RouterAdvertisement,
    RouterPreference,
    RouterSolicitation,
)

DAD_MS = 1 * MS
TWO_HOURS_MS = 7200 * MS
SINK = "ext"


def run(sc, t_end_ms: Optional[int] = None) -> str:
    """``sc``'s trace and metrics text when run to ``t_end_ms`` (by default
    its run time), or the text of the scenario error that ends the run."""
    try:
        return Link(sc).run(sc.run_ms if t_end_ms is None else t_end_ms)
    except ScenarioError as exc:
        return f"ScenarioError: {exc}"


@dataclass
class Address:
    address: Ipv6Address
    state: str  # "tentative", "assigned" or "abandoned"
    prefix: Optional[Prefix]  # None for the link-local address
    valid_until: Optional[int] = None  # None: never expires
    preferred_until: Optional[int] = None


@dataclass
class DefaultRouter:
    ip: Ipv6Address
    expires: int
    preference: RouterPreference
    refreshed: int


class Link:
    """One switch, its nodes in declaration order, the queue and the trace."""

    def __init__(self, sc):
        self.latency = sc.link_latency_ms
        self.two_hour_rule = sc.two_hour_rule
        self.switch = sc.switch[0]
        self.rng = random.Random(sc.seed)
        self.trusted = {key_id: key_secret(key_id) for key_id in sc.trusts}
        self.now = 0
        self.queue: list = []
        self.seq = itertools.count()
        self.lines: list[str] = []
        self.payloads = itertools.count(1)
        self.emitted = self.delivered = self.dropped = 0
        self.armed = False
        self.flags = {"dos_success": False, "mitm_success": False, "dualstack_success": False}
        self.measured: dict[str, str] = {}  # host id -> its metrics line, from the last measure
        self.nodes: dict = {}
        self.ports: dict[str, SwitchPort] = {}
        self.owner: dict[Ipv6Address, str] = {}  # advertised source address -> node
        guarded = {policy.port for policy in sc.policies if policy.kind == RA_GUARD}
        acls = {policy.port: frozenset(policy.acl) for policy in sc.policies if policy.kind != RA_GUARD}
        ports = {attach.node: attach for attach in sc.attaches}
        for kind, node_id, values in sc.nodes:
            if kind == "router":
                node = Advertiser(node_id, values, "", sc.keys.get(node_id))
                self.owner[node.ra.src_ip] = node_id
            elif kind == "host":
                node = HostNode(node_id, values)
            else:
                node = AttackerNode(node_id, values)
                if node.persona is not None:
                    self.owner[node.persona.ra.src_ip] = node_id
            self.nodes[node_id] = node
            port = ports[node_id]
            self.ports[node_id] = SwitchPort(port.port, port.port_class, port.port in guarded, acls.get(port.port))
        for node_id, node in self.nodes.items():
            if isinstance(node, Advertiser):
                self.timer(0, node_id, "ra")
            elif isinstance(node, HostNode):
                self.timer(0, node_id, "autoconf")
        for at, step in sc.directives:
            self.push(at, ("step", step))

    # -- the queue ----------------------------------------------------------------

    def push(self, at: int, entry: tuple) -> None:
        heapq.heappush(self.queue, (at, next(self.seq), entry))

    def timer(self, at: int, node_id: str, what: str, address=None) -> None:
        self.push(at, ("timer", node_id, what, address))

    def run(self, t_end_ms: int) -> str:
        while self.queue and self.queue[0][0] <= t_end_ms:
            self.now, _, entry = heapq.heappop(self.queue)
            if entry[0] == "timer":
                _, node_id, what, address = entry
                self.nodes[node_id].on_timer(self, what, address)
            elif entry[0] == "deliver":
                self.deliver(*entry[1:])
            else:
                self.script(entry[1])
        self.now = t_end_ms
        if not self.measured:
            self.measure()
        in_flight = sum(1 for _, _, entry in self.queue if entry[0] == "deliver")
        assert self.emitted == self.delivered + self.dropped + in_flight
        lines = list(self.measured.values())
        lines += [f"{flag}={'true' if raised else 'false'}" for flag, raised in self.flags.items()]
        lines.append(
            f"counters emitted={self.emitted} delivered={self.delivered}"
            f" dropped={self.dropped} in_flight={in_flight}"
        )
        return "".join(self.lines) + "\n".join(lines)

    def trace(self, node_id: str, text: str) -> None:
        self.lines.append(f"t={self.now} node={node_id} kind={text}\n")

    # -- messages -------------------------------------------------------------------

    def broadcast(self, src: str, msg) -> None:
        if isinstance(msg, RouterAdvertisement):
            prefixes = ",".join(str(info.prefix) for info in msg.prefixes) or "-"
            self.trace(src, f"ra-sent src={msg.src_ip!s} lifetime={msg.router_lifetime}"
                            f" pref={msg.preference!s} prefixes={prefixes}")
        elif isinstance(msg, RouterSolicitation):
            self.trace(src, f"rs-sent src={msg.src_ip!s}")
        elif isinstance(msg, NeighborSolicitation):
            self.trace(src, f"ns-sent target={msg.target!s}")
        else:
            self.trace(src, f"na-sent target={msg.target!s}")
        for dst in self.nodes:
            if dst != src:
                self.emitted += 1
                self.push(self.now + self.latency, ("deliver", msg, src, dst))

    def deliver(self, msg, src: str, dst: str) -> None:
        port = self.ports[src]
        reason = filter_ingress(port, msg)
        if reason is not None:
            self.dropped += 1
            self.trace(self.switch, f"ra-dropped port={port.port_id} reason={reason} src={msg.src_ip!s} dst={dst}")
            return
        self.delivered += 1
        self.nodes[dst].on_message(self, msg, src)

    # -- script steps and measuring ----------------------------------------------------

    def script(self, step) -> None:
        if isinstance(step, AttackDirective):
            mode = str(step.mode)
            self.trace(step.attacker, f"attack-mode mode={mode} target={step.target or '-'}")
            self.nodes[step.attacker].arm(self, mode, step.target)
            if mode != "passive":
                self.armed = True
        elif isinstance(step, MeasureDirective):
            self.measure()
        else:
            self.nodes[step.node].enabled = step.enabled
            self.trace(step.node, f"router-toggled enabled={'on' if step.enabled else 'off'}")

    def measure(self) -> None:
        self.measured = {}
        for host in self.nodes.values():
            if not isinstance(host, HostNode):
                continue
            family, gateway, delivered = self.probe(host)
            router = host.default_router(self.now)
            shown = "none" if router is None else self.owner.get(router.ip, str(router.ip))
            addresses = ",".join(str(a.address) for a in host.addresses if a.state == "assigned")
            self.measured[host.node_id] = (
                f"host={host.node_id} default_router={shown} family_in_use={family or 'none'}"
                f" iid={iid_text(host.iid)} addresses={addresses or '-'}"
            )
            if self.armed:
                if not delivered:
                    self.flags["dos_success"] = True
                if isinstance(self.nodes.get(gateway), AttackerNode):
                    self.flags["mitm_success"] = True
                    if family == "ipv6" and host.ipv4 is not None:
                        self.flags["dualstack_success"] = True

    def probe(self, host: "HostNode"):
        """One payload from ``host`` toward the sink: (family, gateway,
        delivered), with None for the family and gateway when no path resolves."""
        source = router = gateway = None
        if host.ipv6:
            source, router = host.global_source(self.now), host.default_router(self.now)
        if source is not None and router is not None:
            family, gateway, src = "ipv6", self.owner.get(router.ip), source.address
        elif host.ipv4 is not None:
            family, (src, gateway) = "ipv4", host.ipv4
        if gateway is None:
            self.trace(host.node_id, "path-resolved outcome=unreachable via=- family=-")
            return None, None, False
        self.trace(host.node_id, f"path-resolved outcome=via via={gateway} family={family}")
        payload = next(self.payloads)
        self.emitted += 1
        self.trace(host.node_id, f"data-sent dst={SINK} family={family} src={src!s} payload={payload}")
        if not self.nodes[gateway].routes():
            self.dropped += 1
            self.trace(gateway, f"blackhole-drop origin={host.node_id} payload={payload}")
            return family, gateway, False
        self.delivered += 1
        self.trace(SINK, f"data-delivered origin={host.node_id} via={gateway} family={family}"
                         f" payload={payload} path={host.node_id}>{gateway}>{SINK}")
        return family, gateway, True


class HostNode:
    def __init__(self, node_id: str, values: dict):
        self.node_id = node_id
        if "iid" in values:
            self.iid = values["iid"]
        elif "cga-key" in values:
            self.iid = cga_generate(values["cga-key"], values["cga-modifier"])
        else:
            self.iid = derive_eui64(values["mac"])
        self.ipv6 = values["ipv6"]
        self.ipv4 = (values["ipv4"], values["gw4"]) if "ipv4" in values else None
        self.send = values["send"]
        self.addresses: list[Address] = []
        self.routers: list[DefaultRouter] = []

    def on_timer(self, link: Link, what: str, address) -> None:
        if what == "autoconf":
            if self.ipv6:  # booked once, at 0
                entry = Address(link_local_from(self.iid), "tentative", None)
                self.addresses.append(entry)
                self.start_dad(link, entry)
        elif what == "expiry":
            self.sweep(link)
        else:  # the DAD deadline of ``address``
            entry = self.entry_for(address)
            if entry is not None and entry.state == "tentative":
                entry.state = "assigned"
                origin = "link-local" if entry.prefix is None else "slaac"
                link.trace(self.node_id, f"addr-assigned addr={address!s} origin={origin}")
                if entry.prefix is None:
                    link.broadcast(self.node_id, RouterSolicitation(address))

    def on_message(self, link: Link, msg, src: str) -> None:
        if isinstance(msg, RouterAdvertisement):
            self.take_ra(link, msg)
        elif isinstance(msg, NeighborSolicitation):
            entry = self.entry_for(msg.target)
            if entry is None:
                return
            # A held address is defended; of two probes for one address the
            # smaller node id wins.
            if entry.state == "assigned" or self.node_id < src:
                link.broadcast(self.node_id, NeighborAdvertisement(entry.address))
            else:
                entry.state = "abandoned"
                link.trace(self.node_id, f"dad-failed addr={entry.address!s}")
        # An NA changes nothing here. Every host starts at 0 and hears the
        # same RAs, so two probes for one address always overlap, and the
        # loser gives up on the winner's NS, which is sent before the
        # winner's NA. No scenario can hold an address while another host
        # first probes for it.

    def start_dad(self, link: Link, entry: Address) -> None:
        deadline = link.now + DAD_MS
        link.trace(self.node_id, f"dad-start addr={entry.address!s} deadline={deadline}")
        link.broadcast(self.node_id, NeighborSolicitation(entry.address))
        link.timer(deadline, self.node_id, "dad", entry.address)

    def entry_for(self, address) -> Optional[Address]:
        for entry in self.addresses:
            if entry.address == address and entry.state != "abandoned":
                return entry
        return None

    def sweep(self, link: Link) -> None:
        for router in list(self.routers):
            if router.expires <= link.now:
                self.routers.remove(router)
                link.trace(self.node_id, f"router-removed router={router.ip!s} reason=expired")
        for entry in list(self.addresses):
            if entry.state != "abandoned" and entry.valid_until is not None and entry.valid_until <= link.now:
                self.addresses.remove(entry)
                link.trace(self.node_id, f"addr-abandoned addr={entry.address!s} reason=expired")

    # -- an RA, in four steps -------------------------------------------------------------

    def take_ra(self, link: Link, ra: RouterAdvertisement) -> None:
        link.trace(self.node_id, f"ra-received src={ra.src_ip!s} lifetime={ra.router_lifetime}"
                                 f" pref={ra.preference!s}")
        if not self.ipv6:
            return
        if self.send and not verify_ra(ra, link.trusted):
            link.trace(self.node_id, f"ra-rejected-send src={ra.src_ip!s}")
            return
        self.update_router_list(link, ra)
        for info in ra.prefixes:
            if is_link_local(info.prefix.address):
                link.trace(self.node_id, f"prefix-ignored prefix={info.prefix!s} reason=link-local")
            elif info.prefix.length != 64:
                link.trace(self.node_id, f"prefix-ignored prefix={info.prefix!s} reason=length")
            else:
                self.take_prefix(link, info)

    def update_router_list(self, link: Link, ra: RouterAdvertisement) -> None:
        known = [router for router in self.routers if router.ip == ra.src_ip]
        if ra.router_lifetime > 0:
            expires = link.now + ra.router_lifetime * MS
            if known:
                known[0].expires, known[0].preference, known[0].refreshed = expires, ra.preference, link.now
                kind = "router-refreshed"
            else:
                self.routers.append(DefaultRouter(ra.src_ip, expires, ra.preference, link.now))
                kind = "router-added"
            link.trace(self.node_id, f"{kind} router={ra.src_ip!s} pref={ra.preference!s} expires={expires}")
            link.timer(expires, self.node_id, "expiry")
        elif known:
            self.routers.remove(known[0])
            link.trace(self.node_id, f"router-removed router={ra.src_ip!s} reason=lifetime-zero")

    def take_prefix(self, link: Link, info: PrefixInfo) -> None:
        now = link.now
        held = [entry for entry in self.addresses if entry.prefix == info.prefix]
        if not held:
            if info.valid_lifetime == 0:  # RFC 4862 5.5.3(d)
                link.trace(self.node_id, f"prefix-ignored prefix={info.prefix!s} reason=valid-zero")
                return
            entry = Address(
                global_from(info.prefix, self.iid), "tentative", info.prefix,
                now + info.valid_lifetime * MS, now + info.preferred_lifetime * MS,
            )
            self.addresses.append(entry)
            link.timer(entry.valid_until, self.node_id, "expiry")
            self.start_dad(link, entry)
        elif held[0].state != "abandoned":  # a failed DAD blocks the prefix for good
            entry = held[0]
            received = info.valid_lifetime * MS
            kept = received
            # The two-hour rule: an RA that would shorten the lifetime to two
            # hours or less keeps two hours of it, or all of it when less is left.
            remaining = max(0, entry.valid_until - now)
            if link.two_hour_rule and received <= TWO_HOURS_MS and received <= remaining:
                kept = min(remaining, TWO_HOURS_MS)
            entry.valid_until = now + kept
            entry.preferred_until = min(now + info.preferred_lifetime * MS, entry.valid_until)
            link.timer(entry.valid_until, self.node_id, "expiry")
            link.trace(self.node_id, f"addr-lifetime addr={entry.address!s} valid_ms={kept}")

    # -- measuring ------------------------------------------------------------------------

    def default_router(self, now: int) -> Optional[DefaultRouter]:
        """The highest preference among live routers, then the latest
        refresh, then the lowest address."""
        live = [router for router in self.routers if router.expires > now]
        return max(live, key=lambda r: (r.preference, r.refreshed, -r.ip), default=None)

    def global_source(self, now: int) -> Optional[Address]:
        """The first assigned global address still preferred, else the first
        assigned one."""
        assigned = [a for a in self.addresses if a.prefix is not None and a.state == "assigned"]
        preferred = [a for a in assigned if a.preferred_until > now]
        return (preferred or assigned or [None])[0]


class Advertiser:
    """A router, or an attacker's persona: the one RA it sends and when."""

    def __init__(self, node_id: str, values: dict, key: str, sign_with: Optional[str]):
        # ``key`` is "" for a router's own options, "persona-" for a persona's.
        ra = RouterAdvertisement(
            values["mac"], values["ip"], values[key + "lifetime"], values[key + "preference"],
            tuple(PrefixInfo(p, values[key + "valid"], values[key + "preferred"])
                  for p in values.get(key + "prefix") or ()),
        )
        self.node_id = node_id
        self.ra = ra if sign_with is None else sign_ra(ra, sign_with)
        self.interval = values[key + "interval"]
        self.can_route = values[key + "routes"]
        self.ra_on = values.get("ra", True)  # a persona has no ra= or jitter= of its own
        self.jitter = values.get("jitter", 0)
        self.enabled = True

    def emit(self, link: Link) -> None:
        if self.enabled and self.ra_on:
            link.broadcast(self.node_id, self.ra)

    def emit_periodic(self, link: Link) -> int:
        """Emit now and book the next emission; returns its time."""
        self.emit(link)
        at = link.now + self.interval + (link.rng.randint(0, self.jitter) if self.jitter else 0)
        link.timer(at, self.node_id, "ra")
        return at

    def on_timer(self, link: Link, what: str, address) -> None:
        self.emit_periodic(link)

    def on_message(self, link: Link, msg, src: str) -> None:
        if isinstance(msg, RouterSolicitation):
            self.emit(link)

    def routes(self) -> bool:
        return self.can_route


class AttackerNode:
    def __init__(self, node_id: str, values: dict):
        self.node_id = node_id
        has_persona = any(key.startswith("persona-") for key in values)
        self.persona = Advertiser(node_id, values, "persona-", None) if has_persona else None
        self.captured: dict[str, RouterAdvertisement] = {}  # sender -> its latest RA, oldest first
        self.mode = "passive"
        self.forge_at: Optional[int] = None

    def on_message(self, link: Link, msg, src: str) -> None:
        if isinstance(msg, RouterAdvertisement):
            self.captured.pop(src, None)
            self.captured[src] = msg
            link.trace(self.node_id, f"ra-captured src={msg.src_ip!s} lifetime={msg.router_lifetime}")

    def on_timer(self, link: Link, what: str, address) -> None:
        if link.now == self.forge_at:  # a tick booked before the last arming is stale
            self.forge_at = self.persona.emit_periodic(link)

    def arm(self, link: Link, mode: str, target: Optional[str]) -> None:
        self.mode, self.forge_at = mode, None
        if mode == "kill-router":
            if target not in self.captured:
                raise ScenarioError(
                    f"attack {self.node_id} {mode} at t={link.now} ms:"
                    f" {self.node_id} holds no captured RA from {target}"
                )
            link.broadcast(self.node_id, replace(self.captured[target], router_lifetime=0, auth=None))
        elif mode != "passive":  # fake-router, blackhole or dual-stack: the persona advertises
            if mode == "fake-router" and self.captured:
                latest = list(self.captured.values())[-1]
                link.broadcast(self.node_id, replace(latest, router_lifetime=0, auth=None))
            self.forge_at = self.persona.emit_periodic(link)

    def routes(self) -> bool:
        if self.mode == "fake-router":
            return True
        if self.mode == "blackhole":
            return False
        return self.persona is not None and self.persona.can_route
