"""Line-oriented scenario files: parsing, validation, canonical re-printing,
and wiring a parsed scenario into an engine.

Grammar (one directive per line, ``#`` starts a comment)::

    link-latency <sec>
    switch <id> ports=<n>
    node router <id> mac=<mac> [ip=<v6>] [prefix=<p>/64[,...]] [lifetime=<s>]
         [preference=low|medium|high] [interval=<s>] [valid=<s>] [preferred=<s>]
         [routes=yes|no] [ra=on|off] [jitter=<s>]
    node host <id> mac=<mac> [ipv6=on|off] [ipv4=<v4> gw4=<node>] [send=on|off]
         [iid=<16 hex>] [cga-key=<id> cga-modifier=<n>]
    node attacker <id> mac=<mac> [ip=<v6>] [persona-prefix=<p>/64]
         [persona-lifetime=<s>] [persona-preference=<pref>] [persona-interval=<s>]
         [persona-routes=yes|no] [persona-valid=<s>] [persona-preferred=<s>]
    attach <node> <switch>.<port> class=router|host
    policy <switch>.<port> ra-guard
    policy <switch>.<port> acl=<mac>[,<mac>...]
    policy global two-hour-rule
    key <router> <key-id>                 (at most one per router)
    trust <key-id>
    at <sec> attack <attacker> kill-router target=<router with ra=on, or another attacker>
    at <sec> attack <attacker> fake-router|blackhole|dual-stack|passive
    at <sec> measure
    at <sec> disable <router> | enable <router>
    allow-dup-mac
    expect <metric>=<value>
    run <sec> [seed=<n>]

Every ``<sec>`` is a finite number of seconds in 0..MAX_TIME_S; a switch has
1..MAX_PORTS ports, named p1, p2, ...
"""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Optional

from .addressing import (
    Ipv4Address,
    Ipv6Address,
    MacAddress,
    Prefix,
    derive_eui64,
    iid_text,
    link_local_from,
    parse_iid,
)
from .attacker import FORGING_MODES, Attacker, AttackMode
from .defense import PortClass, SwitchPort, key_secret
from .engine import (
    FLAGS,
    SINK,
    AttackDirective,
    Engine,
    MeasureDirective,
    RunMetrics,
    ScriptStep,
    ToggleDirective,
)
from .host import Host
from .messages import MAX_ROUTER_LIFETIME, MS, PrefixInfo, RouterAdvertisement, RouterPreference
from .router import Router

# Bounds on input values. Both sit far above any run the simulator is meant
# for (the longest shipped workload is two simulated hours on 11 ports) and
# keep a malformed file from asking for unbounded time or memory.
MAX_TIME_S = 10**7
MAX_PORTS = 4096

PERSONA = "persona-"

_ID_RE = re.compile(r"^[A-Za-z0-9_-]+$")
_PORT_RE = re.compile(r"p([1-9][0-9]*)")

ATTACK_MODES = {m.value: m for m in AttackMode}
HOST_METRIC_FIELDS = ("default_router", "family_in_use", "iid")


class ScenarioError(ValueError):
    pass


class ScenarioParseError(ScenarioError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ScenarioValidationError(ScenarioError):
    pass


# -- option values ---------------------------------------------------------------
# Parsers raise ValueError; parse_scenario prefixes the line number.

def _time_ms(text: str) -> int:
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"bad time {text!r}") from None
    if not 0 <= value <= MAX_TIME_S:  # also false for nan
        raise ValueError(f"time {text!r} out of range 0..{MAX_TIME_S}")
    return round(value * MS)


def _fmt_time(ms: int) -> str:
    if ms % MS == 0:
        return str(ms // MS)
    return f"{ms // MS}.{ms % MS:03d}".rstrip("0")


def _interval_ms(text: str) -> int:
    value = _time_ms(text)
    if value <= 0:
        raise ValueError("interval must be positive")
    return value


def _int_in(low: int, high: float = math.inf) -> Callable[[str], int]:
    def parse(text: str) -> int:
        value = int(text)
        if not low <= value <= high:
            raise ValueError(f"{value} out of range {low}..{high}")
        return value

    return parse


def _on_off(text: str) -> bool:
    if text in ("on", "yes"):
        return True
    if text in ("off", "no"):
        return False
    raise ValueError(f"bad value {text!r} (want on/off or yes/no)")


def _show_on_off(value: bool) -> str:
    return "on" if value else "off"


def _show_yes_no(value: bool) -> str:
    return "yes" if value else "no"


def _prefixes(text: str) -> Optional[tuple[Prefix, ...]]:
    return tuple(Prefix.parse(p) for p in text.split(",") if p) or None  # empty: unset


def _show_prefixes(prefixes: tuple[Prefix, ...]) -> str:
    return ",".join(str(p) for p in prefixes)


def _node_id(text: str) -> str:
    if not _ID_RE.match(text) or text in (SINK, "global"):
        raise ValueError(f"bad identifier {text!r}")
    return text


_router_lifetime = _int_in(0, MAX_ROUTER_LIFETIME)
_seconds = _int_in(0)
_port_count = _int_in(1, MAX_PORTS)


# -- node option tables -------------------------------------------------------------

@dataclass(frozen=True)
class Option:
    """One ``key=value`` option of a node line. ``default`` is the value an
    absent key takes; None leaves the option unset, and unset options are
    not printed."""

    key: str
    parse: Callable[[str], Any]
    show: Callable[[Any], str] = str
    default: Any = None


_MAC = Option("mac", MacAddress.parse)  # required on every node
_IP = Option("ip", Ipv6Address.parse)  # defaults to the link-local address of the mac

ROUTER_OPTIONS = (
    _MAC,
    _IP,
    Option("prefix", _prefixes, _show_prefixes),
    Option("lifetime", _router_lifetime, str, 1800),
    Option("preference", RouterPreference.parse, str, RouterPreference.MEDIUM),
    Option("interval", _interval_ms, _fmt_time, 10 * MS),
    Option("valid", _seconds, str, 3600),
    Option("preferred", _seconds, str, 3600),
    Option("routes", _on_off, _show_yes_no, True),
    Option("ra", _on_off, _show_on_off, True),
    Option("jitter", _time_ms, _fmt_time, 0),
)

HOST_OPTIONS = (
    _MAC,
    Option("ipv6", _on_off, _show_on_off, True),
    Option("ipv4", Ipv4Address.parse),
    Option("gw4", str),
    Option("send", _on_off, _show_on_off, False),
    Option("iid", parse_iid, iid_text),
    Option("cga-key", str),
    Option("cga-modifier", int),
)

# The persona is the router the attacker impersonates: the router's options
# with a ``persona-`` prefix, one prefix only, no ip/ra/jitter of its own and
# a longer default lifetime. Its options take defaults only when the line
# gives at least one of them; otherwise the attacker has no persona.
_router_option = {o.key: o for o in ROUTER_OPTIONS}
ATTACKER_OPTIONS = (
    _MAC,
    _IP,
    replace(_router_option["prefix"], key="persona-prefix", parse=lambda t: (Prefix.parse(t),)),
    replace(_router_option["lifetime"], key="persona-lifetime", default=9000),
    *(
        replace(_router_option[k], key=PERSONA + k)
        for k in ("preference", "interval", "routes", "valid", "preferred")
    ),
)
_PERSONA_KEYS = frozenset(o.key for o in ATTACKER_OPTIONS if o.key.startswith(PERSONA))

NODE_OPTIONS: dict[str, dict[str, Option]] = {
    kind: {o.key: o for o in options}
    for kind, options in (
        ("router", ROUTER_OPTIONS),
        ("host", HOST_OPTIONS),
        ("attacker", ATTACKER_OPTIONS),
    )
}

# Rules across the options of one node line.
_TOGETHER = (("ipv4", "gw4"), ("cga-key", "cga-modifier"))
_EXCLUSIVE = (("iid", "cga-key"),)
_NOT_ABOVE = (("preferred", "valid"), ("persona-preferred", "persona-valid"))


# -- declarations -------------------------------------------------------------

@dataclass(frozen=True)
class NodeDecl:
    """One ``node`` line: the value of each option given or defaulted."""

    kind: str  # a key of NODE_OPTIONS
    node_id: str
    options: dict[str, Any]

    @property
    def mac(self) -> MacAddress:
        return self.options["mac"]


@dataclass(frozen=True)
class AttachDecl:
    node: str
    switch: str
    port: str
    port_class: PortClass


@dataclass(frozen=True)
class PolicyLine:
    switch: str
    port: str
    kind: str  # "ra-guard" | "acl"
    acl: tuple[MacAddress, ...] = ()


@dataclass
class Scenario:
    link_latency_ms: int = 1
    switch: Optional[tuple[str, int]] = None
    nodes: list[NodeDecl] = field(default_factory=list)
    attaches: list[AttachDecl] = field(default_factory=list)
    policies: list[PolicyLine] = field(default_factory=list)
    two_hour_rule: bool = False
    keys: dict[str, str] = field(default_factory=dict)  # router -> key id
    trusts: list[str] = field(default_factory=list)
    directives: list[tuple[int, ScriptStep]] = field(default_factory=list)
    expects: list[tuple[str, str]] = field(default_factory=list)
    allow_dup_mac: bool = False
    run_ms: int = 0
    seed: int = 0

    def node_ids(self) -> list[str]:
        return [n.node_id for n in self.nodes]


# -- parsing -------------------------------------------------------------------

def _kv(tokens: list[str], allowed) -> dict[str, str]:
    out: dict[str, str] = {}
    for token in tokens:
        key, sep, value = token.partition("=")
        if not sep:
            raise ValueError(f"expected key=value, got {token!r}")
        if key not in allowed:
            raise ValueError(f"unknown key {key!r}")
        if key in out:
            raise ValueError(f"duplicate key {key!r}")
        out[key] = value
    return out


def _port_ref(text: str) -> tuple[str, str]:
    switch, sep, port = text.partition(".")
    if not sep or not switch or not port:
        raise ValueError(f"expected <switch>.<port>, got {text!r}")
    return switch, port


def _need(tokens: list[str], count: int) -> None:
    if len(tokens) != count:
        raise ValueError(f"expected {count} tokens, got {len(tokens)}")


def _need_at_least(tokens: list[str], count: int) -> None:
    if len(tokens) < count:
        raise ValueError(f"expected at least {count} tokens")


def parse_scenario(text: str) -> Scenario:
    sc = Scenario()
    seen_run = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        try:
            if head == "link-latency":
                _need(tokens, 2)
                sc.link_latency_ms = _time_ms(tokens[1])
            elif head == "switch":
                if sc.switch is not None:
                    raise ValueError("only one switch is supported")
                _need(tokens, 3)
                ports = _kv(tokens[2:], ("ports",))["ports"]
                sc.switch = (_node_id(tokens[1]), _port_count(ports))
            elif head == "node":
                _need_at_least(tokens, 3)
                sc.nodes.append(_parse_node(tokens))
            elif head == "attach":
                _need(tokens, 4)
                switch, port = _port_ref(tokens[2])
                class_text = _kv(tokens[3:], ("class",))["class"]
                try:
                    port_class = PortClass(class_text)
                except ValueError:
                    raise ValueError(f"bad port class {class_text!r}") from None
                sc.attaches.append(AttachDecl(tokens[1], switch, port, port_class))
            elif head == "policy":
                _parse_policy(sc, tokens)
            elif head == "key":
                _need(tokens, 3)
                if tokens[1] in sc.keys:
                    raise ValueError(f"{tokens[1]} already has a key")
                sc.keys[tokens[1]] = _node_id(tokens[2])
            elif head == "trust":
                _need(tokens, 2)
                sc.trusts.append(_node_id(tokens[1]))
            elif head == "at":
                _need_at_least(tokens, 3)
                sc.directives.append(_parse_step(tokens))
            elif head == "expect":
                _need(tokens, 2)
                key, sep, value = tokens[1].partition("=")
                if not sep:
                    raise ValueError("expect needs <metric>=<value>")
                sc.expects.append((key, value))
            elif head == "allow-dup-mac":
                sc.allow_dup_mac = True
            elif head == "run":
                _need_at_least(tokens, 2)
                sc.run_ms = _time_ms(tokens[1])
                kv = _kv(tokens[2:], ("seed",))
                if "seed" in kv:
                    sc.seed = int(kv["seed"])
                seen_run = True
            else:
                raise ValueError(f"unknown directive {head!r}")
        except ValueError as exc:
            raise ScenarioParseError(line_no, str(exc)) from exc
    if not seen_run:
        raise ScenarioValidationError("scenario has no run directive")
    _validate(sc)
    return sc


def _parse_node(tokens: list[str]) -> NodeDecl:
    kind = tokens[1]
    node_id = _node_id(tokens[2])
    options = NODE_OPTIONS.get(kind)
    if options is None:
        raise ValueError(f"unknown node kind {kind!r}")
    given = _kv(tokens[3:], options)
    if "mac" not in given:
        raise ValueError("node needs mac=<address>")
    for a, b in _TOGETHER:
        if (a in given) != (b in given):
            raise ValueError(f"{a} and {b} must be given together")
    for a, b in _EXCLUSIVE:
        if a in given and b in given:
            raise ValueError(f"{a} and {b} are mutually exclusive")
    with_persona = not _PERSONA_KEYS.isdisjoint(given)
    values: dict[str, Any] = {}
    for key, option in options.items():
        if key in given:
            try:
                value = option.parse(given[key])
            except ValueError as exc:
                raise ValueError(f"{key}: {exc}") from None
        elif with_persona or key not in _PERSONA_KEYS:
            value = option.default
        else:
            continue
        if value is not None:
            values[key] = value
    if "ip" in options and "ip" not in values:
        values["ip"] = link_local_from(derive_eui64(values["mac"]))
    for lower, upper in _NOT_ABOVE:
        if lower in values and values[lower] > values[upper]:
            raise ValueError(f"{lower} lifetime exceeds {upper} lifetime")
    return NodeDecl(kind, node_id, values)


def _parse_policy(sc: Scenario, tokens: list[str]) -> None:
    _need(tokens, 3)
    if tokens[1] == "global":
        if tokens[2] != "two-hour-rule":
            raise ValueError(f"unknown global policy {tokens[2]!r}")
        sc.two_hour_rule = True
        return
    switch, port = _port_ref(tokens[1])
    spec = tokens[2]
    if spec == "ra-guard":
        sc.policies.append(PolicyLine(switch, port, "ra-guard"))
    elif spec.startswith("acl="):
        macs = tuple(MacAddress.parse(m) for m in spec[len("acl="):].split(",") if m)
        sc.policies.append(PolicyLine(switch, port, "acl", macs))
    else:
        raise ValueError(f"unknown policy {spec!r}")


def _parse_step(tokens: list[str]) -> tuple[int, ScriptStep]:
    time_ms = _time_ms(tokens[1])
    verb = tokens[2]
    if verb == "measure":
        _need(tokens, 3)
        return time_ms, MeasureDirective()
    if verb in ("disable", "enable"):
        _need(tokens, 4)
        return time_ms, ToggleDirective(tokens[3], verb == "enable")
    if verb == "attack":
        _need_at_least(tokens, 5)
        mode = ATTACK_MODES.get(tokens[4])
        if mode is None:
            raise ValueError(f"unknown attack mode {tokens[4]!r}")
        target = _kv(tokens[5:], ("target",)).get("target")
        if mode is AttackMode.KILL_ROUTER and target is None:
            raise ValueError("kill-router needs target=<router>")
        if mode is not AttackMode.KILL_ROUTER and target is not None:
            raise ValueError(f"{mode} takes no target")
        return time_ms, AttackDirective(tokens[3], mode, target)
    raise ValueError(f"unknown directive {verb!r}")


# -- validation ------------------------------------------------------------------

def _validate(sc: Scenario) -> None:
    ids = sc.node_ids()
    dup = _repeated(ids)
    if dup:
        raise ScenarioValidationError(f"duplicate node id(s): {sorted(dup)}")
    declared = set(ids)
    if not sc.allow_dup_mac:
        dup_macs = _repeated(str(n.mac) for n in sc.nodes)
        if dup_macs:
            raise ScenarioValidationError(
                f"duplicate MAC(s) {sorted(dup_macs)}; add allow-dup-mac to permit"
            )
    # The engine maps the address a router or a persona advertises from to its node.
    dup_ips = _repeated(str(n.options["ip"]) for n in sc.nodes if "ip" in n.options)
    if dup_ips:
        raise ScenarioValidationError(f"routers or attackers share address(es) {sorted(dup_ips)}")
    if sc.switch is None:
        raise ScenarioValidationError("scenario needs a switch")
    switch_id, port_count = sc.switch

    def on_switch(switch: str, port: str) -> bool:
        match = _PORT_RE.fullmatch(port)
        return switch == switch_id and match is not None and int(match[1]) <= port_count

    attached: dict[str, str] = {}
    used_ports: set[str] = set()
    for att in sc.attaches:
        if att.node not in declared:
            raise ScenarioValidationError(f"attach references undeclared node {att.node!r}")
        if not on_switch(att.switch, att.port):
            raise ScenarioValidationError(f"attach references unknown port {att.switch}.{att.port}")
        if att.node in attached:
            raise ScenarioValidationError(f"node {att.node!r} attached twice")
        if att.port in used_ports:
            raise ScenarioValidationError(f"port {att.port!r} attached twice")
        attached[att.node] = att.port
        used_ports.add(att.port)
    missing = declared - set(attached)
    if missing:
        raise ScenarioValidationError(f"node(s) not attached to the switch: {sorted(missing)}")
    for pol in sc.policies:
        if not on_switch(pol.switch, pol.port):
            raise ScenarioValidationError(f"policy references unknown port {pol.switch}.{pol.port}")
    of_kind = {kind: {n.node_id for n in sc.nodes if n.kind == kind} for kind in NODE_OPTIONS}
    routers, hosts, attackers = of_kind["router"], of_kind["host"], of_kind["attacker"]
    personas = {n.node_id for n in sc.nodes if not _PERSONA_KEYS.isdisjoint(n.options)}
    # The nodes whose advertisements an attacker can capture: routers with RA on and attackers.
    ra_senders = attackers | {n.node_id for n in sc.nodes if n.kind == "router" and n.options["ra"]}
    for node in sc.keys:
        if node not in routers:
            raise ScenarioValidationError(f"key holder {node!r} is not a declared router")
    for key_id in sc.trusts:
        if key_id not in sc.keys.values():
            raise ScenarioValidationError(f"trust references unknown key {key_id!r}")
    for n in sc.nodes:
        gw4 = n.options.get("gw4")
        if gw4 is not None and gw4 not in routers and gw4 not in attackers:
            raise ScenarioValidationError(
                f"gw4 {gw4!r} of {n.node_id!r} is not a declared router or attacker"
            )
    for _time, step in sc.directives:
        if isinstance(step, AttackDirective):
            if step.attacker not in attackers:
                raise ScenarioValidationError(f"attack references non-attacker {step.attacker!r}")
            if step.mode in FORGING_MODES and step.attacker not in personas:
                raise ScenarioValidationError(f"{step.attacker!r} has no persona for {step.mode}")
            if step.target is not None and step.target not in declared:
                raise ScenarioValidationError(f"attack target {step.target!r} not declared")
            if step.target is not None and step.target not in ra_senders - {step.attacker}:
                raise ScenarioValidationError(
                    f"attack target {step.target!r} sends no RA {step.attacker!r} can capture"
                )
        elif isinstance(step, ToggleDirective):
            if step.node not in routers:
                raise ScenarioValidationError(f"enable/disable references non-router {step.node!r}")
    for key, _value in sc.expects:
        if key in FLAGS:
            continue
        host_id, sep, fld = key.partition(".")
        if not sep or host_id not in hosts or fld not in HOST_METRIC_FIELDS:
            raise ScenarioValidationError(f"unknown expectation metric {key!r}")


def _repeated(items) -> set:
    return {item for item, count in Counter(items).items() if count > 1}


# -- canonical writer ---------------------------------------------------------------

def print_scenario(sc: Scenario) -> str:
    lines = [f"link-latency {_fmt_time(sc.link_latency_ms)}"]
    switch_id, ports = sc.switch
    lines.append(f"switch {switch_id} ports={ports}")
    for n in sc.nodes:
        lines.append(_print_node(n))
    for att in sc.attaches:
        lines.append(f"attach {att.node} {att.switch}.{att.port} class={att.port_class}")
    for pol in sc.policies:
        if pol.kind == "ra-guard":
            lines.append(f"policy {pol.switch}.{pol.port} ra-guard")
        else:
            lines.append(f"policy {pol.switch}.{pol.port} acl={','.join(str(m) for m in pol.acl)}")
    if sc.two_hour_rule:
        lines.append("policy global two-hour-rule")
    for node, key_id in sc.keys.items():
        lines.append(f"key {node} {key_id}")
    for key_id in sc.trusts:
        lines.append(f"trust {key_id}")
    for time_ms, step in sc.directives:
        lines.append(_print_step(time_ms, step))
    if sc.allow_dup_mac:
        lines.append("allow-dup-mac")
    for key, value in sc.expects:
        lines.append(f"expect {key}={value}")
    lines.append(f"run {_fmt_time(sc.run_ms)} seed={sc.seed}")
    return "".join(line + "\n" for line in lines)


def _print_node(n: NodeDecl) -> str:
    values = n.options
    parts = [f"node {n.kind} {n.node_id}"]
    for key, option in NODE_OPTIONS[n.kind].items():
        if key in values:
            parts.append(f"{key}={option.show(values[key])}")
    return " ".join(parts)


def _print_step(time_ms: int, step: ScriptStep) -> str:
    at = f"at {_fmt_time(time_ms)}"
    if isinstance(step, MeasureDirective):
        return f"{at} measure"
    if isinstance(step, ToggleDirective):
        return f"{at} {'enable' if step.enabled else 'disable'} {step.node}"
    target = f" target={step.target}" if step.target is not None else ""
    return f"{at} attack {step.attacker} {step.mode}{target}"


# -- engine wiring --------------------------------------------------------------------

def build_engine(sc: Scenario, seed: Optional[int] = None) -> Engine:
    engine = Engine(
        link_latency_ms=sc.link_latency_ms,
        seed=sc.seed if seed is None else seed,
        two_hour_rule=sc.two_hour_rule,
    )
    engine.switch_id = sc.switch[0]
    attach_for = {a.node: a for a in sc.attaches}
    guarded = {pol.port for pol in sc.policies if pol.kind == "ra-guard"}
    # A port's last acl line is the one that holds.
    acl_for = {pol.port: frozenset(pol.acl) for pol in sc.policies if pol.kind == "acl"}
    for decl in sc.nodes:
        att = attach_for[decl.node_id]
        port = SwitchPort(att.port, att.port_class, att.port in guarded, acl_for.get(att.port))
        engine.add_node(_build_node(decl, sc.keys), port)
    engine.trusted_keys = {key_id: key_secret(key_id) for key_id in sc.trusts}
    # Node startup precedes same-time script steps.
    engine.bootstrap()
    for time_ms, step in sc.directives:
        engine.schedule(time_ms, step)
    return engine


def _build_node(decl: NodeDecl, key_for: dict[str, str]):
    values = decl.options
    if decl.kind == "router":
        return _router(decl, "", key_for.get(decl.node_id), values["ra"], values["jitter"])
    if decl.kind == "host":
        return Host(
            node_id=decl.node_id,
            mac=decl.mac,
            ipv6_enabled=values["ipv6"],
            ipv4=(values["ipv4"], values["gw4"]) if "ipv4" in values else None,
            send_only=values["send"],
            iid_override=values.get("iid"),
            cga=(values["cga-key"], values["cga-modifier"]) if "cga-key" in values else None,
        )
    # The persona is unsigned (the attacker holds no key), always advertises
    # when armed, and keeps to its interval.
    persona = None
    if not _PERSONA_KEYS.isdisjoint(values):
        persona = _router(decl, PERSONA, send_key=None, ra_enabled=True, jitter_ms=0)
    return Attacker(decl.node_id, persona)


def _router(
    decl: NodeDecl, key_prefix: str, send_key: Optional[str], ra_enabled: bool, jitter_ms: int
) -> Router:
    """The router a router line declares, or with ``key_prefix`` set to
    ``persona-`` an attacker's persona: the one advertisement it sends, from
    the node's own addresses, and when it sends it."""
    values = decl.options
    valid, preferred = values[key_prefix + "valid"], values[key_prefix + "preferred"]
    ra = RouterAdvertisement(
        src_mac=decl.mac,
        src_ip=values["ip"],
        router_lifetime=values[key_prefix + "lifetime"],
        preference=values[key_prefix + "preference"],
        prefixes=tuple(
            PrefixInfo(p, valid, preferred) for p in values.get(key_prefix + "prefix", ())
        ),
    )
    interval_ms, can_route = values[key_prefix + "interval"], values[key_prefix + "routes"]
    return Router(decl.node_id, ra, interval_ms, can_route, send_key, ra_enabled, jitter_ms)


# -- expectations -----------------------------------------------------------------------

def evaluate_expects(sc: Scenario, metrics: RunMetrics) -> list[str]:
    """Return one failure description per unmet expectation."""
    texts = metrics.texts()
    failures = []
    for key, wanted in sc.expects:
        actual = texts.get(key, "unmeasured")
        if actual != wanted:
            failures.append(f"expect {key}={wanted}: got {actual}")
    return failures
