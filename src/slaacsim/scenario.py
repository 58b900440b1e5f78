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

A step at 0 is served after every node's startup work at 0: a router has
sent its first advertisement, and each host has begun autoconfiguration,
before ``at 0 disable <router>`` turns the router off.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, replace
from typing import Any, Callable, NamedTuple, Optional

from .addressing import (
    Ipv6Address,
    MacAddress,
    Prefix,
    derive_eui64,
    iid_text,
    link_local_from,
    parse_iid,
    parse_ipv4,
)
from .attacker import FORGING_MODES, Attacker, AttackMode
from .defense import ACL, RA_GUARD, PortClass, SwitchPort, cga_generate, key_secret
from .engine import (
    FLAGS,
    SINK,
    AttackDirective,
    Engine,
    HostMetrics,
    MeasureDirective,
    RunMetrics,
    ScenarioError,
    ScriptStep,
    ToggleDirective,
)
from .host import Host
from .messages import MS, PrefixInfo, RouterAdvertisement, RouterPreference
from .messages import check_preferred_lifetime, check_router_lifetime
from .router import Router, check_interval

# Bounds on input values. Both sit far above any run the simulator is meant
# for (the longest shipped workload is two simulated hours on 11 ports). They
# bound each value a file gives, not the work a run does: a valid file with a
# short interval and a long run still makes records for every advertisement.
MAX_TIME_S = 10**7
MAX_PORTS = 4096

PERSONA = "persona-"

_ID_RE = re.compile(r"^[A-Za-z0-9_-]+$")
_PORT_RE = re.compile(r"p([1-9][0-9]*)")

ATTACK_MODES = {m.value: m for m in AttackMode}
PORT_CLASSES = {c.value: c for c in PortClass}


class ScenarioParseError(ScenarioError):
    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ScenarioValidationError(ScenarioError):
    pass


# -- option values ---------------------------------------------------------------
# Parsers raise ValueError; parse_scenario prefixes the line number.

def _ascii_number(convert: Callable[[str], Any], text: str) -> Any:
    """``convert(text)`` for a number written in ASCII, else ValueError
    ``bad number``: int() and float() also read other scripts' digits and
    ``_`` separators, which the canonical text would then print rewritten."""
    try:
        if text.isascii() and "_" not in text:
            return convert(text)
    except ValueError:
        pass
    raise ValueError(f"bad number {text!r}")


def _time_ms(text: str) -> int:
    try:
        value = _ascii_number(float, text)
    except ValueError:
        raise ValueError(f"bad time {text!r}") from None
    if not 0 <= value <= MAX_TIME_S:  # also false for nan
        raise ValueError(f"time {text!r} out of range 0..{MAX_TIME_S}")
    return round(value * MS)


def _fmt_time(ms: int) -> str:
    if ms % MS == 0:
        return str(ms // MS)
    return f"{ms // MS}.{ms % MS:03d}".rstrip("0")


def _int_in(low: float = -math.inf, high: float = math.inf) -> Callable[[str], int]:
    def parse(text: str) -> int:
        value = _ascii_number(int, text)
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
    # "none" is the metrics' text for no default router or no path.
    if not _ID_RE.match(text) or text in (SINK, "global", "none"):
        raise ValueError(f"bad identifier {text!r}")
    return text


_int = _int_in()
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
    Option("lifetime", lambda text: check_router_lifetime(_int(text)), str, 1800),
    Option("preference", RouterPreference.parse, str, RouterPreference.MEDIUM),
    Option("interval", lambda text: check_interval(_time_ms(text)), _fmt_time, 10 * MS),
    Option("valid", _seconds, str, 3600),
    Option("preferred", _seconds, str, 3600),
    Option("routes", _on_off, _show_yes_no, True),
    Option("ra", _on_off, _show_on_off, True),
    Option("jitter", _time_ms, _fmt_time, 0),
)

HOST_OPTIONS = (
    _MAC,
    Option("ipv6", _on_off, _show_on_off, True),
    Option("ipv4", parse_ipv4),
    Option("gw4", str),
    Option("send", _on_off, _show_on_off, False),
    Option("iid", parse_iid, iid_text),
    Option("cga-key", str),
    Option("cga-modifier", _int),
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

# The value every absent key with a default takes, by kind and by whether the
# line gives a persona key: a persona key takes its default only then.
_DEFAULTS = {
    (kind, persona): {k: o.default for k, o in options.items()
                      if o.default is not None and (persona or k not in _PERSONA_KEYS)}
    for kind, options in NODE_OPTIONS.items() for persona in (False, True)
}

# Rules across the options of one node line.
_TOGETHER = (("ipv4", "gw4"), ("cga-key", "cga-modifier"))
_EXCLUSIVE = (("iid", "cga-key"),)
_PREFERRED = (("preferred", "valid"), ("persona-preferred", "persona-valid"))  # (preferred, valid)


# -- declarations -------------------------------------------------------------
# Tuples, so a line's declaration is built in C and cannot change.

class NodeDecl(NamedTuple):
    """One ``node`` line: the value of each option given or defaulted."""

    kind: str  # a key of NODE_OPTIONS
    node_id: str
    options: dict[str, Any]

    @property
    def mac(self) -> MacAddress:
        return self.options["mac"]


class AttachDecl(NamedTuple):
    node: str
    switch: str
    port: str
    port_class: PortClass


class PolicyLine(NamedTuple):
    switch: str
    port: str
    kind: str  # RA_GUARD | ACL
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
    seen: set[str] = set()  # the link-latency and run lines read so far
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.partition("#")[0].split()
        if not tokens:
            continue
        head = tokens[0]
        try:
            if head in ("link-latency", "run"):
                if head in seen:
                    raise ValueError(f"duplicate {head} line")
                seen.add(head)
            handler = _DIRECTIVES.get(head)
            if handler is None:
                raise ValueError(f"unknown directive {head!r}")
            handler(sc, tokens)
        except ValueError as exc:
            raise ScenarioParseError(line_no, str(exc)) from exc
    if "run" not in seen:
        raise ScenarioValidationError("scenario has no run directive")
    _validate(sc)
    return sc


# -- one handler per directive: it reads the line's tokens into the scenario ----

def _link_latency(sc: Scenario, tokens: list[str]) -> None:
    _need(tokens, 2)
    sc.link_latency_ms = _time_ms(tokens[1])


def _switch(sc: Scenario, tokens: list[str]) -> None:
    if sc.switch is not None:
        raise ValueError("only one switch is supported")
    _need(tokens, 3)
    ports = _kv(tokens[2:], ("ports",))["ports"]
    sc.switch = (_node_id(tokens[1]), _port_count(ports))


def _attach(sc: Scenario, tokens: list[str]) -> None:
    _need(tokens, 4)
    switch, port = _port_ref(tokens[2])
    class_text = _kv(tokens[3:], ("class",))["class"]
    port_class = PORT_CLASSES.get(class_text)
    if port_class is None:
        raise ValueError(f"bad port class {class_text!r}")
    sc.attaches.append(AttachDecl(tokens[1], switch, port, port_class))


def _key(sc: Scenario, tokens: list[str]) -> None:
    _need(tokens, 3)
    if tokens[1] in sc.keys:
        raise ValueError(f"{tokens[1]} already has a key")
    sc.keys[tokens[1]] = _node_id(tokens[2])


def _trust(sc: Scenario, tokens: list[str]) -> None:
    _need(tokens, 2)
    sc.trusts.append(_node_id(tokens[1]))


def _expect(sc: Scenario, tokens: list[str]) -> None:
    _need(tokens, 2)
    key, sep, value = tokens[1].partition("=")
    if not sep:
        raise ValueError("expect needs <metric>=<value>")
    sc.expects.append((key, value))


def _allow_dup_mac(sc: Scenario, tokens: list[str]) -> None:
    sc.allow_dup_mac = True


def _run(sc: Scenario, tokens: list[str]) -> None:
    _need_at_least(tokens, 2)
    sc.run_ms = _time_ms(tokens[1])
    kv = _kv(tokens[2:], ("seed",))
    if "seed" in kv:
        sc.seed = _int(kv["seed"])


def _node(sc: Scenario, tokens: list[str]) -> None:
    _need_at_least(tokens, 3)
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
    values = dict(_DEFAULTS[kind, not _PERSONA_KEYS.isdisjoint(given)])
    # In table order, so that of two bad options the first in the table is reported,
    # then each preferred lifetime, given or defaulted, against its valid one.
    try:
        for key, option in options.items():
            if key in given:
                value = option.parse(given[key])
                if value is not None:  # an empty prefix list leaves prefix unset
                    values[key] = value
        for key, valid in _PREFERRED:
            if key in values:
                check_preferred_lifetime(values[valid], values[key])
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None
    if "ip" in options and "ip" not in values:
        values["ip"] = link_local_from(derive_eui64(values["mac"]))
    sc.nodes.append(NodeDecl(kind, node_id, values))


def _policy(sc: Scenario, tokens: list[str]) -> None:
    _need(tokens, 3)
    if tokens[1] == "global":
        if tokens[2] != "two-hour-rule":
            raise ValueError(f"unknown global policy {tokens[2]!r}")
        sc.two_hour_rule = True
        return
    switch, port = _port_ref(tokens[1])
    spec = tokens[2]
    if spec == RA_GUARD:
        sc.policies.append(PolicyLine(switch, port, RA_GUARD))
    elif spec.startswith(ACL + "="):
        macs = tuple(MacAddress.parse(m) for m in spec[len(ACL) + 1:].split(",") if m)
        sc.policies.append(PolicyLine(switch, port, ACL, macs))
    else:
        raise ValueError(f"unknown policy {spec!r}")


def _at(sc: Scenario, tokens: list[str]) -> None:
    _need_at_least(tokens, 3)
    time_ms = _time_ms(tokens[1])
    verb = tokens[2]
    if verb == "measure":
        _need(tokens, 3)
        step: ScriptStep = MeasureDirective()
    elif verb in ("disable", "enable"):
        _need(tokens, 4)
        step = ToggleDirective(tokens[3], verb == "enable")
    elif verb == "attack":
        _need_at_least(tokens, 5)
        mode = ATTACK_MODES.get(tokens[4])
        if mode is None:
            raise ValueError(f"unknown attack mode {tokens[4]!r}")
        target = _kv(tokens[5:], ("target",)).get("target")
        if mode is AttackMode.KILL_ROUTER and target is None:
            raise ValueError("kill-router needs target=<router>")
        if mode is not AttackMode.KILL_ROUTER and target is not None:
            raise ValueError(f"{mode} takes no target")
        step = AttackDirective(tokens[3], mode, target)
    else:
        raise ValueError(f"unknown directive {verb!r}")
    sc.directives.append((time_ms, step))


_DIRECTIVES: dict[str, Callable[[Scenario, list[str]], None]] = {
    "link-latency": _link_latency,
    "switch": _switch,
    "node": _node,
    "attach": _attach,
    "policy": _policy,
    "key": _key,
    "trust": _trust,
    "at": _at,
    "expect": _expect,
    "allow-dup-mac": _allow_dup_mac,
    "run": _run,
}


# -- validation ------------------------------------------------------------------

def _validate(sc: Scenario) -> None:
    # One pass over the nodes gathers what the checks below read; they then
    # run in a fixed order, so a file with several faults gets one message.
    declared, macs, ips, dup_ids, dup_macs, dup_ips = set(), set(), set(), set(), set(), set()
    routers, hosts, attackers = set(), set(), set()
    of_kind = {"router": routers, "host": hosts, "attacker": attackers}
    # ra_senders: the nodes whose advertisements an attacker can capture.
    personas, ra_senders, gateways = set(), set(), []  # gateways: (host, its gw4)
    for kind, node_id, values in sc.nodes:
        (dup_ids if node_id in declared else declared).add(node_id)
        mac = values["mac"]
        (dup_macs if mac in macs else macs).add(mac)
        # The engine maps the address a router or a persona advertises from to its node.
        if "ip" in values:
            (dup_ips if values["ip"] in ips else ips).add(values["ip"])
        of_kind[kind].add(node_id)
        if not _PERSONA_KEYS.isdisjoint(values):
            personas.add(node_id)
        if kind == "attacker" or (kind == "router" and values["ra"]):
            ra_senders.add(node_id)
        if "gw4" in values:
            gateways.append((node_id, values["gw4"]))
    if dup_ids:
        raise ScenarioValidationError(f"duplicate node id(s): {sorted(dup_ids)}")
    if dup_macs and not sc.allow_dup_mac:
        raise ScenarioValidationError(
            f"duplicate MAC(s) {sorted(map(str, dup_macs))}; add allow-dup-mac to permit"
        )
    if dup_ips:
        raise ScenarioValidationError(
            f"routers or attackers share address(es) {sorted(map(str, dup_ips))}"
        )
    if sc.switch is None:
        raise ScenarioValidationError("scenario needs a switch")
    if sc.switch[0] in declared:
        # The switch's id labels its ra-dropped records.
        raise ScenarioValidationError(f"node id {sc.switch[0]!r} is the switch's id")
    attached: dict[str, str] = {}
    used_ports: set[str] = set()
    for node, switch, port, _class in sc.attaches:
        if node not in declared:
            raise ScenarioValidationError(f"attach references undeclared node {node!r}")
        if not _on_switch(sc.switch, switch, port):
            raise ScenarioValidationError(f"attach references unknown port {switch}.{port}")
        if node in attached:
            raise ScenarioValidationError(f"node {node!r} attached twice")
        if port in used_ports:
            raise ScenarioValidationError(f"port {port!r} attached twice")
        attached[node] = port
        used_ports.add(port)
    missing = declared.difference(attached)
    if missing:
        raise ScenarioValidationError(f"node(s) not attached to the switch: {sorted(missing)}")
    for switch, port, _kind, _acl in sc.policies:
        if not _on_switch(sc.switch, switch, port):
            raise ScenarioValidationError(f"policy references unknown port {switch}.{port}")
    for node in sc.keys:
        if node not in routers:
            raise ScenarioValidationError(f"key holder {node!r} is not a declared router")
    for key_id in sc.trusts:
        if key_id not in sc.keys.values():
            raise ScenarioValidationError(f"trust references unknown key {key_id!r}")
    for host_id, gw4 in gateways:
        if gw4 not in routers and gw4 not in attackers:
            raise ScenarioValidationError(
                f"gw4 {gw4!r} of {host_id!r} is not a declared router or attacker"
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
    for time_ms, _step in sc.directives:
        if time_ms > sc.run_ms:
            raise ScenarioValidationError(
                f"at {_fmt_time(time_ms)} is after the run ends at {_fmt_time(sc.run_ms)}"
            )
    for key, _value in sc.expects:
        if key in FLAGS:
            continue
        host_id, sep, fld = key.partition(".")
        if not sep or host_id not in hosts or fld not in HostMetrics._fields:
            raise ScenarioValidationError(f"unknown expectation metric {key!r}")


def _on_switch(declared: tuple[str, int], switch: str, port: str) -> bool:
    # declared: the scenario's (switch id, port count).
    match = _PORT_RE.fullmatch(port)
    return switch == declared[0] and match is not None and int(match[1]) <= declared[1]


# -- canonical writer ---------------------------------------------------------------

def print_scenario(sc: Scenario) -> str:
    lines = [f"link-latency {_fmt_time(sc.link_latency_ms)}"]
    switch_id, ports = sc.switch
    lines.append(f"switch {switch_id} ports={ports}")
    lines.extend(map(_print_node, sc.nodes))
    for node, switch, port, port_class in sc.attaches:
        lines.append(f"attach {node} {switch}.{port} class={port_class!s}")
    for switch, port, kind, acl in sc.policies:
        if kind == RA_GUARD:
            lines.append(f"policy {switch}.{port} {RA_GUARD}")
        else:
            lines.append(f"policy {switch}.{port} {ACL}={','.join(map(str, acl))}")
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
    return "\n".join(lines) + "\n"


def _print_node(n: NodeDecl) -> str:
    kind, node_id, values = n
    shown = [f" {k}={o.show(values[k])}" for k, o in NODE_OPTIONS[kind].items() if k in values]
    return f"node {kind} {node_id}" + "".join(shown)


def _print_step(time_ms: int, step: ScriptStep) -> str:
    at = f"at {_fmt_time(time_ms)}"
    if isinstance(step, MeasureDirective):
        return f"{at} measure"
    if isinstance(step, ToggleDirective):
        return f"{at} {'enable' if step.enabled else 'disable'} {step.node}"
    target = f" target={step.target}" if step.target is not None else ""
    return f"{at} attack {step.attacker} {step.mode!s}{target}"


# -- engine wiring --------------------------------------------------------------------

def build_engine(sc: Scenario, seed: Optional[int] = None) -> Engine:
    engine = Engine(
        link_latency_ms=sc.link_latency_ms,
        seed=sc.seed if seed is None else seed,
        two_hour_rule=sc.two_hour_rule,
        switch_id=sc.switch[0],
    )
    attach_for = {node: (port, port_class) for node, _switch, port, port_class in sc.attaches}
    guarded = {port for _switch, port, kind, _acl in sc.policies if kind == RA_GUARD}
    # A port's last acl line is the one that holds.
    acl_for = {port: frozenset(acl) for _switch, port, kind, acl in sc.policies if kind == ACL}
    for decl in sc.nodes:
        port, port_class = attach_for[decl.node_id]
        switch_port = SwitchPort(port, port_class, port in guarded, acl_for.get(port))
        engine.add_node(_build_node(decl, sc.keys), switch_port)
    engine.trusted_keys = {key_id: key_secret(key_id) for key_id in sc.trusts}
    # Node startup precedes same-time script steps.
    engine.bootstrap()
    for time_ms, step in sc.directives:
        engine.schedule(time_ms, step)
    return engine


def _build_node(decl: NodeDecl, key_for: dict[str, str]):
    kind, node_id, values = decl
    if kind == "router":
        return _router(decl, _AD_KEYS, key_for.get(node_id), values["ra"], values["jitter"])
    if kind == "host":
        if "iid" in values:
            iid = values["iid"]
        elif "cga-key" in values:
            iid = cga_generate(values["cga-key"], values["cga-modifier"])
        else:
            iid = derive_eui64(values["mac"])
        return Host(
            node_id=node_id,
            iid=iid,
            ipv6_enabled=values["ipv6"],
            ipv4=(values["ipv4"], values["gw4"]) if "ipv4" in values else None,
            send_only=values["send"],
        )
    # The persona is unsigned (the attacker holds no key), always advertises
    # when armed, and keeps to its interval.
    persona = None
    if not _PERSONA_KEYS.isdisjoint(values):
        persona = _router(decl, _PERSONA_AD_KEYS, send_key=None, ra_enabled=True, jitter_ms=0)
    return Attacker(node_id, persona)


# The keys _router reads, in its order: a router's, and an attacker's persona's.
_AD_KEYS = ("lifetime", "preference", "prefix", "valid", "preferred", "interval", "routes")
_PERSONA_AD_KEYS = tuple(PERSONA + key for key in _AD_KEYS)


def _router(
    decl: NodeDecl, keys: tuple[str, ...], send_key: Optional[str], ra_enabled: bool, jitter_ms: int
) -> Router:
    """The router a router line declares, or with the persona's ``keys`` an
    attacker's persona: the one advertisement it sends, from the node's own
    addresses, and when it sends it."""
    _kind, node_id, values = decl
    lifetime, preference, prefixes, valid, preferred, interval_ms, can_route = map(values.get, keys)
    ra = RouterAdvertisement(
        src_mac=values["mac"],
        src_ip=values["ip"],
        router_lifetime=lifetime,
        preference=preference,
        prefixes=tuple(PrefixInfo(p, valid, preferred) for p in prefixes or ()),
    )
    return Router(node_id, ra, interval_ms, can_route, send_key, ra_enabled, jitter_ms)


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
