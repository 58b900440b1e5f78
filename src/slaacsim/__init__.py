"""Deterministic simulator of IPv6 stateless address autoconfiguration,
rogue-router-advertisement attacks, and the first-hop defenses against them."""

from .addressing import (
    Ipv6Address,
    MacAddress,
    Prefix,
    derive_eui64,
    global_from,
    link_local_from,
)
from .attacker import Attacker, AttackMode
from .defense import SwitchPort
from .engine import Engine, RunMetrics
from .host import Host, apply_two_hour_rule
from .messages import (
    AddressFamily,
    NeighborAdvertisement,
    NeighborSolicitation,
    PrefixInfo,
    RouterAdvertisement,
    RouterPreference,
    RouterSolicitation,
)
from .router import Router
from .scenario import Scenario, build_engine, parse_scenario, print_scenario

__version__ = "0.1.0"

__all__ = [
    "AddressFamily",
    "AttackMode",
    "Attacker",
    "Engine",
    "Host",
    "Ipv6Address",
    "MacAddress",
    "NeighborAdvertisement",
    "NeighborSolicitation",
    "Prefix",
    "PrefixInfo",
    "Router",
    "RouterAdvertisement",
    "RouterPreference",
    "RouterSolicitation",
    "RunMetrics",
    "Scenario",
    "SwitchPort",
    "apply_two_hour_rule",
    "build_engine",
    "derive_eui64",
    "global_from",
    "link_local_from",
    "parse_scenario",
    "print_scenario",
    "__version__",
]
