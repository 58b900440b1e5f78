"""Neighbor-discovery message vocabulary (router and neighbor solicitations
and advertisements) and the values and enums the nodes share."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Union

from .addressing import Ipv6Address, MacAddress, Prefix

MS = 1000  # engine time is in milliseconds; message lifetimes are in seconds


class RouterPreference(enum.IntEnum):
    """Default-router selection preference; total order LOW < MEDIUM < HIGH."""

    LOW = 0
    MEDIUM = 1
    HIGH = 2

    @classmethod
    def parse(cls, text: str) -> "RouterPreference":
        try:
            return _PREFERENCES[text]
        except KeyError:
            raise ValueError(f"unknown preference {text!r}") from None

    def __str__(self) -> str:
        return self._name_.lower()


_PREFERENCES = {str(p): p for p in RouterPreference}


class Timer(enum.Enum):
    """What a node timer is for; a DAD deadline is keyed by its address."""

    AUTOCONF = "autoconf"  # host: start link-local autoconfiguration
    RA = "ra"  # router or forging attacker: the next periodic advertisement
    EXPIRY = "expiry"  # host: drop expired routers and addresses


TimerKey = Union[Timer, Ipv6Address]


class AddressFamily(enum.Enum):
    IPV6 = "ipv6"
    IPV4 = "ipv4"

    def __str__(self) -> str:
        return self._value_


@dataclass(frozen=True)
class PrefixInfo:
    """Prefix option carried in a router advertisement."""

    prefix: Prefix
    valid_lifetime: int
    preferred_lifetime: int

    def __post_init__(self):
        if self.valid_lifetime < 0 or self.preferred_lifetime < 0:
            raise ValueError("lifetimes must be non-negative")
        check_preferred_lifetime(self.valid_lifetime, self.preferred_lifetime)


def check_preferred_lifetime(valid: int, preferred: int) -> None:
    """The bound PrefixInfo and each node line's ``preferred=`` both check."""
    if preferred > valid:
        raise ValueError("preferred lifetime exceeds valid lifetime")


@dataclass(frozen=True)
class AuthToken:
    """Opaque authentication token; producible only by a key holder."""

    key_id: str
    tag: bytes


MAX_ROUTER_LIFETIME = 65535


def check_router_lifetime(seconds: int) -> int:
    """``seconds``, once RouterAdvertisement and each ``lifetime=`` may take it."""
    if not 0 <= seconds <= MAX_ROUTER_LIFETIME:
        raise ValueError(f"router lifetime {seconds} out of range 0..{MAX_ROUTER_LIFETIME}")
    return seconds


@dataclass(frozen=True)
class RouterAdvertisement:
    src_mac: MacAddress
    src_ip: Ipv6Address
    router_lifetime: int  # seconds; 0 means "not a default router"
    preference: RouterPreference
    prefixes: tuple[PrefixInfo, ...] = ()
    auth: Optional[AuthToken] = None

    def __post_init__(self):
        check_router_lifetime(self.router_lifetime)

    @cached_property
    def signed_fields(self) -> bytes:
        """The bytes an authentication tag covers: every semantic field. Made once
        per object; a ``replace()``d copy is a new object and makes its own."""
        prefix_part = ";".join(
            f"{p.prefix}|{p.valid_lifetime}|{p.preferred_lifetime}"
            for p in self.prefixes
        )
        head = f"{self.src_mac}|{self.src_ip}|{self.router_lifetime}|{int(self.preference)}"
        return f"{head}|{prefix_part}".encode()


# Solicitations and neighbor advertisements carry only what a receiver or the
# trace reads: no switch filter looks past an RA, routers answer any RS, and
# DAD is decided by the target alone.
@dataclass(frozen=True)
class RouterSolicitation:
    src_ip: Ipv6Address


@dataclass(frozen=True)
class NeighborSolicitation:
    target: Ipv6Address


@dataclass(frozen=True)
class NeighborAdvertisement:
    target: Ipv6Address


NdMessage = Union[
    RouterAdvertisement,
    RouterSolicitation,
    NeighborSolicitation,
    NeighborAdvertisement,
]
