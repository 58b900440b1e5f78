"""Router behavior: periodic and solicited router advertisements. Whether a
router forwards off-link traffic is its ``can_route`` setting, which the
engine reads when it probes a path."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .addressing import Ipv6Address, MacAddress
from .defense import sign_ra
from .messages import (
    MS,
    NdMessage,
    PrefixInfo,
    RouterAdvertisement,
    RouterPreference,
    RouterSolicitation,
    Timer,
)

if TYPE_CHECKING:
    from .engine import Engine

DEFAULT_RA_INTERVAL_S = 10
DEFAULT_ROUTER_LIFETIME_S = 1800


@dataclass(frozen=True)
class RouterConfig:
    node_id: str
    mac: MacAddress
    link_local: Ipv6Address
    advertised_prefixes: tuple[PrefixInfo, ...] = ()
    router_lifetime: int = DEFAULT_ROUTER_LIFETIME_S
    preference: RouterPreference = RouterPreference.MEDIUM
    ra_interval_ms: int = DEFAULT_RA_INTERVAL_S * MS
    can_route: bool = True
    send_key: Optional[str] = None
    ra_enabled: bool = True
    jitter_ms: int = 0

    def __post_init__(self):
        # The router lifetime is checked by the RouterAdvertisement a Router builds.
        if self.ra_interval_ms <= 0:
            raise ValueError("ra_interval must be positive")


class Router(object):
    """One advertising router on the link, or the persona an attacker poses as."""

    def __init__(self, config: RouterConfig):
        self.config = config
        self.node_id = config.node_id
        self.enabled = True
        # The one advertisement it sends all run: the config never changes.
        ra = RouterAdvertisement(
            src_mac=config.mac,
            src_ip=config.link_local,
            router_lifetime=config.router_lifetime,
            preference=config.preference,
            prefixes=config.advertised_prefixes,
        )
        self.ra = ra if config.send_key is None else sign_ra(ra, config.send_key)

    def emit_ra(self, ctx: "Engine", now: int) -> None:
        """Broadcast one advertisement unless disabled or set to ``ra=off``."""
        if self.enabled and self.config.ra_enabled:
            ctx.broadcast(self.node_id, self.ra, now)

    def emit_periodic_ra(self, ctx: "Engine", now: int) -> int:
        """Emit one advertisement and book the next; returns the booked time."""
        self.emit_ra(ctx, now)
        jitter = ctx.rng.randint(0, self.config.jitter_ms) if self.config.jitter_ms else 0
        at = now + self.config.ra_interval_ms + jitter
        ctx.set_timer(self.node_id, Timer.RA, at)
        return at

    def routes(self) -> bool:
        return self.config.can_route

    def on_message(self, ctx: "Engine", msg: NdMessage, sender_id: str, now: int) -> None:
        if isinstance(msg, RouterSolicitation):
            self.emit_ra(ctx, now)  # at once: solicitations are never rate limited
        # Routers ignore RAs, NS/NA (their own addresses are static).

    def on_timer(self, ctx: "Engine", timer: Timer, now: int) -> None:
        if timer is Timer.RA:
            self.emit_periodic_ra(ctx, now)
