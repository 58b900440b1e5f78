"""Legitimate router behavior: periodic and solicited router advertisements,
plus forwarding of off-link traffic toward the external sink."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .addressing import Ipv6Address, MacAddress
from .defense import sign_ra
from .messages import (
    MS,
    DataMessage,
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


@dataclass
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
        if self.ra_interval_ms <= 0:
            raise ValueError("ra_interval must be positive")
        if not 0 <= self.router_lifetime <= 65535:
            raise ValueError("router lifetime out of range")


class Router(object):
    """One advertising, forwarding router on the link."""

    def __init__(self, config: RouterConfig):
        self.config = config
        self.node_id = config.node_id
        self.enabled = True

    def build_ra(self, ctx: "Engine") -> RouterAdvertisement:
        ra = RouterAdvertisement(
            src_mac=self.config.mac,
            src_ip=self.config.link_local,
            router_lifetime=self.config.router_lifetime,
            preference=self.config.preference,
            prefixes=self.config.advertised_prefixes,
        )
        if self.config.send_key is not None:
            ra = sign_ra(ra, self.config.send_key, ctx.keystore)
        return ra

    def emit_periodic_ra(self, ctx: "Engine", now: int) -> None:
        """Broadcast one advertisement and book the next emission."""
        if self.enabled and self.config.ra_enabled:
            ctx.broadcast(self.node_id, self.build_ra(ctx), now)
        jitter = ctx.rng.randint(0, self.config.jitter_ms) if self.config.jitter_ms else 0
        ctx.set_timer(self.node_id, Timer.RA, now + self.config.ra_interval_ms + jitter)

    def on_router_solicitation(self, ctx: "Engine", now: int) -> None:
        """Respond immediately; solicitations are never rate limited."""
        if self.enabled and self.config.ra_enabled:
            ctx.broadcast(self.node_id, self.build_ra(ctx), now)

    def forward(self, ctx: "Engine", msg: DataMessage, now: int) -> Optional[list[str]]:
        """Deliver an off-link payload to the external sink; None when this
        box cannot actually route (the blackhole case)."""
        if not self.config.can_route:
            ctx.trace(self.node_id, "blackhole-drop", origin=msg.src_node, payload=msg.payload_id)
            return None
        return ctx.deliver_to_sink(msg, via=self.node_id, now=now)

    def on_message(self, ctx: "Engine", msg: NdMessage, sender_id: str, now: int) -> None:
        if isinstance(msg, RouterSolicitation):
            self.on_router_solicitation(ctx, now)
        # Routers ignore RAs, NS/NA (their own addresses are static).

    def on_timer(self, ctx: "Engine", timer: Timer, now: int) -> None:
        if timer is Timer.RA:
            self.emit_periodic_ra(ctx, now)
