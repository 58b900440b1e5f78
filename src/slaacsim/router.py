"""Router behavior: periodic and solicited router advertisements. Whether a
router forwards off-link traffic is its ``can_route`` setting, which the
engine reads when it measures."""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .defense import sign_ra
from .messages import NdMessage, RouterAdvertisement, Timer

if TYPE_CHECKING:
    from .engine import Engine


def check_interval(interval_ms: int) -> int:
    """``interval_ms``, once Router and each node line's ``interval=`` may take it."""
    if interval_ms <= 0:
        raise ValueError("interval must be positive")
    return interval_ms


class Router(object):
    """One advertising router on the link, or the persona an attacker poses as:
    the one advertisement it sends all run, and when it sends it."""

    def __init__(
        self,
        node_id: str,
        ra: RouterAdvertisement,
        interval_ms: int,
        can_route: bool,
        send_key: Optional[str],
        ra_enabled: bool,
        jitter_ms: int,
    ):
        self.node_id = node_id
        self.ra = ra if send_key is None else sign_ra(ra, send_key)
        self.interval_ms = check_interval(interval_ms)
        self.can_route = can_route
        self.ra_enabled = ra_enabled
        self.jitter_ms = jitter_ms
        self.enabled = True

    def emit_ra(self, ctx: "Engine", now: int) -> None:
        """Broadcast one advertisement unless disabled or set to ``ra=off``."""
        if self.enabled and self.ra_enabled:
            ctx.broadcast(self.node_id, self.ra, now)

    def emit_periodic_ra(self, ctx: "Engine", now: int) -> int:
        """Emit one advertisement and book the next; returns the booked time."""
        self.emit_ra(ctx, now)
        jitter = ctx.rng.randint(0, self.jitter_ms) if self.jitter_ms else 0
        at = now + self.interval_ms + jitter
        ctx.set_timer(self.node_id, Timer.RA, at)
        return at

    def routes(self) -> bool:
        return self.can_route

    def on_message(self, ctx: "Engine", msg: NdMessage, sender_id: str, now: int) -> None:
        """An RS, the only message the engine hands a router."""
        self.emit_ra(ctx, now)  # at once: solicitations are never rate limited

    def on_timer(self, ctx: "Engine", timer: Timer, now: int) -> None:
        """The periodic RA tick, the only timer the engine books for a router."""
        self.emit_periodic_ra(ctx, now)
