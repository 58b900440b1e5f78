"""On-link adversary: captures router advertisements, replays them with a
zero router lifetime to evict the default router, and forges advertisements
for a fake-router persona (man-in-the-middle, blackhole, or dual-stack rogue
plays)."""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional

from .addressing import Ipv6Address, MacAddress
from .messages import DataMessage, NdMessage, RouterAdvertisement, Timer
from .router import RouterConfig

if TYPE_CHECKING:
    from .engine import Engine


class NoCapturedRa(RuntimeError):
    """Spoofing requires a previously captured advertisement from the target."""


class PersonaMissing(RuntimeError):
    """Forging requires a configured fake-router persona."""


class AttackMode(enum.Enum):
    PASSIVE = "passive"
    KILL_ROUTER = "kill-router"
    FAKE_ROUTER_MITM = "fake-router"
    BLACKHOLE_GATEWAY = "blackhole"
    DUAL_STACK_ROGUE = "dual-stack"

    def __str__(self) -> str:
        return self.value


# Modes that forge advertisements for the persona, one per persona interval.
FORGING_MODES = frozenset(AttackMode) - {AttackMode.PASSIVE, AttackMode.KILL_ROUTER}


@dataclass
class CapturedRa:
    time: int
    sender: str
    ra: RouterAdvertisement


class Attacker(object):
    """Adversary node; passive until a scenario directive arms a playbook."""

    def __init__(
        self,
        node_id: str,
        mac: MacAddress,
        link_local: Ipv6Address,
        persona: Optional[RouterConfig] = None,
    ):
        self.node_id = node_id
        self.mac = mac
        self.link_local = link_local
        self.persona = persona
        self.captured_ras: list[CapturedRa] = []
        self.mode = AttackMode.PASSIVE
        self.next_forge_at: Optional[int] = None  # the one live forging tick

    def capture_ra(self, ctx: "Engine", ra: RouterAdvertisement, sender: str, now: int) -> None:
        self.captured_ras.append(CapturedRa(now, sender, ra))
        ctx.trace(self.node_id, "ra-captured", src=ra.src_ip, lifetime=ra.router_lifetime)

    def spoof_kill_ra(self, target: Optional[str] = None) -> RouterAdvertisement:
        """Latest captured advertisement from ``target`` (or from anyone when
        unset), replayed with lifetime zero and any auth token stripped: the
        source identifiers still impersonate the real router."""
        candidates = [c for c in self.captured_ras if target is None or c.sender == target]
        if not candidates:
            raise NoCapturedRa(f"{self.node_id} holds no captured RA from {target or 'anyone'}")
        return replace(candidates[-1].ra, router_lifetime=0, auth=None)

    def forge_fake_router_ra(self) -> RouterAdvertisement:
        """Advertisement for the persona, sourced from the attacker's own
        identifiers. The attacker holds no signing key, so auth stays empty."""
        if self.persona is None:
            raise PersonaMissing(f"{self.node_id} has no fake-router persona")
        return RouterAdvertisement(
            src_mac=self.mac,
            src_ip=self.link_local,
            router_lifetime=self.persona.router_lifetime,
            preference=self.persona.preference,
            prefixes=self.persona.advertised_prefixes,
        )

    def run_playbook(self, ctx: "Engine", mode: AttackMode, target: Optional[str], now: int) -> None:
        """Switch to ``mode``. Every arming ends the forging schedule of the
        previous one; a forging mode emits at once and starts its own."""
        self.mode = mode
        self.next_forge_at = None
        if mode is AttackMode.KILL_ROUTER:
            # Exactly one spoofed advertisement per trigger.
            ctx.broadcast(self.node_id, self.spoof_kill_ra(target), now)
        elif mode in FORGING_MODES:
            if mode is AttackMode.FAKE_ROUTER_MITM and self.captured_ras:
                ctx.broadcast(self.node_id, self.spoof_kill_ra(), now)
            self._forge_and_reschedule(ctx, now)

    def _forge_and_reschedule(self, ctx: "Engine", now: int) -> None:
        ctx.broadcast(self.node_id, self.forge_fake_router_ra(), now)
        self.next_forge_at = now + self.persona.ra_interval_ms
        ctx.set_timer(self.node_id, Timer.RA, self.next_forge_at)

    def routing_enabled(self) -> bool:
        if self.mode is AttackMode.FAKE_ROUTER_MITM:
            return True
        if self.mode is AttackMode.BLACKHOLE_GATEWAY:
            return False
        return self.persona.can_route if self.persona is not None else False

    def forward(self, ctx: "Engine", msg: DataMessage, now: int) -> Optional[list[str]]:
        if not self.routing_enabled():
            ctx.trace(self.node_id, "blackhole-drop", origin=msg.src_node, payload=msg.payload_id)
            return None
        return ctx.deliver_to_sink(msg, via=self.node_id, now=now)

    def on_message(self, ctx: "Engine", msg: NdMessage, sender_id: str, now: int) -> None:
        if isinstance(msg, RouterAdvertisement):
            self.capture_ra(ctx, msg, sender_id, now)

    def on_timer(self, ctx: "Engine", timer: Timer, now: int) -> None:
        # A tick booked by an earlier arming finds next_forge_at moved on.
        if timer is Timer.RA and now == self.next_forge_at:
            self._forge_and_reschedule(ctx, now)
