"""On-link adversary: captures router advertisements, replays them with a
zero router lifetime to evict the default router, and advertises as a
fake-router persona, a ``Router`` of its own (man-in-the-middle, blackhole,
or dual-stack rogue plays)."""

from __future__ import annotations

import enum
from dataclasses import replace
from typing import TYPE_CHECKING, Optional

from .messages import RouterAdvertisement, Timer
from .router import Router

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
        return self._value_


# Modes that forge advertisements for the persona, one per persona interval.
FORGING_MODES = frozenset(AttackMode) - {AttackMode.PASSIVE, AttackMode.KILL_ROUTER}


class Attacker(object):
    """Adversary node; passive until a scenario directive arms a playbook."""

    def __init__(self, node_id: str, persona: Optional[Router]):
        self.node_id = node_id
        # The router it poses as. Scenarios give it the attacker's own node
        # id and addresses and no signing key: the attacker holds none.
        self.persona = persona
        # The latest advertisement from each sender, in capture order: a
        # replay reads nothing older.
        self.captured_ras: dict[str, RouterAdvertisement] = {}
        self.mode = AttackMode.PASSIVE
        self.next_forge_at: Optional[int] = None  # the one live forging tick

    def spoof_kill_ra(self, target: Optional[str] = None) -> RouterAdvertisement:
        """Latest captured advertisement from ``target`` (or from anyone when
        unset), replayed with lifetime zero and any auth token stripped: the
        source identifiers still impersonate the real router."""
        if target is None:
            ra = next(reversed(self.captured_ras.values()), None)
        else:
            ra = self.captured_ras.get(target)
        if ra is None:
            raise NoCapturedRa(f"{self.node_id} holds no captured RA from {target or 'anyone'}")
        return replace(ra, router_lifetime=0, auth=None)

    def run_playbook(self, ctx: "Engine", mode: AttackMode, target: Optional[str], now: int) -> None:
        """Switch to ``mode``. Every arming ends the forging schedule of the
        previous one; a forging mode emits at once and starts its own."""
        self.mode = mode
        self.next_forge_at = None
        if mode is AttackMode.KILL_ROUTER:
            # Exactly one spoofed advertisement per trigger.
            ctx.broadcast(self.node_id, self.spoof_kill_ra(target), now)
        elif mode in FORGING_MODES:
            if self.persona is None:
                raise PersonaMissing(f"{self.node_id} has no fake-router persona")
            if mode is AttackMode.FAKE_ROUTER_MITM and self.captured_ras:
                ctx.broadcast(self.node_id, self.spoof_kill_ra(), now)
            self.next_forge_at = self.persona.emit_periodic_ra(ctx, now)

    def routes(self) -> bool:
        if self.mode is AttackMode.FAKE_ROUTER_MITM:
            return True
        if self.mode is AttackMode.BLACKHOLE_GATEWAY:
            return False
        return self.persona is not None and self.persona.routes()

    def on_message(self, ctx: "Engine", msg: RouterAdvertisement, sender_id: str, now: int) -> None:
        """An RA, the only message an attacker hears: kept as its sender's latest."""
        self.captured_ras.pop(sender_id, None)
        self.captured_ras[sender_id] = msg
        ctx.trace(self.node_id, "ra-captured", msg.src_ip, msg.router_lifetime)

    def on_timer(self, ctx: "Engine", timer: Timer, now: int) -> None:
        """The persona's RA tick, the only timer the engine books for an attacker;
        one booked by an earlier arming finds next_forge_at moved on."""
        if now == self.next_forge_at:
            self.next_forge_at = self.persona.emit_periodic_ra(ctx, now)
