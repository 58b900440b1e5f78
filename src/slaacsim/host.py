"""Host-side stateless autoconfiguration: link-local generation, duplicate
address detection, router-advertisement processing, lifetime bookkeeping,
and the default-router and source-address selections that the engine's
measure reads.

All times are engine milliseconds; wire lifetimes are seconds and are
converted at the point of use.
"""

from __future__ import annotations

import enum
import ipaddress
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional

from .addressing import (
    Ipv6Address,
    Prefix,
    global_from,
    is_link_local,
    link_local_from,
)
from .defense import verify_ra
from .messages import (
    MS,
    NeighborAdvertisement,
    NeighborSolicitation,
    RouterAdvertisement,
    RouterPreference,
    RouterSolicitation,
    Timer,
    TimerKey,
)
from .router import Router

if TYPE_CHECKING:
    from .engine import Engine

DAD_TIMEOUT_MS = 1 * MS  # single probe, one-second deadline
TWO_HOURS_MS = 7200 * MS
NO_EXPIRY = float("inf")  # the expiry floor of a host that holds no lifetime


class AddressState(enum.Enum):
    TENTATIVE = "tentative"
    ASSIGNED = "assigned"
    ABANDONED = "abandoned"  # after a DAD conflict; an expired entry is dropped instead


@dataclass(slots=True)
class AddressEntry:
    """One configured address: the link-local entry when ``prefix`` is None,
    else the SLAAC entry formed from that prefix. ``valid_until``/
    ``preferred_until`` are absolute engine times; None means an infinite
    lifetime (link-local)."""

    address: Ipv6Address
    state: AddressState
    prefix: Optional[Prefix] = None
    valid_until: Optional[int] = None
    preferred_until: Optional[int] = None


@dataclass(slots=True)
class DefaultRouterEntry:
    router_ip: Ipv6Address
    expires_at: int
    preference: RouterPreference
    refreshed_at: int


def apply_two_hour_rule(remaining_ms: int, received_ms: int) -> int:
    """Valid-lifetime update rule limiting how far an unauthenticated
    advertisement can shorten an address's remaining lifetime."""
    if received_ms > TWO_HOURS_MS or received_ms > remaining_ms:
        return received_ms
    if remaining_ms <= TWO_HOURS_MS:
        return remaining_ms
    return TWO_HOURS_MS


class Host(object):
    """SLAAC state machine for one interface on the simulated link."""

    def __init__(
        self,
        node_id: str,
        iid: int,
        ipv6_enabled: bool,
        ipv4: Optional[tuple[ipaddress.IPv4Address, str]],  # address, gateway node
        send_only: bool,
    ):
        self.node_id = node_id
        self.iid = iid
        self.ipv6_enabled = ipv6_enabled
        self.ipv4 = ipv4
        self.send_only = send_only
        # Each keyed by its entry's address, so a host holds one entry per
        # address; insertion order is the order every output lists them in.
        self.addresses: dict[Ipv6Address, AddressEntry] = {}
        self.router_list: dict[Ipv6Address, DefaultRouterEntry] = {}
        # A lower bound on the earliest expiry held: receive_ra lowers it to
        # each expiry it sets, and a sweep makes it exact again.
        self.expiry_floor: float = NO_EXPIRY

    # -- phase 1 -------------------------------------------------------------

    def begin_autoconf(self, ctx: "Engine", now: int) -> None:
        """Create the tentative link-local address and start its DAD probe."""
        address = link_local_from(self.iid)
        if not self.ipv6_enabled or address in self.addresses:
            return
        entry = self.addresses[address] = AddressEntry(address, AddressState.TENTATIVE)
        self._start_dad(ctx, entry, now)

    def _start_dad(self, ctx: "Engine", entry: AddressEntry, now: int) -> None:
        deadline = now + DAD_TIMEOUT_MS
        ctx.trace(self.node_id, "dad-start", entry.address, deadline)
        ctx.claim(self.node_id, entry.address)
        ctx.broadcast(self.node_id, NeighborSolicitation(entry.address), now)
        ctx.set_timer(self.node_id, entry.address, deadline)

    def on_message(self, ctx: "Engine", msg: NeighborSolicitation, sender_id: str, now: int) -> None:
        """A DAD probe for an address this host claimed, the only message the
        engine hands a host this way (an RA goes through ``receive_ra``)."""
        entry = self.addresses.get(msg.target)
        if entry is None or entry.state is AddressState.ABANDONED:
            return
        # Defend an address we hold, or win simultaneous DAD for the same
        # target with the lexicographically smaller node id: the soliciting
        # node must abandon. Otherwise this node abandons.
        if entry.state is AddressState.ASSIGNED or self.node_id < sender_id:
            ctx.broadcast(self.node_id, NeighborAdvertisement(entry.address), now)
        else:
            entry.state = AddressState.ABANDONED
            ctx.trace(self.node_id, "dad-failed", entry.address)

    def dad_deadline(self, ctx: "Engine", address: Ipv6Address, now: int) -> None:
        """No conflict arrived before the deadline: assign the address's entry
        if still tentative."""
        entry = self.addresses.get(address)
        if entry is None or entry.state is not AddressState.TENTATIVE:
            return  # abandoned after a conflict, or dropped on expiry
        entry.state = AddressState.ASSIGNED
        origin = "link-local" if entry.prefix is None else "slaac"
        ctx.trace(self.node_id, "addr-assigned", address, origin)
        if entry.prefix is None:
            # Phase 2 entry point: solicit router advertisements.
            ctx.broadcast(self.node_id, RouterSolicitation(address), now)

    # -- bookkeeping -----------------------------------------------------------

    def tick_lifetimes(self, ctx: "Engine", now: int) -> None:
        """Drop each expired default router and each expired address. An
        expired address leaves the interface (RFC 4862 §5.5.4), so a later RA
        for its prefix forms it again; a DAD-failed entry is never dropped and
        keeps its prefix blocked. Leaves ``expiry_floor`` at the earliest
        expiry still held."""
        expired = [ip for ip, r in self.router_list.items() if r.expires_at <= now]
        for ip in expired:
            del self.router_list[ip]
            ctx.trace(self.node_id, "router-removed", ip, "expired")
        held = [e for e in self.addresses.values()
                if e.state is not AddressState.ABANDONED and e.valid_until is not None]
        for entry in held:
            if entry.valid_until <= now:
                del self.addresses[entry.address]
                ctx.trace(self.node_id, "addr-abandoned", entry.address, "expired")
        live = [r.expires_at for r in self.router_list.values()]
        live += [e.valid_until for e in held if e.valid_until > now]
        self.expiry_floor = min(live, default=NO_EXPIRY)

    def select_default_router(self, now: int) -> Optional[DefaultRouterEntry]:
        """Highest preference among unexpired entries; ties broken by most
        recent refresh, then lowest router address."""
        live = [e for e in self.router_list.values() if e.expires_at > now]
        if not live:
            return None
        return max(live, key=lambda e: (e.preference, e.refreshed_at, -e.router_ip))

    def select_global_source(self, now: int) -> Optional[AddressEntry]:
        """The first assigned global address still preferred, else the first
        deprecated one (RFC 4862 §5.5.4, RFC 6724 rule 3)."""
        assigned = [
            e for e in self.addresses.values()
            if e.prefix is not None and e.state is AddressState.ASSIGNED
        ]
        preferred = [e for e in assigned if e.preferred_until is None or e.preferred_until > now]
        return (preferred or assigned or [None])[0]

    # -- dispatch ---------------------------------------------------------------

    def on_timer(self, ctx: "Engine", timer: TimerKey, now: int) -> None:
        if timer is Timer.EXPIRY:
            if now < self.expiry_floor:
                return  # nothing held can have expired yet
            self.tick_lifetimes(ctx, now)
        elif timer is Timer.AUTOCONF:
            self.begin_autoconf(ctx, now)
        else:  # the DAD deadline of this tentative address
            self.dad_deadline(ctx, timer, now)


def receive_ra(ctx: "Engine", ra: RouterAdvertisement, sender_id: str,
               receivers: Iterable[object], now: int) -> None:
    """Deliver one RA to ``receivers`` in one pass, in their order: a host,
    subclass or not, gets its ``ra-received`` record and its RA handling, a
    router nothing, and any other node on_message. What no host changes is
    worked out once, before the loop; the signature verdict is made at the
    first send=on host that needs it. No booking call is made for an expiry
    past the run's end, which set_timer would drop."""
    # The records an RA makes at every host go straight into the trace,
    # stamped with the engine's time as Engine.trace stamps them.
    append = ctx.trace_records.append
    stamp = ctx.now
    set_timer, horizon = ctx.set_timer, ctx._horizon
    two_hour_rule = ctx.two_hour_rule
    expiry, abandoned = Timer.EXPIRY, AddressState.ABANDONED
    src_ip, lifetime, preference = ra.src_ip, ra.router_lifetime, ra.preference
    received = (src_ip, lifetime, preference)
    if lifetime > 0:
        expires = now + lifetime * MS
        router_values = (src_ip, preference, expires)
        book_router = expires <= horizon
    # Each option as (prefix, why it is ignored or None, its network
    # address, valid ms, a new entry's valid end, whether that end is
    # booked, and a new entry's preferred end).
    options = []
    for info in ra.prefixes:
        prefix = info.prefix
        ignored = None
        if is_link_local(prefix.address):  # RFC 4862 §5.5.3(b)
            ignored = "link-local"
        elif prefix.length != 64:
            ignored = "length"
        valid_ms = info.valid_lifetime * MS
        preferred_until = now + info.preferred_lifetime * MS
        valid_until = now + valid_ms
        options.append((prefix, ignored, prefix.address, valid_ms,
                        valid_until, valid_until <= horizon, preferred_until))
    verdict = None
    for node in receivers:
        if not isinstance(node, Host):
            if not isinstance(node, Router):
                node.on_message(ctx, ra, sender_id, now)
            continue
        node_id = node.node_id
        append((stamp, node_id, "ra-received", received))
        if not node.ipv6_enabled:
            continue
        if node.send_only:
            if verdict is None:
                verdict = verify_ra(ra, ctx.trusted_keys)
            if not verdict:
                ctx.trace(node_id, "ra-rejected-send", src_ip)
                continue
        router = node.router_list.get(src_ip)
        if lifetime > 0:
            if router is None:
                node.router_list[src_ip] = DefaultRouterEntry(src_ip, expires, preference, now)
                kind = "router-added"
            else:
                router.expires_at = expires
                router.preference = preference
                router.refreshed_at = now
                kind = "router-refreshed"
            append((stamp, node_id, kind, router_values))
            if book_router:
                set_timer(node_id, expiry, expires)
            if expires < node.expiry_floor:
                node.expiry_floor = expires
        elif router is not None:
            del node.router_list[src_ip]
            ctx.trace(node_id, "router-removed", src_ip, "lifetime-zero")
        for prefix, ignored, network, valid_ms, valid_until, book_new, preferred_until in options:
            if ignored is not None:
                ctx.trace(node_id, "prefix-ignored", prefix, ignored)
                continue
            # The address global_from forms: every IID fits in 64 bits.
            entry = node.addresses.get(network | node.iid)
            if entry is None:
                if valid_ms == 0:  # RFC 4862 §5.5.3(d)
                    ctx.trace(node_id, "prefix-ignored", prefix, "valid-zero")
                    continue
                entry = AddressEntry(
                    global_from(prefix, node.iid),
                    AddressState.TENTATIVE,
                    prefix=prefix,
                    valid_until=valid_until,
                    preferred_until=preferred_until,
                )
                node.addresses[entry.address] = entry
                if book_new:
                    set_timer(node_id, expiry, valid_until)
                if valid_until < node.expiry_floor:
                    node.expiry_floor = valid_until
                node._start_dad(ctx, entry, now)
            elif entry.state is not abandoned:
                kept_ms = valid_ms
                if two_hour_rule:
                    kept_ms = apply_two_hour_rule(max(0, entry.valid_until - now), valid_ms)
                until = entry.valid_until = now + kept_ms
                entry.preferred_until = preferred_until if preferred_until < until else until
                if until <= horizon:
                    set_timer(node_id, expiry, until)
                if until < node.expiry_floor:
                    node.expiry_floor = until
                append((stamp, node_id, "addr-lifetime", (entry.address, kept_ms)))
            # An abandoned entry for the prefix means DAD failed and
            # autoconfiguration stopped (RFC 4862 §5.4.5); never re-create it.
