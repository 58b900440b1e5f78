"""Host-side stateless autoconfiguration: link-local generation, duplicate
address detection, router-advertisement processing, default-router selection,
lifetime bookkeeping, and dual-stack next-hop resolution.

All times are engine milliseconds; wire lifetimes are seconds and are
converted at the point of use.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Union

from .addressing import (
    IID_MASK,
    Ipv4Address,
    Ipv6Address,
    MacAddress,
    Prefix,
    derive_eui64,
    global_from,
    is_link_local,
    link_local_from,
)
from .defense import cga_generate, verify_ra
from .messages import (
    MS,
    AddressFamily,
    NdMessage,
    NeighborAdvertisement,
    NeighborSolicitation,
    RouterAdvertisement,
    RouterPreference,
    RouterSolicitation,
    Timer,
    TimerKey,
)

if TYPE_CHECKING:
    from .engine import Engine

DAD_TIMEOUT_MS = 1 * MS  # single probe, one-second deadline
TWO_HOURS = 7200  # seconds


class AddressState(enum.Enum):
    TENTATIVE = "tentative"
    ASSIGNED = "assigned"
    ABANDONED = "abandoned"


@dataclass
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


@dataclass
class DefaultRouterEntry:
    router_ip: Ipv6Address
    expires_at: int
    preference: RouterPreference
    refreshed_at: int


@dataclass(frozen=True)
class NextHop:
    """Resolved next hop for an off-link destination."""

    family: AddressFamily
    router_ip: Optional[Ipv6Address]  # IPv6 route
    gateway_node: Optional[str]  # IPv4 route
    src_addr: Union[Ipv6Address, Ipv4Address]


def apply_two_hour_rule(remaining: int, received: int, two_hours: int = TWO_HOURS) -> int:
    """Valid-lifetime update rule limiting how far an unauthenticated
    advertisement can shorten an address's remaining lifetime."""
    if received > two_hours or received > remaining:
        return received
    if remaining <= two_hours:
        return remaining
    return two_hours


class Host(object):
    """SLAAC state machine for one interface on the simulated link."""

    def __init__(
        self,
        node_id: str,
        mac: MacAddress,
        ipv6_enabled: bool = True,
        ipv4: Optional[tuple[Ipv4Address, str]] = None,
        send_only: bool = False,
        iid_override: Optional[int] = None,
        cga: Optional[tuple[str, int]] = None,
    ):
        self.node_id = node_id
        self.ipv6_enabled = ipv6_enabled
        self.ipv4 = ipv4
        self.send_only = send_only
        if iid_override is not None:
            self.iid = iid_override & IID_MASK
        elif cga is not None:
            self.iid = cga_generate(cga[0], cga[1])
        else:
            self.iid = derive_eui64(mac)
        self.addresses: list[AddressEntry] = []
        self.router_list: list[DefaultRouterEntry] = []

    # -- phase 1 -------------------------------------------------------------

    def begin_autoconf(self, ctx: "Engine", now: int) -> None:
        """Create the tentative link-local address and start its DAD probe."""
        if not self.ipv6_enabled or any(e.prefix is None for e in self.addresses):
            return
        entry = AddressEntry(link_local_from(self.iid), AddressState.TENTATIVE)
        self.addresses.append(entry)
        self._start_dad(ctx, entry, now)

    def _start_dad(self, ctx: "Engine", entry: AddressEntry, now: int) -> None:
        deadline = now + DAD_TIMEOUT_MS
        ctx.trace(self.node_id, "dad-start", entry.address, deadline)
        ctx.claim(self.node_id, entry.address)
        ctx.broadcast(self.node_id, NeighborSolicitation(entry.address), now)
        ctx.set_timer(self.node_id, entry.address, deadline)

    def on_neighbor_solicitation(
        self, ctx: "Engine", msg: NeighborSolicitation, sender_id: str, now: int
    ) -> None:
        entry = self._entry_for(msg.target)
        if entry is None:
            return
        # Defend an address we hold, or win simultaneous DAD for the same
        # target with the lexicographically smaller node id: the soliciting
        # node must abandon. Otherwise this node abandons.
        if entry.state is AddressState.ASSIGNED or self.node_id < sender_id:
            ctx.broadcast(self.node_id, NeighborAdvertisement(entry.address), now)
        else:
            self._abandon_tentative(ctx, entry)

    def on_neighbor_advertisement(self, ctx: "Engine", msg: NeighborAdvertisement, now: int) -> None:
        entry = self._entry_for(msg.target)
        if entry is not None and entry.state is AddressState.TENTATIVE:
            self._abandon_tentative(ctx, entry)

    def _abandon_tentative(self, ctx: "Engine", entry: AddressEntry) -> None:
        entry.state = AddressState.ABANDONED
        ctx.trace(self.node_id, "dad-failed", entry.address)

    def dad_deadline(self, ctx: "Engine", address: Ipv6Address, now: int) -> None:
        """No conflict arrived before the deadline: assign the address's entry
        if still tentative (link-local prefixes never form a second entry)."""
        entry = self._entry_for(address)
        if entry is None or entry.state is not AddressState.TENTATIVE:
            return  # abandoned after a conflict or on expiry
        entry.state = AddressState.ASSIGNED
        origin = "link-local" if entry.prefix is None else "slaac"
        ctx.trace(self.node_id, "addr-assigned", address, origin)
        if entry.prefix is None:
            # Phase 2 entry point: solicit router advertisements.
            ctx.broadcast(self.node_id, RouterSolicitation(address), now)

    # -- phase 2 -------------------------------------------------------------

    def process_ra(self, ctx: "Engine", ra: RouterAdvertisement, now: int) -> None:
        if not self.ipv6_enabled:
            return
        if self.send_only and not verify_ra(ra, ctx.trusted_keys):
            ctx.trace(self.node_id, "ra-rejected-send", ra.src_ip)
            return
        self._update_router_list(ctx, ra, now)
        for info in ra.prefixes:
            if is_link_local(info.prefix.address):  # RFC 4862 §5.5.3(b)
                ctx.trace(self.node_id, "prefix-ignored", info.prefix, "link-local")
                continue
            if info.prefix.length != 64:
                ctx.trace(self.node_id, "prefix-ignored", info.prefix, "length")
                continue
            self._apply_prefix(ctx, ra, info, now)

    def _update_router_list(self, ctx: "Engine", ra: RouterAdvertisement, now: int) -> None:
        for entry in self.router_list:
            if entry.router_ip == ra.src_ip:
                break
        else:
            entry = None
        if ra.router_lifetime > 0:
            expires = now + ra.router_lifetime * MS
            if entry is None:
                self.router_list.append(DefaultRouterEntry(ra.src_ip, expires, ra.preference, now))
                kind = "router-added"
            else:
                entry.expires_at = expires
                entry.preference = ra.preference
                entry.refreshed_at = now
                kind = "router-refreshed"
            ctx.trace(self.node_id, kind, ra.src_ip, ra.preference, expires)
            ctx.set_timer(self.node_id, Timer.EXPIRY, expires)
        elif entry is not None:
            self.router_list.remove(entry)
            ctx.trace(self.node_id, "router-removed", ra.src_ip, "lifetime-zero")

    def _apply_prefix(self, ctx: "Engine", ra: RouterAdvertisement, info, now: int) -> None:
        for existing in self.addresses:
            if existing.prefix is not None and existing.prefix == info.prefix:
                break
        else:
            existing = None
        if existing is None:
            entry = AddressEntry(
                global_from(info.prefix, self.iid),
                AddressState.TENTATIVE,
                prefix=info.prefix,
                valid_until=now + info.valid_lifetime * MS,
                preferred_until=now + info.preferred_lifetime * MS,
            )
            self.addresses.append(entry)
            ctx.set_timer(self.node_id, Timer.EXPIRY, entry.valid_until)
            self._start_dad(ctx, entry, now)
        elif existing.state is not AddressState.ABANDONED:
            self._refresh_lifetimes(ctx, existing, info, now)
        # An abandoned entry for the prefix means autoconfiguration stopped;
        # never re-create it.

    def _refresh_lifetimes(self, ctx: "Engine", entry: AddressEntry, info, now: int) -> None:
        remaining_ms = max(0, (entry.valid_until or now) - now)
        received_ms = info.valid_lifetime * MS
        if ctx.two_hour_rule:
            new_valid_ms = apply_two_hour_rule(remaining_ms, received_ms, TWO_HOURS * MS)
        else:
            new_valid_ms = received_ms
        entry.valid_until = now + new_valid_ms
        entry.preferred_until = min(now + info.preferred_lifetime * MS, entry.valid_until)
        ctx.set_timer(self.node_id, Timer.EXPIRY, entry.valid_until)
        ctx.trace(self.node_id, "addr-lifetime", entry.address, new_valid_ms)

    # -- bookkeeping -----------------------------------------------------------

    def tick_lifetimes(self, ctx: "Engine", now: int) -> None:
        for entry in [e for e in self.router_list if e.expires_at <= now]:
            self.router_list.remove(entry)
            ctx.trace(self.node_id, "router-removed", entry.router_ip, "expired")
        for entry in self.addresses:
            if (
                entry.state is not AddressState.ABANDONED
                and entry.valid_until is not None
                and entry.valid_until <= now
            ):
                entry.state = AddressState.ABANDONED
                ctx.trace(self.node_id, "addr-abandoned", entry.address, "expired")

    def select_default_router(self, now: int) -> Optional[DefaultRouterEntry]:
        """Highest preference among unexpired entries; ties broken by most
        recent refresh, then lowest router address."""
        live = [e for e in self.router_list if e.expires_at > now]
        if not live:
            return None
        return max(live, key=lambda e: (e.preference, e.refreshed_at, -e.router_ip.value))

    def select_global_source(self, now: int) -> Optional[AddressEntry]:
        """The first assigned global address still preferred, else the first
        deprecated one (RFC 4862 §5.5.4, RFC 6724 rule 3)."""
        assigned = [
            e for e in self.addresses if e.prefix is not None and e.state is AddressState.ASSIGNED
        ]
        preferred = [e for e in assigned if e.preferred_until is None or e.preferred_until > now]
        return (preferred or assigned or [None])[0]

    def resolve_next_hop(self, now: int) -> Optional[NextHop]:
        """Next hop for an off-link destination: IPv6 when it can reach
        off-link, else IPv4; None when neither can (the DoS condition)."""
        if self.ipv6_enabled:
            source = self.select_global_source(now)
            router = self.select_default_router(now)
            if source is not None and router is not None:
                return NextHop(AddressFamily.IPV6, router.router_ip, None, source.address)
        if self.ipv4 is not None:
            return NextHop(AddressFamily.IPV4, None, self.ipv4[1], self.ipv4[0])
        return None

    # -- dispatch ---------------------------------------------------------------

    def on_message(self, ctx: "Engine", msg: NdMessage, sender_id: str, now: int) -> None:
        if isinstance(msg, RouterAdvertisement):
            self.process_ra(ctx, msg, now)
        elif isinstance(msg, NeighborSolicitation):
            self.on_neighbor_solicitation(ctx, msg, sender_id, now)
        elif isinstance(msg, NeighborAdvertisement):
            self.on_neighbor_advertisement(ctx, msg, now)
        # Router solicitations are not for hosts.

    def on_timer(self, ctx: "Engine", timer: TimerKey, now: int) -> None:
        if timer is Timer.EXPIRY:
            self.tick_lifetimes(ctx, now)
        elif timer is Timer.AUTOCONF:
            self.begin_autoconf(ctx, now)
        else:  # the DAD deadline of this tentative address
            self.dad_deadline(ctx, timer, now)

    def _entry_for(self, address: Ipv6Address) -> Optional[AddressEntry]:
        for entry in self.addresses:
            if entry.address == address and entry.state is not AddressState.ABANDONED:
                return entry
        return None
