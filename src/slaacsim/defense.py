"""First-hop security: switch-port RA filtering (RA Guard, source ACLs),
simulation-level signed router advertisements, and digest-bound interface
identifiers."""

from __future__ import annotations

import enum
import hashlib
import hmac
from dataclasses import dataclass, field, replace
from typing import Optional

from .addressing import IID_MASK, MacAddress
from .messages import AuthToken, NdMessage, RouterAdvertisement

RA_GUARD = "ra-guard"
ACL = "acl"

# Universal/local and individual/group flag bits of an interface identifier.
_IID_FLAG_BITS = 0x03 << 56


class PortClass(enum.Enum):
    ROUTER_FACING = "router"
    HOST_FACING = "host"

    def __str__(self) -> str:
        return self.value


@dataclass
class PortPolicy:
    """Per-port RA filtering. An *empty* ACL set drops every RA on the port;
    ``None`` means no ACL is configured."""

    ra_guard: bool = False
    acl_allowed_ra_sources: Optional[frozenset[MacAddress]] = None


@dataclass
class SwitchPort:
    port_id: str
    attached_node: Optional[str] = None
    port_class: PortClass = PortClass.HOST_FACING
    policy: PortPolicy = field(default_factory=PortPolicy)


def filter_ingress(port: SwitchPort, msg: NdMessage) -> Optional[str]:
    """Return a drop reason for ``msg`` entering the switch at ``port``, or
    None to forward. Only router advertisements are ever dropped."""
    if not isinstance(msg, RouterAdvertisement):
        return None
    if port.policy.ra_guard and port.port_class is PortClass.HOST_FACING:
        return RA_GUARD
    acl = port.policy.acl_allowed_ra_sources
    if acl is not None and msg.src_mac not in acl:
        return ACL
    return None


class UnknownKeyError(KeyError):
    pass


class TrustAnchorRegistry:
    """Flat key_id -> secret registry standing in for a certification path."""

    def __init__(self):
        self.anchors: dict[str, bytes] = {}

    def add_key(self, key_id: str, secret: Optional[bytes] = None) -> None:
        if secret is None:
            secret = hashlib.sha256(b"key-material:" + key_id.encode()).digest()
        self.anchors[key_id] = secret

    def secret_for(self, key_id: str) -> bytes:
        try:
            return self.anchors[key_id]
        except KeyError:
            raise UnknownKeyError(key_id) from None

    def __contains__(self, key_id: str) -> bool:
        return key_id in self.anchors


def _ra_signing_bytes(ra: RouterAdvertisement) -> bytes:
    # Covers every semantic field so any post-signing mutation is detected.
    prefix_part = ";".join(
        f"{p.prefix}|{int(p.autonomous)}|{p.valid_lifetime}|{p.preferred_lifetime}"
        for p in ra.prefixes
    )
    body = f"{ra.src_mac}|{ra.src_ip}|{ra.router_lifetime}|{int(ra.preference)}|{prefix_part}"
    return body.encode()


def sign_ra(ra: RouterAdvertisement, key_id: str, registry: TrustAnchorRegistry) -> RouterAdvertisement:
    """Attach an AuthToken computed from the RA's semantic fields."""
    secret = registry.secret_for(key_id)
    tag = hmac.new(secret, _ra_signing_bytes(ra), hashlib.sha256).digest()[:16]
    return replace(ra, auth=AuthToken(key_id, tag))


def verify_ra(ra: RouterAdvertisement, registry: TrustAnchorRegistry) -> bool:
    """True iff the token is present, its key is anchored, and the tag
    recomputes over the RA as received."""
    if ra.auth is None or ra.auth.key_id not in registry:
        return False
    secret = registry.secret_for(ra.auth.key_id)
    expected = hmac.new(secret, _ra_signing_bytes(ra), hashlib.sha256).digest()[:16]
    return hmac.compare_digest(expected, ra.auth.tag)


def cga_generate(public_key_id: str, modifier: int) -> int:
    """Interface identifier bound to a key: low 64 bits of a digest with the
    two EUI-64 flag bits cleared."""
    digest = hashlib.sha256(f"cga|{public_key_id}|{modifier}".encode()).digest()
    return (int.from_bytes(digest[-8:], "big") & IID_MASK) & ~_IID_FLAG_BITS


def cga_verify(iid: int, public_key_id: str, modifier: int) -> bool:
    return cga_generate(public_key_id, modifier) == iid
