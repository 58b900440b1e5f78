"""First-hop security: switch-port RA filtering (RA Guard, source ACLs),
simulation-level signed router advertisements, and digest-bound interface
identifiers."""

from __future__ import annotations

import enum
import hashlib
import hmac
from dataclasses import dataclass, replace
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
        return self._value_


@dataclass(frozen=True)
class SwitchPort:
    """One switch port as wired at build: its class and its RA filtering.
    An *empty* ACL drops every RA on the port; ``None`` means no ACL is
    configured."""

    port_id: str
    port_class: PortClass
    ra_guard: bool
    acl: Optional[frozenset[MacAddress]]


def filter_ingress(port: SwitchPort, msg: NdMessage) -> Optional[str]:
    """Return a drop reason for ``msg`` entering the switch at ``port``, or
    None to forward. Only router advertisements are ever dropped."""
    if not isinstance(msg, RouterAdvertisement):
        return None
    if port.ra_guard and port.port_class is PortClass.HOST_FACING:
        return RA_GUARD
    if port.acl is not None and msg.src_mac not in port.acl:
        return ACL
    return None


def key_secret(key_id: str) -> bytes:
    """The secret of signing key ``key_id``, derived from its id; it stands in
    for key material and a certification path."""
    return hashlib.sha256(b"key-material:" + key_id.encode()).digest()


def _tag(secret: bytes, signed_fields: bytes) -> bytes:
    """The 128-bit MAC of an advertisement: keyed BLAKE2b (RFC 7693), a MAC by
    construction, so it needs no HMAC nesting."""
    return hashlib.blake2b(signed_fields, key=secret, digest_size=16).digest()


def sign_ra(ra: RouterAdvertisement, key_id: str) -> RouterAdvertisement:
    """Attach an AuthToken computed from the RA's semantic fields."""
    return replace(ra, auth=AuthToken(key_id, _tag(key_secret(key_id), ra.signed_fields)))


def verify_ra(ra: RouterAdvertisement, trusted: dict[str, bytes]) -> bool:
    """True iff the token is present, its key is in ``trusted`` (key id to
    secret), and the tag recomputes over the RA as received."""
    auth = ra.auth
    if auth is None or auth.key_id not in trusted:
        return False
    return hmac.compare_digest(_tag(trusted[auth.key_id], ra.signed_fields), auth.tag)


def cga_generate(public_key_id: str, modifier: int) -> int:
    """Interface identifier bound to a key: low 64 bits of a digest with the
    two EUI-64 flag bits cleared."""
    digest = hashlib.sha256(f"cga|{public_key_id}|{modifier}".encode()).digest()
    return (int.from_bytes(digest[-8:], "big") & IID_MASK) & ~_IID_FLAG_BITS
