"""Value types for link and IP addressing: MACs, IPv6/IPv4 addresses,
prefixes, and 64-bit interface identifiers.

All text forms are canonical (lowercase, compressed for IPv6) and are used
verbatim in scenario files, traces, and metrics.
"""

from __future__ import annotations

import functools
import ipaddress
from dataclasses import dataclass

IID_BITS = 64
IID_MASK = (1 << IID_BITS) - 1
LINK_LOCAL_PREFIX = 0xFE80 << 112
# Distinct IPv6 texts kept by _ipv6_text; a bound, so a process that runs many
# scenarios never grows the cache without limit.
IPV6_TEXT_CACHE_SIZE = 1 << 16


class AddressParseError(ValueError):
    """Malformed address text; ``offset`` points at the first faulty byte."""

    def __init__(self, text: str, offset: int, reason: str):
        super().__init__(f"{reason} at offset {offset}: {text!r}")
        self.offset = offset


class PrefixLengthUnsupported(ValueError):
    """Address formation from a prefix requires a 64-bit prefix."""


@dataclass(frozen=True, order=True)
class MacAddress:
    """48-bit IEEE 802 address; canonical form is six lowercase hex pairs."""

    octets: bytes

    def __post_init__(self):
        if len(self.octets) != 6:
            raise ValueError(f"MAC must be 6 octets, got {len(self.octets)}")

    @classmethod
    def parse(cls, text: str) -> "MacAddress":
        parts = text.split(":")
        if len(parts) != 6:
            raise AddressParseError(text, 0, "MAC needs six colon-separated pairs")
        octets = bytearray()
        offset = 0
        for part in parts:
            if len(part) != 2 or any(c not in "0123456789abcdefABCDEF" for c in part):
                raise AddressParseError(text, offset, "bad hex pair")
            octets.append(int(part, 16))
            offset += 3
        return cls(bytes(octets))

    def __str__(self) -> str:
        return ":".join(f"{b:02x}" for b in self.octets)


@dataclass(frozen=True, order=True)
class Ipv6Address:
    """128-bit address held as an integer; text form is RFC-compressed."""

    value: int

    def __post_init__(self):
        if not 0 <= self.value < 1 << 128:
            raise ValueError("IPv6 address out of range")

    @classmethod
    def parse(cls, text: str) -> "Ipv6Address":
        try:
            return cls(int(ipaddress.IPv6Address(text)))
        except (ipaddress.AddressValueError, ValueError):
            raise AddressParseError(text, _fault_offset(text), "invalid IPv6 address") from None

    def __str__(self) -> str:
        return _ipv6_text(self.value)


@functools.lru_cache(maxsize=IPV6_TEXT_CACHE_SIZE)
def _ipv6_text(value: int) -> str:
    # Traces and RA signatures format the same few addresses over and over;
    # the stdlib formatter is the costly part.
    return str(ipaddress.IPv6Address(value))


@dataclass(frozen=True, order=True)
class Ipv4Address:
    """32-bit address, dotted-quad text form."""

    octets: bytes

    def __post_init__(self):
        if len(self.octets) != 4:
            raise ValueError(f"IPv4 must be 4 octets, got {len(self.octets)}")

    @classmethod
    def parse(cls, text: str) -> "Ipv4Address":
        try:
            return cls(ipaddress.IPv4Address(text).packed)
        except (ipaddress.AddressValueError, ValueError):
            raise AddressParseError(text, 0, "invalid IPv4 address") from None

    def __str__(self) -> str:
        return ".".join(str(b) for b in self.octets)


@dataclass(frozen=True)
class Prefix:
    """An IPv6 prefix; every bit beyond ``length`` must be zero."""

    address: Ipv6Address
    length: int

    def __post_init__(self):
        if not 0 <= self.length <= 128:
            raise ValueError(f"prefix length {self.length} out of range")
        host_mask = (1 << (128 - self.length)) - 1
        if self.address.value & host_mask:
            raise ValueError(f"host bits set in prefix {self.address}/{self.length}")

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        body, sep, len_part = text.partition("/")
        if not sep or not len_part.isdigit():
            raise AddressParseError(text, len(body), "prefix needs /<length>")
        return cls(Ipv6Address.parse(body), int(len_part))

    def __str__(self) -> str:
        return f"{self.address}/{self.length}"


def derive_eui64(mac: MacAddress) -> int:
    """Modified EUI-64 interface identifier: MAC halves around ff:fe with the
    universal/local bit of the first octet flipped."""
    spliced = mac.octets[:3] + b"\xff\xfe" + mac.octets[3:]
    return int.from_bytes(spliced, "big") ^ (0x02 << 56)


def link_local_from(iid: int) -> Ipv6Address:
    """fe80::/64 with the low 64 bits set to the interface identifier."""
    return Ipv6Address(LINK_LOCAL_PREFIX | (iid & IID_MASK))


def is_link_local(address: Ipv6Address) -> bool:
    """True inside fe80::/10, the link-local unicast range."""
    return address.value >> 118 == LINK_LOCAL_PREFIX >> 118


def global_from(prefix: Prefix, iid: int) -> Ipv6Address:
    """Global address: high 64 bits from the prefix, low 64 bits from the IID."""
    if prefix.length != IID_BITS:
        raise PrefixLengthUnsupported(
            f"cannot form an address from {prefix}: only /64 prefixes carry a 64-bit IID"
        )
    return Ipv6Address(prefix.address.value | (iid & IID_MASK))


def iid_text(iid: int) -> str:
    """Fixed-width four-group hex form used in traces and metrics."""
    raw = f"{iid & IID_MASK:016x}"
    return ":".join(raw[i : i + 4] for i in range(0, 16, 4))


def parse_iid(text: str) -> int:
    raw = text.replace(":", "")
    if len(raw) != 16 or any(c not in "0123456789abcdefABCDEF" for c in raw):
        raise AddressParseError(text, 0, "IID needs 16 hex digits")
    return int(raw, 16)


_V6_CHARS = frozenset("0123456789abcdefABCDEF:.")


def _fault_offset(text: str) -> int:
    # First char outside the IPv6 alphabet, else the second "::", else the
    # fifth digit of an over-long group; 0 when the fault is elsewhere.
    for i, ch in enumerate(text):
        if ch not in _V6_CHARS:
            return i
    first = text.find("::")
    if first != -1:
        second = text.find("::", first + 2)
        if second != -1:
            return second
    run = 0
    for i, ch in enumerate(text):
        if ch in ":.":
            run = 0
        else:
            run += 1
            if run == 5:
                return i
    return 0
