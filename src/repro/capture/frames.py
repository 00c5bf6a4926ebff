"""Link/network/transport frame codec between capture bytes and the Packet model.

:func:`decode_fields` turns one captured frame into the 5-tuple header and the
TCP/UDP payload the scan layers operate on, as plain values replay builds its
one ``Packet`` from (:func:`decode_frame` wraps them in a
:class:`DecodedFrame`); :func:`encode_frame` is the inverse, used to export
generated traffic as standards-conformant captures.
Supported layers:

* link: Ethernet (including 802.1Q VLAN tags), Linux cooked capture (SLL)
  and raw IP (``LINKTYPE_RAW``);
* network: IPv4 (options skipped, every fragment rejected — reassembly is
  out of scope and a first fragment's partial payload would silently miss
  boundary-spanning patterns) and IPv6 (hop-by-hop/routing/
  destination-options/fragment extension chains walked);
* transport: TCP and UDP.

Frames outside that set — ARP, ICMP, IP fragments — decode to
``None`` with a reason, so replay can count what it skipped instead of
failing on real-world captures.  Decoding resolves a flow's header once:
later frames of the flow look it up by their raw address and port bytes.
Encoding is deterministic: fixed MAC
addresses, caller-supplied (or zero) TCP sequence numbers and correct
IPv4/TCP/UDP checksums, so a written capture is byte-stable for a given
packet stream and accepted by standard tools.
:func:`repro.capture.replay.write_packets` assigns monotone per-flow
sequence numbers, so exported captures are valid input for the
:mod:`repro.proto` TCP reassembler.
"""

from __future__ import annotations

import ipaddress
import struct
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..traffic.packet import FiveTuple
from .pcap import LINKTYPE_ETHERNET, LINKTYPE_LINUX_SLL, LINKTYPE_RAW

_ETHERTYPE_IPV4 = 0x0800
_ETHERTYPE_IPV6 = 0x86DD
_ETHERTYPE_VLAN = 0x8100

_IPPROTO_TCP = 6
_IPPROTO_UDP = 17

#: IPv6 extension headers that carry a ``(next_header, length)`` prefix.
_IPV6_EXTENSIONS = {0, 43, 60}
_IPV6_FRAGMENT = 44

#: Deterministic MACs for encoded frames (locally administered range).
_SRC_MAC = bytes.fromhex("020000000001")
_DST_MAC = bytes.fromhex("020000000002")

_PROTO_NUMBER = {"tcp": _IPPROTO_TCP, "udp": _IPPROTO_UDP}
_PROTO_NAME = {number: name for name, number in _PROTO_NUMBER.items()}


class FrameEncodeError(ValueError):
    """Raised when a packet cannot be rendered as a capture frame."""


@dataclass(frozen=True)
class DecodedFrame:
    """One successfully decoded frame: the scan-layer view of the bytes.

    ``seq``/``flags`` carry the TCP sequence number and flag byte for TCP
    frames (``None``/``0`` for UDP), so the :mod:`repro.proto` reassembler
    can reorder segments without re-decoding the capture.
    """

    header: FiveTuple
    payload: bytes
    seq: Optional[int] = None
    flags: int = 0


def _checksum(data: bytes) -> int:
    """RFC 1071 ones'-complement checksum."""
    if len(data) % 2:
        data += b"\x00"
    total = sum(struct.unpack(f"!{len(data) // 2}H", data))
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return ~total & 0xFFFF


# ----------------------------------------------------------------------
# decoding
# ----------------------------------------------------------------------
#: Most flows :func:`decode_fields` remembers; the table is cleared, not
#: trimmed, when it fills — the next frame of each flow re-resolves it.
FLOW_INTERN_BOUND = 1 << 16

#: (protocol, raw address bytes + raw port bytes) -> the flow's header, which
#: is also its flow key.  A pure memo: a hit returns a header equal to what a
#: miss would build.
_FLOWS: Dict[Tuple[int, bytes], FiveTuple] = {}

_IPV4_FIELDS = struct.Struct("!BxH2xHxB")  # version/ihl, total length, frag, protocol
_IPV6_FIELDS = struct.Struct("!HB")  # payload length, next header
_TCP_FIELDS = struct.Struct("!IxxxxBB")  # seq, data offset, flags (after the ports)
_UINT16 = struct.Struct("!H")


def _intern_flow(protocol: int, wire: bytes) -> FiveTuple:
    """Resolve a flow's wire identity to its header, once per flow."""
    half = (len(wire) - 4) // 2
    src_port, dst_port = struct.unpack_from("!HH", wire, 2 * half)
    header = FiveTuple(
        src_ip=str(ipaddress.ip_address(wire[:half])),
        dst_ip=str(ipaddress.ip_address(wire[half:2 * half])),
        src_port=src_port,
        dst_port=dst_port,
        protocol=_PROTO_NAME[protocol],
    )
    if len(_FLOWS) >= FLOW_INTERN_BOUND:
        _FLOWS.clear()
    _FLOWS[protocol, wire] = header
    return header


def decode_frame(
    data: bytes, linktype: int = LINKTYPE_ETHERNET
) -> Tuple[Optional[DecodedFrame], Optional[str]]:
    """Decode one captured frame; returns ``(frame, None)`` or ``(None, reason)``.

    ``reason`` is a short stable token (``"link"``, ``"network"``,
    ``"fragment"``, ``"transport"``, ``"truncated"``) suitable for
    aggregation into replay statistics.  The :class:`DecodedFrame` view of
    :func:`decode_fields`, which replay and the tail reader call directly.
    """
    header, payload, seq, flags = decode_fields(data, linktype)
    if header is None:
        return None, payload
    return DecodedFrame(header, payload, seq, 0 if flags is None else flags), None


def decode_fields(data: bytes, linktype: int = LINKTYPE_ETHERNET) -> Tuple:
    """Decode one captured frame into plain values, ready for a ``Packet``.

    Returns ``(header, payload, tcp_seq, tcp_flags)`` — sequence number and
    flag byte are ``None`` for UDP, as :class:`~repro.traffic.Packet` wants
    them — or, for a frame that cannot be scanned, ``(None, reason, None,
    None)`` with the :func:`decode_frame` reason token.

    One pass by offset from link header to payload: nothing is sliced but
    the payload and the flow's wire identity (address and port bytes), which
    is looked up in a bounded table of flows already seen — so a frame of a
    known flow reuses that flow's :class:`FiveTuple`, which the scan layers
    key the flow by, and only a flow's first frame builds addresses, validates
    ports and hashes the flow.
    The returned header is *equal* to a freshly built one; whether it is the
    same object as an earlier frame's is not part of the contract.
    """
    size = len(data)
    if linktype == LINKTYPE_ETHERNET:
        if size < 14:
            return None, "truncated", None, None
        (ethertype,) = _UINT16.unpack_from(data, 12)
        ip = 14
        while ethertype == _ETHERTYPE_VLAN:
            if size < ip + 4:
                return None, "truncated", None, None
            (ethertype,) = _UINT16.unpack_from(data, ip + 2)
            ip += 4
    elif linktype == LINKTYPE_LINUX_SLL:
        if size < 16:
            return None, "truncated", None, None
        (ethertype,) = _UINT16.unpack_from(data, 14)
        ip = 16
    elif linktype == LINKTYPE_RAW:
        if not data:
            return None, "truncated", None, None
        ethertype = _ETHERTYPE_IPV4 if data[0] >> 4 == 4 else _ETHERTYPE_IPV6
        ip = 0
    else:
        return None, "link", None, None

    # network layer: protocol, [transport, end) and the address bytes
    if ethertype == _ETHERTYPE_IPV4:
        if size - ip < 20:
            return None, "truncated", None, None
        version_ihl, total_len, flags_fragment, protocol = _IPV4_FIELDS.unpack_from(data, ip)
        if version_ihl >> 4 != 4:
            return None, "network", None, None
        header_len = (version_ihl & 0x0F) * 4
        if header_len < 20 or size - ip < total_len or total_len < header_len:
            return None, "truncated", None, None
        # any fragment is unscannable without reassembly: a non-first fragment
        # (offset != 0) has no transport header, a first fragment (MF set) has a
        # partial payload that would silently miss boundary-spanning patterns
        if flags_fragment & 0x3FFF:  # offset bits | more-fragments
            return None, "fragment", None, None
        addresses = data[ip + 12:ip + 20]
        transport = ip + header_len
        end = ip + total_len
    elif ethertype == _ETHERTYPE_IPV6:
        if size - ip < 40:
            return None, "truncated", None, None
        if data[ip] >> 4 != 6:
            return None, "network", None, None
        payload_len, protocol = _IPV6_FIELDS.unpack_from(data, ip + 4)
        end = ip + 40 + payload_len
        if size < end:
            return None, "truncated", None, None
        addresses = data[ip + 8:ip + 40]
        transport = ip + 40
        while protocol in _IPV6_EXTENSIONS or protocol == _IPV6_FRAGMENT:
            if transport + 8 > end:
                return None, "truncated", None, None
            if protocol == _IPV6_FRAGMENT:
                # offset bits | M flag: only atomic fragments are complete
                if _UINT16.unpack_from(data, transport + 2)[0] & 0xFFF9:
                    return None, "fragment", None, None
                protocol = data[transport]
                transport += 8
            else:
                protocol = data[transport]
                transport += (data[transport + 1] + 1) * 8
    else:
        return None, "network", None, None

    # transport layer
    if protocol == _IPPROTO_TCP:
        if end - transport < 20:
            return None, "truncated", None, None
        seq, data_offset, flags = _TCP_FIELDS.unpack_from(data, transport + 4)
        data_offset = (data_offset >> 4) * 4
        if data_offset < 20 or data_offset > end - transport:
            return None, "truncated", None, None
        payload = data[transport + data_offset:end]
    elif protocol == _IPPROTO_UDP:
        if end - transport < 8:
            return None, "truncated", None, None
        (length,) = _UINT16.unpack_from(data, transport + 4)
        if length < 8 or length > end - transport:
            return None, "truncated", None, None
        seq = flags = None
        payload = data[transport + 8:transport + length]
    else:
        return None, "transport", None, None
    wire = addresses + data[transport:transport + 4]
    header = _FLOWS.get((protocol, wire))
    if header is None:
        header = _intern_flow(protocol, wire)
    return header, payload, seq, flags


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------
def encode_frame(
    header: FiveTuple,
    payload: bytes,
    linktype: int = LINKTYPE_ETHERNET,
    *,
    seq: int = 0,
    flags: int = 0x18,
) -> bytes:
    """Render a header + payload as one frame of the given link type.

    The inverse of :func:`decode_frame` for the supported 5-tuples:
    ``decode_frame(encode_frame(h, p))`` returns exactly ``(h, p)``.
    ``seq``/``flags`` set the TCP sequence number and flag byte (default
    PSH|ACK) and are ignored for UDP.
    """
    if not 0 <= seq <= 0xFFFFFFFF:
        raise FrameEncodeError(f"TCP sequence number {seq} out of 32-bit range")
    protocol = _PROTO_NUMBER.get(header.protocol.lower())
    if protocol is None:
        raise FrameEncodeError(
            f"cannot encode protocol {header.protocol!r} (only tcp/udp)"
        )
    try:
        src = ipaddress.ip_address(header.src_ip)
        dst = ipaddress.ip_address(header.dst_ip)
    except ValueError as exc:
        raise FrameEncodeError(f"cannot encode addresses of {header}") from exc
    if src.version != dst.version:
        raise FrameEncodeError(f"mixed IPv4/IPv6 addresses in {header}")

    transport_header = 20 if protocol == _IPPROTO_TCP else 8
    max_segment = 0xFFFF - 20 if src.version == 4 else 0xFFFF
    if transport_header + len(payload) > max_segment:
        raise FrameEncodeError(
            f"payload of {len(payload)} bytes does not fit the 16-bit length "
            f"fields of one IPv{src.version} frame"
        )
    segment = _encode_transport(protocol, header, payload, src, dst, seq, flags)
    if src.version == 4:
        ip_header = struct.pack(
            "!BBHHHBBH4s4s",
            0x45, 0, 20 + len(segment), 0, 0x4000, 64, protocol, 0,
            src.packed, dst.packed,
        )
        checksum = _checksum(ip_header)
        packet = ip_header[:10] + struct.pack("!H", checksum) + ip_header[12:] + segment
        ethertype = _ETHERTYPE_IPV4
    else:
        packet = (
            struct.pack("!IHBB", 6 << 28, len(segment), protocol, 64)
            + src.packed
            + dst.packed
            + segment
        )
        ethertype = _ETHERTYPE_IPV6

    if linktype == LINKTYPE_ETHERNET:
        return _DST_MAC + _SRC_MAC + struct.pack("!H", ethertype) + packet
    if linktype == LINKTYPE_RAW:
        return packet
    if linktype == LINKTYPE_LINUX_SLL:
        # outgoing packet, ARPHRD_ETHER, 6-byte sender address
        return (
            struct.pack("!HHH", 4, 1, 6)
            + _SRC_MAC + b"\x00\x00"
            + struct.pack("!H", ethertype)
            + packet
        )
    raise FrameEncodeError(f"cannot encode link type {linktype}")


def _encode_transport(protocol, header, payload, src, dst, seq=0, flags=0x18) -> bytes:
    if protocol == _IPPROTO_TCP:
        segment = struct.pack(
            "!HHIIBBHHH",
            header.src_port, header.dst_port,
            seq, 0,  # deterministic ack: replay only reads one direction
            5 << 4, flags,  # data offset 5 words
            0xFFFF, 0, 0,
        ) + payload
    else:
        segment = struct.pack(
            "!HHHH", header.src_port, header.dst_port, 8 + len(payload), 0
        ) + payload

    pseudo = src.packed + dst.packed + (
        struct.pack("!BBH", 0, protocol, len(segment))
        if src.version == 4
        else struct.pack("!IHBB", len(segment), 0, 0, protocol)
    )
    checksum = _checksum(pseudo + segment)
    if protocol == _IPPROTO_UDP and checksum == 0:
        checksum = 0xFFFF  # 0 means "no checksum" on the wire (RFC 768)
    checksum_at = 16 if protocol == _IPPROTO_TCP else 6
    return (
        segment[:checksum_at]
        + struct.pack("!H", checksum)
        + segment[checksum_at + 2:]
    )
