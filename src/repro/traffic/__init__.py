"""Packets and synthetic traffic generation."""

from .generator import MANGLE_MODES, GeneratedFlow, TrafficGenerator, TrafficProfile
from .packet import FiveTuple, MatchEvent, Packet, PacketBatch

__all__ = [
    "GeneratedFlow",
    "MANGLE_MODES",
    "TrafficGenerator",
    "TrafficProfile",
    "FiveTuple",
    "MatchEvent",
    "Packet",
    "PacketBatch",
]
