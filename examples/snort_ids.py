#!/usr/bin/env python3
"""A miniature Snort: parse rules, classify headers, scan payloads, raise alerts.

Demonstrates the full DPI rule semantics described in the paper's
introduction: a rule fires only when both its 5-tuple header pattern and all
of its content strings match.

Run with:  python examples/snort_ids.py
"""

from repro.ids import IntrusionDetectionSystem
from repro.rulesets import parse_rules
from repro.traffic import FiveTuple, Packet

SNORT_RULES = [
    'alert tcp $EXTERNAL_NET any -> $HOME_NET 80 '
    '(msg:"WEB-IIS cmd.exe access"; content:"cmd.exe"; nocase; sid:1002;)',

    'alert tcp $EXTERNAL_NET any -> $HOME_NET 80 '
    '(msg:"WEB-IIS CodeRed v2 root.exe"; content:"GET /"; content:"root.exe"; sid:1256;)',

    'alert udp any any -> any 53 '
    '(msg:"DNS query for known-bad domain"; content:"badguy|03|com"; sid:2100;)',

    'alert tcp any any -> $HOME_NET 445 '
    '(msg:"NETBIOS SMB suspicious marker"; content:"|DE AD BE EF|"; sid:3000;)',
]

PACKETS = [
    Packet(packet_id=0,
           header=FiveTuple("203.0.113.9", "192.168.1.20", 51515, 80, "tcp"),
           payload=b"GET /scripts/..%255c../winnt/system32/CMD.EXE?/c+dir HTTP/1.0\r\n"),
    Packet(packet_id=1,
           header=FiveTuple("203.0.113.9", "192.168.1.20", 51516, 80, "tcp"),
           payload=b"GET /default.ida?NNNN root.exe HTTP/1.0\r\n"),
    Packet(packet_id=2,
           header=FiveTuple("198.51.100.7", "192.168.1.53", 33333, 53, "udp"),
           payload=b"\x12\x34\x01\x00\x00\x01badguy\x03com\x00\x00\x01\x00\x01"),
    Packet(packet_id=3,  # right payload, wrong port -> header must veto it
           header=FiveTuple("198.51.100.7", "192.168.1.53", 33333, 8080, "tcp"),
           payload=b"cmd.exe but not on port 80"),
    Packet(packet_id=4,
           header=FiveTuple("192.0.2.1", "192.168.1.99", 1029, 445, "tcp"),
           payload=b"\x00SMB\xde\xad\xbe\xef trailing"),
    Packet(packet_id=5,
           header=FiveTuple("192.0.2.2", "192.168.1.99", 1030, 80, "tcp"),
           payload=b"GET /index.html HTTP/1.1\r\nHost: example.org\r\n"),
]


def main() -> None:
    specs = parse_rules(SNORT_RULES)
    ids = IntrusionDetectionSystem.from_specs(specs)
    print(f"loaded {len(ids.rules)} rules; content strings compiled into "
          f"{ids.program.blocks_per_group} string matching block(s) on {ids.device.family}")

    alerts = ids.process(PACKETS)
    print(f"\nprocessed {ids.stats.packets_processed} packets "
          f"({ids.stats.payload_bytes} payload bytes)")
    if not alerts:
        print("no alerts")
    for alert in alerts:
        print(f"  ALERT packet={alert.packet_id} sid={alert.sid} msg={alert.msg!r}")
    print("\npacket 3 carries cmd.exe to port 8080: the header check vetoes it")


if __name__ == "__main__":
    main()
