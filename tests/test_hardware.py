"""Tests for the cycle-level hardware model: memories, engines, blocks, scheduler."""

import pytest

from repro.automata import AhoCorasickDFA
from repro.hardware import (
    ENGINES_PER_BLOCK,
    ENGINES_PER_PORT,
    DualPortMemory,
    HardwareAccelerator,
    PortOversubscribedError,
    StringMatchingBlock,
    build_block_image,
)
from repro.hardware.scheduler import MatchScheduler
from repro.hardware.engine import EngineMatch
from repro.traffic import Packet, TrafficGenerator, TrafficProfile


class TestDualPortMemory:
    def test_read_and_bandwidth_accounting(self):
        memory = DualPortMemory({1: "a", 2: "b"}, name="m", reads_per_cycle_per_port=3)
        assert memory.read(1, port=0, cycle=0) == "a"
        assert memory.read(2, port=0, cycle=0) == "b"
        assert memory.read(1, port=1, cycle=0) == "a"
        assert memory.total_reads() == 3
        assert memory.port_stats[0].reads == 2

    def test_oversubscription_raises(self):
        memory = DualPortMemory({1: "a"}, reads_per_cycle_per_port=2)
        memory.read(1, 0, cycle=5)
        memory.read(1, 0, cycle=5)
        with pytest.raises(PortOversubscribedError):
            memory.read(1, 0, cycle=5)
        # the other port and other cycles are unaffected
        memory.read(1, 1, cycle=5)
        memory.read(1, 0, cycle=6)

    def test_invalid_port_and_missing_key(self):
        memory = DualPortMemory({1: "a"})
        with pytest.raises(ValueError):
            memory.read(1, port=7, cycle=0)
        with pytest.raises(KeyError):
            memory.read(99, port=0, cycle=0)

    def test_configuration_write(self):
        memory = DualPortMemory({}, name="cfg")
        memory.write(5, "value")
        assert memory.read(5, 0, 0) == "value"


class TestBlockImage:
    def test_image_covers_every_state(self, small_program):
        block = small_program.blocks[0]
        image = build_block_image(block)
        assert image.state_count() == block.num_states
        assert image.root_address in image.states
        assert len(image.lookup) == 256
        assert len(image.match_words) == block.match_memory.used_words

    def test_pointers_reference_existing_states(self, small_program):
        image = build_block_image(small_program.blocks[0])
        for entry in image.states.values():
            for address in entry.pointers.values():
                assert address in image.states


class TestBlockScan:
    def test_matches_equal_software_reference(self, small_ruleset, small_program, rng):
        from tests.conftest import text_with_patterns

        block = StringMatchingBlock(small_program.blocks[0])
        reference = AhoCorasickDFA.from_patterns(small_ruleset.patterns)
        packets = [
            Packet(payload=text_with_patterns(rng, small_ruleset.patterns, length=300), packet_id=i)
            for i in range(9)
        ]
        result = block.scan_packets(packets)
        for packet in packets:
            expected = {
                (packet.packet_id, position, number)
                for position, number in (
                    (pos, small_program.blocks[0].string_numbers[pid])
                    for pos, pid in reference.match(packet.payload)
                    if pid in small_program.blocks[0].string_numbers
                )
            }
            got = {
                (event.packet_id, event.end_offset, event.string_number)
                for event in result.events_for_packet(packet.packet_id)
            }
            assert got == expected

    def test_one_byte_per_engine_per_cycle(self, small_program):
        block = StringMatchingBlock(small_program.blocks[0])
        payload = bytes(range(256)) * 2
        packets = [Packet(payload=payload, packet_id=i) for i in range(ENGINES_PER_BLOCK)]
        result = block.scan_packets(packets)
        # six engines, equal-length packets: every engine consumes one byte
        # per cycle, so cycles == packet length and bytes == 6 x length
        assert result.engine_cycles == len(payload)
        assert result.bytes_processed == ENGINES_PER_BLOCK * len(payload)
        assert result.bytes_per_engine_cycle == pytest.approx(1.0)
        for engine in block.engines:
            assert engine.stats.bytes_per_cycle == pytest.approx(1.0)

    def test_port_sharing_never_oversubscribed(self, small_program):
        # the scan would raise PortOversubscribedError if an engine ever needed
        # more than its one guaranteed read per cycle
        block = StringMatchingBlock(small_program.blocks[0])
        packets = [Packet(payload=bytes([i]) * 64, packet_id=i) for i in range(12)]
        block.scan_packets(packets)
        for stats in block.state_memory.port_stats:
            assert stats.max_reads_in_cycle <= ENGINES_PER_PORT

    def test_engines_assigned_three_per_port(self, small_program):
        block = StringMatchingBlock(small_program.blocks[0])
        ports = [engine.port for engine in block.engines]
        assert ports == [0, 0, 0, 1, 1, 1]

    def test_empty_packet_list(self, small_program):
        block = StringMatchingBlock(small_program.blocks[0])
        result = block.scan_packets([])
        assert result.events == []
        assert result.engine_cycles == 0


class TestMatchScheduler:
    def test_walks_list_until_stop_bit(self):
        words = {0: (7, 9, False), 1: (11, 8191, True)}
        scheduler = MatchScheduler(words)
        scheduler.push(EngineMatch(engine_id=0, packet_id=3, end_offset=10, match_address=0))
        events = scheduler.drain()
        assert [e.string_number for e in events] == [7, 9, 11]
        assert all(e.packet_id == 3 and e.end_offset == 10 for e in events)
        assert scheduler.stats.words_read == 2

    def test_buffer_depth_tracked(self):
        scheduler = MatchScheduler({0: (1, 8191, True)})
        for i in range(4):
            scheduler.push(EngineMatch(0, 0, i, 0))
        assert scheduler.stats.max_buffer_depth == 4
        scheduler.drain()
        assert scheduler.pending() == 0


class TestAccelerator:
    def test_scan_equals_program_reference(self, small_ruleset, small_program, small_dtp, rng):
        """The cycle model reports what the registry's ``dtp`` program and
        ``ac`` report, packet for packet."""
        from tests.conftest import text_with_patterns

        accelerator = HardwareAccelerator(small_program)
        ac = AhoCorasickDFA.from_patterns(small_ruleset.patterns)
        packets = [
            Packet(payload=text_with_patterns(rng, small_ruleset.patterns, length=200), packet_id=i)
            for i in range(18)
        ]
        result = accelerator.scan(packets)
        for packet in packets:
            expected = {
                (packet.packet_id, pos, number)
                for pos, number in small_dtp.match(packet.payload)
            }
            assert sorted(small_dtp.match(packet.payload)) == sorted(ac.match(packet.payload))
            got = {
                (e.packet_id, e.end_offset, e.string_number)
                for e in result.events_for_packet(packet.packet_id)
            }
            assert got == expected

    def test_group_replication(self, small_program):
        accelerator = HardwareAccelerator(small_program)
        assert accelerator.packet_groups == 6  # single-block program on Stratix III
        assert accelerator.total_blocks_used == 6
        assert accelerator.idle_blocks() == 0
        assert accelerator.nominal_throughput_gbps() == pytest.approx(44.2, abs=0.2)

    def test_injected_attacks_detected(self, small_ruleset, small_program):
        accelerator = HardwareAccelerator(small_program)
        generator = TrafficGenerator(
            small_ruleset, TrafficProfile(attack_probability=1.0, mean_payload_bytes=120), seed=17
        )
        packets = generator.packets(12)
        result = accelerator.scan(packets)
        alerts = accelerator.alerts_by_sid(result)
        for packet in packets:
            for sid in packet.injected_sids:
                assert any(event.packet_id == packet.packet_id for event in alerts[sid])
