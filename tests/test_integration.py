"""Cross-module integration tests: the whole pipeline, end to end."""


from repro.automata import AhoCorasickDFA, AhoCorasickNFA, WuManber
from repro.core import DTPAutomaton, compile_ruleset
from repro.fpga import CYCLONE_III, STRATIX_III, PowerModel, estimate_resources
from repro.hardware import HardwareAccelerator
from repro.rulesets import generate_snort_like_ruleset, reduce_ruleset
from repro.traffic import TrafficGenerator, TrafficProfile


def test_ruleset_to_hardware_to_alerts(small_ruleset, small_program):
    """Compile -> simulate -> verify every injected attack string is reported."""
    accelerator = HardwareAccelerator(small_program)
    generator = TrafficGenerator(
        small_ruleset,
        TrafficProfile(mean_payload_bytes=180, attack_probability=0.6, max_injected=2),
        seed=21,
    )
    packets = generator.packets(30)
    result = accelerator.scan(packets)
    alerts = accelerator.alerts_by_sid(result)
    expected_sids = {sid for packet in packets for sid in packet.injected_sids}
    assert expected_sids <= set(alerts)


def test_all_matchers_agree_on_same_ruleset(rng):
    """Five independent implementations must report identical match sets."""
    from tests.conftest import text_with_patterns

    ruleset = generate_snort_like_ruleset(60, seed=77)
    patterns = ruleset.patterns
    data = text_with_patterns(rng, patterns, length=5000)

    reference = sorted(AhoCorasickDFA.from_patterns(patterns).match(data))
    assert sorted(AhoCorasickNFA.from_patterns(patterns).match(data)) == reference
    assert sorted(DTPAutomaton.from_patterns(patterns).match(data)) == reference
    assert sorted(WuManber(patterns).match(data)) == reference
    # the device program matches through its cycle model
    accelerator = HardwareAccelerator(compile_ruleset(ruleset, STRATIX_III))
    assert sorted(accelerator.match(data)) == reference


def test_reduced_rulesets_compile_and_shrink(medium_ruleset):
    """Smaller rulesets need no more memory/blocks than bigger ones."""
    smaller = reduce_ruleset(medium_ruleset, 150, seed=6)
    big = compile_ruleset(medium_ruleset, CYCLONE_III)
    small = compile_ruleset(smaller, CYCLONE_III)
    assert small.total_memory_bytes() < big.total_memory_bytes()
    assert small.blocks_per_group <= big.blocks_per_group
    assert small.throughput_gbps >= big.throughput_gbps


def test_device_report_is_consistent(small_program):
    """Resource, power and throughput models agree on the same configuration."""
    device = small_program.device
    resources = estimate_resources(device)
    power = PowerModel(device)
    assert resources.fits()
    assert power.peak_power_watts() > power.power_watts(0)
    assert small_program.throughput_gbps <= 16 * device.memory_fmax_mhz * 1e6 * device.num_matching_blocks / 1e9


def test_guaranteed_rate_independent_of_content(small_program):
    """Worst-case input does not slow the DTP matcher down (no fail pointers).

    The NFA (failure-function) formulation visits extra states on adversarial
    input; the DTP automaton performs exactly one transition per byte.
    """
    from tests.conftest import reference_iter_states

    patterns = small_program.ruleset.patterns
    nfa = AhoCorasickNFA.from_patterns(patterns)
    dtp = small_program.blocks[0].dtp

    # adversarial payload: repeat prefixes of real patterns to force failures
    adversarial = b"".join(p[: max(1, len(p) - 1)] for p in patterns[:50]) * 3
    nfa.match(adversarial)
    assert nfa.last_match_stats.visits_per_byte > 1.0

    transitions = sum(1 for _ in reference_iter_states(dtp, adversarial))
    assert transitions == len(adversarial)  # exactly one per byte, by construction
