#!/usr/bin/env python3
"""Quickstart: compress a ruleset, inspect the savings, scan a payload.

Run with:  python examples/quickstart.py
"""

from repro import STRATIX_III, compile_ruleset, generate_snort_like_ruleset, get_backend
from repro.automata import AhoCorasickDFA


def main() -> None:
    # 1. a Snort-like ruleset (the paper's workload is synthesised; see DESIGN.md)
    ruleset = generate_snort_like_ruleset(num_strings=634, seed=2010)
    print(f"ruleset: {len(ruleset)} strings, {ruleset.total_characters} characters, "
          f"{ruleset.unique_starting_bytes} distinct starting bytes")

    # 2. the uncompressed baseline: the move-function Aho-Corasick automaton
    baseline = AhoCorasickDFA.from_patterns(ruleset.patterns)
    print(f"original Aho-Corasick: {baseline.num_states} states, "
          f"{baseline.average_pointers_per_state():.2f} stored pointers per state")

    # 3. compile for the Stratix III target: DTP compression + memory packing
    program = compile_ruleset(ruleset, STRATIX_III)
    staged = program.staged_counts()
    averages = staged.averages()
    print(f"after depth-1 defaults      : {averages['after_d1']:.2f} pointers/state")
    print(f"after depth-1+2 defaults    : {averages['after_d1_d2']:.2f} pointers/state")
    print(f"after depth-1+2+3 defaults  : {averages['after_d1_d2_d3']:.2f} pointers/state")
    reduction = 100 * (1 - averages["after_d1_d2_d3"] / baseline.average_pointers_per_state())
    print(f"pointer reduction           : {reduction:.1f} %")
    print(f"total memory                : {program.total_memory_bytes():,} bytes "
          f"across {program.blocks_per_group} block(s)")
    print(f"nominal throughput          : {program.throughput_gbps:.1f} Gbps "
          f"({program.packet_groups} packet groups on {program.device.family})")

    # 4. scan a payload: software scans one automaton over the whole ruleset,
    #    the registry's dtp program (the blocks are the hardware's view)
    payload = b"GET /index.html " + ruleset[10].pattern + b" trailing bytes " + ruleset[42].pattern
    matches = get_backend("dtp").compile(ruleset).match(payload)
    sid_of = program.string_number_to_sid()
    print(f"\nscanning a {len(payload)}-byte payload -> {len(matches)} matches")
    for end, number in matches:
        print(f"  offset {end:4d}  string #{number}  (sid {sid_of[number]})")


if __name__ == "__main__":
    main()
