"""Software matching-speed comparison (context for the hardware design).

Not a figure of the paper, but it grounds its motivation: a pure-software
multi-pattern scan is orders of magnitude away from line rate, and the
failure-function automaton's speed depends on the input, which is exactly
what the guaranteed-rate hardware design removes.

Every registered :mod:`repro.backend` backend is benchmarked through the
unified protocol; the goto/failure NFA rides along as the one matcher
deliberately outside the protocol.
"""

import pytest

from repro.automata import AhoCorasickNFA
from repro.backend import backend_names, get_backend
from repro.traffic import TrafficGenerator, TrafficProfile

PAYLOAD_BYTES = 40_000


def _payload(ruleset, seed=5):
    generator = TrafficGenerator(
        ruleset, TrafficProfile(mean_payload_bytes=1400, attack_probability=0.3), seed=seed
    )
    data = bytearray()
    while len(data) < PAYLOAD_BYTES:
        data += generator.packet().payload
    return bytes(data[:PAYLOAD_BYTES])


@pytest.fixture(scope="module")
def workload(paper_family):
    ruleset = paper_family[500]
    return ruleset, _payload(ruleset)


@pytest.mark.parametrize("backend_name", backend_names())
def test_software_backend_scan(benchmark, workload, backend_name):
    ruleset, payload = workload
    program = get_backend(backend_name).compile(ruleset.patterns)
    result = benchmark(program.match, payload)
    assert isinstance(result, list)


def test_software_nfa_scan(benchmark, workload):
    ruleset, payload = workload
    nfa = AhoCorasickNFA.from_patterns(ruleset.patterns)
    result = benchmark(nfa.match, payload)
    assert isinstance(result, list)


def test_software_matchers_agree(workload):
    ruleset, payload = workload
    expected = None
    for backend_name in backend_names():
        program = get_backend(backend_name).compile(ruleset.patterns)
        matches = sorted(program.match(payload))
        if expected is None:
            expected = matches
        assert matches == expected, backend_name
    assert sorted(AhoCorasickNFA.from_patterns(ruleset.patterns).match(payload)) == expected
