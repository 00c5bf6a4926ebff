"""Wu-Manber multi-pattern matching (Manber & Wu, TR-94-17).

A software baseline cited in the paper's related work.  Wu-Manber uses a
shift table over character blocks to skip ahead, which performs very well on
average but has a poor worst case — the property that disqualifies it for the
paper's guaranteed-rate hardware goal.  The benchmark harness uses it to put
the paper's one-character-per-cycle argument into context.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..backend import CompiledProgramMixin, ScanState, advance_history

MatchList = List[Tuple[int, int]]


class WuManber(CompiledProgramMixin):
    """Wu-Manber matcher with configurable block size.

    ``block_size`` is the classic *B* parameter (2 for small pattern sets,
    3 for large ones).  Patterns shorter than ``block_size`` are handled by a
    dedicated prefix scan so correctness never depends on the block size.

    Conforms to the :class:`repro.backend.CompiledProgram` protocol (backend
    name ``"wu-manber"``).  Wu-Manber has no automaton state to carry, so the
    resumable flow state keeps the last ``max_pattern_len - 1`` stream bytes
    in ``ScanState.tail``; each segment is matched over ``tail + chunk`` and
    hits ending inside the tail (already reported) are dropped.
    """

    backend_name = "wu-manber"

    def __init__(self, patterns: Sequence[bytes], block_size: int = 2):
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        if not patterns:
            raise ValueError("at least one pattern is required")
        for pattern in patterns:
            if len(pattern) == 0:
                raise ValueError("empty patterns are not allowed")
        self.patterns = tuple(bytes(p) for p in patterns)
        self._max_length = max(len(p) for p in self.patterns)
        self.block_size = block_size
        self._short_patterns = [
            (i, p) for i, p in enumerate(self.patterns) if len(p) < block_size
        ]
        long_patterns = [(i, p) for i, p in enumerate(self.patterns) if len(p) >= block_size]
        self._long_patterns = long_patterns
        self._minimum_length = (
            min(len(p) for _, p in long_patterns) if long_patterns else block_size
        )
        self._shift: Dict[bytes, int] = {}
        self._hash: Dict[bytes, List[int]] = {}
        self._build_tables()

    def _build_tables(self) -> None:
        block = self.block_size
        m = self._minimum_length
        default_shift = m - block + 1
        self._default_shift = max(1, default_shift)
        for pattern_id, pattern in self._long_patterns:
            window = pattern[:m]
            for offset in range(m - block + 1):
                chunk = window[offset:offset + block]
                shift = m - block - offset
                previous = self._shift.get(chunk, self._default_shift)
                self._shift[chunk] = min(previous, shift)
            suffix = window[m - block:m]
            self._hash.setdefault(suffix, []).append(pattern_id)

    # ------------------------------------------------------------------
    def match(self, data: bytes) -> MatchList:
        matches: MatchList = []
        block = self.block_size
        m = self._minimum_length

        if self._long_patterns and len(data) >= m:
            position = m - 1
            n = len(data)
            while position < n:
                chunk = bytes(data[position - block + 1:position + 1])
                shift = self._shift.get(chunk, self._default_shift)
                if shift > 0:
                    position += shift
                    continue
                # candidate window ends here: verify every pattern hashed on the chunk
                for pattern_id in self._hash.get(chunk, ()):
                    pattern = self.patterns[pattern_id]
                    start = position - m + 1
                    end = start + len(pattern)
                    if end <= n and data[start:end] == pattern:
                        matches.append((end, pattern_id))
                position += 1

        for pattern_id, pattern in self._short_patterns:
            length = len(pattern)
            start = 0
            while True:
                index = data.find(pattern, start)
                if index < 0:
                    break
                matches.append((index + length, pattern_id))
                start = index + 1

        matches.sort()
        return matches

    def _scan_chunk(self, scan_state: ScanState, chunk: bytes) -> Tuple[MatchList, ScanState]:
        """Resumable scan of one stream segment via the tail carry buffer."""
        tail = scan_state.tail or b""
        buffer = tail + chunk
        base = scan_state.offset - len(tail)
        # matches ending at or before len(tail) were reported by the
        # previous segment's scan; only keep hits completing in this chunk
        matches = [
            (base + end, pid) for end, pid in self.match(buffer) if end > len(tail)
        ]
        carry = self._max_length - 1
        prev1, prev2 = advance_history(scan_state.prev1, scan_state.prev2, chunk)
        return matches, ScanState(
            prev1=prev1,
            prev2=prev2,
            offset=scan_state.offset + len(chunk),
            tail=buffer[-carry:] if carry > 0 else b"",
        )

    # ------------------------------------------------------------------
    def memory_bytes(self) -> int:
        """Approximate table footprint (shift + hash tables + pattern bytes)."""
        shift_bytes = len(self._shift) * (self.block_size + 2)
        hash_bytes = sum(self.block_size + 4 * len(ids) for ids in self._hash.values())
        pattern_bytes = sum(len(p) for p in self.patterns)
        return shift_bytes + hash_bytes + pattern_bytes
