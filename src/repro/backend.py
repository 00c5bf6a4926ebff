"""The unified matcher backend protocol every scan layer is built on.

The paper's central observation (Kennedy et al., DATE 2010) is that one set
of matching *semantics* — report every ``(end_offset, pattern_id)`` occurrence
of every pattern — can be served by radically different state encodings: the
full move-function DFA, bitmap- or path-compressed failure automata, or the
DTP-pruned hardware form.  This module
gives the repository one vocabulary for all of them:

* :class:`Backend` — a named compiler: ``compile(rules)`` returns the
  :class:`CompiledProgram` a session scans.  ``rules`` is a
  :class:`~repro.rulesets.RuleSet` or a sequence of byte patterns; every
  backend compiles the pattern tuple into one automaton (``dtp`` into one
  :class:`~repro.core.DTPAutomaton`; the device's block partition,
  :func:`repro.core.compile_ruleset`, is the hardware view and never scans).
* :class:`CompiledProgram` — the scan contract every compiled matcher
  honours: per-payload ``match``/``scan``/``scan_packets`` plus the resumable
  ``scan_chunk`` the streaming layer needs and its batched form ``scan_many``
  (one call per batch).
* :class:`ScanState` — the immutable, JSON-checkpointable resume record
  carried across the segments of one flow.
* a registry (:func:`register_backend` / :func:`get_backend`) mapping the CLI
  names ``ac``, ``dense``, ``bitmap``, ``path`` and ``dtp`` to their
  compilers.  Every registered program is an automaton numbering its states
  as the trie does, so the registry is also the list of backends the prover
  shows bisimilar (:func:`repro.check.verify_cross_backend`).

Resumability contract
---------------------
Feeding the segments of one byte stream through consecutive ``scan_chunk``
calls must be exactly equivalent to one ``match`` over the concatenated
stream; reported end offsets are stream-absolute.  Every program is one
automaton, so a flow's resumable state is one :class:`ScanState` — the
automaton state plus the byte history, the register set the paper's engine
saves per flow — taken and returned by ``scan_chunk``.  A fresh flow starts
from ``ScanState()``; one resumed at stream offset ``n`` from
``ScanState(offset=n)``.

This module deliberately imports nothing from the rest of the package (the
automata and core layers import *it*), so every backend can conform without
circular imports; the built-in registry entries import their implementations
lazily inside the compile call.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple,
    runtime_checkable,
)

MatchList = List[Tuple[int, int]]  # (end_position, pattern_id)

#: State id of the automaton start state in every backend (trie root).
ROOT_STATE = 0


@dataclass(frozen=True)
class ScanState:
    """Resumable matcher state carried across chunks of one byte stream.

    The register set the paper's engine saves per flow: ``state`` is the
    backend's current automaton state; ``prev1``/``prev2`` are the previous
    two input bytes (the DTP lookup-table defaults compare their stored
    preceding characters against that history; other backends maintain them
    anyway so a checkpoint has one shape everywhere); ``offset`` counts the
    bytes already consumed so resumed matches report stream-wide end
    positions.  Instances are immutable, so checkpointing a flow is just
    keeping a reference.  Every program is one automaton, so a flow carries
    exactly one.
    """

    state: int = ROOT_STATE
    prev1: Optional[int] = None
    prev2: Optional[int] = None
    offset: int = 0

    def as_tuple(self) -> Tuple:
        """A plain, JSON-serialisable 4-tuple for flow-table checkpoints."""
        return (self.state, self.prev1, self.prev2, self.offset)

    @classmethod
    def from_tuple(cls, values: Sequence) -> "ScanState":
        """Rebuild from :meth:`as_tuple` output.

        Every numeric field is coerced with ``int(...)``: a checkpoint that
        round-tripped through JSON (or was written by hand) may carry
        float-typed values, and an un-coerced float ``prev1``/``prev2`` would
        silently fail the ``==`` history comparisons the default-transition
        lookup performs.  A field out of range — a negative ``state`` or
        ``offset``, a ``prev1``/``prev2`` that is not a byte, an element
        count other than 4 — is a ``ValueError`` naming it.

        >>> ScanState.from_tuple([3, 97, None, 10.0])
        ScanState(state=3, prev1=97, prev2=None, offset=10)
        >>> ScanState.from_tuple([0, 300, None, 0])
        Traceback (most recent call last):
        ...
        ValueError: ScanState.prev1 must be a byte (0..255) or None, got 300
        >>> ScanState.from_tuple([0, None, None, 4, "6162"])
        Traceback (most recent call last):
        ...
        ValueError: ScanState takes 4 elements, got 5: the 5th is a retired Wu-Manber tail
        """
        if len(values) != 4:
            retired = ": the 5th is a retired Wu-Manber tail" if len(values) == 5 else ""
            raise ValueError(f"ScanState takes 4 elements, got {len(values)}{retired}")
        state, prev1, prev2, offset = (None if value is None else int(value) for value in values)
        for name, value in (("state", state), ("offset", offset)):
            if value is None or value < 0:
                raise ValueError(f"ScanState.{name} must be >= 0, got {value}")
        for name, value in (("prev1", prev1), ("prev2", prev2)):
            if value is not None and not 0 <= value <= 255:
                raise ValueError(
                    f"ScanState.{name} must be a byte (0..255) or None, got {value}"
                )
        return cls(state=state, prev1=prev1, prev2=prev2, offset=offset)


#: One unit of batched scanning: a flow's state and the bytes to resume over.
ScanJob = Tuple[ScanState, bytes]


def advance_history(
    prev1: Optional[int], prev2: Optional[int], chunk: bytes
) -> Tuple[Optional[int], Optional[int]]:
    """The two-byte input history after consuming ``chunk``."""
    if len(chunk) >= 2:
        return chunk[-1], chunk[-2]
    if len(chunk) == 1:
        return chunk[-1], prev1
    return prev1, prev2


@runtime_checkable
class CompiledProgram(Protocol):
    """Structural type of a compiled matcher (see the module docstring);
    every state id a scan reaches is below ``num_states``."""

    backend_name: str
    num_states: int

    @property
    def patterns(self) -> Tuple[bytes, ...]: ...

    def scan_chunk(
        self, states: ScanState, chunk: bytes
    ) -> Tuple[MatchList, ScanState]: ...

    def scan_many(
        self, jobs: Sequence[ScanJob]
    ) -> List[Tuple[MatchList, ScanState]]: ...

    def match(self, data: bytes) -> MatchList: ...

    def scan(self, data: bytes) -> MatchList: ...

    def scan_packets(self, payloads: Iterable[bytes]) -> List[MatchList]: ...


class CompiledProgramMixin:
    """Default shims tying a backend's ``_scan_chunk`` to the full protocol.

    A conforming class sets ``backend_name``, exposes ``patterns`` and
    implements ``_scan_chunk(scan_state, chunk) -> (matches, scan_state)``;
    everything else — ``scan_chunk``, the batched ``scan_many``, ``scan``,
    ``scan_packets`` and (unless overridden) ``match`` — is derived here.
    """

    backend_name: str = "unnamed"

    def _scan_chunk(
        self, scan_state: ScanState, chunk: bytes
    ) -> Tuple[MatchList, ScanState]:
        raise NotImplementedError

    def scan_chunk(
        self, states: ScanState, chunk: bytes
    ) -> Tuple[MatchList, ScanState]:
        """Scan ``chunk`` resuming from ``states``, the flow's one
        :class:`ScanState`; return the matches (stream-absolute end offsets)
        and the state to resume from next.

        The one crossing into a backend a profiler wraps: a lane kernel's
        ``scan_many`` passes its packed batch and the jobs' states through
        here as well (see :class:`repro.core.lanes.LaneKernelMixin`).
        """
        return self._scan_chunk(states, chunk)

    def scan_many(
        self, jobs: Sequence[ScanJob]
    ) -> List[Tuple[MatchList, ScanState]]:
        """Scan independent ``(state, chunk)`` jobs — one per flow of a
        batch — and return one :meth:`scan_chunk` result per job.

        The default is exactly that loop; a backend that can advance many
        streams at once (the dense lane kernel) overrides it.
        """
        return [self.scan_chunk(state, chunk) for state, chunk in jobs]

    def scan(self, data: bytes) -> MatchList:
        """Scan one payload from a fresh state (alias of :meth:`match`):
        one :meth:`scan_chunk` crossing."""
        matches, _ = self.scan_chunk(ScanState(), data)
        return matches

    def match(self, data: bytes) -> MatchList:
        """Scan one payload; state and history reset at the boundary."""
        return self.scan(data)

    def scan_packets(self, payloads: Iterable[bytes]) -> List[MatchList]:
        """Scan several packets; state resets per packet (one
        :meth:`scan_many` call over fresh-state jobs)."""
        fresh = ScanState()
        return [matches for matches, _ in self.scan_many([(fresh, p) for p in payloads])]

    def verify(self, patterns: Optional[Sequence[bytes]] = None):
        """Statically verify this compiled program (no traffic scanned).

        Returns a :class:`repro.check.Report`; ``report.ok`` is False if
        the artifact provably deviates from its patterns.  Imported
        lazily — this module sits below :mod:`repro.check` in the layer
        order.
        """
        from .check import verify_program

        return verify_program(self, patterns=patterns)


@dataclass(frozen=True)
class Backend:
    """A named matcher compiler: ``compile(rules) -> CompiledProgram``."""

    name: str
    description: str
    factory: Callable[[Any], Any]

    def compile(self, rules: Any) -> Any:
        """Compile ``rules`` (a ``RuleSet`` or byte patterns; string numbers
        follow their order) into the program :class:`repro.api.Session`
        scans."""
        return self.factory(rules)


_REGISTRY: Dict[str, Backend] = {}


def register_backend(backend: Backend) -> Backend:
    """Add (or replace) a backend in the global registry."""
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> Backend:
    """Look up a backend by its registry/CLI name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r}; available: {', '.join(backend_names())}"
        ) from None


def backend_names() -> List[str]:
    """Registered backend names, in registration order: the reference
    ``ac`` first, the paper's ``dtp`` last."""
    return list(_REGISTRY)


def all_backends() -> List[Backend]:
    """Registered backends, in registration order."""
    return list(_REGISTRY.values())


# ----------------------------------------------------------------------
# built-in backends (compilers import lazily to avoid circular imports)
# ----------------------------------------------------------------------
def _pattern_compiler(module: str, target: str) -> Callable[[Any], Any]:
    """A factory calling ``module``'s ``target`` (a dotted attribute path) on
    the pattern tuple of ``rules`` (a ``RuleSet``'s, or ``rules`` itself)."""

    def factory(rules):
        compiler: Any = import_module(module, __package__)
        for attribute in target.split("."):
            compiler = getattr(compiler, attribute)
        return compiler(tuple(bytes(p) for p in getattr(rules, "patterns", rules)))

    return factory


for _name, _module, _target, _description in (
    ("ac", ".automata.aho_corasick", "AhoCorasickDFA.from_patterns",
     "full move-function Aho-Corasick DFA"),
    ("dense", ".core.compiled", "CompiledDenseProgram.from_patterns",
     "compiled dense-table fast path (NumPy flattened DFA)"),
    ("bitmap", ".automata.bitmap_ac", "BitmapAhoCorasick.from_patterns",
     "bitmap-compressed Aho-Corasick (Tuck et al.)"),
    ("path", ".automata.path_compressed_ac", "PathCompressedAhoCorasick.from_patterns",
     "path-compressed Aho-Corasick (Tuck et al.)"),
    ("dtp", ".core.dtp_automaton", "DTPAutomaton.from_patterns",
     "DTP-compressed automaton (the paper's design)"),
):
    register_backend(Backend(_name, _description, _pattern_compiler(_module, _target)))

__all__ = [
    "MatchList",
    "ROOT_STATE",
    "ScanState",
    "ScanJob",
    "advance_history",
    "CompiledProgram",
    "CompiledProgramMixin",
    "Backend",
    "register_backend",
    "get_backend",
    "backend_names",
    "all_backends",
]
