"""The unified matcher backend protocol every scan layer is built on.

The paper's central observation (Kennedy et al., DATE 2010) is that one set
of matching *semantics* — report every ``(end_offset, pattern_id)`` occurrence
of every pattern — can be served by radically different state encodings: the
full move-function DFA, bitmap- or path-compressed failure automata, the
DTP-pruned hardware form, or a software shift-table matcher.  This module
gives the repository one vocabulary for all of them:

* :class:`Backend` — a named compiler: ``compile(rules, device=None)`` returns
  the :class:`CompiledProgram` a session scans.  ``rules`` is a
  :class:`~repro.rulesets.RuleSet` or a sequence of byte patterns; only
  ``dtp`` reads ``device`` — it compiles the partitioned, word-packed
  accelerator program of :func:`repro.core.compile_ruleset`, the rest
  compile the pattern tuple.
* :class:`CompiledProgram` — the scan contract every compiled matcher
  honours: per-payload ``match``/``scan``/``scan_packets`` plus the resumable
  ``initial_scan_states`` / ``scan_from`` pair the streaming layer needs and
  its batched form ``scan_many`` (one call per batch).
* :class:`ScanState` — the immutable, JSON-checkpointable resume record
  carried across the segments of one flow.
* a registry (:func:`register_backend` / :func:`get_backend`) mapping the CLI
  names ``ac``, ``dense``, ``bitmap``, ``path``, ``wu-manber`` and ``dtp`` to
  their compilers.

Resumability contract
---------------------
Feeding the segments of one byte stream through consecutive ``scan_from``
calls must be exactly equivalent to one ``match`` over the concatenated
stream; reported end offsets are stream-absolute.  A backend's per-flow state
is a tuple of :class:`ScanState` (one per internal scan unit — a single
automaton uses a 1-tuple, a multi-block accelerator program one per block),
which is what the flow table serialises.  ``scan_from`` also accepts a bare
:class:`ScanState` for single-unit programs and then returns a bare
:class:`ScanState`, preserving the original ``DTPAutomaton`` API.

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
    Union,
    runtime_checkable,
)

MatchList = List[Tuple[int, int]]  # (end_position, pattern_id)

#: State id of the automaton start state in every backend (trie root).
ROOT_STATE = 0


@dataclass(frozen=True)
class ScanState:
    """Resumable matcher state carried across chunks of one byte stream.

    ``state`` is the backend's current automaton state; ``prev1``/``prev2``
    are the previous two input bytes (the DTP lookup-table defaults compare
    their stored preceding characters against that history; other backends
    maintain them anyway so a checkpoint has one shape everywhere);
    ``offset`` counts the bytes already consumed so resumed matches report
    stream-wide end positions.  ``tail`` is an optional carry buffer used by
    window-based backends (Wu-Manber keeps the last ``max_pattern_len - 1``
    bytes there).  Instances are immutable, so checkpointing a flow is just
    keeping a reference.
    """

    state: int = ROOT_STATE
    prev1: Optional[int] = None
    prev2: Optional[int] = None
    offset: int = 0
    tail: Optional[bytes] = None

    def as_tuple(self) -> Tuple:
        """A plain, JSON-serialisable form for flow-table checkpoints.

        Backends that do not use ``tail`` produce the historical 4-tuple, so
        checkpoints written by older versions restore unchanged.
        """
        if self.tail is None:
            return (self.state, self.prev1, self.prev2, self.offset)
        return (self.state, self.prev1, self.prev2, self.offset, self.tail.hex())

    @classmethod
    def from_tuple(cls, values: Sequence) -> "ScanState":
        """Rebuild from :meth:`as_tuple` output (4- or 5-element form).

        Every numeric field is coerced with ``int(...)``: a checkpoint that
        round-tripped through JSON (or was written by hand) may carry
        float-typed values, and an un-coerced float ``prev1``/``prev2`` would
        silently fail the ``==`` history comparisons the default-transition
        lookup performs.
        """
        if len(values) == 4:
            state, prev1, prev2, offset = values
            tail: Optional[bytes] = None
        else:
            state, prev1, prev2, offset, raw_tail = values
            if raw_tail is None:
                tail = None
            elif isinstance(raw_tail, str):
                tail = bytes.fromhex(raw_tail)
            else:
                tail = bytes(raw_tail)
        return cls(
            state=int(state),
            prev1=None if prev1 is None else int(prev1),
            prev2=None if prev2 is None else int(prev2),
            offset=int(offset),
            tail=tail,
        )


#: A flow's complete resumable state: one :class:`ScanState` per scan unit.
FlowState = Tuple[ScanState, ...]

#: One unit of batched scanning: a flow's state and the bytes to resume over.
ScanJob = Tuple[FlowState, bytes]


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
    """Structural type of a compiled matcher (see the module docstring)."""

    backend_name: str

    @property
    def patterns(self) -> Tuple[bytes, ...]: ...

    def initial_scan_states(self, offset: int = 0) -> FlowState: ...

    def scan_from(
        self, states: Union[ScanState, Sequence[ScanState]], chunk: bytes
    ) -> Tuple[MatchList, Union[ScanState, FlowState]]: ...

    def scan_chunk(
        self, states: FlowState, chunk: bytes
    ) -> Tuple[MatchList, FlowState]: ...

    def scan_many(
        self, jobs: Sequence[ScanJob]
    ) -> List[Tuple[MatchList, FlowState]]: ...

    def match(self, data: bytes) -> MatchList: ...

    def scan(self, data: bytes) -> MatchList: ...

    def scan_packets(self, payloads: Iterable[bytes]) -> List[MatchList]: ...


class CompiledProgramMixin:
    """Default shims tying a backend's ``_scan_chunk`` to the full protocol.

    A conforming class sets ``backend_name``, exposes ``patterns`` and
    implements ``_scan_chunk(states, chunk) -> (matches, states)`` over the
    canonical tuple-of-:class:`ScanState` form; everything else — the bare
    ``ScanState`` convenience of ``scan_from``, the batched ``scan_many``,
    ``scan``, ``scan_packets`` and (unless overridden) ``match`` — is derived
    here.
    """

    backend_name: str = "unnamed"

    #: Number of internal scan units (per-flow ScanStates); single automaton.
    scan_units: int = 1

    def initial_scan_states(self, offset: int = 0) -> FlowState:
        """Fresh per-unit scan states for one new flow (or resumed stream)."""
        return tuple(ScanState(offset=offset) for _ in range(self.scan_units))

    def _scan_chunk(
        self, states: FlowState, chunk: bytes
    ) -> Tuple[MatchList, FlowState]:
        raise NotImplementedError

    def scan_from(
        self, states: Union[ScanState, Sequence[ScanState]], chunk: bytes
    ) -> Tuple[MatchList, Union[ScanState, FlowState]]:
        """Scan ``chunk`` resuming from ``states``; return matches + new state.

        The canonical form takes and returns a tuple of per-unit states; a
        bare :class:`ScanState` is accepted (and returned) for single-unit
        programs.  Match end offsets are stream-absolute.
        """
        if isinstance(states, ScanState):
            matches, (next_state,) = self._scan_chunk((states,), chunk)
            return matches, next_state
        matches, next_states = self._scan_chunk(tuple(states), chunk)
        return matches, next_states

    def scan_chunk(
        self, states: FlowState, chunk: bytes
    ) -> Tuple[MatchList, FlowState]:
        """The hot-path form of :meth:`scan_from`: canonical tuple in and out.

        Identical semantics, but without the bare-:class:`ScanState`
        dispatch and defensive ``tuple(...)`` coercion — callers that already
        hold the canonical per-flow tuple (the streaming layer does, for
        every segment) must not pay for the convenience shims per call.
        """
        return self._scan_chunk(states, chunk)

    def scan_many(
        self, jobs: Sequence[ScanJob]
    ) -> List[Tuple[MatchList, FlowState]]:
        """Scan independent ``(states, chunk)`` jobs — one per flow of a
        batch — and return one :meth:`scan_chunk` result per job.

        The default is exactly that loop; a backend that can advance many
        streams at once (the dense lane kernel) overrides it.
        """
        return [self.scan_chunk(states, chunk) for states, chunk in jobs]

    def scan(self, data: bytes) -> MatchList:
        """Scan one payload from a fresh state (alias of :meth:`match`)."""
        matches, _ = self._scan_chunk(self.initial_scan_states(), data)
        return matches

    def match(self, data: bytes) -> MatchList:
        """Scan one payload; state and history reset at the boundary."""
        return self.scan(data)

    def scan_packets(self, payloads: Iterable[bytes]) -> List[MatchList]:
        """Scan several packets; state resets per packet (one
        :meth:`scan_many` call over fresh-state jobs)."""
        states = self.initial_scan_states()
        return [matches for matches, _ in self.scan_many([(states, p) for p in payloads])]

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
    """A named matcher compiler: ``compile(rules, device) -> CompiledProgram``."""

    name: str
    description: str
    factory: Callable[[Any, Any], Any]

    def compile(self, rules: Any, device: Any = None) -> Any:
        """Compile ``rules`` (a ``RuleSet`` or byte patterns; string numbers
        follow their order) for ``device`` (an ``FPGADevice``, read by
        ``dtp`` only) into the program :class:`repro.api.Session` scans."""
        return self.factory(rules, device)


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
    """Registered backend names, sorted."""
    return sorted(_REGISTRY)


def all_backends() -> List[Backend]:
    """Registered backends, sorted by name."""
    return [_REGISTRY[name] for name in backend_names()]


# ----------------------------------------------------------------------
# built-in backends (compilers import lazily to avoid circular imports)
# ----------------------------------------------------------------------
def _pattern_compiler(module: str, target: str) -> Callable[[Any, Any], Any]:
    """A factory calling ``module``'s ``target`` (a dotted attribute path) on
    the pattern tuple of ``rules`` (a ``RuleSet``'s, or ``rules`` itself);
    ``device`` is ignored."""

    def factory(rules, device):
        compiler: Any = import_module(module, __package__)
        for attribute in target.split("."):
            compiler = getattr(compiler, attribute)
        return compiler(tuple(bytes(p) for p in getattr(rules, "patterns", rules)))

    return factory


def _compile_dtp(rules, device):
    """``compile_ruleset`` for ``device`` (default Stratix III): a ``RuleSet``
    keeps its sids and name, plain patterns become one (a duplicate raises
    its ``ValueError``).  The function is looked up on its module when
    called, so a wrapper installed there (the benchmark's tracer) sees it."""
    from .core import accelerator_config
    from .fpga.devices import STRATIX_III
    from .rulesets.ruleset import RuleSet

    if not isinstance(rules, RuleSet):
        rules = RuleSet.from_patterns([bytes(p) for p in rules])
    return accelerator_config.compile_ruleset(rules, STRATIX_III if device is None else device)


for _name, _module, _target, _description in (
    ("ac", ".automata.aho_corasick", "AhoCorasickDFA.from_patterns",
     "full move-function Aho-Corasick DFA"),
    ("dense", ".core.compiled", "CompiledDenseProgram.from_patterns",
     "compiled dense-table fast path (NumPy flattened DFA)"),
    ("bitmap", ".automata.bitmap_ac", "BitmapAhoCorasick.from_patterns",
     "bitmap-compressed Aho-Corasick (Tuck et al.)"),
    ("path", ".automata.path_compressed_ac", "PathCompressedAhoCorasick.from_patterns",
     "path-compressed Aho-Corasick (Tuck et al.)"),
    ("wu-manber", ".automata.wu_manber", "WuManber", "Wu-Manber shift-table matcher"),
):
    register_backend(Backend(_name, _description, _pattern_compiler(_module, _target)))
register_backend(Backend("dtp", "device-compiled DTP blocks (the paper's design)", _compile_dtp))

__all__ = [
    "MatchList",
    "ROOT_STATE",
    "ScanState",
    "FlowState",
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
