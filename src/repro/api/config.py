"""Declarative pipeline configuration: one document describes a whole run.

A :class:`PipelineConfig` names everything a scan run is made of —

* a :class:`SourceSpec` (where packets come from: an in-memory list, the
  synthetic :class:`repro.traffic.TrafficGenerator`, or a pcap/pcapng file),
* a :class:`RulesSpec` (where patterns come from: the synthetic Snort-like
  ruleset, a Snort rules file, or explicit :class:`ContentRule` entries),
* an :class:`EngineSpec` (backend name, device, flow capacity, strict
  capture decoding, reassembly),
* zero or more :class:`SinkSpec` entries (collect alerts or events, write
  them as NDJSON, export the workload as a capture)

— and :class:`repro.api.Session` turns it into the exact object composition
(`ScanService` / `IntrusionDetectionSystem` / replay adapters) the CLI and
the test suite used to hand-wire.  Configs round-trip through
:meth:`PipelineConfig.to_dict` / :meth:`PipelineConfig.from_dict` and load
from JSON or TOML files (:func:`load_config`), so any run is a
reproducible artifact; ``to_dict`` stamps the producing package version.

Source and sink kinds live in registries mirroring the lazy-factory pattern
of :mod:`repro.backend` (:func:`register_source` / :func:`register_sink`),
so new packet sources and result sinks multiply with the existing backends
instead of forcing N×M hand-wiring.
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..capture import replay as capture_replay
from ..proto.reassembly import (
    DEFAULT_MAX_FLOW_BYTES,
    DEFAULT_REASSEMBLY_FLOWS,
    OVERLAP_POLICIES,
)
from ..traffic.packet import FLOW_FIELDS, FiveTuple, Packet

#: Pipeline execution modes: stateless per-packet matching, stateful flow
#: scanning, or the full header+content IDS pipeline.
PIPELINE_MODES = ("packets", "stream", "ids")


class ConfigError(ValueError):
    """Raised when a pipeline configuration document is malformed."""


class EmptyRulesetError(ValueError):
    """Raised when a rules source yields nothing to match on.

    The CLI treats this as an empty-result error (message to stderr, exit 1)
    rather than a traceback, per the repository's error idiom.
    """


def repro_version() -> str:
    """The producing package version, from installed metadata when available.

    Falls back to ``repro.__version__`` for source-tree (``PYTHONPATH=src``)
    runs where the distribution is not installed.
    """
    try:
        from importlib.metadata import version

        return version("repro-dpi")
    except Exception:
        import repro

        return getattr(repro, "__version__", "0+unknown")


def _check_keys(data: Dict, allowed: Sequence[str], where: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ConfigError(
            f"unknown {where} key(s) {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(sorted(allowed))}"
        )


# ----------------------------------------------------------------------
# sources
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SourceSpec:
    """Where the pipeline's packets come from.

    ``kind`` is a name from the source registry (:func:`source_kinds`):

    * ``"packets"``   — the in-memory ``packets`` tuple, as given;
    * ``"generator"`` — synthetic traffic drawn from the pipeline's compiled
      ruleset: either ``flows`` interleaved multi-packet flows (each with
      ``split_patterns`` rule strings deliberately cut across
      ``split_segments`` consecutive segments) or ``count`` flat packets
      shaped by ``mean_payload`` / ``attack_rate``;
    * ``"pcap"``      — a pcap/pcapng capture at ``path`` (relative paths
      resolve against the config file's directory), decoded per the engine's
      ``strict`` flag.

    Three kinds are **live** (:attr:`is_live` is true): they cannot be
    loaded eagerly into a packet list, only served —
    :meth:`repro.api.Session.serve`, :meth:`repro.api.Session.run` (which
    serves, then emits the sinks) and the ``serve`` / ``run`` CLI
    subcommands, in stream or ids mode:

    * ``"tcp"``       — an asyncio TCP listener on ``host``:``port`` (each
      connection is a flow, each read a segment);
    * ``"udp"``       — a datagram endpoint on ``host``:``port`` (each
      sender is a flow, each datagram a segment);
    * ``"pcap-tail"`` — an incremental classic-pcap reader on ``path``;
      ``follow=True`` keeps polling every ``poll_interval`` seconds for
      appended records, ``tail -f`` style.

    ``max_packets`` / ``idle_timeout`` bound a live source's serving loop
    (stop after N segments / after the wire stays quiet that long);
    ``batch_packets`` caps the ingestor's micro-batches.
    """

    kind: str = "generator"
    # generator — interleaved flow workload
    flows: Optional[int] = None
    packets_per_flow: int = 4
    split_patterns: int = 1
    split_segments: int = 2
    segment_bytes: Optional[int] = None
    # generator — flat packet workload
    count: Optional[int] = None
    mean_payload: int = 512
    attack_rate: float = 0.2
    # generator — RNG seed (independent of the ruleset seed)
    seed: int = 1
    # pcap / pcap-tail
    path: Optional[str] = None
    # in-memory
    packets: Tuple[Packet, ...] = ()
    # live sources (tcp / udp / pcap-tail)
    host: str = "127.0.0.1"
    port: Optional[int] = None
    follow: bool = False
    poll_interval: float = 0.2
    max_packets: Optional[int] = None
    idle_timeout: Optional[float] = None
    batch_packets: int = 256

    #: source kinds that are served live rather than loaded eagerly.
    LIVE_KINDS = ("pcap-tail", "tcp", "udp")

    def __post_init__(self) -> None:
        if self.kind not in _SOURCES:
            raise ConfigError(
                f"unknown source kind {self.kind!r}; available: "
                f"{', '.join(source_kinds())}"
            )
        if self.kind == "generator":
            if (self.flows is None) == (self.count is None):
                raise ConfigError(
                    "generator source needs exactly one of flows= "
                    "(interleaved flow workload) or count= (flat packets)"
                )
        if self.kind in ("pcap", "pcap-tail") and not self.path:
            raise ConfigError(f"{self.kind} source needs path=")
        if self.kind in ("tcp", "udp"):
            if self.port is None:
                raise ConfigError(f"{self.kind} source needs port= (0 = ephemeral)")
            if not 0 <= self.port <= 0xFFFF:
                raise ConfigError(f"port {self.port} out of range")
        if self.batch_packets < 1:
            raise ConfigError(
                f"batch_packets must be >= 1, got {self.batch_packets}"
            )
        if self.max_packets is not None and self.max_packets < 1:
            raise ConfigError(f"max_packets must be >= 1, got {self.max_packets}")
        object.__setattr__(self, "packets", tuple(self.packets))

    @property
    def is_live(self) -> bool:
        """True for sources that are served, not loaded (see class docs)."""
        return self.kind in self.LIVE_KINDS

    def _live_limits_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        if self.max_packets is not None:
            out["max_packets"] = self.max_packets
        if self.idle_timeout is not None:
            out["idle_timeout"] = self.idle_timeout
        if self.batch_packets != 256:
            out["batch_packets"] = self.batch_packets
        return out

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind}
        if self.kind == "generator":
            if self.flows is not None:
                out.update(
                    flows=self.flows,
                    packets_per_flow=self.packets_per_flow,
                    split_patterns=self.split_patterns,
                    split_segments=self.split_segments,
                )
                if self.segment_bytes is not None:
                    out["segment_bytes"] = self.segment_bytes
            else:
                out.update(
                    count=self.count,
                    mean_payload=self.mean_payload,
                    attack_rate=self.attack_rate,
                )
            out["seed"] = self.seed
        elif self.kind == "pcap":
            out["path"] = self.path
        elif self.kind == "packets":
            out["packets"] = [_packet_to_dict(packet) for packet in self.packets]
        elif self.kind == "pcap-tail":
            out["path"] = self.path
            if self.follow:
                out["follow"] = True
                out["poll_interval"] = self.poll_interval
            out.update(self._live_limits_dict())
        elif self.kind in ("tcp", "udp"):
            out.update(host=self.host, port=self.port)
            out.update(self._live_limits_dict())
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SourceSpec":
        _check_keys(
            data,
            (
                "kind", "flows", "packets_per_flow", "split_patterns",
                "split_segments", "segment_bytes", "count", "mean_payload",
                "attack_rate", "seed", "path", "packets", "host", "port",
                "follow", "poll_interval", "max_packets", "idle_timeout",
                "batch_packets",
            ),
            "source",
        )
        data = dict(data)
        if "packets" in data:
            data["packets"] = tuple(
                _packet_from_dict(entry) for entry in data["packets"]
            )
        return cls(**data)


def _packet_to_dict(packet: Packet) -> Dict[str, Any]:
    out: Dict[str, Any] = {
        "payload": packet.payload.hex(),
        "header": None if packet.header is None else dict(
            zip(FLOW_FIELDS, packet.header.as_tuple())
        ),
        "packet_id": packet.packet_id,
    }
    if packet.tcp_seq is not None:
        out["tcp_seq"] = packet.tcp_seq
    if packet.tcp_flags is not None:
        out["tcp_flags"] = packet.tcp_flags
    return out


def _packet_from_dict(data: Dict[str, Any]) -> Packet:
    _check_keys(
        data, ("payload", "header", "packet_id", "tcp_seq", "tcp_flags"), "packet"
    )
    header = data.get("header")
    seq = data.get("tcp_seq")
    flags = data.get("tcp_flags")
    return Packet(
        payload=bytes.fromhex(data["payload"]),
        header=None if header is None else FiveTuple(*map(header.__getitem__, FLOW_FIELDS)),
        packet_id=int(data.get("packet_id", 0)),
        tcp_seq=None if seq is None else int(seq),
        tcp_flags=None if flags is None else int(flags),
    )


# ----------------------------------------------------------------------
# rules
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ContentRule:
    """One explicit rule for ``RulesSpec(kind="specs")``.

    ``content`` uses Snort content syntax (``|41 42|`` hex escapes, ``\\;``
    ``\\"`` ``\\\\`` backslash escapes); the header is the wildcard
    ``alert ip any any -> any any``, so in ids mode detection is decided
    purely by the content matcher.
    """

    content: str
    sid: Optional[int] = None
    msg: str = ""
    nocase: bool = False

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"content": self.content}
        if self.sid is not None:
            out["sid"] = self.sid
        if self.msg:
            out["msg"] = self.msg
        if self.nocase:
            out["nocase"] = True
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ContentRule":
        _check_keys(data, ("content", "sid", "msg", "nocase"), "rule")
        return cls(**data)


@dataclass(frozen=True)
class RulesSpec:
    """Where the pipeline's patterns come from.

    * ``"synthetic"`` — :func:`repro.rulesets.generate_snort_like_ruleset`
      with ``size`` strings and ``seed`` (the paper's workload);
    * ``"file"``      — a Snort rules file at ``path`` (sid collisions are
      resolved through the shared :class:`repro.rulesets.parser.SidAllocator`
      policy and recorded in :attr:`repro.api.Session.sid_remap`);
    * ``"specs"``     — explicit :class:`ContentRule` entries.

    ``strict`` governs how ``"file"`` rules treat options the engine cannot
    honour: lenient (the default) keeps unknown options as
    ``unparsed_options``, drops unsupported pcre flags, and skips rules
    without a positive content; strict raises
    :class:`repro.rulesets.parser.RuleParseError` on any of those.  Grammar
    errors (conflicting modifiers, malformed values) raise either way.
    """

    kind: str = "synthetic"
    size: int = 634
    seed: int = 2010
    path: Optional[str] = None
    rules: Tuple[ContentRule, ...] = ()
    strict: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("synthetic", "file", "specs"):
            raise ConfigError(
                f"unknown rules kind {self.kind!r}; "
                "available: file, specs, synthetic"
            )
        if self.kind == "file" and not self.path:
            raise ConfigError("file rules need path=")
        if self.kind == "specs" and not self.rules:
            raise ConfigError("specs rules need at least one ContentRule")
        object.__setattr__(self, "rules", tuple(self.rules))

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind}
        if self.kind == "synthetic":
            out.update(size=self.size, seed=self.seed)
        elif self.kind == "file":
            out["path"] = self.path
        else:
            out["rules"] = [rule.to_dict() for rule in self.rules]
        if self.strict:
            out["strict"] = True
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RulesSpec":
        _check_keys(data, ("kind", "size", "seed", "path", "rules", "strict"), "rules")
        data = dict(data)
        if "rules" in data:
            data["rules"] = tuple(
                ContentRule.from_dict(entry) for entry in data["rules"]
            )
        return cls(**data)


# ----------------------------------------------------------------------
# engine
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EngineSpec:
    """How the pipeline scans: backend, flow memory, capture and reassembly.

    ``backend`` is any :mod:`repro.backend` registry name.  Every mode scans
    through one in-process :class:`repro.streaming.ScanService` with one
    LRU flow table, so ``flow_capacity`` — the flows tracked at once — means
    the same thing in stream and ids mode.  ``device`` is the FPGA whose
    block partition :attr:`repro.api.Session.hardware` models; it does not
    change what a scan runs.  ``strict`` makes pcap-source
    decoding fail on undecodable frames instead of skipping and counting
    them.

    ``reassemble`` inserts the :class:`repro.proto.TcpReassembler` between
    the packet source and the scan path: TCP segments are re-ordered by
    sequence number per flow before scanning (flows without usable sequence
    state fall back to arrival order).  ``overlap_policy`` picks whose bytes
    win when retransmitted segments disagree (``"first"``: the earlier copy,
    ``"last"``: the later one — Snort's target-based policies);
    ``reassembly_flows``/``reassembly_bytes`` bound the reassembler's
    per-flow table and hole buffers.
    """

    backend: str = "dtp"
    device: str = "stratix3"
    flow_capacity: int = 4096
    strict: bool = False
    reassemble: bool = False
    overlap_policy: str = "first"
    reassembly_flows: int = DEFAULT_REASSEMBLY_FLOWS
    reassembly_bytes: int = DEFAULT_MAX_FLOW_BYTES

    def __post_init__(self) -> None:
        from ..backend import backend_names
        from ..fpga.devices import DEVICES

        if self.backend not in backend_names():
            raise ConfigError(
                f"unknown backend {self.backend!r}; available: "
                f"{', '.join(backend_names())}"
            )
        if self.device not in DEVICES:
            raise ConfigError(
                f"unknown device {self.device!r}; available: "
                f"{', '.join(sorted(DEVICES))}"
            )
        if self.flow_capacity < 1:
            raise ConfigError(f"flow_capacity must be >= 1, got {self.flow_capacity}")
        if self.overlap_policy not in OVERLAP_POLICIES:
            raise ConfigError(
                f"unknown overlap_policy {self.overlap_policy!r}; available: "
                f"{', '.join(OVERLAP_POLICIES)}"
            )
        for name in ("reassembly_flows", "reassembly_bytes"):
            value = getattr(self, name)
            if value < 1:
                raise ConfigError(f"{name} must be >= 1, got {value}")

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "backend": self.backend,
            "device": self.device,
            "flow_capacity": self.flow_capacity,
        }
        if self.strict:
            out["strict"] = True
        if self.reassemble:
            out["reassemble"] = True
        if self.overlap_policy != "first":
            out["overlap_policy"] = self.overlap_policy
        if self.reassembly_flows != DEFAULT_REASSEMBLY_FLOWS:
            out["reassembly_flows"] = self.reassembly_flows
        if self.reassembly_bytes != DEFAULT_MAX_FLOW_BYTES:
            out["reassembly_bytes"] = self.reassembly_bytes
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "EngineSpec":
        _check_keys(
            data,
            (
                "backend", "device", "flow_capacity", "strict", "reassemble",
                "overlap_policy", "reassembly_flows", "reassembly_bytes",
            ),
            "engine",
        )
        return cls(**data)


# ----------------------------------------------------------------------
# sinks
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SinkSpec:
    """Where the pipeline's results go.

    ``kind`` is a name from the sink registry (:func:`sink_kinds`):

    * ``"events"`` — collect the run's match events in memory (the sink's
      output in :attr:`repro.api.RunResult.sinks`);
    * ``"alerts"`` — collect the run's IDS alerts in memory;
    * ``"ndjson"`` — write one JSON object per event (or per alert, in ids
      mode or with ``what="alerts"``) to ``path``;
    * ``"pcap"``   — export the run's packets as a capture at ``path``
      (``fmt`` ``"pcap"``/``"pcapng"``, default by the path's extension).
    """

    kind: str = "events"
    path: Optional[str] = None
    what: Optional[str] = None
    fmt: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in _SINKS:
            raise ConfigError(
                f"unknown sink kind {self.kind!r}; available: "
                f"{', '.join(sink_kinds())}"
            )
        if self.kind in ("ndjson", "pcap") and not self.path:
            raise ConfigError(f"{self.kind} sink needs path=")
        if self.what not in (None, "events", "alerts"):
            raise ConfigError(
                f"sink what= must be 'events' or 'alerts', not {self.what!r}"
            )

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"kind": self.kind}
        for key in ("path", "what", "fmt"):
            value = getattr(self, key)
            if value is not None:
                out[key] = value
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "SinkSpec":
        _check_keys(data, ("kind", "path", "what", "fmt"), "sink")
        return cls(**data)


# ----------------------------------------------------------------------
# the pipeline document
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=64)
def _resolve_against(base_dir: str, path: str) -> str:
    # memoised: every run() of every session over the same files asks again,
    # cold, and posixpath answers in pure Python
    return path if os.path.isabs(path) else os.path.join(base_dir, path)


@dataclass(frozen=True)
class PipelineConfig:
    """One declarative document describing a complete scan run.

    ``mode`` selects the execution path :class:`repro.api.Session` drives:

    * ``"packets"`` — stateless per-packet matching (the ``scan`` CLI path);
    * ``"stream"``  — stateful flow scanning (``scan-stream`` /
      ``scan-pcap``);
    * ``"ids"``     — the header+content IDS pipeline over streamed flows.

    ``base_dir`` (not serialised, set by :func:`load_config`) anchors the
    config's relative paths; it never affects config equality.
    """

    source: SourceSpec
    mode: str = "stream"
    rules: RulesSpec = field(default_factory=RulesSpec)
    engine: EngineSpec = field(default_factory=EngineSpec)
    sinks: Tuple[SinkSpec, ...] = ()
    base_dir: Optional[str] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.mode not in PIPELINE_MODES:
            raise ConfigError(
                f"unknown mode {self.mode!r}; available: "
                f"{', '.join(PIPELINE_MODES)}"
            )
        object.__setattr__(self, "sinks", tuple(self.sinks))

    def resolve(self, path: Union[str, pathlib.Path]) -> str:
        """Resolve ``path`` against the config file's directory when relative."""
        if self.base_dir:
            return _resolve_against(self.base_dir, os.fspath(path))
        return os.fspath(path)

    def to_dict(self) -> Dict[str, Any]:
        """A plain JSON/TOML-serialisable form, stamped with the version.

        The ``version`` key records which package produced the artifact; it
        is informational and accepted (but not compared) by
        :meth:`from_dict`.
        """
        return {
            "version": repro_version(),
            "mode": self.mode,
            "source": self.source.to_dict(),
            "rules": self.rules.to_dict(),
            "engine": self.engine.to_dict(),
            "sinks": [sink.to_dict() for sink in self.sinks],
        }

    @classmethod
    def from_dict(
        cls, data: Dict[str, Any], base_dir: Optional[str] = None
    ) -> "PipelineConfig":
        _check_keys(
            data,
            ("version", "mode", "source", "rules", "engine", "sinks"),
            "pipeline",
        )
        if "source" not in data:
            raise ConfigError("pipeline config needs a source section")
        try:
            return cls(
                mode=data.get("mode", "stream"),
                source=SourceSpec.from_dict(data["source"]),
                rules=RulesSpec.from_dict(data.get("rules", {"kind": "synthetic"})),
                engine=EngineSpec.from_dict(data.get("engine", {})),
                sinks=tuple(
                    SinkSpec.from_dict(entry) for entry in data.get("sinks", ())
                ),
                base_dir=base_dir,
            )
        except TypeError as exc:  # e.g. a section that is not a table/dict
            raise ConfigError(f"malformed pipeline config: {exc}") from exc


def load_config(path: Union[str, pathlib.Path]) -> PipelineConfig:
    """Load a :class:`PipelineConfig` from a JSON or TOML file.

    The format follows the extension: ``.toml`` parses with :mod:`tomllib`
    (Python 3.11+; older interpreters get a clear error instead of a crash),
    everything else parses as JSON.  Relative paths inside the config
    (rules file, capture file, sink outputs) resolve against the config
    file's own directory, so a config plus its side files is a relocatable
    artifact.
    """
    path = pathlib.Path(path)
    if path.suffix.lower() == ".toml":
        try:
            import tomllib
        except ImportError as exc:  # pragma: no cover - py<3.11 only
            raise ConfigError(
                "TOML pipeline configs need Python 3.11+ (tomllib); "
                "use the JSON form instead"
            ) from exc
        with open(path, "rb") as handle:
            data = tomllib.load(handle)
    else:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: pipeline config must be a mapping")
    return PipelineConfig.from_dict(data, base_dir=str(path.parent))


# ----------------------------------------------------------------------
# source registry (lazy factories, mirroring repro.backend)
# ----------------------------------------------------------------------
@dataclass
class LoadedSource:
    """What a source factory produced: packets plus source-specific context.

    ``flows`` carries the generator's ground-truth
    :class:`repro.traffic.GeneratedFlow` list (``None`` for other kinds);
    ``stats`` the decode statistics of a pcap source.  ``capture`` is the
    parsed container, which the pcap source never builds (it streams the
    file): :attr:`repro.api.Session.capture` reads it on first access.
    """

    packets: List[Packet]
    flows: Optional[List] = None
    capture: Optional[Any] = None
    stats: Optional[Any] = None


@dataclass(frozen=True)
class SourceFactory:
    """A named packet source: ``load(session, spec) -> LoadedSource``."""

    kind: str
    description: str
    load: Callable[[Any, SourceSpec], LoadedSource]


_SOURCES: Dict[str, SourceFactory] = {}


def register_source(factory: SourceFactory) -> SourceFactory:
    """Add (or replace) a source kind in the global registry."""
    _SOURCES[factory.kind] = factory
    return factory


def get_source(kind: str) -> SourceFactory:
    """Look up a source factory by its registry/config name."""
    try:
        return _SOURCES[kind]
    except KeyError:
        raise KeyError(
            f"unknown source kind {kind!r}; available: {', '.join(source_kinds())}"
        ) from None


def source_kinds() -> List[str]:
    """Registered source kinds, sorted."""
    return sorted(_SOURCES)


def _load_packets_source(session, spec: SourceSpec) -> LoadedSource:
    return LoadedSource(packets=list(spec.packets))


def _load_generator_source(session, spec: SourceSpec) -> LoadedSource:
    from ..traffic.generator import TrafficGenerator, TrafficProfile

    if spec.flows is not None:
        generator = TrafficGenerator(session.ruleset, seed=spec.seed)
        flows = generator.flows(
            spec.flows,
            num_packets=spec.packets_per_flow,
            split_patterns=spec.split_patterns,
            split_segments=spec.split_segments,
            segment_bytes=spec.segment_bytes,
        )
        return LoadedSource(packets=TrafficGenerator.interleave(flows), flows=flows)
    generator = TrafficGenerator(
        session.ruleset,
        TrafficProfile(
            mean_payload_bytes=spec.mean_payload,
            attack_probability=spec.attack_rate,
        ),
        seed=spec.seed,
    )
    return LoadedSource(packets=generator.packets(spec.count))


def _load_pcap_source(session, spec: SourceSpec) -> LoadedSource:
    # a module attribute, not a function-level import: this runs once at the
    # top of every pcap pass, cold, where a trip through the import
    # machinery is a large share of Session.run()'s untraced glue.  The file
    # is streamed: no container is built (Session.capture reads one on demand)
    packets, stats = capture_replay.load_packets(
        session.config.resolve(spec.path), strict=session.config.engine.strict
    )
    return LoadedSource(packets=packets, stats=stats)


register_source(
    SourceFactory("packets", "in-memory packet list, as given", _load_packets_source)
)
register_source(
    SourceFactory(
        "generator",
        "synthetic flows/packets drawn from the pipeline's ruleset",
        _load_generator_source,
    )
)
register_source(
    SourceFactory(
        "pcap", "pcap/pcapng capture file decoded to scan-ready packets",
        _load_pcap_source,
    )
)


def _load_live_source(session, spec: SourceSpec) -> LoadedSource:
    raise ConfigError(
        f"{spec.kind!r} is a live source and has no packet list to load; "
        "Session.serve() / run() and the `serve` / `run` CLI subcommands "
        "serve it"
    )


def _live_source_object(session, spec: SourceSpec):
    """Build the :mod:`repro.streaming.ingest` source a live spec describes."""
    from ..streaming.ingest import (
        PcapTailSource,
        TcpListenerSource,
        UdpListenerSource,
    )

    if spec.kind == "tcp":
        return TcpListenerSource(spec.host, spec.port)
    if spec.kind == "udp":
        return UdpListenerSource(spec.host, spec.port)
    if spec.kind == "pcap-tail":
        return PcapTailSource(
            session.config.resolve(spec.path),
            follow=spec.follow,
            poll_interval=spec.poll_interval,
            strict=session.config.engine.strict,
        )
    raise ConfigError(f"{spec.kind!r} is not a live source kind")


for _kind, _description in (
    ("tcp", "live asyncio TCP listener"),
    ("udp", "live asyncio datagram endpoint"),
    ("pcap-tail", "incremental (optionally tail-followed) classic pcap reader"),
):
    register_source(SourceFactory(_kind, f"{_description} (served)", _load_live_source))


# ----------------------------------------------------------------------
# sink registry (lazy factories, mirroring repro.backend)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SinkFactory:
    """A named result sink: ``emit(session, spec, run) -> output``.

    ``emit`` runs after the pipeline executed and returns the sink's output
    (collected objects, or a summary dict for file-writing sinks); outputs
    land in :attr:`repro.api.RunResult.sinks` in config order.
    """

    kind: str
    description: str
    emit: Callable[[Any, SinkSpec, Any], Any]


_SINKS: Dict[str, SinkFactory] = {}


def register_sink(factory: SinkFactory) -> SinkFactory:
    """Add (or replace) a sink kind in the global registry."""
    _SINKS[factory.kind] = factory
    return factory


def get_sink(kind: str) -> SinkFactory:
    """Look up a sink factory by its registry/config name."""
    try:
        return _SINKS[kind]
    except KeyError:
        raise KeyError(
            f"unknown sink kind {kind!r}; available: {', '.join(sink_kinds())}"
        ) from None


def sink_kinds() -> List[str]:
    """Registered sink kinds, sorted."""
    return sorted(_SINKS)


def _emit_events(session, spec: SinkSpec, run) -> List:
    return list(run.events)


def _emit_alerts(session, spec: SinkSpec, run) -> List:
    return list(run.alerts)


def _emit_ndjson(session, spec: SinkSpec, run) -> Dict[str, Any]:
    what = spec.what or ("alerts" if run.mode == "ids" else "events")
    if what == "alerts":
        records = [session.alert_record(alert) for alert in run.alerts]
    else:
        records = [session.event_record(event) for event in run.events]
    path = session.config.resolve(spec.path)
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
    return {"path": path, "what": what, "records": len(records)}


def _emit_pcap(session, spec: SinkSpec, run) -> Dict[str, Any]:
    from ..capture.replay import write_packets

    path = session.config.resolve(spec.path)
    fmt = spec.fmt or ("pcapng" if path.endswith(".pcapng") else "pcap")
    frames = write_packets(path, session.packets, fmt=fmt)
    return {"path": path, "fmt": fmt, "frames": frames}


register_sink(SinkFactory("events", "collect match events in memory", _emit_events))
register_sink(SinkFactory("alerts", "collect IDS alerts in memory", _emit_alerts))
register_sink(
    SinkFactory("ndjson", "write events/alerts as JSON lines to a file", _emit_ndjson)
)
register_sink(
    SinkFactory("pcap", "export the run's packets as a pcap/pcapng capture", _emit_pcap)
)


__all__ = [
    "PIPELINE_MODES",
    "ConfigError",
    "EmptyRulesetError",
    "repro_version",
    "SourceSpec",
    "ContentRule",
    "RulesSpec",
    "EngineSpec",
    "SinkSpec",
    "PipelineConfig",
    "load_config",
    "LoadedSource",
    "SourceFactory",
    "register_source",
    "get_source",
    "source_kinds",
    "SinkFactory",
    "register_sink",
    "get_sink",
    "sink_kinds",
]
