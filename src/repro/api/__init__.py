"""Unified declarative pipeline API: one Session over the whole stack.

The rest of the package exposes the paper's pipeline as separately
constructed objects (rulesets, compiled programs, scan services, the IDS,
capture replay).  This package adds the single composable entry point a
production deployment wants: a :class:`PipelineConfig` document describing
*what* to run — source, rules, engine, sinks — and a :class:`Session`
facade that builds and drives exactly the composition the direct
constructors produce.  Configs round-trip through ``to_dict``/``from_dict``
and load from JSON or TOML files, so every run is a reproducible artifact
(stamped with the producing package version); the ``repro run`` CLI
subcommand executes a config file directly.

    >>> from repro.api import (
    ...     ContentRule, EngineSpec, PipelineConfig, RulesSpec, Session, SourceSpec,
    ... )
    >>> from repro.traffic import FiveTuple, Packet
    >>> packet = Packet(payload=b"xx evil yy",
    ...                 header=FiveTuple("1.1.1.1", "2.2.2.2", 1024, 80, "tcp"))
    >>> config = PipelineConfig(
    ...     mode="stream",
    ...     source=SourceSpec(kind="packets", packets=(packet,)),
    ...     rules=RulesSpec(kind="specs", rules=(ContentRule(content="evil", sid=7),)),
    ...     engine=EngineSpec(backend="dense"),
    ... )
    >>> with Session.from_config(config) as session:
    ...     [(e.packet_id, e.end_offset, session.sid_of[e.string_number])
    ...      for e in session.run().events]
    [(0, 7, 7)]

Source and sink kinds are registries (:func:`register_source` /
:func:`register_sink`) mirroring the backend registry, so new packet
sources and result sinks compose with every existing backend and engine
configuration instead of multiplying hand-wiring.
"""

from .config import (
    PIPELINE_MODES,
    ConfigError,
    ContentRule,
    EmptyRulesetError,
    EngineSpec,
    LoadedSource,
    PipelineConfig,
    RulesSpec,
    SinkFactory,
    SinkSpec,
    SourceFactory,
    SourceSpec,
    get_sink,
    get_source,
    load_config,
    register_sink,
    register_source,
    repro_version,
    sink_kinds,
    source_kinds,
)
from .session import RunResult, Session

__all__ = [
    "PIPELINE_MODES",
    "ConfigError",
    "ContentRule",
    "EmptyRulesetError",
    "EngineSpec",
    "LoadedSource",
    "PipelineConfig",
    "RulesSpec",
    "RunResult",
    "Session",
    "SinkFactory",
    "SinkSpec",
    "SourceFactory",
    "SourceSpec",
    "get_sink",
    "get_source",
    "load_config",
    "register_sink",
    "register_source",
    "repro_version",
    "sink_kinds",
    "source_kinds",
]
