"""Static verification layer: program prover, ruleset linter, idiom gate.

Three layers, one :class:`~repro.check.diagnostics.Report` currency:

* :func:`verify_program` / :func:`verify_cross_backend` — prove compiled
  artifacts correct (DTP pruning exactness, failure-link consistency,
  packing round-trips, match-memory completeness) without scanning a byte.
* :func:`lint_ruleset` / :func:`lint_rule_file` — content-level problems:
  duplicates, shadowed substrings, sid conflicts, hardware-capacity
  overruns.
* :mod:`repro.check.idioms` — AST enforcement of the CLI error idiom
  (``python -m repro.check.idioms``).

Surfaced as ``repro verify`` / ``repro lint`` and
:meth:`repro.api.Session.verify`.
"""

from .diagnostics import (
    ERROR,
    INFO,
    WARNING,
    Diagnostic,
    Report,
    merge_reports,
)
from .idioms import check_paths, check_source
from .program import (
    Reference,
    verify_cross_backend,
    verify_program,
)
from .ruleset import lint_rule_file, lint_ruleset

__all__ = [
    "ERROR",
    "INFO",
    "WARNING",
    "Diagnostic",
    "Report",
    "merge_reports",
    "check_paths",
    "check_source",
    "Reference",
    "verify_cross_backend",
    "verify_program",
    "lint_rule_file",
    "lint_ruleset",
]
