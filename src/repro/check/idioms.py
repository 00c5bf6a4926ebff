"""AST checker for the repo's CLI error idiom (stdlib-only, runs offline).

The contract (docstring of :mod:`repro.cli`, re-fixed by hand in two
separate PRs before this checker existed): *bad input values raise raw
``ValueError`` tracebacks; empty-result and flag-combination errors print
one line to stderr and return 1; ``ConfigError`` belongs to the spec
layer.*  Each rule below pins one way that contract has historically
drifted:

=======  ==============================================================
code     meaning
=======  ==============================================================
IDM101   bare ``except:`` (swallows SystemExit/KeyboardInterrupt)
IDM102   ``sys.exit`` inside a ``_cmd_*`` handler (handlers return codes)
IDM103   stderr ``print`` in a handler not immediately followed by
         ``return <nonzero int>``
IDM104   ``raise ConfigError`` in a module that defines ``_cmd_*``
         handlers (the CLI layer reports spec errors, it does not raise
         them)
IDM105   ``*Error`` raised with a constant "must be ..." message that
         does not interpolate the offending value (use an f-string so
         the traceback shows what was passed)
IDM106   a function in a module that defines ``_cmd_*`` handlers — a
         handler, or a builder the handlers share — reads a count flag
         (``args.workers``, ``args.flows``, ...) without calling
         ``_require_count`` on it: the check travels with the read
=======  ==============================================================

Run as ``python -m repro.check.idioms [paths...]`` (default:
``src/repro``); exits 1 if any finding is an error.  All rules are
errors — the idiom either holds or it does not.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

from .diagnostics import ERROR, Report

#: argparse count flags whose handlers must range-check before any work.
COUNT_ATTRS = frozenset({
    "shards",
    "workers",
    "flow_capacity",
    "max_packets",
    "batch_packets",
    "flows",
    "packets_per_flow",
    "packets",
    "payload",
})

#: "must be <constraint>" messages that describe a value range — these must
#: interpolate the rejected value.  Deliberately does NOT match protocol
#: messages like "must be called before ..." (no value to show there).
_MUST_BE_RANGE = re.compile(
    r"must be (?:>=?\s|<=?\s|==\s|positive|non-?negative|at least|at most"
    r"|between|one of|in |a |an )"
)


def _is_stderr_print(stmt: ast.stmt) -> bool:
    if not isinstance(stmt, ast.Expr) or not isinstance(stmt.value, ast.Call):
        return False
    call = stmt.value
    if not (isinstance(call.func, ast.Name) and call.func.id == "print"):
        return False
    for keyword in call.keywords:
        value = keyword.value
        if (
            keyword.arg == "file"
            and isinstance(value, ast.Attribute)
            and value.attr == "stderr"
            and isinstance(value.value, ast.Name)
            and value.value.id == "sys"
        ):
            return True
    return False


def _is_nonzero_int_return(stmt: ast.stmt) -> bool:
    return (
        isinstance(stmt, ast.Return)
        and isinstance(stmt.value, ast.Constant)
        and type(stmt.value.value) is int
        and stmt.value.value != 0
    )


def _statement_lists(node: ast.AST) -> Iterable[List[ast.stmt]]:
    for child in ast.walk(node):
        for field in ("body", "orelse", "finalbody"):
            block = getattr(child, field, None)
            if isinstance(block, list) and block and isinstance(block[0], ast.stmt):
                yield block


def _called_name(node: Optional[ast.expr]) -> Optional[str]:
    """Name of ``X`` in ``X(...)`` / ``X`` / ``module.X(...)``."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _args_attr(node: ast.expr) -> Optional[str]:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "args"
    ):
        return node.attr
    return None


def _check_count_flags(report: Report, function: ast.FunctionDef, where: str) -> None:
    """IDM106, for any function of a handler module."""
    required: set = set()
    read: set = set()
    for node in ast.walk(function):
        if (
            isinstance(node, ast.Call)
            and _called_name(node) == "_require_count"
            and len(node.args) >= 2
        ):
            attr = _args_attr(node.args[1])
            if attr is not None:
                required.add(attr)
        attr = _args_attr(node) if isinstance(node, ast.Attribute) else None
        if attr is not None:
            read.add(attr)
    for attr in sorted(read & COUNT_ATTRS - required):
        flag = "--" + attr.replace("_", "-")
        report.add(
            ERROR,
            "IDM106",
            f"{function.name} reads args.{attr} without "
            f'_require_count("{flag}", args.{attr}) — a bad {flag} must '
            "raise a raw ValueError before any work happens",
            source=f"{where}:{function.lineno}",
        )


def _check_handler(report: Report, function: ast.FunctionDef, where: str) -> None:
    """IDM102 and IDM103, for the ``_cmd_*`` handlers themselves."""
    for node in ast.walk(function):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "exit"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "sys"
        ):
            report.add(
                ERROR,
                "IDM102",
                f"{function.name} calls sys.exit at line {node.lineno}; "
                "handlers return an exit code to main()",
                source=f"{where}:{function.lineno}",
            )
    for block in _statement_lists(function):
        for index, stmt in enumerate(block):
            if not _is_stderr_print(stmt):
                continue
            follower = block[index + 1] if index + 1 < len(block) else None
            if follower is None or not _is_nonzero_int_return(follower):
                report.add(
                    ERROR,
                    "IDM103",
                    f"{function.name} prints to stderr at line "
                    f"{stmt.lineno} without an immediate "
                    "'return <nonzero>' — the error would be reported but "
                    "not reflected in the exit code",
                    source=f"{where}:{stmt.lineno}",
                )


def check_source(source: str, filename: str = "<string>") -> Report:
    """Check one module's source text; findings carry ``file:line`` sources."""
    report = Report(subject=f"idiom check: {filename}")
    try:
        tree = ast.parse(source, filename=filename)
    except SyntaxError as exc:
        report.add(
            ERROR,
            "IDM100",
            f"cannot parse: {exc.msg}",
            source=f"{filename}:{exc.lineno or 0}",
        )
        return report

    handlers = [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_cmd_")
    ]
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            report.add(
                ERROR,
                "IDM101",
                "bare 'except:' swallows SystemExit and KeyboardInterrupt; "
                "catch Exception (or something narrower)",
                source=f"{filename}:{node.lineno}",
            )
        if isinstance(node, ast.Raise):
            name = _called_name(node.exc)
            if name == "ConfigError" and handlers:
                report.add(
                    ERROR,
                    "IDM104",
                    "CLI modules report spec errors, they do not raise "
                    "ConfigError themselves",
                    source=f"{filename}:{node.lineno}",
                )
            if (
                name is not None
                and name.endswith("Error")
                and isinstance(node.exc, ast.Call)
                and len(node.exc.args) == 1
                and isinstance(node.exc.args[0], ast.Constant)
                and isinstance(node.exc.args[0].value, str)
                and _MUST_BE_RANGE.search(node.exc.args[0].value)
            ):
                report.add(
                    ERROR,
                    "IDM105",
                    f"{name} message {node.exc.args[0].value!r} rejects a "
                    "value without showing it — use an f-string "
                    "(\"... must be >= 1, got {value}\")",
                    source=f"{filename}:{node.lineno}",
                )
    for function in handlers:
        _check_handler(report, function, filename)
    if handlers:  # a builder the handlers share range-checks what it reads, too
        for function in tree.body:
            if isinstance(function, ast.FunctionDef):
                _check_count_flags(report, function, filename)
    return report


def check_paths(paths: Sequence[str]) -> Report:
    """Check every ``*.py`` under the given files/directories."""
    files: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    merged = Report(subject=f"idiom check over {len(files)} file(s)")
    for path in files:
        merged.extend(check_source(path.read_text(encoding="utf-8"), str(path)))
    return merged


def main(argv: Optional[Sequence[str]] = None) -> int:
    paths = list(argv) if argv else ["src/repro"]
    report = check_paths(paths)
    if report.diagnostics:
        print(report.render(limit=None))
    else:
        print(f"{report.subject}: clean")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
