"""Documentation is part of the contract: these tests keep it true.

* every ``python`` code block in README.md must actually run (top to bottom,
  in one shared namespace — the quickstart is written as a progression);
* the README's artefact table and docs/cli.md must cover every benchmark
  script and every CLI subcommand that exists (and name no phantom ones);
* PAPER.md must carry the real citation, not the seed stub;
* CI's ``tests`` job (and the ``test`` extra) must install every third-party
  module the test suite imports, and every ``python -m repro`` command in
  ``ci.yml`` must parse — nobody runs ``ci.yml`` before it is pushed;
* ``examples/quickstart.py`` must run and print the figures it printed, and
  ``hardware_pipeline.py`` and ``ruleset_scaling.py`` exit 0 printing one of
  theirs.
"""

import ast
import importlib.util
import os
import pathlib
import re
import runpy
import shlex
import subprocess
import sys
import sysconfig

import pytest

from repro.cli import build_parser

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
README = REPO_ROOT / "README.md"
DOCS = REPO_ROOT / "docs"
CI = REPO_ROOT / ".github" / "workflows" / "ci.yml"


def python_blocks(text: str):
    return re.findall(r"```python\n(.*?)```", text, flags=re.DOTALL)


def subcommand_names():
    parser = build_parser()
    actions = [
        action for action in parser._actions
        if hasattr(action, "choices") and action.choices
    ]
    assert actions, "no subparsers found"
    return sorted(actions[0].choices)


class TestReadme:
    def test_exists_with_expected_sections(self):
        text = README.read_text(encoding="utf-8")
        for heading in ("## Install", "## Quickstart", "## Architecture", "## Tests"):
            assert heading in text

    def test_quickstart_code_blocks_run(self):
        """Execute every python block of the README in one namespace."""
        blocks = python_blocks(README.read_text(encoding="utf-8"))
        assert len(blocks) >= 2, "README should contain the two quickstart blocks"
        namespace: dict = {}
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
        # the streaming block must have proven the per-packet/streaming gap
        assert "flow" in namespace and "streamed" in namespace

    def test_architecture_table_lists_every_subpackage(self):
        text = README.read_text(encoding="utf-8")
        packages = sorted(
            path.parent.name
            for path in (REPO_ROOT / "src" / "repro").glob("*/__init__.py")
        )
        assert packages, "no subpackages found"
        for package in packages:
            assert f"`repro.{package}`" in text, f"README table misses repro.{package}"

    def test_artefact_table_names_real_benchmarks(self):
        text = README.read_text(encoding="utf-8")
        existing = {path.name for path in (REPO_ROOT / "benchmarks").glob("bench_*.py")}
        referenced = set(re.findall(r"bench_\w+\.py", text))
        assert referenced, "README references no benchmark scripts"
        assert referenced <= existing, f"phantom scripts: {referenced - existing}"
        assert existing <= referenced, f"undocumented scripts: {existing - referenced}"
        # the paper's artefacts each map to a script and (mostly) a subcommand
        for artefact in ("Table I ", "Table II ", "Table III ", "Figure 2 ",
                         "Figure 6 ", "Figure 7 ", "Figure 8 "):
            assert artefact in text, f"README artefact table misses {artefact.strip()}"


class TestCliDoc:
    def test_every_subcommand_documented(self):
        text = (DOCS / "cli.md").read_text(encoding="utf-8")
        for name in subcommand_names():
            assert f"## `{name}`" in text, f"docs/cli.md misses subcommand {name}"

    def test_no_phantom_subcommands_documented(self):
        text = (DOCS / "cli.md").read_text(encoding="utf-8")
        documented = set(re.findall(r"^## `([\w-]+)`", text, flags=re.MULTILINE))
        assert documented == set(subcommand_names())

    def test_examples_use_the_module_entry_point(self):
        text = (DOCS / "cli.md").read_text(encoding="utf-8")
        assert "python -m repro " in text


class TestApiDoc:
    def test_covers_the_whole_config_schema(self):
        """docs/api.md documents every mode, source kind and sink kind."""
        from repro.api import PIPELINE_MODES, sink_kinds, source_kinds

        text = (DOCS / "api.md").read_text(encoding="utf-8")
        for mode in PIPELINE_MODES:
            assert f'`"{mode}"`' in text, f"docs/api.md misses mode {mode}"
        for kind in source_kinds() + sink_kinds():
            assert f'`"{kind}"`' in text, f"docs/api.md misses kind {kind}"
        for needle in (
            "PipelineConfig", "SourceSpec", "RulesSpec", "EngineSpec",
            "SinkSpec", "Session", "to_dict", "from_dict", "load_config",
            "version",  # configs are version-stamped artifacts
            "register_source", "register_sink",
            "checkpoint", "restore",
            "byte-identical",
        ):
            assert needle in text, f"docs/api.md misses {needle!r}"

    def test_readme_and_cli_doc_cover_the_run_path(self):
        readme = README.read_text(encoding="utf-8")
        assert "repro.api" in readme and "Session" in readme
        cli = (DOCS / "cli.md").read_text(encoding="utf-8")
        assert "docs/api.md" in cli or "api.md" in cli


class TestArchitectureDoc:
    def test_covers_pruning_rule_and_compile_path(self):
        text = (DOCS / "architecture.md").read_text(encoding="utf-8")
        for needle in (
            "depth-1 defaults",
            "depth-2 defaults",
            "depth-3 defaults",
            "3 → 2 → 1",
            "longest suffix",
            "PackedStateMachine",
            "AcceleratorProgram",
            "ScanState",
            "FlowTable",
            # the capture/replay subsystem and its headline guarantee
            "repro.capture",
            "read_capture",
            "byte-identical",
        ):
            assert needle in text, f"architecture.md misses {needle!r}"


class TestPaperStub:
    def test_paper_md_is_filled_in(self):
        text = (REPO_ROOT / "PAPER.md").read_text(encoding="utf-8")
        assert "Ultra-High Throughput String Matching" in text
        assert "DATE" in text and "2010" in text
        assert len(text.split()) > 100, "PAPER.md still looks like the stub"


def _is_stdlib(module: str) -> bool:
    names = getattr(sys, "stdlib_module_names", None)  # 3.10+
    if names is not None:
        return module in names
    origin = getattr(importlib.util.find_spec(module), "origin", None)
    if origin in (None, "built-in", "frozen"):
        return True
    return origin.startswith(sysconfig.get_paths()["stdlib"]) and (
        "site-packages" not in origin
    )


def third_party_imports(directory: pathlib.Path):
    """Top-level modules imported by the ``*.py`` files under ``directory``
    that are neither standard library nor this repository's own."""
    own = {"repro", directory.name} | {path.stem for path in directory.glob("*.py")}
    modules = set()
    for path in sorted(directory.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                modules.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules.add(node.module.split(".")[0])
    return sorted(m for m in modules - own if not _is_stdlib(m))


class TestCiInstallsWhatTestsImport:
    def needed(self):
        needed = third_party_imports(REPO_ROOT / "tests")
        assert {"pytest", "numpy", "hypothesis"} <= set(needed), needed
        # a distribution is named like its module, dashes for underscores
        return [module.lower().replace("_", "-") for module in needed]

    def test_ci_tests_job_installs_every_imported_module(self):
        text = CI.read_text(encoding="utf-8")
        job = re.search(r"^  tests:\n(.*?)(?=^  [\w-]+:\n)", text, flags=re.M | re.S)
        assert job, "ci.yml has no `tests` job"
        assert "python -m pytest" in job.group(1)
        installed = {
            name
            for line in re.findall(r"pip install (.*)", job.group(1))
            for name in line.split()
        }
        missing = [name for name in self.needed() if name not in installed]
        assert not missing, (
            f"ci.yml's tests job imports {missing} under tests/ but never installs them"
        )

    def test_test_extra_names_every_imported_module(self):
        text = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
        declared = set(
            re.findall(r'"([A-Za-z0-9_.-]+)', " ".join(
                re.findall(r"^(?:dependencies|test) = \[(.*?)\]", text, flags=re.M)
            ))
        )
        missing = [name for name in self.needed() if name not in declared]
        assert not missing, f"pyproject.toml's test extra misses {missing}"


def ci_repro_commands():
    """The argument lists of every ``python -m repro <subcommand>`` in
    ``ci.yml``: a folded (``run: >``) command goes on over the lines below it
    that open no new key or list item, and ends at a shell pipe."""
    text = CI.read_text(encoding="utf-8")
    commands = re.findall(r"python -m repro (.*(?:\n(?! *(?:[\w-]+:|- )) +.*)*)", text)
    return [shlex.split(command.split(" | ")[0]) for command in commands]


class TestCiCommands:
    def test_every_repro_command_in_ci_parses(self):
        commands = ci_repro_commands()
        assert ["verify", "--rules", "examples/pipeline.rules", "--backend", "all",
                "--json", "verify_all_diagnostics.json"] in commands
        assert ["verify", "--size", "1000", "--seed", "2010", "--device", "cyclone3",
                "--backend", "all"] in commands
        assert ["verify", "--size", "6275", "--seed", "2010", "--device", "stratix3"] in commands
        assert len(commands) >= 8, commands
        parser = build_parser()
        for argv in commands:
            try:
                parser.parse_args(argv)
            except SystemExit:
                pytest.fail(f"ci.yml runs `python -m repro {shlex.join(argv)}`: it does not parse")


    def test_the_dtp_storm_gate_parses(self):
        """The ``e2e-guaranteed-rate`` job runs the DTP kernel's storm gate
        with arguments the bench's own parser takes."""
        job = CI.read_text(encoding="utf-8").split("\n  e2e-guaranteed-rate:\n")[1]
        job = re.split(r"\n  [\w-]+:\n", job)[0]
        commands = re.findall(r"python3? benchmarks/bench_dtp_escape_storm\.py(.*)", job)
        assert len(commands) == 1, commands
        bench = runpy.run_path(str(REPO_ROOT / "benchmarks" / "bench_dtp_escape_storm.py"))
        args = bench["build_parser"]().parse_args(shlex.split(commands[0]))
        assert args.output.name == "BENCH_dtp_escape_storm.json"


class TestExamples:
    def test_quickstart_prints_its_figures(self, capsys):
        runpy.run_path(str(REPO_ROOT / "examples" / "quickstart.py"), run_name="__main__")
        out = capsys.readouterr().out
        for line in (
            "original Aho-Corasick: 9347 states",
            "after depth-1+2+3 defaults  : 1.63 pointers/state",
            "pointer reduction           : 97.8 %",
            "total memory                : 83,081 bytes across 1 block(s)",
            "-> 2 matches",
        ):
            assert line in out, out

    @pytest.mark.parametrize(
        "example, line",
        (
            ("hardware_pipeline.py", "injected attack rules    : 30, detected: 30"),
            ("ruleset_scaling.py", "1600    | 26923      | 85.95         | 1.25           | 2"),
        ),
    )
    def test_example_runs_and_prints_its_figure(self, example, line):
        """Two examples nothing else runs work as a user runs them — a fresh
        interpreter, exit status 0 — and still print one of their figures."""
        done = subprocess.run(
            [sys.executable, str(REPO_ROOT / "examples" / example)],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert done.returncode == 0, done.stderr
        assert line in done.stdout, done.stdout

