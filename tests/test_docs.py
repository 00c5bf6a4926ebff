"""Documentation is part of the contract: these tests keep it true.

* every ``python`` code block in README.md must actually run (top to bottom,
  in one shared namespace — the quickstart is written as a progression);
* the README's artefact table and docs/cli.md must cover every benchmark
  script and every CLI subcommand that exists (and name no phantom ones);
* PAPER.md must carry the real citation, not the seed stub;
* CI's ``tests`` job (and the ``test`` extra) must install every third-party
  module the test suite imports — nobody runs ``ci.yml`` before it is pushed.
"""

import ast
import importlib.util
import pathlib
import re
import sys
import sysconfig


from repro.cli import build_parser

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
README = REPO_ROOT / "README.md"
DOCS = REPO_ROOT / "docs"


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
        text = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
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
