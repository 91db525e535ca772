"""The documentation's claims stay true.

Lightweight executable checks of the code snippets and factual claims
in README.md and docs/API.md — so the docs cannot drift from the code.
"""

from __future__ import annotations

import ast
import re
import shlex
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent


class TestReadme:
    @pytest.fixture(scope="class")
    def readme(self):
        return (REPO / "README.md").read_text()

    def test_references_real_files(self, readme):
        for ref in ("DESIGN.md", "EXPERIMENTS.md", "examples/"):
            assert ref in readme
            assert (REPO / ref.rstrip("/")).exists()
        # Every script and benchmark baseline the docs name exists.
        for doc in [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]:
            text = doc.read_text()
            for ref in re.findall(
                r"scripts/\w+\.py|BENCH_\w+\.json", text
            ):
                assert (REPO / ref).exists(), f"{doc.name} names {ref}"

    def test_example_scripts_exist(self, readme):
        for name in re.findall(r"`([a-z_]+\.py)`", readme):
            assert (REPO / "examples" / name).exists(), name

    def test_cli_subcommands_exist(self, readme):
        from repro.cli import build_parser

        parser = build_parser()
        sub = next(
            a for a in parser._actions
            if isinstance(a, type(parser._subparsers._group_actions[0]))
        )
        available = set(sub.choices)
        for cmd in re.findall(r"repro-powercap [^\n]*?(\w+)(?= |\n)", readme):
            pass  # free-text; the structured check below is the real one
        for cmd in ("baseline", "sweep", "stride", "amenability"):
            assert cmd in available

    def test_quickstart_snippet_imports(self, readme):
        block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
        # The snippet must at least parse and its imports must resolve.
        tree = ast.parse(block)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "repro":
                import repro

                for alias in node.names:
                    assert hasattr(repro, alias.name)


class TestApiDoc:
    @pytest.fixture(scope="class")
    def api_doc(self):
        return (REPO / "docs" / "API.md").read_text()

    def test_every_python_block_parses(self, api_doc):
        for block in re.findall(r"```python\n(.*?)```", api_doc, re.S):
            ast.parse(block)

    def test_top_level_imports_resolve(self, api_doc):
        import repro

        for block in re.findall(r"```python\n(.*?)```", api_doc, re.S):
            for node in ast.walk(ast.parse(block)):
                if isinstance(node, ast.ImportFrom) and node.module == "repro":
                    for alias in node.names:
                        assert hasattr(repro, alias.name), alias.name

    def test_submodule_imports_resolve(self, api_doc):
        import importlib

        for block in re.findall(r"```python\n(.*?)```", api_doc, re.S):
            for node in ast.walk(ast.parse(block)):
                if isinstance(node, ast.ImportFrom) and node.module and node.module.startswith(
                    "repro."
                ):
                    module = importlib.import_module(node.module)
                    for alias in node.names:
                        assert hasattr(module, alias.name), (
                            f"{node.module}.{alias.name}"
                        )


def documented_serve_commands():
    """``(file, argv)`` for each ``repro-powercap … serve …`` command line
    in a shell block or an inline code span of README.md and docs/*.md."""
    for path in [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]:
        text = path.read_text()
        snippets = re.findall(r"```(?:bash|sh|console)\n(.*?)```", text, re.S)
        snippets += re.findall(r"`(repro-powercap [^`\n]*)`", text)
        for snippet in snippets:
            for line in snippet.replace("\\\n", " ").splitlines():
                tokens = shlex.split(line, comments=True)
                if tokens[:1] == ["repro-powercap"] and "serve" in tokens:
                    yield path.name, [t for t in tokens[1:] if t != "&"]


class TestServeCommands:
    def test_every_documented_serve_command_parses(self):
        """A flag removed from ``serve`` cannot linger in the docs."""
        from repro.cli import build_parser

        commands = list(documented_serve_commands())
        assert len(commands) >= 4, commands
        for name, argv in commands:
            try:
                args = build_parser().parse_args(argv)
            except SystemExit:
                pytest.fail(f"{name}: repro-powercap {' '.join(argv)}")
            assert args.command == "serve"


class TestGroupCapExample:
    """examples/datacenter_group_cap.py runs both stacks and they agree."""

    @pytest.fixture(scope="class")
    def example_output(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, str(REPO / "examples" / "datacenter_group_cap.py")],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO / "src")},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_serial_sections_present(self, example_output):
        assert "== Equal division ==" in example_output
        assert "== Closed-loop rebalancing" in example_output

    def test_fleet_comparison_table(self, example_output):
        assert "Serial DCM stack vs repro.fleet" in example_output
        assert "parity: serial DCM stack vs repro.fleet" in example_output
        assert "max cap delta" in example_output

    def test_parity_contract_holds(self, example_output):
        # The table's verdict row — the example must never ship with a
        # violated contract.
        assert "OK" in example_output
        assert "VIOLATED" not in example_output


class TestDesignDoc:
    def test_design_mentions_every_subpackage(self):
        design = (REPO / "DESIGN.md").read_text()
        for pkg in ("repro.arch", "repro.mem", "repro.power", "repro.ipmi",
                    "repro.bmc", "repro.dcm", "repro.trace",
                    "repro.workloads", "repro.perf", "repro.core"):
            assert pkg.split(".")[-1] in design

    def test_experiments_doc_has_all_artifacts(self):
        experiments = (REPO / "EXPERIMENTS.md").read_text()
        for artifact in ("Table I", "Table II", "Figures 1", "Figures 3"):
            assert artifact in experiments
        assert "PASS" in experiments
