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

    def test_cli_subcommands_exist(self):
        from repro.cli import build_parser

        parser = build_parser()
        sub = next(
            a for a in parser._actions
            if isinstance(a, type(parser._subparsers._group_actions[0]))
        )
        available = set(sub.choices)
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


#: The Markdown files whose command lines are checked against the parser.
DOCS = [
    REPO / "README.md",
    REPO / "DESIGN.md",
    *sorted((REPO / "docs").glob("*.md")),
    REPO / ".claude" / "skills" / "verify" / "SKILL.md",
]


def documented_commands():
    """``(file, argv)`` for each ``repro-powercap …`` or ``python -m
    repro.cli …`` command in a shell block or an inline code span.

    A shell-block line loses its ``$`` prompt and any leading
    ``VAR=value`` assignments; an inline span may wrap a line.  ``argv``
    ends at the first shell operator and drops ``...`` elisions.
    """
    for path in DOCS:
        text = path.read_text()
        snippets = re.findall(r"```(?:bash|sh|console)\n(.*?)```", text, re.S)
        snippets += [
            " ".join(span.split())
            for span in re.findall(
                r"`((?:repro-powercap|python3? -m repro\.cli)\b[^`]*)`", text
            )
        ]
        for snippet in snippets:
            for line in snippet.replace("\\\n", " ").splitlines():
                tokens = shlex.split(line, comments=True)
                if tokens[:1] == ["$"]:
                    tokens = tokens[1:]
                while tokens and re.match(r"\w+=", tokens[0]):
                    tokens = tokens[1:]
                if tokens[:1] == ["repro-powercap"]:
                    tokens = tokens[1:]
                elif tokens[:3] in (
                    ["python", "-m", "repro.cli"],
                    ["python3", "-m", "repro.cli"],
                ):
                    tokens = tokens[3:]
                else:
                    continue
                argv = []
                for token in tokens:
                    if token in ("&", "&&", "|", "||", ";"):
                        break
                    if token != "...":
                        argv.append(token)
                yield str(path.relative_to(REPO)), argv


def _options(token):
    """The ``--options`` one token names: ``--a``, ``--a=1``, ``[--a|--b]``."""
    return re.findall(r"(?:^|[\[|])(--[a-z][\w-]*)", token)


class TestDocumentedCommands:
    def test_every_option_exists_where_it_is_placed(self):
        """A removed or misplaced ``--option`` cannot linger in the docs.

        Options before the subcommand belong to the global parser and
        options after it to the subcommand's.  Prose such as
        ``repro-powercap inspect`` names a subcommand and nothing else.
        """
        from repro.cli import build_parser

        parser = build_parser()
        subcommands = parser._subparsers._group_actions[0].choices
        global_options = parser._option_string_actions
        commands = list(documented_commands())
        assert len(commands) >= 30, commands
        for name, argv in commands:
            where = f"{name}: repro-powercap {' '.join(argv)}"
            i = 0
            while i < len(argv) and _options(argv[i]):
                for option in _options(argv[i]):
                    assert option in global_options, where
                # An option that takes a value consumes the next token.
                takes_value = global_options[option].nargs != 0
                i += 2 if takes_value and "=" not in argv[i] else 1
            if i == len(argv):
                continue
            assert argv[i] in subcommands, where
            options = subcommands[argv[i]]._option_string_actions
            for token in argv[i + 1:]:
                for option in _options(token):
                    assert option in options, where


def github_slug(heading):
    """The anchor GitHub gives a Markdown heading.

    Markup is dropped to the rendered text, which is lowercased; every
    character but letters, digits, ``_``, ``-`` and spaces goes, and
    spaces become hyphens.
    """
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", heading)
    text = re.sub(r"[`*]", "", text).strip().lower()
    return re.sub(r"[^\w\- ]", "", text).replace(" ", "-")


def heading_anchors(path):
    """Every anchor ``path``'s headings define, duplicates suffixed."""
    text = re.sub(r"```.*?```", "", path.read_text(), flags=re.S)
    anchors, seen = set(), {}
    for heading in re.findall(r"^#{1,6} +(.+?) *#*$", text, re.M):
        slug = github_slug(heading)
        n = seen.get(slug, 0)
        seen[slug] = n + 1
        anchors.add(slug if n == 0 else f"{slug}-{n}")
    return anchors


class TestDocReferences:
    #: The prose docs whose links are checked (the verify skill has none).
    PROSE = [REPO / "README.md", REPO / "DESIGN.md",
             *sorted((REPO / "docs").glob("*.md"))]

    def test_every_anchor_link_resolves(self):
        """A renamed or removed section cannot leave a dead ``#anchor``."""
        links = [
            (path, target, anchor)
            for path in self.PROSE
            for target, anchor in re.findall(
                r"\]\(([\w./-]*\.md)#([^)\s]+)\)", path.read_text()
            )
        ]
        assert len(links) >= 10, links
        for path, target, anchor in links:
            where = f"{path.name} links {target}#{anchor}"
            assert anchor in heading_anchors(path.parent / target), where

    def test_every_environment_variable_exists(self):
        """A documented ``REPRO_*`` variable is one the code still reads.

        ``REPRO_LOG_*`` names a family, so a name that ends in ``_``
        only needs some variable with that prefix.  Every variable the
        library reads (``tests/test_lint_guards.py`` pins the set) must
        be documented.
        """
        code = "".join(
            path.read_text()
            for tree in ("src", "scripts")
            for path in sorted((REPO / tree).rglob("*.py"))
        )
        documented = [
            (path, name)
            for path in DOCS
            for name in sorted(
                set(re.findall(r"REPRO_[A-Z_]+", path.read_text()))
            )
        ]
        read = {"REPRO_RATE_CACHE", "REPRO_LOG_LEVEL", "REPRO_LOG_JSON"}
        assert read <= {name for _, name in documented}, documented
        for path, name in documented:
            end = "" if name.endswith("_") else r"\b"
            assert re.search(rf"\b{name}{end}", code), f"{path.name} names {name}"

    def test_documented_metrics_match_the_exposition(self):
        """The docs and ``/metrics`` name the same metric families.

        A backticked ``repro_*`` name counts without its
        ``{label=...}`` suffix; one ending in ``*`` names a prefix,
        which must match some family but documents none exactly.
        """
        from repro.obs.metrics import ServiceMetrics

        families = set(
            re.findall(r"^# TYPE (\S+) ", ServiceMetrics().render(), re.M)
        )
        documented = {
            (path.name, name)
            for path in sorted((REPO / "docs").glob("*.md"))
            for name in re.findall(
                r"`(repro_[^`{]*)(?:\{[^`]*\})?`", path.read_text()
            )
        }
        exact = {name for _, name in documented if not name.endswith("*")}
        assert len(families) >= 30, sorted(families)
        assert not families - exact, sorted(families - exact)
        for where, name in sorted(documented):
            if name.endswith("*"):
                assert any(f.startswith(name[:-1]) for f in families), (
                    f"{where} names {name}"
                )
            else:
                assert name in families, f"{where} names {name}"


class TestServeCommands:
    def test_every_documented_serve_command_parses(self):
        """A flag removed from ``serve`` cannot linger in the docs."""
        from repro.cli import build_parser

        commands = [c for c in documented_commands() if "serve" in c[1]]
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
