"""Source-tree lint guards enforced as tests.

The observability layer only pays off if subsystems actually route
their output through it — a stray ``print()`` in library code bypasses
the level/format machinery and corrupts machine-readable stdout.  CLI
entry points are the one sanctioned home for ``print`` (their stdout
*is* the product).
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

#: Modules whose job is writing to stdout.
PRINT_ALLOWED = {"cli.py", "__main__.py"}

_PRINT = re.compile(r"(?<![\w.])print\(")


def test_no_bare_print_outside_cli_modules():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name in PRINT_ALLOWED:
            continue
        for lineno, line in enumerate(
            path.read_text().splitlines(), start=1
        ):
            code = line.split("#", 1)[0]
            if _PRINT.search(code):
                offenders.append(f"{path.relative_to(SRC)}:{lineno}: {line.strip()}")
    assert not offenders, (
        "bare print() in library code — use repro.obs.logging instead:\n"
        + "\n".join(offenders)
    )


#: The environment variables library code reads: deployment settings
#: that change no result.  Anything that selects an engine path is an
#: argument, so a stored result depends only on its spec and the code.
ENVIRONMENT_ALLOWED = {"REPRO_RATE_CACHE", "REPRO_LOG_LEVEL", "REPRO_LOG_JSON"}


def _environment_keys(tree):
    """The key of every ``os.environ`` / ``os.getenv`` lookup in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and node.args:
            if ast.unparse(node.func) in ("os.environ.get", "os.getenv"):
                yield node.args[0]
        elif isinstance(node, ast.Subscript):
            if ast.unparse(node.value) == "os.environ":
                yield node.slice


def test_environment_reads_are_deployment_settings():
    names = set()
    for path in sorted(SRC.rglob("*.py")):
        for key in _environment_keys(ast.parse(path.read_text())):
            where = f"{path.relative_to(SRC)}:{key.lineno}"
            assert isinstance(key, ast.Constant), f"{where}: computed key"
            names.add(key.value)
    assert names == ENVIRONMENT_ALLOWED


#: Modules that may import the event bus: the service publishes and
#: serves each job's lifecycle, and ``/metrics`` reads the bus counters.
#: The engine, its telemetry and the detectors publish nothing.
STREAM_IMPORT_ALLOWED = ("service/", "obs/metrics.py", "obs/__init__.py")


def _imports(path, tree):
    """``(module, name)`` for every name an import in ``tree`` binds."""
    package = ["repro", *path.relative_to(SRC).parent.parts]
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, None
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) + 1 - node.level] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            for alias in node.names:
                yield module, alias.name


def test_only_the_service_imports_the_event_bus():
    from repro.obs import stream

    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        where = path.relative_to(SRC).as_posix()
        if where.startswith(STREAM_IMPORT_ALLOWED):
            continue
        for module, name in _imports(path, ast.parse(path.read_text())):
            target = module if name is None else f"{module}.{name}"
            if target.startswith("repro.obs.stream") or (
                module == "repro.obs" and name in stream.__all__
            ):
                offenders.append(f"{where}: {target}")
    assert not offenders, (
        "only the service may publish to the event bus:\n"
        + "\n".join(offenders)
    )
