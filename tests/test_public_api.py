"""Public-API hygiene: exports resolve, docstrings exist.

A library is adoptable only if its public surface is discoverable and
documented; these tests enforce that mechanically.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.arch",
    "repro.mem",
    "repro.power",
    "repro.ipmi",
    "repro.bmc",
    "repro.dcm",
    "repro.fleet",
    "repro.trace",
    "repro.workloads",
    "repro.perf",
    "repro.core",
    "repro.obs",
    "repro.service",
]


def walk_public_modules():
    for name in PACKAGES:
        module = importlib.import_module(name)
        yield module
        for info in pkgutil.iter_modules(module.__path__):
            if not info.name.startswith("_"):
                yield importlib.import_module(f"{name}.{info.name}")


class TestExports:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize("package_name", PACKAGES)
    def test_all_exports_resolve(self, package_name):
        module = importlib.import_module(package_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), f"{package_name}.{name} missing"

    def test_top_level_covers_the_headline_api(self):
        for name in (
            "NodeRunner",
            "PowerCapExperiment",
            "SireRsmWorkload",
            "StereoMatchingWorkload",
            "StrideBenchmark",
            "DataCenterManager",
            "MultiCoreRunner",
            "TechniqueDetector",
            "PhasedRunner",
            "CapImpactPredictor",
            "characterize_amenability",
        ):
            assert name in repro.__all__


class TestDocstrings:
    def test_every_module_documented(self):
        undocumented = [
            m.__name__ for m in walk_public_modules() if not m.__doc__
        ]
        assert undocumented == []

    def test_every_public_class_and_function_documented(self):
        missing = []
        for module in walk_public_modules():
            for name in getattr(module, "__all__", []):
                obj = getattr(module, name)
                if inspect.isclass(obj) or inspect.isfunction(obj):
                    if not inspect.getdoc(obj):
                        missing.append(f"{module.__name__}.{name}")
        assert missing == []

    def test_public_methods_documented(self):
        missing = []
        for module in walk_public_modules():
            for name in getattr(module, "__all__", []):
                obj = getattr(module, name)
                if not inspect.isclass(obj):
                    continue
                for attr_name, attr in vars(obj).items():
                    if attr_name.startswith("_"):
                        continue
                    if inspect.isfunction(attr) and not inspect.getdoc(attr):
                        missing.append(
                            f"{module.__name__}.{name}.{attr_name}"
                        )
        assert missing == []
