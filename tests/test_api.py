"""The shape of the public API: each module's __all__ is the package's export list."""

import importlib
import re
from pathlib import Path

import pytest

import cowqkd

MODULES = [
    importlib.import_module(f"cowqkd.{name}")
    for name in ("params", "gains", "concentration", "finite_key", "simulator", "scan")
]


@pytest.mark.parametrize("name", cowqkd.__all__)
def test_each_export_is_declared_by_exactly_one_module(name):
    owners = [module for module in MODULES if name in module.__all__]
    assert len(owners) == 1, [module.__name__ for module in owners]
    assert getattr(cowqkd, name) is getattr(owners[0], name)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_each_module_defines_what_it_lists(module):
    assert len(set(module.__all__)) == len(module.__all__)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
    assert set(module.__all__) <= set(cowqkd.__all__)


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from cowqkd import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(cowqkd.__all__)
    assert len(set(cowqkd.__all__)) == len(cowqkd.__all__)


@pytest.mark.parametrize("module, name", [
    ("gains", "M1_MODELS"),
    ("concentration", "CLICK_FIELDS"),
    ("concentration", "DELTA_PROVIDERS"),
    ("concentration", "delta_hoeffding"),
    ("concentration", "delta_observed"),
    ("concentration", "validate_record"),
    ("finite_key", "CROSS_TERM_MODES"),
    ("finite_key", "REMAINDER_MODES"),
    ("scan", "SCAN_VARIABLES"),
    ("scan", "SCAN_MODES"),
    ("scan", "scan_values"),
])
def test_module_only_names_stay_importable_by_module_path(module, name):
    assert hasattr(importlib.import_module(f"cowqkd.{module}"), name)
    assert name not in cowqkd.__all__


def test_readme_names_every_export():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert [name for name in cowqkd.__all__ if not re.search(rf"\b{name}\b", readme)] == []
