"""Public surface guard: exported names resolve, and the benchmark's targets exist.

perfbench wraps ranksat functions by module and attribute name, so deleting
or renaming one of them would break the benchmark without failing any other
tier-1 test.
"""
import importlib
import inspect
from pathlib import Path

import pytest

MODULES = ("cnf", "qsim", "shaping", "evolve", "oracle", "harness")
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("module", ("",) + MODULES)
def test_all_names_resolve(module):
    mod = importlib.import_module(f"ranksat.{module}" if module else "ranksat")
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def test_perfbench_targets_exist(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    targets = [(module, attr) for module, attr, _, _ in layers.FUNCTIONS]
    targets.append(("cnf", "h_count"))
    missing = [
        f"{module}.{attr}" for module, attr in targets
        if not hasattr(importlib.import_module(f"ranksat.{module}"), attr)
    ]
    assert missing == []


def test_oracle_is_independent_of_batch_scorer():
    # the oracle is the reference the batch scorer is checked against
    oracle = importlib.import_module("ranksat.oracle")
    assert "ClauseArrays" not in inspect.getsource(oracle)
