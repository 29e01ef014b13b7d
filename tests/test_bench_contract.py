"""The traced benchmark wraps sklab functions by name; each name must exist."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("layer", sorted(load_spans().FUNCTIONS))
def test_traced_functions_resolve(layer):
    module = importlib.import_module(f"sklab.{layer}")
    for name in load_spans().FUNCTIONS[layer]:
        assert callable(getattr(module, name, None)), f"sklab.{layer}.{name}"


def test_traced_theta_methods_resolve():
    from sklab.theta import ThetaBasis
    for name in load_spans().THETA_METHODS:
        assert name in ThetaBasis.__dict__, f"ThetaBasis.{name}"
