"""The bench's traced worker wraps vrlat functions by name."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "layer, name",
    [(layer, name) for layer, names in load_spans()._TRACED.items() for name in names],
)
def test_traced_name_exists(layer, name):
    # a renamed function would silently drop out of every traced run
    assert callable(getattr(importlib.import_module(f"vrlat.{layer}"), name, None))
