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


def load_workloads():
    path = SPANS.with_name("workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(load_workloads().WORKLOADS))
def test_workload_quick_pass_checks_clean(name, monkeypatch):
    # one quick pass of each bench workload, checked in process: a change
    # that breaks a workload fails here rather than only in the bench
    import vrlat
    from vrlat import cli, complexes, formulas, homology, setfam

    # VerifyAll rebinds cli._compute_entry to time its items
    monkeypatch.setattr(cli, "_compute_entry", cli._compute_entry)
    vr = {"setfam": setfam, "complexes": complexes, "homology": homology,
          "formulas": formulas, "cli": cli, "package": vrlat}
    workload = load_workloads().WORKLOADS[name](vr, 1, True)
    items, simplices, results = workload.work(lambda: None)
    attempted, failed, notes = workload.check(results)
    assert items and simplices > 0
    assert attempted > 0
    assert failed == 0, notes
