"""Exported names, and the names that the benchmark's tracer patches."""

import importlib
import pkgutil
from pathlib import Path

import pytest

import dtsipbc

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("name", ["dtsipbc"] + ["dtsipbc." + m.name for m in pkgutil.iter_modules(dtsipbc.__path__)])
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    assert [entry for entry in getattr(module, "__all__", ()) if not hasattr(module, entry)] == []


def test_tracer_patches_and_restores_every_name(monkeypatch):
    # install looks every traced name up by name, so a name it no longer
    # finds fails here, not only in a benchmark run
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    workloads = importlib.import_module("workloads")
    tracer = spans.Tracer()
    try:
        tracer.install(workloads)
        patched = list(tracer._patches)
        assert all(vars(owner)[attr] is not original for owner, attr, original in patched)
    finally:
        tracer.remove()
    assert {name.rsplit(".", 1)[-1] for name in spans.LAYER_OF_SPAN} <= {attr for _, attr, _ in patched}
    assert all(vars(owner)[attr] is original for owner, attr, original in patched)
