"""The benchmark's tracer wraps package names from outside the package.

``perfbench/tracing.py`` replaces each ``(module, attr)`` of its stage table
through ``blochframe.<module>.__dict__[attr]``, and the Bloch sampling
methods and ``CellGeometry.all_reductions`` through their class
dictionaries, so renaming or deleting one of those names stops every traced
benchmark run with ``KeyError``.  These tests load the tracer read-only and
fail first.
"""
import importlib.util
import os
import sys

import blochframe

TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "perfbench", "tracing.py")


def _load_tracing(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_stage_name_exists_where_the_tracer_looks(monkeypatch):
    spans = _load_tracing(monkeypatch)._STAGE_SPANS
    assert spans
    missing = [
        (module, attr) for module, attr, _ in spans
        if not callable(vars(getattr(blochframe, module)).get(attr))
    ]
    assert missing == []


def test_the_tracer_installs_and_restores_every_wrap(monkeypatch):
    tracer = _load_tracing(monkeypatch).Tracer(blochframe)
    try:
        tracer.install()
        saved = list(tracer._saved)
        assert saved
        assert all(vars(owner)[attr] is not original for owner, attr, original in saved)
    finally:
        tracer.restore()
    assert all(vars(owner)[attr] is original for owner, attr, original in saved)


def test_the_pipeline_calls_every_wrapped_name_as_the_tracer_takes_it(monkeypatch, tmp_path):
    """A construct and a wannierize under the installed tracer: the wrapper
    of ``input_frame`` takes ``(family, geometry, region=...)`` only, so a
    call through any other keyword fails here before it fails a traced
    benchmark run."""
    tracer = _load_tracing(monkeypatch).Tracer(blochframe)
    config = blochframe.RunConfig(model="ssh", grid_n=4, out=str(tmp_path))
    try:
        tracer.install()
        blochframe.pipeline.run_construct(config)
        blochframe.pipeline.run_wannierize(config)
    finally:
        tracer.restore()
    names = {span["name"] for span in tracer.spans}
    assert {"frames.input_frame", "frames.control_frame"} <= names
    assert tracer.counters["models.eigensystem"] == 2
