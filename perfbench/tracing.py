"""Per-layer tracing of the package from outside it.

:class:`Tracer` replaces public names of the package at the places their
callers look them up, records a span (name, start, end, parent, run id)
around every call to a stage function, and counts calls into the Bloch
sampling methods without recording a span per call.  Everything stays in
memory until :meth:`Tracer.write`; :meth:`Tracer.restore` puts every
wrapped name back.
"""

import functools
import json
import time
from collections import defaultdict
from types import SimpleNamespace

# Calls per wrapper kind when timing the tracer's own cost on a no-op.
CALIBRATION_CALLS = 50000

# Spans whose self time is a per-layer metric.  Self time is the span's
# duration minus the part of it covered by child spans.  The self time of
# every other span (the solve itself, run_construct, run_wannierize,
# smooth_symmetric) is ``pipeline.unattributed_s``.
SELF_TIME_METRICS = {
    "models.load_family": "models.load_s",
    "models.require_assumptions": "models.verify_s",
    "frames.input_frame": "frames.input_frame_s",
    "frames.control_frame": "frames.control_frame_s",
    "pipeline.obstructions": "pipeline.obstructions_s",
    "face2d.construct_2d": "face2d.construct_2d_self_s",
    "cell3d.construct_3d": "cell3d.construct_3d_self_s",
    "wannier.extend_symmetric": "wannier.extend_symmetric_s",
    "extension.extend_unitary_cone": "extension.cone_s",
    "smoothing.periodic_smooth": "smoothing.periodic_smooth_s",
    "smoothing.symmetrize": "smoothing.symmetrize_s",
    "pipeline.final_residuals": "pipeline.final_residuals_s",
    "wannier.wannier_transform": "wannier.transform_s",
    "wannier.reality_check": "wannier.reality_check_s",
    "wannier.localization_report": "wannier.localization_s",
    "io.save_frames": "io.save_frames_s",
    "io.load_frames": "io.load_frames_s",
    "io.file_sha256": "io.sha256_s",
    "io.save_wannier": "io.write_wannier_s",
    "io.write_wannier_csv": "io.write_wannier_s",
}

# (module, attribute, span name) of every stage function, at the module
# where its caller resolves the name at call time.
_STAGE_SPANS = (
    ("pipeline", "run_construct", "pipeline.run_construct"),
    ("pipeline", "run_wannierize", "pipeline.run_wannierize"),
    ("pipeline", "load_family", "models.load_family"),
    ("pipeline", "input_frame", "frames.input_frame"),
    ("pipeline", "require_assumptions", "models.require_assumptions"),
    ("pipeline", "_trim_obstruction_defects", "pipeline.obstructions"),
    ("pipeline", "construct_2d", "face2d.construct_2d"),
    ("pipeline", "construct_3d", "cell3d.construct_3d"),
    ("pipeline", "smooth_symmetric", "smoothing.smooth_symmetric"),
    ("pipeline", "final_residuals", "pipeline.final_residuals"),
    ("pipeline", "wannier_transform", "wannier.wannier_transform"),
    ("pipeline", "reality_check", "wannier.reality_check"),
    ("pipeline", "localization_report", "wannier.localization_report"),
    # construct_1d/2d/3d import it inside the function body
    ("wannier", "extend_symmetric", "wannier.extend_symmetric"),
    ("face2d", "extend_unitary_cone", "extension.extend_unitary_cone"),
    ("cell3d", "extend_unitary_cone", "extension.extend_unitary_cone"),
    # smooth_symmetric resolves both in its own module
    ("smoothing", "periodic_smooth", "smoothing.periodic_smooth"),
    ("smoothing", "symmetrize", "smoothing.symmetrize"),
    # the pipeline calls these as io_mod.<name>
    ("io", "save_frames", "io.save_frames"),
    ("io", "load_frames", "io.load_frames"),
    ("io", "file_sha256", "io.file_sha256"),
    ("io", "save_wannier", "io.save_wannier"),
    ("io", "write_wannier_csv", "io.write_wannier_csv"),
)


def self_times(spans):
    """Map span index to its duration minus the union of its children."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for i, s in enumerate(spans):
        covered = 0.0
        cursor = s["start"]
        for start, end in sorted(children[i]):
            start, end = max(start, cursor), min(end, s["end"])
            if end > start:
                covered += end - start
                cursor = end
        out[i] = (s["end"] - s["start"]) - covered
    return out


class Tracer:
    """Spans and counters around the package's public names."""

    def __init__(self, package):
        self.package = package
        self.spans = []
        self.run_id = None
        self.counters = defaultdict(int)
        self.busy = defaultdict(float)
        self._stack = []
        self._saved = []
        self.call_costs = self._calibrate()

    # ------------------------------------------------------------------
    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent, "run": self.run_id}
        self.spans.append(record)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def _replace(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _span_wrapper(self, name, fn):
        if name == "frames.input_frame":
            @functools.wraps(fn)
            def wrapper(family, geometry, region="effective-cell"):
                label = ("frames.control_frame" if region == "full-torus"
                         else "frames.input_frame")
                return self.span(label, fn, family, geometry, region=region)
        elif name == "smoothing.periodic_smooth":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                out = self.span(name, fn, *args, **kwargs)
                self.counters["smoothing.periodic_smooth_calls"] += 1
                self.counters["smoothing.cutoffs_tried"] += len(out[1]["tried"])
                return out
        elif name == "smoothing.smooth_symmetric":
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.counters["smoothing.smooth_symmetric_calls"] += 1
                return self.span(name, fn, *args, **kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self.span(name, fn, *args, **kwargs)
        return wrapper

    def _busy_wrapper(self, name, fn):
        """Inclusive time and call count, without a span per call."""
        busy, counters = self.busy, self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                busy[name] += time.perf_counter() - t0
                counters[name] += 1
        return wrapper

    def _reductions_wrapper(self, fn):
        """Counts reductions tried and found by ``CellGeometry.all_reductions``."""
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(geometry, g):
            found = fn(geometry, g)
            counters["cells.reduction_calls"] += 1
            counters["cells.reduction_candidates"] += 2 * 3 ** geometry.d
            counters["cells.reductions_found"] += len(found)
            return found
        return wrapper

    def _calibrate(self):
        """Seconds each kind of wrapper adds to one call, timed on a no-op."""
        def noop(*args):
            return ()

        def cost(wrapped, *args):
            t0 = time.perf_counter()
            for _ in range(CALIBRATION_CALLS):
                noop(*args)
            t1 = time.perf_counter()
            for _ in range(CALIBRATION_CALLS):
                wrapped(*args)
            t2 = time.perf_counter()
            return max(0.0, ((t2 - t1) - (t1 - t0)) / CALIBRATION_CALLS)

        costs = {
            "busy": cost(self._busy_wrapper("calibration", noop)),
            "span": cost(self._span_wrapper("calibration", noop)),
            "reductions": cost(self._reductions_wrapper(noop),
                               SimpleNamespace(d=1), None),
        }
        self.spans.clear()
        self.reset_counters()
        return costs

    def install(self):
        """Wrap every traced name; undo with :meth:`restore`."""
        pkg = self.package
        for module, attr, name in _STAGE_SPANS:
            owner = getattr(pkg, module)
            self._replace(owner, attr,
                          self._span_wrapper(name, owner.__dict__[attr]))
        family_cls = pkg.models.ProjectorFamily
        for attr in ("eigensystem", "hamiltonian"):
            self._replace(family_cls, attr,
                          self._busy_wrapper(f"models.{attr}",
                                             family_cls.__dict__[attr]))
        geometry_cls = pkg.cells.CellGeometry
        self._replace(geometry_cls, "all_reductions",
                      self._reductions_wrapper(
                          geometry_cls.__dict__["all_reductions"]))

    def restore(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": dict(self.counters),
                       "busy_s": dict(self.busy)}, fh)

    # ------------------------------------------------------------------
    def solve_metrics(self, run_id, n_points):
        """Per-layer metrics of the traced solve ``run_id``.

        Counters cover everything since the last :meth:`reset_counters`,
        so reset them before each traced solve.  A layer that was not
        called reads ``None``.  ``trace.overhead_frac`` is an estimate:
        each wrapped call and span at its wrapper kind's calibrated cost,
        over the traced solve minus that cost.
        """
        rows = [i for i, s in enumerate(self.spans) if s["run"] == run_id]
        pos = {i: j for j, i in enumerate(rows)}
        spans = [dict(self.spans[i], parent=pos.get(self.spans[i]["parent"]))
                 for i in rows]
        own = self_times(spans)
        solve = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)

        metrics = dict.fromkeys(SELF_TIME_METRICS.values())
        metrics["pipeline.unattributed_s"] = 0.0
        for j, s in enumerate(spans):
            metric = SELF_TIME_METRICS.get(s["name"], "pipeline.unattributed_s")
            metrics[metric] = (metrics[metric] or 0.0) + own[j]
        metrics["pipeline.wannierize_s"] = sum(
            s["end"] - s["start"] for s in spans
            if s["name"] == "pipeline.run_wannierize")
        metrics["trace.solve_s"] = solve

        c, busy = self.counters, self.busy
        calls = c["models.eigensystem"]
        tried = c["cells.reduction_candidates"]
        metrics.update({
            "models.eigh_calls": calls,
            "models.eigh_per_point": calls / n_points,
            "models.bloch_s": busy["models.eigensystem"],
            "models.hamiltonian_s": busy["models.hamiltonian"],
            "cells.reduction_calls": c["cells.reduction_calls"],
            "cells.reduction_hit_ratio": (
                c["cells.reductions_found"] / tried if tried else None),
            "smoothing.cutoffs_tried": c["smoothing.cutoffs_tried"],
            "smoothing.retries": (c["smoothing.periodic_smooth_calls"]
                                  - c["smoothing.smooth_symmetric_calls"]),
        })
        # Host noise between runs swamps a traced/untraced ratio, so the
        # overhead is estimated from the calibrated cost of each wrapper.
        cost = self.call_costs
        overhead = (cost["busy"] * (calls + c["models.hamiltonian"])
                    + cost["reductions"] * c["cells.reduction_calls"]
                    + cost["span"] * len(spans))
        metrics["trace.overhead_frac"] = overhead / (solve - overhead)
        return metrics

    def reset_counters(self):
        self.counters.clear()
        self.busy.clear()
