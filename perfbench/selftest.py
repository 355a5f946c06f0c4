"""Tests of the benchmark itself, kept out of the package's test suite.

Run from the repository root::

    python3 -m pytest perfbench/selftest.py -q

The smoke runs use the smallest grid on which each workload's seed-0
inputs construct (about a minute in all).
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import inspect  # noqa: E402

import blochframe as bf  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


# Smallest grid on which the seed-0 inputs construct; coarser grids raise
# GridTooCoarse.
SMOKE_GRID_N = {"haldane-2d": 4, "twisted-2d": 4, "trs-3d": 6}

# Largest share of a traced smoke solve left outside the named spans.
UNATTRIBUTED_SHARE = 0.1


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", workload, "--seed", "0", "--seconds", "0",
         "--trace", str(trace), "--grid-n", str(SMOKE_GRID_N[workload])],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", ["haldane-2d", "trs-3d"])
def test_smoke_run_passes_every_check(workload):
    result = result_of(bench(workload, trace=0))
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_self_times_add_up_to_the_traced_solve():
    result = result_of(bench("haldane-2d", trace=1))
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.PER_LAYER
    named = set(tracing.SELF_TIME_METRICS.values())
    assert all(values[k] >= 0 for k in named)
    solve = values["trace.solve_s"]
    # unattributed_s is the self time of the spans without a metric name
    # (solve, run_construct, run_wannierize, smooth_symmetric): glue code
    # between the stage calls, a small part of the solve.
    assert 0 <= values["pipeline.unattributed_s"] <= UNATTRIBUTED_SHARE * solve
    parts = named | {"pipeline.unattributed_s"}
    assert sum(values[k] for k in parts) == pytest.approx(solve, abs=1e-6)
    assert values["models.eigh_calls"] > 0
    assert values["cell3d.construct_3d_self_s"] == 0  # not called in 2D


def test_twisted_2d_is_reported_failed():
    """Negative control on real output: symmetrize breaks tau^2 != 1 models.

    ``smoothing.symmetrize`` writes each partner with ``tau_{-lam}`` but
    measures with ``tau_lam``; the projector and reflection residuals and
    the Wannier reality defect then miss their bounds.  This test pins that
    the benchmark reports it; it flips once the package is fixed.
    """
    done = bench("twisted-2d", trace=0)
    result = result_of(done)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 1
    assert "final residual projector" in done.stdout
    assert "final residual reflection" in done.stdout
    assert "Wannier reality defect" in done.stdout


def good_solve():
    manifest = {
        "final_residuals": {"projector": 1e-15, "orthonormality": 1e-15,
                            "periodicity": 0.0, "reflection": 1e-16},
        "extension_mismatch": 1e-15,
        "smoothing": {"sup_distance_total": 0.05},
    }
    report = {"reality": {"defect": 1e-17},
              "control_reality": {"defect": 0.2},
              "band_norms": [1.0, 1.0 - 1e-15]}
    return manifest, report


@pytest.mark.parametrize("plant, expect", [
    (lambda m, r: m["final_residuals"].update(projector=1e-3), "projector"),
    (lambda m, r: m["final_residuals"].update(periodicity=float("nan")), "periodicity"),
    (lambda m, r: m.update(extension_mismatch=1e-9), "extension mismatch"),
    (lambda m, r: m["smoothing"].update(sup_distance_total=0.1), "smoothing"),
    (lambda m, r: r["reality"].update(defect=1e-6), "reality defect"),
    (lambda m, r: r.update(band_norms=[1.0, 0.99]), "band norm"),
    (lambda m, r: r["control_reality"].update(defect=0.0), "control"),
])
def test_planted_bad_output_fails_the_check(plant, expect):
    config = bf.RunConfig(model="haldane", grid_n=4, epsilon=0.1)
    manifest, report = good_solve()
    assert checks.check_solve(manifest, report, config) == []
    plant(manifest, report)
    failures = checks.check_solve(manifest, report, config)
    assert len(failures) == 1 and expect in failures[0]


def test_extension_bound_is_the_packages_default_tolerance():
    tol = inspect.signature(bf.wannier.extend_symmetric).parameters["tol"]
    assert tol.default == checks.EXTENSION_TOL


def test_ledger_flags_artifacts_that_change(tmp_path):
    path = str(tmp_path / "digests.json")
    first = dict.fromkeys(checks.ARTIFACTS, "a")
    assert checks.DigestLedger(path).check("k", first) == []
    ledger = checks.DigestLedger(path)
    ledger.check("k", first)
    ledger.save()
    changed = dict(first, **{"phi_sm.blf1": "b"})
    assert checks.DigestLedger(path).check("k", first) == []
    assert len(checks.DigestLedger(path).check("k", changed)) == 1
    assert checks.DigestLedger(path).check("other", changed) == []


def test_tracer_restores_every_wrapped_name():
    def snapshot():
        owners = [bf.pipeline, bf.wannier, bf.face2d, bf.cell3d, bf.smoothing,
                  bf.io, bf.models.ProjectorFamily, bf.cells.CellGeometry]
        return {(id(o), k): v for o in owners for k, v in vars(o).items()}

    before = snapshot()
    tracer = tracing.Tracer(bf)
    # calibration leaves no spans or counts behind
    assert tracer.spans == [] and not tracer.counters and not tracer.busy
    assert set(tracer.call_costs) == {"busy", "span", "reductions"}
    tracer.install()
    assert bf.pipeline.run_construct is not before[(id(bf.pipeline), "run_construct")]
    tracer.restore()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_time_subtracts_the_covered_child_interval():
    spans = [
        {"start": 0.0, "end": 10.0, "parent": None},
        {"start": 1.0, "end": 4.0, "parent": 0},
        {"start": 2.0, "end": 3.0, "parent": 1},
        {"start": 5.0, "end": 6.0, "parent": 0},
    ]
    own = tracing.self_times(spans)
    assert own == {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0}
    assert sum(own.values()) == 10.0


def test_twisted_model_is_seeded_and_keeps_every_hopping():
    cfg = workloads.twisted_model(5)
    assert cfg == workloads.twisted_model(5)
    assert cfg != workloads.twisted_model(6)
    family = bf.load_model(cfg)
    assert len(family.hoppings) == len(cfg["hoppings"])
    # tau_lam != tau_{-lam}: the case the symmetrize defect needs
    assert all(np.abs(gen @ gen - np.eye(4)).max() > 0.5 for gen in family.tau)
    report = bf.verify_assumptions(family, grid_n=4)
    assert report.passed


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("haldane-2d", trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
