"""The certificate rows, their bounds and the verdict.

Every gated row must be able to fail: a value planted past its bound in
an honest run's records flips that row, and only that row, and with it
the verdict.  A row that is printed but not gated flips nothing.
"""
import copy
import inspect

import pytest

from blochframe import wannier
from blochframe.certify import (
    BAND_NORM_BOUND,
    EXTENSION_BOUND,
    format_rows,
    rows,
    verdict,
)
from blochframe.pipeline import RunConfig, run_wannierize


def test_the_extension_bound_is_the_default_tolerance_of_the_extension():
    """One constant: the certificate passes exactly the mismatches that
    ``extend_symmetric`` accepts by default."""
    tol = inspect.signature(wannier.extend_symmetric).parameters["tol"].default
    assert tol is EXTENSION_BOUND is wannier.EXTENSION_BOUND
    assert EXTENSION_BOUND == 1e-10


@pytest.fixture(scope="module")
def honest():
    config = RunConfig(model="ssh", grid_n=8)
    result = run_wannierize(config)
    return config, result["manifest"], result["report"]


def _failed(table):
    return [name for name, *_ in verdict(table)]


@pytest.mark.parametrize("plant, failed", [
    (lambda m, r, c: m["final_residuals"].update(projector=2 * c.tol), "final residuals/projector"),
    (lambda m, r, c: m["final_residuals"].update(orthonormality=float("nan")),
     "final residuals/orthonormality"),
    (lambda m, r, c: m["final_residuals"].update(reflection=1.59), "final residuals/reflection"),
    (lambda m, r, c: m.update(extension_mismatch=2 * EXTENSION_BOUND),
     "construction/extension mismatch"),
    # the total move must stay strictly below epsilon
    (lambda m, r, c: m["smoothing"].update(sup_distance_total=c.epsilon), "total move"),
    (lambda m, r, c: m["assumptions"].update(passed=False), "assumptions/passed"),
    (lambda m, r, c: r["reality"].update(defect=2 * c.tol), "wannier/reality defect (imag)"),
    (lambda m, r, c: r.update(band_norms=[1.0 + 2 * BAND_NORM_BOUND]), "wannier/band 0 norm off 1"),
    (lambda m, r, c: r.update(band_norms=[float("nan")]), "wannier/band 0 norm off 1"),
])
def test_a_planted_value_fails_its_row_and_the_verdict(honest, plant, failed):
    config, manifest, report = honest
    assert _failed(rows(manifest, report, config)) == []
    manifest, report = copy.deepcopy(manifest), copy.deepcopy(report)
    plant(manifest, report, config)
    table = rows(manifest, report, config)
    assert _failed(table) == [failed]
    assert format_rows(table).splitlines()[-1] == f"verdict: FAIL ({failed})"


@pytest.mark.parametrize("residual", ["projector", "orthonormality", "reflection"])
def test_the_wannier_reports_residuals_gate_without_a_manifest(honest, residual):
    """``wannierize`` prints the residuals of the ``phi_sm`` it transformed;
    beside a manifest they repeat its residuals and are not listed twice."""
    config, manifest, report = honest
    report = copy.deepcopy(report)
    report["final_residuals"][residual] = 1.0
    assert _failed(rows(None, report, config)) == [f"final residuals/{residual}"]
    assert _failed(rows(manifest, report, config)) == []


@pytest.mark.parametrize("plant", [
    lambda m, r: r["control_reality"].update(defect=1.0),
    lambda m, r: r["localization"].update(decay_rate=None, r_squared=None),
    lambda m, r: m["obstruction_symmetry_defects"].update({"(0,)": 1.0}),
    lambda m, r: m["assumptions"].update(gap_floor=0.0),
    lambda m, r: m["smoothing"]["smoothing"].update(nyquist_resolved=False),
])
def test_a_printed_row_that_is_not_gated_flips_nothing(honest, plant):
    config, manifest, report = honest
    manifest, report = copy.deepcopy(manifest), copy.deepcopy(report)
    plant(manifest, report)
    table = rows(manifest, report, config)
    assert _failed(table) == []
    assert format_rows(table).splitlines()[-1] == "verdict: pass"


def test_format_rows_groups_by_section_and_marks_each_gate(honest):
    config, manifest, report = honest
    lines = format_rows(rows(manifest, report, config)).splitlines()
    assert lines[0] == "model: ssh (d=1, n=2, m=1)"
    assert "final residuals:" in lines
    at = lines.index("final residuals:")
    assert lines[at + 1].startswith("  orthonormality: ")
    assert lines[at + 1].endswith(" (pass, bound 1.000e-08)")
    assert "  raw-frame control defect: " in "\n".join(lines)
    assert [line for line in lines if "control defect" in line][0].count("(") == 0
