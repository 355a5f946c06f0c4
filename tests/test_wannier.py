"""Unit tests for symmetric extension and the lattice-side certificates."""
import itertools
import json

import numpy as np
import pytest

from blochframe import wannier
from blochframe.cell3d import construct_3d
from blochframe.cells import CellGeometry
from blochframe.errors import BoundaryRelationViolated, UsageError
from blochframe.face2d import construct_2d
from blochframe.frames import FrameField, input_frame
from blochframe.models import builtin_model
from blochframe.pipeline import RunConfig, run_wannierize
from blochframe.vertex import construct_1d
from blochframe.certify import localization_report, reality_check
from blochframe.wannier import (
    WannierSet,
    extend_symmetric,
    frames_from_wannier,
    wannier_transform,
)

from conftest import copied, face_cell, model_json, rotated_ssh, shifted_haldane, shifted_trs_3d


@pytest.fixture(scope="module")
def haldane_cell(haldane):
    geo = CellGeometry(2, 8)
    return geo, face_cell(haldane, geo)


def constructed_cell(family, geo):
    """The effective-cell frame that the construction of ``family`` extends
    to the torus."""
    if geo.d == 2:
        return face_cell(family, geo)
    cells = []

    def capture(field, family, tol=1e-10):
        cells.append(copied(field))
        return extend_symmetric(field, family, tol)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wannier, "extend_symmetric", capture)
        construct_3d(input_frame(family, geo), family)
    return cells[0]


FAMILIES = {
    "haldane": (lambda: builtin_model("haldane"), 2, 8),
    "shifted-haldane": (lambda: shifted_haldane((0.25, 0.75)), 2, 8),
    "shifted-trs-3d": (shifted_trs_3d, 3, 4),
}


@pytest.fixture(scope="module", params=list(FAMILIES))
def family_cell(request):
    make, d, grid_n = FAMILIES[request.param]
    family, geo = make(), CellGeometry(d, grid_n)
    return family, geo, constructed_cell(family, geo)


def test_extend_symmetric_covers_the_torus(family_cell):
    """Every reduction of every torus point reproduces the extended value."""
    family, geo, cell = family_cell
    torus = extend_symmetric(cell, family)
    assert torus.region == "full-torus"
    assert torus.meta["extension_mismatch"] < 1e-10
    c = family.theta_matrix()
    for g in itertools.product(range(geo.n_side), repeat=geo.d):
        for red in geo.all_reductions(g):
            cand = cell.data[geo.cell_index(red.k_prime)]
            if red.s:
                cand = c @ np.conj(cand)
            cand = family.tau_power(red.lam) @ cand
            assert np.linalg.norm(torus.data[g] - cand) < 1e-10


def test_extend_symmetric_needs_cell_region(haldane, haldane_cell):
    geo, cell = haldane_cell
    torus = extend_symmetric(cell, haldane)
    with pytest.raises(UsageError):
        extend_symmetric(torus, haldane)


def test_extend_symmetric_reports_corrupted_vertex(haldane, haldane_cell):
    geo, cell = haldane_cell
    broken = copied(cell)
    trim = (0, geo.grid_n)
    broken.data[geo.cell_index(trim)] *= np.exp(0.3j)
    with pytest.raises(BoundaryRelationViolated) as exc:
        extend_symmetric(broken, haldane)
    assert tuple(exc.value.details["point"]) == trim
    assert exc.value.details["relation"] == "translation k2"
    assert exc.value.details["mismatch"] > 0.1
    k = exc.value.details["k"]
    assert k == (0.0, 0.5)


@pytest.mark.parametrize("name, planted, point, relation", [
    ("haldane", (0, 3), (0, 3), "reflection k1=0"),
    ("shifted-haldane", (8, 3), (8, 3), "reflection k1=1/2"),
    ("shifted-haldane", (3, -8), (3, 8), "translation k2"),
    ("shifted-trs-3d", (1, 2, -4), (1, 2, 4), "translation k3"),
])
def test_extend_symmetric_names_the_broken_relation(name, planted, point, relation):
    """Negative control for each kind of boundary relation: a phase planted
    at a non-TRIM point of a reflection slice or of a translation face is
    refused at the torus point where that relation fails."""
    make, d, grid_n = FAMILIES[name]
    family, geo = make(), CellGeometry(d, grid_n)
    broken = constructed_cell(family, geo)
    assert extend_symmetric(broken, family).meta["extension_mismatch"] < 1e-10
    broken.data[geo.cell_index(planted)] *= np.exp(0.3j)
    with pytest.raises(BoundaryRelationViolated) as exc:
        extend_symmetric(broken, family)
    details = exc.value.details
    assert details["point"] == point
    assert details["k"] == tuple(x / geo.n_side for x in point)
    assert details["relation"] == relation
    assert details["mismatch"] > 0.1


def test_extend_symmetric_refuses_a_nan_boundary_frame(haldane, haldane_cell):
    """Negative control: a NaN frame at the boundary point ``(0, grid_n)``
    makes its boundary relations NaN, which is refused like one above
    ``tol``."""
    geo, cell = haldane_cell
    broken = copied(cell)
    trim = (0, geo.grid_n)
    broken.data[geo.cell_index(trim)] = np.nan
    with pytest.raises(BoundaryRelationViolated) as exc:
        extend_symmetric(broken, haldane)
    assert tuple(exc.value.details["point"]) == trim
    assert exc.value.details["k"] == (0.0, 0.5)
    assert np.isnan(exc.value.details["mismatch"])


@pytest.fixture(scope="module")
def haldane_wset(haldane, haldane_cell):
    _, cell = haldane_cell
    torus = extend_symmetric(cell, haldane)
    return torus, wannier_transform(torus)


def test_wannier_roundtrip_and_parseval(haldane_wset):
    torus, wset = haldane_wset
    assert wset.offset == -torus.geometry.n_side // 2
    assert np.allclose(wset.band_norms(), 1.0, atol=1e-12)
    back = frames_from_wannier(wset)
    assert np.max(np.abs(back.data - torus.data)) < 1e-12


def test_wannier_transform_needs_full_torus(haldane, haldane_cell):
    _, cell = haldane_cell
    with pytest.raises(UsageError):
        wannier_transform(cell)


def test_constant_field_gives_point_amplitude(rng):
    geo = CellGeometry(2, 4)
    f = np.linalg.qr(rng.standard_normal((3, 1)) + 1j * rng.standard_normal((3, 1)))[0]
    fld = FrameField.empty(geo, 3, 1, region="full-torus")
    fld.data[:] = f
    wset = wannier_transform(fld)
    center = -wset.offset
    assert np.linalg.norm(wset.data[center, center] - f) < 1e-13
    rest = np.abs(wset.data).sum() - np.abs(wset.data[center, center]).sum()
    assert rest < 1e-12


def test_phase_ramp_shifts_the_amplitude(rng):
    """Locks the sign convention of the lattice transform."""
    geo = CellGeometry(2, 4)
    big = geo.n_side
    gamma0 = (2, -1)
    f = np.linalg.qr(rng.standard_normal((2, 1)) + 1j * rng.standard_normal((2, 1)))[0]
    fld = FrameField.empty(geo, 2, 1, region="full-torus")
    phase = np.exp(-2j * np.pi * (geo.torus_points() @ gamma0) / big)
    fld.data[:] = f * phase[..., None, None]
    wset = wannier_transform(fld)
    idx = tuple(gamma0[j] - wset.offset for j in range(2))
    assert np.linalg.norm(wset.data[idx] - f) < 1e-12


def test_translates_are_orthonormal(haldane_wset):
    _, wset = haldane_wset
    w = wset.data
    d = wset.geometry.d
    site_axes = tuple(range(d))
    for shift in [(0, 0), (1, 0), (0, 2), (3, 5)]:
        moved = np.roll(w, shift, axis=site_axes)
        flat_a = np.conj(moved).reshape(-1, w.shape[-2], w.shape[-1])
        flat_b = w.reshape(-1, w.shape[-2], w.shape[-1])
        overlap = np.einsum("xoa,xob->ab", flat_a, flat_b)
        want = np.eye(w.shape[-1]) if shift == (0, 0) else 0.0
        assert np.max(np.abs(overlap - want)) < 1e-10


def test_reality_plain_conjugation(ssh):
    geo = CellGeometry(1, 8)
    torus, _ = construct_1d(input_frame(ssh, geo), ssh)
    report = reality_check(wannier_transform(torus), ssh)
    assert report["mode"] == "imag"
    assert not report["untwisted"]
    assert report["defect"] < 1e-10


def test_reality_with_conjugation_unitary():
    fam = rotated_ssh()
    geo = CellGeometry(1, 8)
    torus, _ = construct_1d(input_frame(fam, geo), fam)
    report = reality_check(wannier_transform(torus), fam)
    assert report["mode"] == "theta"
    assert not report["untwisted"]
    assert report["defect"] < 1e-8


def test_reality_with_translation_twist():
    fam = shifted_haldane()
    geo = CellGeometry(2, 8)
    torus, _ = construct_2d(input_frame(fam, geo), fam)
    report = reality_check(wannier_transform(torus), fam)
    assert report["untwisted"]
    assert report["mode"] == "imag"
    assert report["defect"] < 1e-8


def _synthetic_wset(decay=0.8, d=2, grid_n=8):
    geo = CellGeometry(d, grid_n)
    big = geo.n_side
    offset = -big // 2
    gamma = offset + np.arange(big)
    radius = np.zeros((big,) * d)
    for j in range(d):
        shape = [1] * d
        shape[j] = big
        radius = np.maximum(radius, np.abs(gamma).reshape(shape))
    data = np.exp(-decay * radius)[..., None, None].astype(complex)
    return WannierSet(geo, data, offset)


def test_localization_report_recovers_planted_decay():
    wset = _synthetic_wset(decay=0.8)
    report = localization_report(wset)
    assert report["decay_rate"] == pytest.approx(0.8, abs=1e-9)
    assert report["r_squared"] == pytest.approx(1.0, abs=1e-12)
    assert report["max_decreasing_run"] == wset.geometry.grid_n + 1
    assert report["fit_range"] == [2, wset.geometry.grid_n // 2]
    assert 0.0 <= report["window_tail_fraction"] < 0.05


def test_localization_moments_of_a_point_mass():
    wset = _synthetic_wset()
    wset.data[...] = 0.0
    center = -wset.offset
    wset.data[center, center, 0, 0] = 1.0
    report = localization_report(wset)
    vals = [report["moments"][r][0] for r in range(5)]
    # <gamma> = 1 at the origin, so every moment equals the total weight
    assert np.allclose(vals, vals[0])


def test_localization_moment_window_truncates():
    wset = _synthetic_wset()
    wset.data[...] = 0.0
    center = -wset.offset
    wset.data[center, center, 0, 0] = 1.0
    wset.data[center + 3, center, 0, 0] = 0.5
    wset.data[center + 7, center, 0, 0] = 0.25
    full = localization_report(wset)
    windowed = localization_report(wset, moment_window=5)
    assert windowed["moment_window"] == 5
    w0_full = full["moments"][0][0]
    w0_win = windowed["moments"][0][0]
    assert w0_full == pytest.approx(1.0 + 0.25 + 0.0625)
    assert w0_win == pytest.approx(1.0 + 0.25)
    # second moment by hand: (1 + 9)^2 * 0.25 inside the window
    assert windowed["moments"][2][0] == pytest.approx(1.0 + 100.0 * 0.25)


def _shells_radius_by_radius(wset):
    """Sup amplitude at each sup-norm radius, one radius at a time."""
    d, grid_n = wset.geometry.d, wset.geometry.grid_n
    gamma = np.abs(wset.gamma_axis())
    radius = np.max(np.stack(np.meshgrid(*[gamma] * d, indexing="ij")), axis=0)
    amplitude = np.max(np.abs(wset.data).reshape(wset.data.shape[:d] + (-1,)), axis=-1)
    shells = np.zeros(grid_n + 1)
    for rho in range(grid_n + 1):
        mask = radius == rho
        if np.any(mask):
            shells[rho] = float(np.max(amplitude[mask]))
    return shells


@pytest.fixture(scope="module", params=["haldane-2d", "trs-3d", "twisted-2d"])
def solved_wset(request, tmp_path_factory):
    """The Wannier set of a solved run: built-in haldane at grid_n 32,
    random-trs d=3 at grid_n 8, and a family with orbitals off the cell
    origin (``tau != 1``) at grid_n 8."""
    if request.param == "haldane-2d":
        config = RunConfig(model="haldane", params={"phi": 0.0}, grid_n=32)
    elif request.param == "trs-3d":
        config = RunConfig(model="random-trs", params={"d": 3, "n": 4, "m": 2, "seed": 0},
                           grid_n=8)
    else:
        path = tmp_path_factory.mktemp("twisted") / "twisted.json"
        path.write_text(json.dumps(model_json(shifted_haldane((0.25, 0.75)))))
        config = RunConfig(model=str(path), grid_n=8)
    return run_wannierize(config)["wannier"]


def test_shell_sups_are_the_radius_by_radius_maxima(solved_wset):
    shells = localization_report(solved_wset)["shell_sup"]
    assert shells == _shells_radius_by_radius(solved_wset).tolist()
    assert all(value > 0.0 for value in shells)


def test_a_nan_amplitude_makes_its_shell_nan():
    wset = _synthetic_wset()
    center = -wset.offset
    wset.data[center + 3, center - 2, 0, 0] = np.nan
    shells = localization_report(wset)["shell_sup"]
    oracle = _shells_radius_by_radius(wset)
    assert np.isnan(oracle[3]) and np.isnan(shells[3])
    assert [x for i, x in enumerate(shells) if i != 3] == [
        x for i, x in enumerate(oracle.tolist()) if i != 3]
