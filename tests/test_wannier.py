"""Unit tests for symmetric extension and the lattice-side certificates."""
import numpy as np
import pytest

from blochframe.cells import CellGeometry
from blochframe.errors import BoundaryRelationViolated, UsageError
from blochframe.face2d import construct_2d
from blochframe.frames import FrameField, frame_distance, input_frame
from blochframe.vertex import construct_1d
from blochframe.wannier import (
    WannierSet,
    extend_symmetric,
    frames_from_wannier,
    localization_report,
    reality_check,
    wannier_transform,
)

from conftest import face_cell, rotated_ssh, shifted_haldane


@pytest.fixture(scope="module")
def haldane_cell(haldane):
    geo = CellGeometry(2, 8)
    return geo, face_cell(haldane, geo)


def test_extend_symmetric_covers_the_torus(haldane, haldane_cell):
    geo, cell = haldane_cell
    torus = extend_symmetric(cell, haldane)
    assert torus.region == "full-torus"
    assert torus.meta["extension_mismatch"] < 1e-10
    # every reduction of every point reproduces the stored value
    c = haldane.theta_matrix()
    rng = np.random.default_rng(5)
    for _ in range(100):
        g = tuple(rng.integers(0, geo.n_side, size=2))
        val = torus.data[g]
        for red in geo.all_reductions(g):
            cand = cell.data[geo.cell_index(red.k_prime)]
            if red.s:
                cand = c @ np.conj(cand)
            cand = haldane.tau_power(red.lam) @ cand
            assert frame_distance(val, cand) < 1e-10


def test_extend_symmetric_needs_cell_region(haldane, haldane_cell):
    geo, cell = haldane_cell
    torus = extend_symmetric(cell, haldane)
    with pytest.raises(UsageError):
        extend_symmetric(torus, haldane)


def test_extend_symmetric_reports_corrupted_vertex(haldane, haldane_cell):
    geo, cell = haldane_cell
    broken = cell.copy()
    trim = (0, geo.grid_n)
    broken.data[geo.cell_index(trim)] *= np.exp(0.3j)
    with pytest.raises(BoundaryRelationViolated) as exc:
        extend_symmetric(broken, haldane)
    assert tuple(exc.value.details["point"]) == trim
    assert exc.value.details["mismatch"] > 0.1
    k = exc.value.details["k"]
    assert k == (0.0, 0.5)


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
        want = np.eye(wset.n_bands) if shift == (0, 0) else 0.0
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
