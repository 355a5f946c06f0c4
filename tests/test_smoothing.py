"""Unit tests for midpoints, symmetrization and band-limit smoothing."""
import numpy as np
import pytest
import scipy.linalg

from blochframe.cells import CellGeometry
from blochframe.errors import (
    EigenphaseNearPi,
    EpsilonInfeasible,
    SpanMismatch,
    TooFarApart,
    UsageError,
)
from blochframe.face2d import construct_2d
from blochframe.frames import frame_distance, input_frame
from blochframe.pipeline import final_residuals
from blochframe.smoothing import (
    frame_midpoint,
    geodesic_distance,
    midpoint_unitary,
    periodic_smooth,
    reflection_defect,
    smooth_symmetric,
    symmetrize,
    twist_gauge,
    unitary_log,
)

from conftest import random_unitary, shifted_haldane, skew_hermitian


def _bounded_unitary(rng, m, spread=2.5):
    q = random_unitary(rng, m)
    phases = rng.uniform(-spread, spread, size=m)
    return q @ np.diag(np.exp(1j * phases)) @ q.conj().T, q, phases


def test_unitary_log_inverts_exp(rng):
    for _ in range(30):
        u, _, phases = _bounded_unitary(rng, 3)
        a = unitary_log(u)
        assert np.linalg.norm(a + a.conj().T) < 1e-13
        assert np.linalg.norm(scipy.linalg.expm(a) - u) < 1e-11
        assert geodesic_distance(u) == pytest.approx(
            np.linalg.norm(phases), abs=1e-9
        )


def test_unitary_log_guards_the_branch_cut():
    u = np.diag([np.exp(1j * (np.pi - 1e-10)), 1.0])
    with pytest.raises(EigenphaseNearPi):
        unitary_log(u)
    # an explicit zero margin disables the guard
    unitary_log(u, margin=0.0)


def test_midpoint_unitary_is_a_square_root(rng):
    for _ in range(20):
        u, _, _ = _bounded_unitary(rng, 3)
        mid = midpoint_unitary(u)
        assert np.linalg.norm(mid @ mid - u) < 1e-11
    assert np.linalg.norm(midpoint_unitary(np.eye(4)) - np.eye(4)) < 1e-13


def test_midpoint_unitary_matches_the_principal_logarithm(rng):
    for spread in (0.5, 2.0, 3.0):
        for _ in range(20):
            u, _, _ = _bounded_unitary(rng, 3, spread=spread)
            ref = scipy.linalg.expm(unitary_log(u) / 2)
            assert np.linalg.norm(midpoint_unitary(u) - ref) < 1e-12


def test_midpoint_unitary_guards_the_branch_cut():
    u = np.diag([np.exp(1j * (np.pi - 1e-10)), 1.0])
    with pytest.raises(EigenphaseNearPi):
        midpoint_unitary(u)


def _frame_pair(rng, n=4, m=2, size=0.2):
    a = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    a, _ = np.linalg.qr(a)
    u = scipy.linalg.expm(skew_hermitian(rng, m, scale=size))
    return a, a @ u


def test_frame_midpoint_commutes_and_is_equivariant(rng):
    for _ in range(50):
        a, b = _frame_pair(rng)
        mid = frame_midpoint(a, b)
        assert np.linalg.norm(mid - frame_midpoint(b, a)) < 1e-10
        w = random_unitary(rng, 4)
        assert np.linalg.norm(frame_midpoint(w @ a, w @ b) - w @ mid) < 1e-10
        conj_mid = frame_midpoint(np.conj(a), np.conj(b))
        assert np.linalg.norm(conj_mid - np.conj(mid)) < 1e-10
        # the midpoint is equidistant from both ends
        assert frame_distance(a, mid) == pytest.approx(
            frame_distance(b, mid), abs=1e-9
        )


def test_frame_midpoint_of_a_stack_matches_the_schur_path(rng):
    pairs = [_frame_pair(rng) for _ in range(24)]
    a = np.stack([p[0] for p in pairs]).reshape(2, 3, 4, 4, 2)
    b = np.stack([p[1] for p in pairs]).reshape(2, 3, 4, 4, 2)
    mid = frame_midpoint(a, b)
    assert mid.shape == a.shape
    for idx in np.ndindex(2, 3, 4):
        ref = a[idx] @ scipy.linalg.expm(unitary_log(a[idx].conj().T @ b[idx]) / 2)
        assert np.linalg.norm(mid[idx] - ref) < 1e-12


def test_frame_midpoint_rejects_a_stack_with_one_span_mismatch(rng):
    a, b = _frame_pair(rng)
    other, _ = _frame_pair(rng)
    with pytest.raises(SpanMismatch):
        frame_midpoint(np.stack([a, a]), np.stack([b, other]))


def test_frame_midpoint_rejects_distant_frames(rng):
    a, _ = _frame_pair(rng)
    far = a @ np.diag([np.exp(2.4j), 1.0])
    with pytest.raises(TooFarApart) as exc:
        frame_midpoint(a, far)
    assert exc.value.details["distance"] > exc.value.details["limit"]


@pytest.fixture(scope="module")
def haldane_torus(haldane):
    geo = CellGeometry(2, 8)
    torus, _ = construct_2d(input_frame(haldane, geo), haldane)
    return torus


def test_symmetrize_restores_reflection(rng, haldane, haldane_torus):
    noisy = haldane_torus.copy()
    for g in noisy.points():
        u = scipy.linalg.expm(skew_hermitian(rng, noisy.m, scale=0.02))
        noisy.set(g, noisy.get(g) @ u)
    before = reflection_defect(noisy, haldane)
    assert before > 1e-3
    fixed, report = symmetrize(noisy, haldane)
    assert report["reflection_after"] < 1e-10
    assert reflection_defect(fixed, haldane) < 1e-10
    assert report["max_shift"] <= 0.5 * before + 1e-12
    # idempotence: a second pass does not move the field
    again, report2 = symmetrize(fixed, haldane)
    worst = max(
        frame_distance(again.get(g), fixed.get(g)) for g in fixed.points()
    )
    assert worst < 1e-10
    assert report2["max_shift"] < 1e-10


def test_symmetrize_reports_distant_pairs(haldane, haldane_torus):
    broken = haldane_torus.copy()
    g = (1, 2)
    broken.set(g, broken.get(g) @ np.diag([np.exp(2.4j), *np.ones(broken.m - 1)]))
    with pytest.raises(TooFarApart) as exc:
        symmetrize(broken, haldane)
    points = [tuple(p["point"]) for p in exc.value.details["points"]]
    assert g in points


def test_symmetrize_needs_full_torus(haldane):
    cell, _ = construct_2d(
        input_frame(haldane, CellGeometry(2, 4)), haldane, extend=False
    )
    with pytest.raises(UsageError):
        symmetrize(cell, haldane)


def test_periodic_smooth_usage_errors(haldane, haldane_torus):
    with pytest.raises(UsageError):
        periodic_smooth(haldane_torus, haldane, epsilon=-0.1)
    cell, _ = construct_2d(
        input_frame(haldane, CellGeometry(2, 4)), haldane, extend=False
    )
    with pytest.raises(UsageError):
        periodic_smooth(cell, haldane, epsilon=0.1)
    # a raw transported frame has a torus seam: preconditions fail
    raw = input_frame(haldane, CellGeometry(2, 8), region="full-torus")
    with pytest.raises(UsageError):
        periodic_smooth(raw, haldane, epsilon=0.1)


def test_periodic_smooth_meets_its_budget(haldane, haldane_torus):
    smoothed, report = periodic_smooth(haldane_torus, haldane, epsilon=0.12)
    assert report["sup_distance"] < 0.9 * 0.12
    assert report["target"] == pytest.approx(0.9 * 0.12)
    assert smoothed.orthonormality_defect() < 1e-12
    assert reflection_defect(smoothed, haldane) < 1e-8
    assert smoothed.meta["smoothing_cutoff"] == report["cutoff"]
    # smoothing flattens curvature and steepens the spectral decay
    assert report["second_difference_after"] <= report["second_difference_before"]
    assert report["spectral_slope_after"] <= report["spectral_slope_before"]
    # the ladder records every attempt, ending at the accepted cutoff
    assert report["tried"][-1]["cutoff"] == report["cutoff"]


def test_periodic_smooth_keeps_smallest_workable_cutoff(haldane, haldane_torus):
    _, tight = periodic_smooth(haldane_torus, haldane, epsilon=0.12)
    _, loose = periodic_smooth(haldane_torus, haldane, epsilon=0.5)
    assert loose["cutoff"] <= tight["cutoff"]


def test_periodic_smooth_infeasible_epsilon(haldane, haldane_torus):
    with pytest.raises(EpsilonInfeasible):
        periodic_smooth(haldane_torus, haldane, epsilon=1e-9, k_max=8)


def test_twist_gauge_trivial_for_integer_lattices(haldane):
    assert twist_gauge(CellGeometry(2, 8), haldane) is None


def test_twist_gauge_diagonalizes_the_translations():
    fam = shifted_haldane()
    geo = CellGeometry(2, 4)
    out = twist_gauge(geo, fam)
    assert out is not None
    v, phases = out
    assert phases.shape == geo.torus_shape + (fam.n,)
    assert np.linalg.norm(v.conj().T @ v - np.eye(fam.n)) < 1e-13
    big = geo.n_side
    for j, tau in enumerate(fam.tau):
        # away from the wrap seam, one grid step multiplies each eigenphase
        # by a constant factor; N such steps accumulate to the translation
        arr = np.moveaxis(phases, j, 0)
        ratio = arr[1:] / arr[:-1]
        ref = ratio.reshape(big - 1, -1, fam.n)[0, 0]
        assert np.abs(ratio - ref).max() < 1e-12
        diag = v.conj().T @ tau @ v
        off = diag - np.diag(np.diag(diag))
        assert np.linalg.norm(off) < 1e-12
        assert np.linalg.norm(np.diag(diag) - ref**big) < 1e-10


def test_periodic_smooth_handles_twisted_families(rng):
    fam = shifted_haldane()
    geo = CellGeometry(2, 8)
    torus, _ = construct_2d(input_frame(fam, geo), fam)
    smoothed, report = periodic_smooth(torus, fam, epsilon=0.4)
    assert report["sup_distance"] < 0.36
    assert smoothed.orthonormality_defect() < 1e-12
    assert reflection_defect(smoothed, fam) < 1e-8


def test_smooth_symmetric_combines_both_stages(haldane, haldane_torus):
    final, report = smooth_symmetric(haldane_torus, haldane, epsilon=0.12)
    assert report["sup_distance_total"] < 0.12
    assert report["symmetrization"]["reflection_after"] < 1e-12
    assert reflection_defect(final, haldane) < 1e-12
    assert final.orthonormality_defect() < 1e-12


def test_symmetrize_keeps_a_field_whose_translations_square_to_minus_one():
    """At a quarter orbital offset ``tau = diag(1, i)``, so ``tau_lam``
    and ``tau_{-lam}`` differ: each partner has to be written with the
    shift the reflection defect measures."""
    fam = shifted_haldane(r2=(0.25, 0.25))
    geo = CellGeometry(2, 8)
    torus, _ = construct_2d(input_frame(fam, geo), fam)
    assert reflection_defect(torus, fam) <= 1e-12
    fixed, report = symmetrize(torus, fam)
    assert report["reflection_after"] <= 1e-12
    assert reflection_defect(fixed, fam) <= 1e-12
    assert final_residuals(fixed, fam)["projector"] <= 1e-12
