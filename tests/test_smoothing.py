"""Unit tests for midpoints, symmetrization and band-limit smoothing."""
import json

import numpy as np
import pytest
import scipy.linalg

from blochframe.cells import CellGeometry
from blochframe.errors import (
    EpsilonInfeasible,
    ProjectionRankLoss,
    SpanMismatch,
    TooFarApart,
    UsageError,
)
from blochframe.face2d import construct_2d
from blochframe.frames import frame_distance, input_frame
from blochframe import smoothing
from blochframe.linalg import RANK_FLOOR, gram_polar, lowdin
from blochframe.pipeline import RunConfig, final_residuals, run_construct
from blochframe.smoothing import (
    apply_twist,
    frame_midpoint,
    periodic_smooth,
    reflection_defect,
    smooth_symmetric,
    symmetrize,
    twist_gauge,
)

from conftest import (
    geodesic_distance,
    gram_stack,
    random_unitary,
    shifted_haldane,
    skew_hermitian,
    unitary_log,
)


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
    with pytest.raises(ValueError):
        unitary_log(u)
    # an explicit zero margin disables the guard
    unitary_log(u, margin=0.0)


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
    shape = noisy.geometry.torus_shape
    u = np.array([
        scipy.linalg.expm(skew_hermitian(rng, noisy.m, scale=0.02))
        for _ in range(np.prod(shape))
    ])
    noisy.data = noisy.data @ u.reshape(shape + u.shape[1:])
    before = reflection_defect(noisy, haldane)
    assert before > 1e-3
    fixed, report = symmetrize(noisy, haldane)
    assert reflection_defect(fixed, haldane) < 1e-10
    # at m = 1 the midpoint of a frame and its image at distance
    # 2 sin(phase / 2) moves it by 2 sin(phase / 4)
    assert report["max_shift"] == pytest.approx(
        2 * np.sin(np.arcsin(before / 2) / 2), abs=1e-12
    )
    # idempotence: a second pass does not move the field
    again, report2 = symmetrize(fixed, haldane)
    worst = np.max(np.linalg.norm(again.data - fixed.data, axis=(-2, -1)))
    assert worst < 1e-10
    assert report2["max_shift"] < 1e-10


def test_symmetrize_reports_distant_pairs(haldane, haldane_torus):
    broken = haldane_torus.copy()
    g = (1, 2)
    broken.data[g] = broken.data[g] @ np.diag([np.exp(2.4j), *np.ones(broken.m - 1)])
    with pytest.raises(TooFarApart) as exc:
        symmetrize(broken, haldane)
    points = [tuple(p["point"]) for p in exc.value.details["points"]]
    assert g in points


def test_symmetrize_needs_full_torus(haldane):
    cell = input_frame(haldane, CellGeometry(2, 4))
    with pytest.raises(UsageError):
        symmetrize(cell, haldane)


def test_periodic_smooth_usage_errors(haldane, haldane_torus):
    with pytest.raises(UsageError):
        periodic_smooth(haldane_torus, haldane, epsilon=-0.1)
    cell = input_frame(haldane, CellGeometry(2, 4))
    with pytest.raises(UsageError):
        periodic_smooth(cell, haldane, epsilon=0.1)
    # a raw transported frame has a torus seam: preconditions fail
    raw = input_frame(haldane, CellGeometry(2, 8), region="full-torus")
    with pytest.raises(UsageError):
        periodic_smooth(raw, haldane, epsilon=0.1)


def _poisoned(field):
    """Copy of ``field`` with one NaN frame."""
    out = field.copy()
    out.data[3, 5] = np.nan
    return out


def test_one_nan_frame_makes_the_orthonormality_defect_nan(haldane_torus):
    assert np.isnan(_poisoned(haldane_torus).orthonormality_defect())


def test_a_nan_frame_fails_the_smoothing_precondition(haldane, haldane_torus):
    """The precondition gate refuses a NaN frame before the FFT."""
    with pytest.raises(UsageError):
        periodic_smooth(_poisoned(haldane_torus), haldane, epsilon=0.1)


def _largest_step(data):
    """Largest ``||Phi(g + e_j) - Phi(g)||_F`` over a 2-d grid and both axes,
    the wrap included (the field's ``tau`` must be one, as haldane's is)."""
    return max(
        float(np.max(np.linalg.norm(np.roll(data, -1, axis) - data, axis=(-2, -1))))
        for axis in (0, 1)
    )


def test_periodic_smooth_meets_its_budget(haldane, haldane_torus):
    smoothed, report = periodic_smooth(haldane_torus, haldane, epsilon=0.12)
    assert report["sup_distance"] < 0.9 * 0.12
    assert report["target"] == pytest.approx(0.9 * 0.12)
    assert smoothed.orthonormality_defect() < 1e-12
    assert reflection_defect(smoothed, haldane) < 1e-8
    assert smoothed.meta["smoothing_cutoff"] == report["cutoff"]
    # smoothing shortens the largest step between neighbouring frames
    assert _largest_step(smoothed.data) <= _largest_step(haldane_torus.data)
    # the ladder records every attempt, ending at the accepted cutoff
    assert report["tried"][-1]["cutoff"] == report["cutoff"]
    assert report.keys() == {
        "cutoff", "cutoff_fraction", "nyquist_resolved", "sup_distance", "target", "tried"
    }


def test_periodic_smooth_keeps_smallest_workable_cutoff(haldane, haldane_torus):
    _, tight = periodic_smooth(haldane_torus, haldane, epsilon=0.12)
    _, loose = periodic_smooth(haldane_torus, haldane, epsilon=0.5)
    assert loose["cutoff"] <= tight["cutoff"]


def test_periodic_smooth_infeasible_epsilon(haldane, haldane_torus):
    with pytest.raises(EpsilonInfeasible):
        periodic_smooth(haldane_torus, haldane, epsilon=1e-9)


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
    assert reflection_defect(fixed, fam) <= 1e-12
    assert final_residuals(fixed, fam)["projector"] <= 1e-12


def _reference_candidate(field, family, k):
    """Rung ``k`` of the ladder, built on the full torus: the field smoothed
    at cutoff ``k`` and projected onto the fibers."""
    geo = field.geometry
    big, d = geo.n_side, geo.d
    twist = twist_gauge(geo, family)
    axes = tuple(range(d))
    coeffs = np.fft.fftn(apply_twist(twist, field.data, inverse=True), axes=axes)
    freqs = np.abs(np.fft.fftfreq(big, d=1.0 / big)).astype(int)
    mult = np.ones(geo.torus_shape)
    for j in range(d):
        shape = [1] * d
        shape[j] = big
        mult = mult * np.clip(2.0 - 2.0 * freqs / k, 0.0, 1.0).reshape(shape)
    smoothed = np.fft.ifftn(coeffs * mult.reshape(geo.torus_shape + (1, 1)), axes=axes)
    return np.einsum(
        "...ab,...bm->...am", family.projector(geo.torus_k()), apply_twist(twist, smoothed)
    )


def _all_svd_ladder(field, family, epsilon, rank_floor=0.1):
    """Reference ladder: every rung decided by the full SVD polar factor
    ``u @ vh``, formed as :func:`~blochframe.linalg.lowdin` forms it.

    Returns ``(cutoff, frames, tried)`` of the first rung within ``0.9
    epsilon``, or the ``ProjectionRankLoss`` payload ``(None, point,
    singular_value)`` when every rung loses rank.  Climbs to
    ``n_side - 1``, and tries it, like :func:`periodic_smooth`.  Each
    ``tried`` entry also holds, under ``"on_subgrid"``, the SVD polar
    factor's sup distance and the smallest singular value over the even
    grid points ``[::2]`` of every axis.
    """
    geo = field.geometry
    big = geo.n_side
    sub = (slice(None, None, 2),) * geo.d
    tried, k = [], 2
    while k <= big - 1:
        candidate = _reference_candidate(field, family, k)
        u, sing, vh = np.linalg.svd(candidate, full_matrices=False)
        frames = u @ vh
        distance = np.linalg.norm(frames - field.data, axis=(-2, -1))
        on_subgrid = {
            "sup_distance": float(np.max(distance[sub])),
            "rank_loss": float(np.min(sing[sub])),
        }
        if np.min(sing) < rank_floor:
            point = np.unravel_index(int(np.argmin(sing[..., -1])), geo.torus_shape)
            payload = (None, tuple(int(x) for x in point), float(np.min(sing)))
            tried.append({"cutoff": k, "rank_loss": float(np.min(sing)),
                          "on_subgrid": on_subgrid})
        else:
            dist = float(np.max(distance))
            tried.append({"cutoff": k, "sup_distance": dist, "on_subgrid": on_subgrid})
            if dist < 0.9 * epsilon:
                return k, frames, tried
        if k == big - 1:
            break
        k = min(big - 1, max(k + 1, int(np.ceil(1.25 * k))))
    return payload if all("rank_loss" in t for t in tried) else (None, None, tried)


def _random_trs_phi(d, n, m, seed, grid_n):
    config = RunConfig(
        model="random-trs", params=dict(d=d, n=n, m=m, seed=seed), grid_n=grid_n
    )
    built = run_construct(config)
    return built["family"], built["phi"]


@pytest.fixture(scope="module")
def smoothing_cases(haldane, haldane_torus):
    """Constructed fields before smoothing: haldane grid_n 8, random-trs
    d=3 grid_n 2 (m = 1), random-trs d=2 grid_n 4 (m = 2) and random-trs
    d=2 grid_n 6 (m = 3, whose Gram screen takes ``eigh``)."""
    return {
        "haldane": (haldane, haldane_torus),
        "random-trs-3d": _random_trs_phi(3, 4, 1, 9, 2),
        "random-trs-2d": _random_trs_phi(2, 4, 2, 3, 4),
        "random-trs-m3": _random_trs_phi(2, 5, 3, 0, 6),
    }


def _same_ladder(report, ref_tried):
    """The ladder's rungs match the reference's; a rung rejected on the
    stride-2 subgrid records the reference's value over the even points."""
    assert [t["cutoff"] for t in report["tried"]] == [t["cutoff"] for t in ref_tried]
    for got, ref in zip(report["tried"], ref_tried):
        if got.get("subgrid"):
            (key,) = got.keys() - {"cutoff", "subgrid"}
            want = ref["on_subgrid"][key]
        else:
            assert got.keys() == ref.keys() - {"on_subgrid"}
            key = "sup_distance" if "sup_distance" in ref else "rank_loss"
            want = ref[key]
        assert got[key] == pytest.approx(want, abs=1e-14)


def _check_accepted_frames(smoothed, report, field, family, svd_frames):
    """The accepted rung's frames are ``lowdin`` of the reference candidate
    bit for bit, within ``64 eps kappa**2`` of the SVD's, and the report
    records their distance, which is below the target."""
    candidate = _reference_candidate(field, family, report["cutoff"])
    assert np.array_equal(smoothed.data, lowdin(candidate, rank_tol=RANK_FLOOR))
    w_min, w_max, _ = gram_polar(candidate)
    bound = 64 * np.finfo(float).eps * float(np.max(w_max / w_min))
    assert np.max(np.abs(smoothed.data - svd_frames)) <= bound
    distance = smoothing._sup_distance(smoothed.data, field.data)
    assert report["sup_distance"] == distance < report["target"]


@pytest.mark.parametrize(
    "case", ["haldane", "random-trs-3d", "random-trs-2d", "random-trs-m3"]
)
def test_gram_screened_ladder_matches_the_all_svd_ladder(smoothing_cases, case):
    family, field = smoothing_cases[case]
    _, _, every_rung = _all_svd_ladder(field, family, 1e-12)
    # one epsilon per feasible rung of the reference ladder, each just above it
    epsilons = [1e-12, 0.1, 0.5] + [
        (t["sup_distance"] + 1e-6) / 0.9 for t in every_rung if "sup_distance" in t
    ]
    for epsilon in epsilons:
        cutoff, frames, tried = _all_svd_ladder(field, family, epsilon)
        if cutoff is None:
            with pytest.raises(EpsilonInfeasible):
                periodic_smooth(field, family, epsilon)
            continue
        smoothed, report = periodic_smooth(field, family, epsilon)
        assert report["cutoff"] == cutoff
        _check_accepted_frames(smoothed, report, field, family, frames)
        _same_ladder(report, tried)


def test_a_rung_near_the_target_is_decided_by_lowdin(haldane, haldane_torus):
    """A target 5e-14 below the distance of rung 2 of the reference ladder:
    the subgrid cannot reject that rung, ``lowdin`` refuses it on the torus
    and accepts rung 3."""
    ref_tried = _all_svd_ladder(haldane_torus, haldane, 1e-9)[2]
    near = ref_tried[2]["sup_distance"]
    epsilon = (near - 5e-14) / 0.9
    assert near - 1e-13 < 0.9 * epsilon < near
    # a target between two rungs
    between = 0.5 * (ref_tried[2]["sup_distance"] + ref_tried[3]["sup_distance"])
    _, report = periodic_smooth(haldane_torus, haldane, between / 0.9)
    assert report["cutoff"] == ref_tried[3]["cutoff"]
    smoothed, report = periodic_smooth(haldane_torus, haldane, epsilon)
    cutoff, frames, tried = _all_svd_ladder(haldane_torus, haldane, epsilon)
    assert report["cutoff"] == cutoff == ref_tried[3]["cutoff"]
    _check_accepted_frames(smoothed, report, haldane_torus, haldane, frames)
    _same_ladder(report, tried)


def test_an_accepted_rung_near_the_target_is_decided_by_lowdin(haldane, haldane_torus):
    """A target 5e-14 above the distance of rung 3 of the reference ladder:
    ``lowdin`` accepts it, and the report records its frames' distance."""
    ref_tried = _all_svd_ladder(haldane_torus, haldane, 1e-9)[2]
    epsilon = (ref_tried[3]["sup_distance"] + 5e-14) / 0.9
    smoothed, report = periodic_smooth(haldane_torus, haldane, epsilon)
    cutoff, frames, tried = _all_svd_ladder(haldane_torus, haldane, epsilon)
    assert report["cutoff"] == cutoff == ref_tried[3]["cutoff"]
    _check_accepted_frames(smoothed, report, haldane_torus, haldane, frames)
    _same_ladder(report, tried)


def _odd_point_flip(haldane, haldane_torus):
    """The field with its frames negated at one all-odd grid point and at
    its reflection partner: still orthonormal and symmetric, and unseen by
    the stride-2 subgrid."""
    field = haldane_torus.copy()
    g = (1, 3)
    partner = tuple(int(x) for x in np.mod(np.negative(g), field.geometry.n_side))
    assert all(x % 2 for x in g + partner)
    for point in (g, partner):
        field.data[point] *= -1.0
    assert reflection_defect(field, haldane) <= 1e-12
    return field


@pytest.mark.parametrize("epsilon", [RunConfig.epsilon, 0.5])
def test_a_defect_the_subgrid_cannot_see_is_decided_on_the_torus(
    haldane, haldane_torus, epsilon
):
    """The subgrid only rejects, so the ladder of the odd-point flip is
    still the all-SVD reference's."""
    field = _odd_point_flip(haldane, haldane_torus)
    cutoff, frames, tried = _all_svd_ladder(field, haldane, epsilon)
    if cutoff is None:
        with pytest.raises(EpsilonInfeasible) as exc:
            periodic_smooth(field, haldane, epsilon)
        report = {"tried": exc.value.details["tried"]}
    else:
        smoothed, report = periodic_smooth(field, haldane, epsilon)
        assert report["cutoff"] == cutoff
        _check_accepted_frames(smoothed, report, field, haldane, frames)
    _same_ladder(report, tried)
    # some rung is within the target on the subgrid and refused on the torus
    assert any(
        ref["on_subgrid"]["sup_distance"] < 0.9 * epsilon <= ref["sup_distance"]
        for ref in tried
    )


def test_a_rank_loss_the_subgrid_cannot_see_is_lowdins(haldane, haldane_torus, monkeypatch):
    """At a rank floor of 0.5 rung 9 of the odd-point flip keeps rank on the
    subgrid and loses it on the torus, where ``lowdin`` refuses it; rung 12
    is accepted."""
    field = _odd_point_flip(haldane, haldane_torus)
    monkeypatch.setattr(smoothing, "RANK_FLOOR", 0.5)
    smoothed, report = periodic_smooth(field, haldane, 0.1)
    by_cutoff = {t["cutoff"]: t for t in report["tried"]}
    assert by_cutoff[9].keys() == {"cutoff", "rank_loss"}
    assert by_cutoff[9]["rank_loss"] < 0.5
    assert report["cutoff"] == 12
    cutoff, frames, tried = _all_svd_ladder(field, haldane, 0.1, rank_floor=0.5)
    assert cutoff == 12
    _check_accepted_frames(smoothed, report, field, haldane, frames)
    _same_ladder(report, tried)


def _counting(monkeypatch, name, change=None):
    """Patch ``smoothing.<name>`` to count its calls in the returned list,
    and to apply ``change`` to the field it returns."""
    real = getattr(smoothing, name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(None)
        out, report = real(*args, **kwargs)
        if change is not None:
            change(out)
        return out, report

    monkeypatch.setattr(smoothing, name, spy)
    return calls


def test_smooth_symmetric_refuses_a_second_move(haldane, haldane_torus, monkeypatch):
    """A symmetrization that moves the smoothed field by about 2 (it negates
    the frame at the origin) is refused at once: there is no retry."""

    def negate_origin(field):
        field.data[(0,) * field.geometry.d] *= -1.0

    smooths = _counting(monkeypatch, "periodic_smooth")
    symmetrizes = _counting(monkeypatch, "symmetrize", negate_origin)
    with pytest.raises(EpsilonInfeasible) as exc:
        smooth_symmetric(haldane_torus, haldane, 0.12)
    assert exc.value.details["distance"] >= 0.12
    assert len(smooths) == len(symmetrizes) == 1


def test_the_ladder_stops_below_n_side(haldane, haldane_torus):
    """From ``K = n_side`` on the multiplier is one on every grid harmonic:
    such a rung smooths nothing and must not certify."""
    big = haldane_torus.geometry.n_side
    with pytest.raises(EpsilonInfeasible) as exc:
        periodic_smooth(haldane_torus, haldane, epsilon=1e-6)
    cutoffs = [t["cutoff"] for t in exc.value.details["tried"]]
    assert max(cutoffs) == cutoffs[-1] == big - 1


def test_the_ladder_tries_n_side_minus_one_when_a_step_passes_it(haldane):
    """At ``n_side`` 32 the ladder would step from 30 to 38; its last rung
    is 31."""
    torus, _ = construct_2d(input_frame(haldane, CellGeometry(2, 16)), haldane)
    with pytest.raises(EpsilonInfeasible) as exc:
        periodic_smooth(torus, haldane, epsilon=1e-6)
    assert [t["cutoff"] for t in exc.value.details["tried"]] == [
        2, 3, 4, 5, 7, 9, 12, 15, 19, 24, 30, 31
    ]


def _check_rank_loss_payload(family, field, monkeypatch):
    monkeypatch.setattr(smoothing, "RANK_FLOOR", 1.5)
    with pytest.raises(ProjectionRankLoss) as exc:
        periodic_smooth(field, family, epsilon=0.1)
    details = exc.value.details
    assert json.loads(json.dumps(details)) == {
        "point": list(details["point"]),
        "singular_value": details["singular_value"],
    }
    assert all(type(x) is int for x in details["point"])
    _, point, singular_value = _all_svd_ladder(field, family, 0.1, rank_floor=1.5)
    assert details == {"point": point, "singular_value": singular_value}


def test_rank_loss_payload_is_json_safe(haldane, haldane_torus, monkeypatch):
    _check_rank_loss_payload(haldane, haldane_torus, monkeypatch)


def test_rank_loss_payload_is_json_safe_at_m2(smoothing_cases, monkeypatch):
    """Every rung of the ``m = 2`` ladder is refused by the closed-form
    Gram screen; the payload still comes from the SVD."""
    _check_rank_loss_payload(*smoothing_cases["random-trs-2d"], monkeypatch)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_gram_polar_matches_eigh_and_the_svd(rng, m):
    eps = np.finfo(float).eps
    stacks = [gram_stack(rng, m, kappa) for kappa in (1.0, 10.0, 1e2, 1e3, 1e4)]
    # diagonal Grams, an exactly degenerate one (b = 0, a = e) among them
    diagonal = np.zeros((3, 4, m), dtype=complex)
    for j in range(m):
        diagonal[:, j, j] = [1.0, 2.0 + j, 3.0 * 10.0 ** (-2 * j)]
    stacks.append(diagonal)
    # there every eigenvalue is a diagonal entry, and the smallest one keeps
    # its relative accuracy (a difference form w_min = a + e - w_max loses it)
    w_min, w_max, _ = gram_polar(diagonal)
    entries = np.sort(np.sum(np.abs(diagonal) ** 2, axis=-2), axis=-1)
    assert np.allclose(w_min, entries[..., 0], rtol=8 * eps, atol=0.0)
    assert np.allclose(w_max, entries[..., -1], rtol=8 * eps, atol=0.0)
    for c in stacks:
        w_min, w_max, polar = gram_polar(c)
        w = np.linalg.eigvalsh(np.swapaxes(c.conj(), -1, -2) @ c)
        scale = 8 * eps * w[..., -1]
        assert np.all(np.abs(w_min - w[..., 0]) <= scale)
        assert np.all(np.abs(w_max - w[..., -1]) <= scale)
        u, _, vh = np.linalg.svd(c, full_matrices=False)
        kappa2 = np.max(w[..., -1] / w[..., 0])
        assert np.max(np.abs(polar - u @ vh)) <= smoothing.SCREEN_MARGIN * kappa2


@pytest.mark.parametrize("m", [1, 2, 3])
def test_a_rank_deficient_gram_defers_to_the_svd(rng, m):
    c = gram_stack(rng, m, 1.0, size=8)
    c[3] = 0.0
    if m > 1:
        c[5, :, 1] = 2.0 * c[5, :, 0]
    w_min, _, polar = gram_polar(c)
    assert polar is None
    assert not np.any(np.isnan(w_min))
    assert np.min(w_min) <= 1e-15
    assert smoothing._gram_screen(c, c, 0.1, 1.0) is None


def test_the_ladder_takes_no_eigh_for_m_up_to_2(smoothing_cases, monkeypatch):
    """The Gram screen is in closed form for ``m <= 2``; ``m = 3`` keeps
    ``eigh``."""
    calls = []
    real = np.linalg.eigh

    def spy(a, *args, **kwargs):
        calls.append(np.shape(a))
        return real(a, *args, **kwargs)

    cases = {"haldane": False, "random-trs-2d": False, "random-trs-m3": True}
    # sampled before the spy goes in: sampling the torus takes eigh
    for family, field in smoothing_cases.values():
        family.torus_eigensystem(field.geometry.grid_n)
    monkeypatch.setattr(np.linalg, "eigh", spy)
    for case, takes_eigh in cases.items():
        family, field = smoothing_cases[case]
        calls.clear()
        periodic_smooth(field, family, 0.1)
        assert bool(calls) is takes_eigh, case


def test_the_ladder_takes_one_torus_pass_and_no_svd_for_m_up_to_2(
    smoothing_cases, monkeypatch
):
    """At epsilon 0.1 every rejected rung of these ladders is rejected on the
    stride-2 subgrid and the accepted one is taken by ``lowdin``'s closed
    form: one full-torus inverse FFT and no SVD."""
    svd_calls, torus_passes = [], []
    real_svd, real_ifftn = np.linalg.svd, np.fft.ifftn

    def svd_spy(a, *args, **kwargs):
        svd_calls.append(np.shape(a))
        return real_svd(a, *args, **kwargs)

    for case in ("haldane", "random-trs-2d"):
        family, field = smoothing_cases[case]
        family.torus_eigensystem(field.geometry.grid_n)
        torus_shape = field.geometry.torus_shape

        def ifftn_spy(a, *args, **kwargs):
            if np.shape(a)[: len(torus_shape)] == torus_shape:
                torus_passes.append(np.shape(a))
            return real_ifftn(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", svd_spy)
        monkeypatch.setattr(np.fft, "ifftn", ifftn_spy)
        svd_calls.clear()
        torus_passes.clear()
        _, report = periodic_smooth(field, family, 0.1)
        monkeypatch.undo()
        assert svd_calls == [], case
        assert len(torus_passes) == 1, case
        assert all(t.get("subgrid") for t in report["tried"][:-1]), case
        assert len(report["tried"]) > 1, case


def _masked_partners(field, family):
    """``tau^(-lam) theta Phi(partner(g))`` from the index arrays of
    ``reflection_map``, one boolean mask per shift ``lam``."""
    partner, lam = field.geometry.reflection_map()
    conj_partner = np.conj(field.data[tuple(np.moveaxis(partner, -1, 0))])
    out = np.empty_like(conj_partner)
    for shift in np.unique(lam.reshape(-1, lam.shape[-1]), axis=0):
        at = np.all(lam == shift, axis=-1)
        out[at] = family.antiunitary_matrix(tuple(-shift)) @ conj_partner[at]
    return out


def test_reflected_partners_match_the_reflection_map(smoothing_cases):
    """The flip-and-roll blocks of ``_reflected_partners`` give the masked
    gather over ``reflection_map`` bit for bit, with a nontrivial ``tau``
    among the cases."""
    fam = shifted_haldane(r2=(0.25, 0.25))
    torus, _ = construct_2d(input_frame(fam, CellGeometry(2, 4)), fam)
    for family, field in [*smoothing_cases.values(), (fam, torus)]:
        got = smoothing._reflected_partners(field, family)
        assert np.array_equal(got, _masked_partners(field, family))
