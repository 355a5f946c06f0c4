"""Unit tests for frame fields and the two input frames: the transport and
the selected columns."""
import importlib.util
import json
import os
import sys

import numpy as np
import pytest

from blochframe import vertex
from blochframe.cells import CellGeometry
from blochframe.errors import GridTooCoarse, ProjectionRankLoss, SpanMismatch
from blochframe.frames import (
    FrameField,
    _adjoint,
    _fix_column_phases,
    _overlap,
    _times,
    check_same_span,
    columns_frame,
    frobenius,
    input_frame,
    unitary_between,
)
from blochframe.linalg import RANK_FLOOR, lowdin
from blochframe.models import builtin_model, load_model

from conftest import (
    antiunitary_oracle,
    band_inversion,
    lapack_frames,
    lapack_projector,
    random_unitary,
    rotated,
    shifted_haldane,
    shifted_trs_3d,
)


def _random_frame(rng, n, m):
    a = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    q, _ = np.linalg.qr(a)
    return q[:, :m]


@pytest.mark.parametrize("shape", [(1, 1), (7, 1, 1), (3, 5, 4, 2), (2, 2, 3, 6, 1)])
@pytest.mark.parametrize("kind", ["real", "complex"])
def test_frobenius_is_numpys_norm_to_a_few_ulp(rng, shape, kind):
    a = rng.standard_normal(shape) * np.exp(rng.uniform(-20, 20, shape))
    if kind == "complex":
        a = a + 1j * rng.standard_normal(shape) * np.exp(rng.uniform(-20, 20, shape))
    ref = np.linalg.norm(a, axis=(-2, -1))
    got = frobenius(a)
    assert got.shape == ref.shape and got.dtype == np.float64
    np.testing.assert_array_max_ulp(got, ref, maxulp=4)
    # a strided view reads the same entries
    np.testing.assert_array_max_ulp(frobenius(np.swapaxes(a, -1, -2)), ref, maxulp=4)
    assert not np.any(frobenius(np.zeros_like(a)))


def test_frobenius_carries_nan_and_inf_into_the_norm(rng):
    a = rng.standard_normal((4, 3, 2)) + 1j * rng.standard_normal((4, 3, 2))
    a[0, 1, 1] = np.nan
    a[1, 2, 0] = complex(0.0, np.nan)
    a[2, 0, 0] = np.inf
    a[3, 0, 1] = complex(1.0, -np.inf)
    norms = frobenius(a)
    assert np.isnan(norms[:2]).all()
    assert np.isposinf(norms[2:]).all()
    assert np.isnan(np.max(frobenius(a[:2])))


def test_unitary_between_recovers_the_rotation(rng):
    a = _random_frame(rng, 5, 3)
    u = random_unitary(rng, 3)
    b = a @ u
    got = unitary_between(a, b)
    assert np.linalg.norm(got - u) < 1e-12
    assert np.linalg.norm(got.conj().T @ got - np.eye(3)) < 1e-13


def test_unitary_between_rejects_span_mismatch(rng):
    a = _random_frame(rng, 5, 2)
    b = _random_frame(rng, 5, 2)  # generic: different span
    with pytest.raises(SpanMismatch) as exc:
        unitary_between(a, b)
    assert exc.value.details["defect"] > 1e-3


def test_check_same_span_refuses_a_nan_frame(rng):
    """A NaN frame fails the span check instead of reaching the SVD."""
    a = _random_frame(rng, 4, 2)
    b = a.copy()
    b[1, 0] = np.nan
    with pytest.raises(SpanMismatch):
        check_same_span(a, b)


def test_orthonormality_defect_reports_worst():
    geo = CellGeometry(1, 4)
    fld = FrameField.empty(geo, 2, 1)
    fld.data[:] = np.array([[1.0], [0.0]])
    fld.data[geo.cell_index((1,))] = np.array([[1.1], [0.0]])
    assert fld.orthonormality_defect() == pytest.approx(abs(1.1**2 - 1.0))


def test_input_frame_spans_projector_and_is_steady(haldane):
    geo = CellGeometry(2, 8)
    fld = input_frame(haldane, geo)
    assert fld.orthonormality_defect() < 1e-12
    assert np.isfinite(fld.data).all()
    p = lapack_projector(haldane, geo.cell_points() / geo.n_side)
    worst = np.max(np.linalg.norm(p @ fld.data - fld.data, axis=(-2, -1)))
    assert worst < 1e-10
    assert fld.meta["transport_step_sup"] < 0.5


def test_input_frame_step_scales_with_grid(haldane):
    coarse = input_frame(haldane, CellGeometry(2, 8)).meta["transport_step_sup"]
    fine = input_frame(haldane, CellGeometry(2, 16)).meta["transport_step_sup"]
    assert fine < 0.7 * coarse


def test_input_frame_full_torus_region(haldane):
    geo = CellGeometry(2, 4)
    fld = input_frame(haldane, geo, region="full-torus")
    assert fld.region == "full-torus"
    assert fld.data.shape[:2] == geo.torus_shape
    assert np.isfinite(fld.data).all()
    assert fld.orthonormality_defect() < 1e-12


class _RealLineFamily:
    """Stand-in family for ``input_frame``: at grid point ``g`` its occupied
    frame is the real line ``(cos a, sin a)`` with ``a = angles.get(g, 0)``,
    so the link overlap of two neighbours is ``cos`` of their angle gap."""

    d, n, m = 2, 2, 1

    def __init__(self, angles):
        self.angles = angles

    def grid_frames(self, grid_n, g):
        a = np.zeros(g.shape[:-1])
        for point, angle in self.angles.items():
            a[np.all(g == point, axis=-1)] = angle
        return np.stack([np.cos(a), np.sin(a)], axis=-1)[..., None].astype(complex)


@pytest.mark.parametrize("stored, claimed, shapes", [
    ("effective-cell", "full-torus", ["(5, 9, 2, 1)", "(8, 8)"]),
    ("full-torus", "effective-cell", ["(8, 8, 2, 1)", "(5, 9)"]),
], ids=["cell-as-torus", "torus-as-cell"])
def test_a_field_whose_data_contradicts_its_region_is_refused(haldane, stored, claimed, shapes):
    """Negative control: haldane's grid_n 4 input frame over one region,
    labelled with the other, is refused naming both shapes; a cell-shaped
    "torus" would otherwise be saved to a file that ``load_frames`` refuses
    and Wannier-transformed to a ``(5, 9)`` set."""
    psi = input_frame(haldane, CellGeometry(2, 4), region=stored)
    with pytest.raises(ValueError) as exc:
        FrameField(psi.geometry, claimed, psi.data)
    for shape in shapes:
        assert shape in str(exc.value)


def test_rank_loss_is_reported_at_the_first_step_in_sweep_order():
    """Along axis 2 the sweep steps forward from the origin before it steps
    backward, so a rank loss on the forward step at distance 2 is reported,
    at its destination, ahead of the backward losses at distances 1 and 2;
    the payload names the worst destination of that step."""
    family = _RealLineFamily({(1, 2): 1.5, (2, 2): 1.4, (1, -1): 1.52})
    with pytest.raises(GridTooCoarse) as exc:
        input_frame(family, CellGeometry(2, 2))
    assert exc.value.details["point"] == (1, 2)
    assert exc.value.details["singular_value"] == pytest.approx(np.cos(1.5), abs=1e-15)
    # the same links pass the floor when no angle gap reaches it
    fld = input_frame(_RealLineFamily({(1, 2): 1.4}), CellGeometry(2, 2))
    assert fld.meta["transport_step_sup"] == pytest.approx(2 * np.sin(0.7))


def _svd_polar(mat):
    """Polar factor through the SVD, independent of ``lowdin``."""
    u, _, vh = np.linalg.svd(mat, full_matrices=False)
    return u @ vh


def _pointwise_input_frame(family, geometry, region, independent):
    """The transport of ``input_frame`` walked one grid point at a time:
    out from the origin along the first axis, then from every covered point
    along each further axis in turn.

    With ``independent`` the walk takes its projectors and seed from direct
    LAPACK ``eigh`` calls at every ``k`` of the box, steps in ``n`` dimensions,
    ``polar(P(g) prev)``, and takes its polar factors from an explicit SVD.
    Otherwise it walks the link unitaries of ``input_frame``: the sampled
    eigenframes ``v`` of ``grid_frames``, the gauge ``W`` with ``frame = v
    W``, and one link overlap per step, ``v(upper)^H v(lower)`` in the
    positive direction, through the same product helpers and ``lowdin``.

    Returns the frames by grid point, the largest step, and the smallest
    singular value of each step's projected frame (independent) or link
    overlap, by step ``(axis, 0 forward or 1 backward, distance from the
    origin)`` and then by destination point.
    """
    d = family.d
    if region == "full-torus":
        ranges = [range(geometry.n_side)] * d
    else:
        ranges = [range(geometry.grid_n + 1)] + [
            range(-geometry.grid_n, geometry.grid_n + 1)
        ] * (d - 1)
    corner = np.array([r.start for r in ranges])
    box = np.stack(np.meshgrid(*ranges, indexing="ij"), axis=-1)
    origin = (0,) * d

    def at(g):
        return tuple(np.subtract(g, corner))

    if independent:
        projectors = lapack_projector(family, box / geometry.n_side)
        seed = lapack_frames(family, np.zeros(d))
        frames = {origin: _svd_polar(_fix_column_phases(seed))}

        def step(g, prev_g, direction):
            moved = projectors[at(g)] @ frames[prev_g]
            sing = np.linalg.svd(moved, compute_uv=False)[-1]
            return _svd_polar(moved), sing
    else:
        v = family.grid_frames(geometry.grid_n, box)
        seed = v[at(origin)]
        gauge = {origin: _overlap(seed, lowdin(_fix_column_phases(seed)))}
        frames = {origin: _times(seed, gauge[origin])}

        def step(g, prev_g, direction):
            upper, lower = (g, prev_g) if direction > 0 else (prev_g, g)
            overlap = _overlap(v[at(upper)], v[at(lower)])
            link = lowdin(overlap, rank_tol=RANK_FLOOR)
            gauge[g] = _times(link if direction > 0 else _adjoint(link), gauge[prev_g])
            sing = np.linalg.svd(overlap, compute_uv=False)[-1]
            return _times(v[at(g)], gauge[g]), sing

    step_sup = 0.0
    singular = {}
    covered = [origin]
    for axis in range(d):
        reached = []
        for base in covered:
            for direction in (1, -1):
                g = list(base)
                while g[axis] + direction in ranges[axis]:
                    prev_g = tuple(g)
                    g[axis] += direction
                    cur, sing = step(tuple(g), prev_g, direction)
                    prev = frames[prev_g]
                    step_sup = max(step_sup, float(np.linalg.norm(cur - prev, axis=(-2, -1))))
                    frames[tuple(g)] = cur
                    key = (axis, int(direction < 0), abs(g[axis]))
                    singular.setdefault(key, {})[tuple(g)] = float(sing)
                    reached.append(tuple(g))
        covered += reached
    return frames, step_sup, singular


def _gathered(fld, frames):
    """The field's frames at the grid points keying ``frames``, and the
    frames of the dict, as two stacks in the dict's order."""
    points = np.array(list(frames))
    if fld.region == "full-torus":
        index = tuple(points.T)
    else:
        index = fld.geometry.cell_index(points)
    return fld.data[index], np.array(list(frames.values()))


_SHIFTED = {
    "shifted-haldane": lambda name, r2: shifted_haldane(r2),
    "shifted-trs-3d": lambda name: shifted_trs_3d(),
}


@pytest.mark.parametrize("region", ["effective-cell", "full-torus"])
@pytest.mark.parametrize("name, params, grid_n", [
    ("ssh", {}, 4),
    ("haldane", {}, 4),
    ("random-trs", {"d": 3, "n": 4, "m": 2, "seed": 0}, 2),
    pytest.param("shifted-haldane", {"r2": (0.25, 0.75)}, 4, id="shifted-haldane"),
    pytest.param("shifted-trs-3d", {}, 2, id="shifted-trs-3d"),
])
def test_input_frame_matches_pointwise_transport(name, params, grid_n, region):
    """The lockstep sweep is the point-by-point link walk on the same
    ingredients, bit for bit, its ``transport_step_sup`` exactly the walk's
    largest step, and it agrees with an ``n``-dimensional walk on directly
    sampled projectors and SVD polar factors to roundoff.  The shifted
    families have ``tau != 1`` and ``tau_j**2 != 1``, so a frame gathered
    across the wrap with the wrong shift misses its subspace."""
    fam = _SHIFTED.get(name, builtin_model)(name, **params)
    geo = CellGeometry(fam.d, grid_n)
    fld = input_frame(fam, geo, region=region)
    frames, step_sup, _ = _pointwise_input_frame(fam, geo, region, independent=False)
    assert len(frames) == np.prod(fld.data.shape[:fam.d])
    got, want = _gathered(fld, frames)
    assert np.array_equal(got, want)
    assert fld.meta["transport_step_sup"] == step_sup
    oracle, oracle_step_sup, _ = _pointwise_input_frame(fam, geo, region, independent=True)
    got, want = _gathered(fld, oracle)
    assert np.max(np.abs(got - want)) < 1e-13
    assert fld.meta["transport_step_sup"] == pytest.approx(oracle_step_sup, abs=1e-13)


# ----------------------------------------------------------------------
# the selected-columns frame
# ----------------------------------------------------------------------
def _cell_reflection_defect(psi, family):
    """Largest violation of ``Phi(k) = theta Phi(-k)`` at the cell points
    whose partner ``-k`` is a cell point up to a lattice vector: the slices
    ``k_1 = 0`` (partner ``(0, -k')``) and ``k_1 = 1/2`` (partner ``(1/2,
    -k') - e_1``, so ``theta Phi(-k) = tau_1 theta Phi(1/2, -k')``)."""
    geo, d = psi.geometry, family.d
    worst = 0.0
    for row, lam in ((0, (0,) * d), (geo.grid_n, (1,) + (0,) * (d - 1))):
        frames = psi.data[row]
        partner = np.flip(frames, axis=tuple(range(d - 1)))
        image = family.act(lam, partner, anti=True)
        worst = max(worst, float(np.max(frobenius(frames - image))))
    return worst


COLUMNS_CASES = {
    "haldane": (lambda: builtin_model("haldane"), 8),
    "trs-3d": (lambda: builtin_model("random-trs", d=3, n=4, m=2, seed=0), 4),
    "rotated-haldane": (lambda: rotated(builtin_model("haldane")), 8),
}


@pytest.mark.parametrize("case", sorted(COLUMNS_CASES))
def test_the_columns_frame_spans_p_and_keeps_time_reversal(case):
    """``lowdin(P D X)`` with ``C conj(X) = X`` spans the projector of a
    fresh LAPACK ``eigh``, is orthonormal, and obeys ``Phi(-k) = theta
    Phi(k)`` to roundoff on the self-paired slices of the cell."""
    make, grid_n = COLUMNS_CASES[case]
    family = make()
    geo = CellGeometry(family.d, grid_n)
    psi = columns_frame(family, geo)
    p = lapack_projector(family, geo.cell_points() / geo.n_side)
    assert np.max(frobenius(p @ psi.data - psi.data)) <= 1e-14
    assert psi.orthonormality_defect() <= 1e-14
    assert _cell_reflection_defect(psi, family) <= 1e-14
    assert psi.meta["smallest_singular_value"] >= RANK_FLOOR
    steps = [np.max(frobenius(np.diff(psi.data, axis=j))) for j in range(family.d)]
    assert psi.meta["transport_step_sup"] == max(steps)


def test_columns_that_theta_does_not_fix_break_time_reversal(monkeypatch):
    """Negative control: with ``i U`` in place of the square root ``U`` of
    ``C = V V^T`` on ``rotated(haldane)``, the columns have ``C conj(X) =
    -X``, and the frame misses the symmetry by 2 while keeping its rank."""
    family = rotated(builtin_model("haldane"))
    geo = CellGeometry(2, 8)
    assert _cell_reflection_defect(columns_frame(family, geo), family) <= 1e-14
    real = vertex.symmetric_sqrt

    def times_i(c):
        u, info = real(c)
        return 1j * u, info

    monkeypatch.setattr(vertex, "symmetric_sqrt", times_i)
    assert _cell_reflection_defect(columns_frame(family, geo), family) > 1.0


@pytest.mark.parametrize("grid_n", [2, 4, 8])
def test_the_band_inversion_columns_lose_rank_with_a_json_safe_payload(grid_n):
    """Both identity columns of the band-inversion model are orthogonal to
    its occupied line at a point of every grid."""
    family = load_model(band_inversion())
    with pytest.raises(ProjectionRankLoss) as caught:
        columns_frame(family, CellGeometry(2, grid_n))
    details = caught.value.details
    assert details["singular_value"] < 1e-15
    assert json.loads(json.dumps(details)) == dict(details, point=list(details["point"]))


def _twisted_2d(monkeypatch):
    """The benchmark's twisted-2d model (seed 1), read from its workload
    module without writing bytecode there."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return load_model(module.twisted_model(1))


@pytest.mark.parametrize("case", ["twisted-2d", "shifted-haldane", "shifted-haldane-quarter",
                                  "shifted-trs-3d", "rotated-shifted-haldane"])
def test_the_untwisting_gauge_is_time_reversal_compatible(case, monkeypatch):
    """``D(-k) = C conj(D(k)) C^-1`` wherever ``tau != 1``: the condition
    under which ``P D X`` is time-reversal symmetric."""
    family = {
        "twisted-2d": lambda: _twisted_2d(monkeypatch),
        "shifted-haldane": shifted_haldane,
        "shifted-haldane-quarter": lambda: shifted_haldane(r2=(0.25, 0.25)),
        "shifted-trs-3d": shifted_trs_3d,
        "rotated-shifted-haldane": lambda: rotated(shifted_haldane(r2=(0.25, 0.25))),
    }[case]()
    k = np.random.default_rng(5).uniform(-1.5, 1.5, (40, family.d))
    eye = np.broadcast_to(np.eye(family.n, dtype=complex), (len(k), family.n, family.n))
    c = antiunitary_oracle(family, (0,) * family.d)
    image = c @ np.conj(family.twist(k, eye)) @ c.conj().T
    assert np.max(np.abs(family.twist(-k, eye) - image)) <= 1e-13
