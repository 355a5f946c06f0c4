"""Unit tests for frame fields and the transported input frame."""
import numpy as np
import pytest

from blochframe.cells import CellGeometry
from blochframe.errors import SpanMismatch
from blochframe.frames import (
    FrameField,
    _fix_column_phases,
    check_same_span,
    frame_distance,
    input_frame,
    unitary_between,
)
from blochframe.linalg import lowdin
from blochframe.models import builtin_model

from conftest import random_unitary


def _random_frame(rng, n, m):
    a = rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))
    q, _ = np.linalg.qr(a)
    return q[:, :m]


def test_frame_distance_is_frobenius(rng):
    a = _random_frame(rng, 3, 2)
    b = _random_frame(rng, 3, 2)
    assert frame_distance(a, b) == pytest.approx(np.linalg.norm(a - b))
    assert frame_distance(a, a) == 0.0


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
    p = haldane.projector(geo.cell_points() / geo.n_side)
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


def _svd_polar(mat):
    """Polar factor through the SVD, independent of ``lowdin``."""
    u, _, vh = np.linalg.svd(mat, full_matrices=False)
    return u @ vh


def _pointwise_input_frame(family, geometry, region, independent):
    """The transport of ``input_frame`` walked one grid point at a time:
    out from the origin along the first axis, then from every covered point
    along each further axis in turn.

    With ``independent`` the walk takes its projectors and seed from direct
    ``eigh`` calls at every ``k`` of the box and its polar factors from an
    explicit SVD; otherwise from the family's torus sample and ``lowdin``,
    as ``input_frame`` does.
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
    if independent:
        projectors = family.projector(box / geometry.n_side)
        seed, _ = family.spectral_frame(np.zeros(d))
        polar = _svd_polar
    else:
        projectors = family.grid_projectors(geometry.grid_n, box)
        evecs = family.torus_eigensystem(geometry.grid_n)[1]
        seed = evecs[(0,) * d][:, :family.m]
        polar = lowdin
    origin = (0,) * d
    frames = {origin: polar(_fix_column_phases(seed))}
    step_sup = 0.0
    covered = [origin]
    for axis in range(d):
        reached = []
        for base in covered:
            for direction in (1, -1):
                g, prev = list(base), frames[base]
                while g[axis] + direction in ranges[axis]:
                    g[axis] += direction
                    cur = polar(projectors[tuple(np.subtract(g, corner))] @ prev)
                    step_sup = max(step_sup, frame_distance(cur, prev))
                    frames[tuple(g)] = cur
                    reached.append(tuple(g))
                    prev = cur
        covered += reached
    return frames, step_sup


def _gathered(fld, frames):
    """The field's frames at the grid points keying ``frames``, and the
    frames of the dict, as two stacks in the dict's order."""
    points = np.array(list(frames))
    if fld.region == "full-torus":
        index = tuple(points.T)
    else:
        index = fld.geometry.cell_index(points)
    return fld.data[index], np.array(list(frames.values()))


@pytest.mark.parametrize("region", ["effective-cell", "full-torus"])
@pytest.mark.parametrize("name, params, grid_n", [
    ("ssh", {}, 4),
    ("haldane", {}, 4),
    ("random-trs", {"d": 3, "n": 4, "m": 2, "seed": 0}, 2),
])
def test_input_frame_matches_pointwise_transport(name, params, grid_n, region):
    """The lockstep sweep is the point-by-point walk on the same
    ingredients, bit for bit, and agrees with a walk on directly sampled
    projectors and SVD polar factors to roundoff."""
    fam = builtin_model(name, **params)
    geo = CellGeometry(fam.d, grid_n)
    fld = input_frame(fam, geo, region=region)
    frames, step_sup = _pointwise_input_frame(fam, geo, region, independent=False)
    assert len(frames) == np.prod(fld.data.shape[:fam.d])
    got, want = _gathered(fld, frames)
    assert np.array_equal(got, want)
    assert fld.meta["transport_step_sup"] == pytest.approx(step_sup, abs=1e-15)
    oracle, oracle_step_sup = _pointwise_input_frame(fam, geo, region, independent=True)
    got, want = _gathered(fld, oracle)
    assert np.max(np.abs(got - want)) < 1e-13
    assert fld.meta["transport_step_sup"] == pytest.approx(oracle_step_sup, abs=1e-13)
