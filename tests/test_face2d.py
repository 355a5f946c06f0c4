"""Unit tests for the square-cell construction and determinant windings."""
import numpy as np
import pytest

from blochframe.cells import CellGeometry
from blochframe.errors import BoundaryRelationViolated, GridTooCoarse
from blochframe.extension import BoundaryDomain
from blochframe.face2d import construct_2d
from blochframe.frames import input_frame

from conftest import lapack_projector, loop_nodes, planted_loop


@pytest.mark.parametrize("m,r", [(1, 0), (1, 2), (2, -2), (2, 1), (3, 3), (3, -1)])
def test_winding_degree_counts_planted_turns(rng, m, r):
    dom = BoundaryDomain(CellGeometry(2, 8))
    ts = np.arange(48) / 48
    nodes = loop_nodes(dom, planted_loop(ts, m, r, rng, scale=0.3, order=2))
    _, info = dom.lift(np.linalg.det(nodes))
    assert info["degree"] == r
    assert info["lift_defect"] < 1e-10


def test_winding_degree_refuses_undersampled_loops(rng):
    # seven turns over 24 nodes: every step is 1.83 rad, past pi / 2
    dom = BoundaryDomain(CellGeometry(2, 4))
    ts = np.arange(24) / 24
    nodes = loop_nodes(dom, planted_loop(ts, 1, 7, rng, scale=0.0, order=1))
    with pytest.raises(GridTooCoarse):
        dom.lift(np.linalg.det(nodes))


@pytest.fixture(scope="module")
def haldane_face(haldane):
    geo = CellGeometry(2, 8)
    psi = input_frame(haldane, geo)
    torus, diag = construct_2d(psi, haldane)
    return geo, torus, diag


def test_construct_2d_corrects_the_winding(haldane_face):
    _, _, diag = haldane_face
    assert diag["winding_after_correction"] == 0
    assert diag["vertex_residual"] < 1e-10
    assert diag["left_edge"]["origin_residual"] < 1e-10
    assert diag["left_edge"]["top_residual"] < 1e-10
    assert diag["bottom_edge"]["corner_residual"] < 1e-10
    assert abs(diag["det_closure"]) < 1e-8


def test_construct_2d_field_is_orthonormal_and_in_span(haldane, haldane_face):
    geo, torus, _ = haldane_face
    assert torus.region == "full-torus"
    assert torus.orthonormality_defect() < 1e-12
    p = lapack_projector(haldane, geo.torus_k())
    worst = np.max(np.linalg.norm(p @ torus.data - torus.data, axis=(-2, -1)))
    assert worst < 1e-9


def test_construct_2d_reflection_symmetry(haldane, haldane_face):
    geo, torus, _ = haldane_face
    c = haldane.theta_matrix()
    partner, _ = geo.reflection_map()
    minus = torus.data[tuple(np.moveaxis(partner, -1, 0))]
    worst = np.max(np.linalg.norm(minus - c @ np.conj(torus.data), axis=(-2, -1)))
    assert worst < 1e-8


def _max_step(torus):
    """Largest step between neighbouring frames along either axis, the
    wrap included (haldane's ``tau`` is one)."""
    data = torus.data
    return max(
        float(np.max(np.linalg.norm(np.roll(data, -1, axis) - data, axis=(-2, -1))))
        for axis in (0, 1)
    )


def test_construct_2d_continuity_improves_with_the_grid(haldane, haldane_face):
    _, torus, _ = haldane_face
    coarse = _max_step(torus)
    assert coarse < 1.2  # far from an actual jump, which would be ~2
    fine, _ = construct_2d(input_frame(haldane, CellGeometry(2, 16)), haldane)
    assert _max_step(fine) < 0.7 * coarse


def test_construct_2d_is_deterministic(haldane):
    geo = CellGeometry(2, 4)
    a, _ = construct_2d(input_frame(haldane, geo), haldane)
    b, _ = construct_2d(input_frame(haldane, geo), haldane)
    assert np.array_equal(a.data, b.data)


def test_construct_2d_rejects_wrong_dimension(ssh):
    geo = CellGeometry(1, 4)
    psi = input_frame(ssh, geo)
    with pytest.raises(ValueError):
        construct_2d(psi, ssh)


def _plant(defect):
    """Phase-rotated copies of the ``macro2`` inputs that break one condition.

    ``left`` is indexed by ``g_2 + n`` and ``bottom`` by ``g_1``; a phase
    keeps every frame in its span but breaks ``Phi = tau theta Phi``.
    """
    turn = np.exp(0.3j)

    def plant(left, bottom, n, anti00):
        left, bottom = left.copy(), bottom.copy()
        if defect == "corner":
            bottom[0] = bottom[0] * turn
        elif defect == "reflection":
            left[n + 1] = left[n + 1] * turn
        elif defect == "origin":
            left[n] = left[n] * turn
        elif defect == "top":
            # keeps the reflection relation and the corner agreement
            left[2 * n] = left[2 * n] * turn
            left[0] = anti00(left[2 * n])
            bottom[0] = left[0]
        else:
            bottom[n] = bottom[n] * turn
        return left, bottom

    return plant


@pytest.mark.parametrize(
    "defect,point",
    [("corner", (0, -4)), ("reflection", (0, 1)), ("origin", (0, 0)),
     ("top", (0, 4)), ("far-corner", (4, -4))],
)
def test_macro2_names_each_broken_input_condition(haldane, monkeypatch, defect, point):
    """Every input condition of ``macro2`` is checked; a planted defect is
    refused at its point (``"*"`` stands for somewhere on the left edge)."""
    from blochframe import face2d

    plant = _plant(defect)
    real = face2d.macro2

    def broken(ctx, left, bottom, **kwargs):
        left, bottom = plant(left, bottom, ctx.geometry.grid_n,
                             lambda f: ctx.apply_anti((0, 0), f))
        return real(ctx, left, bottom, **kwargs)

    monkeypatch.setattr(face2d, "macro2", broken)
    with pytest.raises(BoundaryRelationViolated) as err:
        construct_2d(input_frame(haldane, CellGeometry(2, 4)), haldane)
    got = err.value.details["point"]
    assert got[0] == point[0]
    assert got[1] in (point[1], "*")
    assert err.value.details["residual"] > 0.1


@pytest.mark.parametrize("edge, point", [("left", (0, 1)), ("bottom", (4, -4))])
def test_macro2_refuses_a_nan_edge_frame(haldane, monkeypatch, edge, point):
    """Negative control: a NaN frame on the left edge (reflection relation)
    or at the bottom edge's far corner (vertex condition) is refused at its
    point, with a NaN residual."""
    from blochframe import face2d

    real = face2d.macro2

    def broken(ctx, left, bottom, **kwargs):
        left, bottom = left.copy(), bottom.copy()
        n = ctx.geometry.grid_n
        if edge == "left":
            left[n + 1] = np.nan
        else:
            bottom[n] = np.nan
        return real(ctx, left, bottom, **kwargs)

    monkeypatch.setattr(face2d, "macro2", broken)
    with pytest.raises(BoundaryRelationViolated) as err:
        construct_2d(input_frame(haldane, CellGeometry(2, 4)), haldane)
    assert tuple(err.value.details["point"]) == point
    assert np.isnan(err.value.details["residual"])
