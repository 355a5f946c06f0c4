"""Unit tests for the degree-zero boundary extension machinery."""
import numpy as np
import pytest

from blochframe.cells import CellGeometry
from blochframe.cell3d import DiskDomain
from blochframe.errors import ChartSeamMismatch, GridTooCoarse, NonzeroDegree
from blochframe.extension import (
    LoopDomain,
    chart_backward,
    chart_forward,
    extend_unitary_cone,
    phase_lift_cyclic,
    rotation_to,
    select_stereographic_point,
    su2_from_column,
)

from conftest import planted_loop


def _unit(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


@pytest.mark.parametrize("r", [-3, 0, 2])
def test_phase_lift_cyclic_counts_turns(r):
    ts = np.arange(32) / 32
    values = np.exp(2j * np.pi * r * ts) * np.exp(0.3j * np.sin(2 * np.pi * ts))
    lift, winding, defect = phase_lift_cyclic(values)
    assert winding == r
    assert abs(defect) < 1e-12
    assert len(lift) == 33
    assert lift[-1] - lift[0] == pytest.approx(2 * np.pi * r, abs=1e-12)
    # consecutive lift values really are continuous
    assert np.max(np.abs(np.diff(lift))) < 0.5 * np.pi


def test_phase_lift_cyclic_refuses_fast_loops():
    ts = np.arange(16) / 16
    with pytest.raises(GridTooCoarse) as exc:
        phase_lift_cyclic(np.exp(2j * np.pi * 5 * ts))
    assert exc.value.details["step"] >= 0.5 * np.pi
    with pytest.raises(ValueError):
        phase_lift_cyclic(np.array([1.0, 0.0, 1.0], dtype=complex))


def test_loop_domain_rejects_winding_determinant():
    ts = np.arange(24) / 24
    dom = LoopDomain(24, np.array([0.0]))
    with pytest.raises(NonzeroDegree) as exc:
        dom.lift(np.exp(2j * np.pi * ts))
    assert exc.value.details["degree"] == 1


def test_loop_domain_interpolates_cyclically():
    nodal = np.arange(8.0)
    dom = LoopDomain(8, np.array([2.0, 2.25, 7.5, 8.0]))
    got = dom.interp(nodal)
    # across the seam the neighbours are node 7 and node 0
    assert np.allclose(got, [2.0, 2.25, 3.5, 0.0])


def test_chart_roundtrip(rng):
    for dim in (2, 3):
        p = _unit(rng, dim)
        for _ in range(20):
            v = _unit(rng, dim)
            if np.linalg.norm(v - p) < 0.3:
                continue
            w = chart_forward(p, v)
            back = chart_backward(p, w)
            assert np.linalg.norm(back - v) < 1e-12
        # the antipode maps to the chart origin
        assert np.linalg.norm(chart_forward(p, -p)) < 1e-12


def test_select_stereographic_point_prefers_the_antipode(rng):
    c = _unit(rng, 2)
    samples = np.broadcast_to(c, (10, 2))
    p, info = select_stereographic_point(samples)
    assert np.linalg.norm(p + c) < 1e-12
    assert info["source"] == "mean"


def test_select_stereographic_point_margins_and_determinism(rng):
    samples = np.array([_unit(rng, 2) for _ in range(40)])
    p1, _ = select_stereographic_point(samples, need_line_margin=True, seed=7)
    p2, _ = select_stereographic_point(samples, need_line_margin=True, seed=7)
    assert np.array_equal(p1, p2)
    assert np.min(np.linalg.norm(samples - p1, axis=-1)) >= 0.1
    w = chart_forward(p1, samples)
    ip = 1j * p1
    t = np.real(np.einsum("qi,i->q", w, np.conj(ip)))
    clear = np.sqrt(np.maximum(np.sum(np.abs(w) ** 2, -1) - t**2, 0.0))
    assert np.all(clear / np.linalg.norm(w, axis=-1) >= 0.05 - 1e-12)


def test_rotation_to_moves_the_axis(rng):
    u = _unit(rng, 3)
    targets = np.array([_unit(rng, 3) for _ in range(10)])
    rots = rotation_to(u, targets)
    for a, c in zip(rots, targets):
        assert np.linalg.norm(a @ u - c) < 1e-12
        assert np.linalg.norm(a.conj().T @ a - np.eye(3)) < 1e-12
        assert np.linalg.det(a) == pytest.approx(1.0, abs=1e-12)
        # identity on the complement of span{u, c}
        b2 = c - np.vdot(u, c) * u
        b2 = b2 / max(np.linalg.norm(b2), 1e-300)
        w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        w = w - np.vdot(u, w) * u - np.vdot(b2, w) * b2
        if np.linalg.norm(w) > 1e-6:
            w = w / np.linalg.norm(w)
            assert np.linalg.norm(a @ w - w) < 1e-10
    assert np.linalg.norm(rotation_to(u, u) - np.eye(3)) < 1e-12


def test_su2_from_column(rng):
    c = _unit(rng, 2)
    g = su2_from_column(c)
    assert np.allclose(g[:, 0], c)
    assert np.linalg.det(g) == pytest.approx(1.0, abs=1e-13)
    assert np.linalg.norm(g.conj().T @ g - np.eye(2)) < 1e-13
    batch = np.array([_unit(rng, 2) for _ in range(5)])
    gs = su2_from_column(batch)
    assert gs.shape == (5, 2, 2)
    assert np.allclose(gs[:, :, 0], batch)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_extend_unitary_cone_boundary_and_apex(rng, m):
    ln = 64
    ts = np.arange(ln) / ln
    nodes = planted_loop(ts, m, 0, rng, scale=0.3, order=2)
    # queries: all nodes at sigma = 1, plus apex copies at three loop spots
    t_units = np.concatenate([np.arange(ln, dtype=float), [3.0, 17.0, 40.0]])
    sigma = np.concatenate([np.ones(ln), np.zeros(3)])
    dom = LoopDomain(ln, t_units)
    values, diag = extend_unitary_cone(nodes, dom, sigma, seed=0)
    assert values.shape == (ln + 3, m, m)
    eye = np.eye(m)
    for v in values:
        assert np.linalg.norm(v.conj().T @ v - eye) < 1e-12
    for j in range(ln):
        assert np.linalg.norm(values[j] - nodes[j]) < 1e-10
    # the apex value cannot depend on the loop coordinate
    assert np.linalg.norm(values[ln] - values[ln + 1]) < 1e-12
    assert np.linalg.norm(values[ln] - values[ln + 2]) < 1e-12
    assert abs(diag["det_lift"]["closure_defect"]) < 1e-10


def test_extend_unitary_cone_interior_continuity(rng):
    ln = 48
    ts = np.arange(ln) / ln
    nodes = planted_loop(ts, 2, 0, rng, scale=0.3, order=2)
    t_fine = np.linspace(0.0, ln, 200)
    for s in (0.25, 0.6, 0.9):
        dom = LoopDomain(ln, t_fine)
        vals, _ = extend_unitary_cone(nodes, dom, np.full(200, s))
        steps = np.linalg.norm(np.diff(vals, axis=0), axis=(1, 2))
        assert np.max(steps) < 0.5


def test_extend_unitary_cone_refuses_nonzero_degree(rng):
    ln = 64
    ts = np.arange(ln) / ln
    nodes = planted_loop(ts, 2, 1, rng, scale=0.2, order=1)
    dom = LoopDomain(ln, np.array([0.0]))
    with pytest.raises(NonzeroDegree):
        extend_unitary_cone(nodes, dom, np.array([0.5]))


# ---------------------------------------------------------------------------
# half-cube surface domain used by the 3d construction


def _surface_phase(g, n_side):
    x = 2 * np.pi * np.asarray(g, dtype=float) / n_side
    return 0.4 * np.sin(x[0]) + 0.3 * np.cos(x[1]) + 0.2 * np.sin(x[2])


def test_disk_domain_lifts_single_valued_phases():
    geo = CellGeometry(3, 4)
    dom = DiskDomain(geo)
    phases = np.array([_surface_phase(g, geo.n_side) for g in dom.node_globals])
    values = np.exp(1j * phases)
    theta, info = dom.lift(values)
    assert info["seam_defect"] < 1e-12
    assert info["lift_defect"] < 1e-10
    assert np.max(np.abs(theta - phases)) < 1e-9


def test_disk_domain_detects_seam_corruption():
    geo = CellGeometry(3, 4)
    dom = DiskDomain(geo)
    values = np.array(
        [np.exp(1j * _surface_phase(g, geo.n_side)) for g in dom.node_globals]
    )
    shared = np.flatnonzero(np.bincount(dom.node_of_point) > 1)[0]
    values[np.flatnonzero(dom.node_of_point == shared)[1]] *= np.exp(0.5j)
    with pytest.raises(ChartSeamMismatch):
        dom.lift(values)


def test_disk_domain_refuses_undersampled_phases():
    geo = CellGeometry(3, 4)
    dom = DiskDomain(geo)
    phases = np.array(
        [10.0 * _surface_phase(g, geo.n_side) for g in dom.node_globals]
    )
    with pytest.raises(GridTooCoarse):
        dom.lift(np.exp(1j * phases))


def test_disk_domain_covers_every_surface_point():
    geo = CellGeometry(3, 4)
    dom = DiskDomain(geo)
    assert sorted(set(dom.node_of_point)) == list(range(len(dom.points)))
