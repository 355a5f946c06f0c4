"""Unit tests for the degree-zero boundary extension machinery."""
import numpy as np
import pytest

from blochframe.cells import CellGeometry
from blochframe.errors import GridTooCoarse, NonzeroDegree
from blochframe.extension import (
    CHORDAL_MARGIN,
    LINE_MARGIN,
    N_CANDIDATES,
    BoundaryDomain,
    _line_clearance,
    chart_backward,
    chart_forward,
    extend_unitary_cone,
    rotation_to,
    select_stereographic_point,
    su2_from_column,
)
from conftest import loop_nodes, planted_loop


def _unit(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


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


def _stereographic_point_drawn_up_front(samples, need_line_margin, seed):
    """The selection as it was written before the draws were deferred: all
    ``N_CANDIDATES`` random candidates drawn one call at a time before any
    is scored, the mean's antipode first."""
    def score(p):
        s = float(np.min(np.linalg.norm(samples - p, axis=-1))) / CHORDAL_MARGIN
        if need_line_margin:
            w = chart_forward(p, samples)
            s = min(s, float(np.min(_line_clearance(p, w))) / LINE_MARGIN)
        return s

    dim = samples.shape[-1]
    mean = np.mean(samples, axis=0)
    norm = np.linalg.norm(mean)
    candidates = [-mean / norm] if norm > 1e-8 else []
    rng = np.random.default_rng(seed)
    for _ in range(N_CANDIDATES):
        raw = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        candidates.append(raw / np.linalg.norm(raw))
    best, best_score = None, -np.inf
    for idx, p in enumerate(candidates):
        s = score(p)
        if idx == 0 and norm > 1e-8 and s >= 1.0:
            return p, {"source": "mean", "margin_score": s}
        if s > best_score:
            best, best_score = p, s
    return best, {"source": "random", "margin_score": best_score}


@pytest.mark.parametrize("spread, source", [(1.0, "mean"), (0.1, "random")])
def test_select_stereographic_point_defers_the_random_draws(rng, spread, source):
    """Drawing the random candidates only once the mean's antipode fails,
    in one call, picks the same point with the same record, bit for bit,
    on a sample set whose mean's antipode clears both margins and on one
    whose antipode does not."""
    c = _unit(rng, 2)
    samples = c + spread * (rng.standard_normal((40, 2)) + 1j * rng.standard_normal((40, 2)))
    samples /= np.linalg.norm(samples, axis=-1, keepdims=True)
    p, info = select_stereographic_point(samples, need_line_margin=True, seed=5)
    want_p, want_info = _stereographic_point_drawn_up_front(samples, True, 5)
    assert info["source"] == source
    assert np.array_equal(p, want_p)
    assert info == want_info


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


def _planted_nodes(dom, m, winding, rng, **kw):
    """A planted loop (see conftest) on the boundary of a 2d domain."""
    ln = 6 * dom.geo.grid_n
    return loop_nodes(dom, planted_loop(np.arange(ln) / ln, m, winding, rng, **kw))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_extend_unitary_cone_boundary_and_apex(rng, m):
    dom = BoundaryDomain(CellGeometry(2, 12))
    nodes = _planted_nodes(dom, m, 0, rng, scale=0.3, order=2)
    values, diag = extend_unitary_cone(nodes, dom, seed=0)
    assert values.shape == (dom.mask.size, m, m)
    eye = np.eye(m)
    for v in values:
        assert np.linalg.norm(v.conj().T @ v - eye) < 1e-12
    assert np.max(np.linalg.norm(values[dom.mask.ravel()] - nodes, axis=(1, 2))) < 1e-10
    # the apex value cannot depend on where the apex reads the boundary
    apex = int(np.flatnonzero(dom.sigma == 0)[0])
    for node in (3, 17, 40):
        dom._corner_ids[apex] = node
        moved, _ = extend_unitary_cone(nodes, dom, seed=0)
        assert np.linalg.norm(moved[apex] - values[apex]) < 1e-12
    assert diag["det_lift"]["lift_defect"] < 1e-10


def test_extend_unitary_cone_interior_continuity(rng):
    geo = CellGeometry(2, 8)
    dom = BoundaryDomain(geo)
    nodes = _planted_nodes(dom, 2, 0, rng, scale=0.3, order=2)
    vals, _ = extend_unitary_cone(nodes, dom)
    vals = vals.reshape(geo.cell_shape + (2, 2))
    for axis in (0, 1):
        steps = np.linalg.norm(np.diff(vals, axis=axis), axis=(-2, -1))
        assert np.max(steps) < 0.5


def test_extend_unitary_cone_refuses_nonzero_degree(rng):
    dom = BoundaryDomain(CellGeometry(2, 12))
    nodes = _planted_nodes(dom, 2, 1, rng, scale=0.2, order=1)
    with pytest.raises(NonzeroDegree) as exc:
        extend_unitary_cone(nodes, dom)
    assert exc.value.details["degree"] == 1


# ---------------------------------------------------------------------------
# the boundary domain of the 2d square cell and the 3d half cube


def _surface_phase(g, n_side):
    x = 2 * np.pi * np.asarray(g, dtype=float).T / n_side
    return 0.4 * np.sin(x[0]) + 0.3 * np.cos(x[1]) + 0.2 * np.sin(x[-1])


@pytest.mark.parametrize("d", [2, 3])
def test_boundary_domain_lifts_single_valued_phases(d):
    geo = CellGeometry(d, 8)
    dom = BoundaryDomain(geo)
    # zero at the origin and past pi at every other boundary point where
    # k_1 or k_2 is 1/2: the lift starts at the origin's principal value
    x = 2 * np.pi * dom.points.T / geo.n_side
    phases = 2.5 * (1 - np.cos(x[0])) + 2.0 * (1 - np.cos(x[1])) + 0.4 * np.sin(x[-1])
    theta, info = dom.lift(np.exp(1j * phases))
    assert info["degree"] == 0
    assert info["lift_defect"] < 1e-10
    assert info["max_step"] < 0.5 * np.pi
    assert np.max(np.abs(theta - phases)) < 1e-9


@pytest.mark.parametrize("d, grid_n", [(2, 16), (3, 8)])
def test_boundary_domain_lift_equals_the_node_by_node_tree_walk(rng, d, grid_n):
    """Reference: each node's lift is its parent's plus the tree step, taken
    one node at a time once the parent is lifted; equal bit for bit."""
    geo = CellGeometry(d, grid_n)
    dom = BoundaryDomain(geo)
    values = np.exp(1j * (rng.uniform(-np.pi, np.pi)
                          + 3.0 * _surface_phase(dom.points, geo.n_side)))
    parent = dom._parent.tolist()
    step = np.angle(values / values[dom._parent]).tolist()
    root = next(node for node, up in enumerate(parent) if up == node)
    walk = {root: float(np.angle(values[root]))}
    while len(walk) < len(parent):
        for node, up in enumerate(parent):
            if node not in walk and up in walk:
                walk[node] = walk[up] + step[node]
    theta, _ = dom.lift(values)
    assert theta.tolist() == [walk[node] for node in range(len(parent))]


@pytest.mark.parametrize("d", [2, 3])
def test_boundary_domain_refuses_undersampled_phases(d):
    geo = CellGeometry(d, 4)
    dom = BoundaryDomain(geo)
    phases = 10.0 * _surface_phase(dom.points, geo.n_side)
    with pytest.raises(GridTooCoarse):
        dom.lift(np.exp(1j * phases))


@pytest.mark.parametrize("r", [-2, 1, 3])
def test_boundary_domain_counts_the_degree_along_the_loop(r):
    geo = CellGeometry(2, 8)
    dom = BoundaryDomain(geo)
    ln = 6 * geo.grid_n
    ts = np.arange(ln) / ln
    loop = np.exp(2j * np.pi * r * ts) * np.exp(0.3j * np.sin(2 * np.pi * ts))
    _, info = dom.lift(loop_nodes(dom, loop))
    assert info["degree"] == r
    assert info["lift_defect"] < 1e-10
    # the count is signed: the reversed loop winds the other way
    assert dom.lift(loop_nodes(dom, loop[::-1]))[1]["degree"] == -r


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("bad", [0.0, np.nan], ids=["zero", "nan"])
def test_boundary_domain_lift_refuses_a_vanishing_or_nan_value(d, bad):
    dom = BoundaryDomain(CellGeometry(d, 4))
    values = np.ones(len(dom.points), dtype=complex)
    values[5] = bad
    with pytest.raises(ValueError, match="vanishing or non-finite"):
        dom.lift(values)


@pytest.mark.parametrize("d", [2, 3])
def test_boundary_domain_interpolates_at_the_radial_projection(rng, d):
    geo = CellGeometry(d, 4)
    dom = BoundaryDomain(geo)
    n = geo.grid_n
    # boundary points read their own node, bit for bit
    nodal = rng.standard_normal((len(dom.points), 2))
    assert np.array_equal(dom.interp(nodal)[dom.mask.ravel()], nodal)
    # affine nodal data is reproduced at the projection of every other point
    coef, shift = rng.standard_normal((d, 2)), rng.standard_normal(2)
    g = geo.cell_points().reshape(-1, d)
    apex = np.array([n / 2] + [0] * (d - 1))
    away = dom.sigma > 0
    proj = apex + (g[away] - apex) / dom.sigma[away, None]
    got = dom.interp(dom.points @ coef + shift)[away]
    assert np.max(np.abs(got - (proj @ coef + shift))) < 1e-12


@pytest.mark.parametrize("d", [2, 3])
def test_boundary_domain_covers_every_boundary_point_once(d):
    geo = CellGeometry(d, 4)
    dom = BoundaryDomain(geo)
    ids = dom.node_id[geo.cell_index(dom.points)]
    assert np.array_equal(ids, np.arange(len(dom.points)))
    assert np.array_equal(dom.node_id >= 0, geo.boundary_mask())


@pytest.mark.parametrize("d", [2, 3])
def test_boundary_domain_cone_coordinate_covers_the_cell(d):
    geo = CellGeometry(d, 4)
    dom = BoundaryDomain(geo)
    sigma = dom.sigma.reshape(geo.cell_shape)
    assert np.all((0.0 <= sigma) & (sigma <= 1.0))
    assert np.array_equal(sigma == 1.0, geo.boundary_mask())
    assert np.flatnonzero(sigma == 0.0).tolist() == [
        np.ravel_multi_index(geo.cell_index((geo.grid_n // 2,) + (0,) * (d - 1)),
                             geo.cell_shape)
    ]
    with pytest.raises(ValueError):
        BoundaryDomain(CellGeometry(1, 4))
