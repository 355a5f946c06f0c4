"""Grid geometry: effective cell, reductions, TRIMs, boundary walks."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from blochframe import CellGeometry
from blochframe.extension import BoundaryDomain

from conftest import boundary_loop


def in_cell(geo, g):
    # independent membership predicate: first coordinate in [0, n], the
    # others in [-n, n]
    n = geo.grid_n
    return 0 <= g[0] <= n and all(-n <= x <= n for x in g[1:])


def brute_force_reductions(geo, g):
    """All (s, lam) with (-1)^s (g - N lam) inside the effective cell."""
    big = geo.n_side
    found = []
    span = range(-3, 4)
    for s in (0, 1):
        for lam in itertools.product(span, repeat=geo.d):
            gp = tuple((-1) ** s * (gi - big * li) for gi, li in zip(g, lam))
            if in_cell(geo, gp):
                found.append((s, lam, gp))
    return sorted(found)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_reduction_matches_brute_force(d, rng):
    geo = CellGeometry(d, 4)
    big = geo.n_side
    for _ in range(200):
        g = tuple(int(x) for x in rng.integers(-2 * big, 2 * big + 1, size=d))
        expected = brute_force_reductions(geo, g)
        got = [(r.s, r.lam, r.k_prime) for r in geo.all_reductions(g)]
        assert sorted(got) == expected
        # canonical pick is the (s, lam)-smallest
        first = geo.all_reductions(g)[0]
        assert (first.s, first.lam, first.k_prime) == min(
            got, key=lambda t: (t[0], t[1])
        )


@pytest.mark.parametrize("d", [1, 2, 3])
def test_reduction_reconstructs_the_point(d, rng):
    geo = CellGeometry(d, 6)
    big = geo.n_side
    for _ in range(100):
        g = tuple(int(x) for x in rng.integers(-2 * big, 2 * big + 1, size=d))
        r = geo.all_reductions(g)[0]
        rebuilt = tuple(
            (-1) ** r.s * gp + big * li for gp, li in zip(r.k_prime, r.lam)
        )
        assert rebuilt == g
        assert in_cell(geo, r.k_prime)


@given(
    d=st.integers(1, 3),
    grid_n=st.sampled_from([2, 4, 8]),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_reduction_property(d, grid_n, seed):
    geo = CellGeometry(d, grid_n)
    big = geo.n_side
    g = tuple(
        int(x)
        for x in np.random.default_rng(seed).integers(-3 * big, 3 * big, size=d)
    )
    r = geo.all_reductions(g)[0]
    assert in_cell(geo, r.k_prime)
    assert g == tuple(
        (-1) ** r.s * gp + big * li for gp, li in zip(r.k_prime, r.lam)
    )


@pytest.mark.parametrize("d,count", [(1, 2), (2, 6), (3, 18)])
def test_trim_enumeration(d, count):
    geo = CellGeometry(d, 4)
    trims = geo.trims()
    assert len(trims) == count
    assert len(set(trims)) == count
    n = geo.grid_n
    for t in trims:
        assert t[0] in (0, n)
        assert all(x in (-n, 0, n) for x in t[1:])
        assert geo.is_trim(t)
        lam = geo.trim_lambda(t)
        assert all(2 * x == geo.n_side * l for x, l in zip(t, lam))


def test_non_trims_rejected():
    geo = CellGeometry(2, 4)
    assert not geo.is_trim((1, 0))
    assert not geo.is_trim((0, 3))


def test_boundary_loop_shape():
    # the 2d boundary nodes sorted by angle about the apex close one loop of
    # unit steps, the order in which the tests plant boundary loops
    for grid_n in (2, 4, 16):
        geo = CellGeometry(2, grid_n)
        n = geo.grid_n
        dom = BoundaryDomain(geo)
        loop = [tuple(g) for g in dom.points[boundary_loop(dom)].tolist()]
        assert len(loop) == 6 * n
        assert loop[0] == (0, 0)
        assert len(set(loop)) == len(loop)
        for a, b in zip(loop, loop[1:] + loop[:1]):
            step = (b[0] - a[0], b[1] - a[1])
            assert abs(step[0]) + abs(step[1]) == 1
        # the six corner points appear in cyclic order
        corners = [(0, 0), (0, -n), (n, -n), (n, 0), (n, n), (0, n)]
        idx = [loop.index(c) for c in corners]
        assert idx[0] == 0
        assert sorted(idx[1:]) == idx[1:] or sorted(idx[1:], reverse=True) == idx[1:]


def test_cell_point_index_roundtrip():
    for d in (1, 2, 3):
        geo = CellGeometry(d, 2)
        pts = geo.cell_points()
        assert pts.shape == geo.cell_shape + (d,)
        flat = pts.reshape(-1, d)
        assert np.array_equal(pts[geo.cell_index(flat)], flat)
        flat = [tuple(g) for g in flat.tolist()]
        expected = (geo.grid_n + 1) * (geo.n_side + 1) ** (d - 1)
        assert len(flat) == expected
        assert len(set(flat)) == len(flat)


def test_grid_must_be_even_and_positive():
    with pytest.raises(Exception):
        CellGeometry(2, 3)
    with pytest.raises(Exception):
        CellGeometry(4, 4)
