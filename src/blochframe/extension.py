"""Cone extension of unitary-valued boundary maps into a cell.

A map on the boundary of a star-shaped cell is extended inward by pulling
each boundary value toward a base point along a stereographic chart of the
sphere it lives on.  Writing ``sigma`` for the radial coordinate (1 on the
boundary, 0 at the apex) and ``psi_p`` for stereographic projection from a
base point ``p``, the scalar and column extensions are

    phase:   F(k) = exp(i sigma(k) theta(t(k)))      (theta a continuous lift),
    sphere:  F(k) = psi_p^{-1}( sigma(k) psi_p(phi(t(k))) ).

A full U(m) map is extended by recursion on m: the determinant phase is
split off and cone-extended as a scalar, the first column of the remaining
SU(m) part is cone-extended on the unit sphere of C^m, a pointwise rotation
completes the column to a unitary, and the stripped (m-1) x (m-1) remainder
recurses.  For m = 2 the first column determines the whole matrix, so the
recursion bottoms out there.

One domain adapter, :class:`BoundaryDomain`, serves the square cell in 2d
and the half cube in 3d; :func:`boundary_domain` builds it once per cell
geometry.  It lifts arguments along a spanning tree of the
boundary grid graph and reads nodal data at the radial projection of each
cell grid point onto the boundary.  Its lift is the package's one argument
lift: it also counts the degree of the boundary determinant, the one
obstruction to the extension, which the face construction reads to remove
it and the extension refuses when nonzero.
"""

from functools import lru_cache
from itertools import product, zip_longest

import numpy as np

from .errors import GridTooCoarse, NonzeroDegree, NoStereographicPoint

__all__ = [
    "BoundaryDomain",
    "boundary_domain",
    "select_stereographic_point",
    "chart_forward",
    "chart_backward",
    "rotation_to",
    "su2_from_column",
    "extend_unitary_cone",
]

TWO_PI = 2.0 * np.pi

# Margins of a stereographic base point, and the random points tried after
# the antipode of the sample mean (select_stereographic_point).
CHORDAL_MARGIN = 0.1
LINE_MARGIN = 0.05
N_CANDIDATES = 64


# ---------------------------------------------------------------------------
# the boundary domain


class BoundaryDomain:
    """Boundary adapter of the cone extension on a 2d or 3d effective cell.

    The nodes are the cell's boundary grid points, each listed once in
    row-major order: ``mask`` marks them in the cell array, ``points``
    ``(K, d)`` lists them and ``node_id`` (cell-shaped, -1 off the boundary)
    numbers them.  The queries are every cell grid point, row-major.  Their
    cone coordinate ``sigma`` is 0 at the apex ``(grid_n / 2, 0, ...)`` and
    1 on the boundary; nodal data is read at the radial projection of a
    query onto the boundary, by multilinear interpolation on a face that
    holds the projection.
    """

    def __init__(self, geo):
        if geo.d not in (2, 3):
            raise ValueError("BoundaryDomain needs a two- or three-dimensional cell")
        d, n = geo.d, geo.grid_n
        self.geo = geo
        self.mask = geo.boundary_mask()
        self.points = geo.cell_points()[self.mask]
        self.node_id = np.full(geo.cell_shape, -1)
        self.node_id[self.mask] = np.arange(len(self.points))

        # neighbours of each node along -e_1 .. -e_d, then +e_1 .. +e_d
        padded = np.pad(self.node_id, 1, constant_values=-1)
        inner = (slice(1, -1),) * d
        nbr = np.stack(
            [np.roll(padded, -step, axis=axis)[inner][self.mask]
             for step in (-1, 1) for axis in range(d)],
            axis=-1,
        )
        low, axis = np.nonzero(nbr[:, d:] >= 0)
        self._edges = np.stack([low, nbr[low, d + axis]], axis=-1)

        # breadth-first spanning tree from the origin; the neighbour order
        # fixes which parent each node's lift is continued from
        root = int(self.node_id[geo.cell_index((0,) * d)])
        count = len(self.points)
        parent = [-1] * count
        parent[root] = root
        first = [-1] * count
        order = [root]
        for cur in order:
            for nxt in nbr[cur].tolist():
                if nxt >= 0 and parent[nxt] < 0:
                    parent[nxt] = cur
                    if first[cur] < 0:
                        first[cur] = nxt
                    order.append(nxt)
        if len(order) != count:
            raise RuntimeError("boundary grid graph is not connected")
        self._root = root
        self._parent = np.array(parent)

        # the tree as chains that run down each node's first child, grouped
        # in rounds: a chain hangs off the root (round 0) or off a node of
        # the round before.  Each round is the chains' parent nodes and
        # their nodes padded with ``count`` into a (length, chains) array.
        rounds, where = [], {root: -1}
        for head in order[1:]:
            if head in where:
                continue
            chain = [head]
            while first[chain[-1]] >= 0:
                chain.append(first[chain[-1]])
            r = where[parent[head]] + 1
            where.update(dict.fromkeys(chain, r))
            if r == len(rounds):
                rounds.append([])
            rounds[r].append(chain)
        self._rounds = []
        for chains in rounds:
            nodes = np.array(list(zip_longest(*chains, fillvalue=count)))
            self._rounds.append((self._parent[nodes[0]], nodes))

        # cone coordinate and radial projection (b) of every cell point g:
        # in units where the cell is [-n, n]^d about the apex, g sits at
        # radius max |rel| and projects to n / radius times itself
        g = geo.cell_points().reshape(-1, d)
        rel = np.concatenate([2 * g[:, :1] - n, g[:, 1:]], axis=1)
        radius = np.max(np.abs(rel), axis=1)
        self.sigma = radius / n
        apex = np.array([n / 2] + [0] * (d - 1))
        b = apex + (g - apex) * (n / np.maximum(radius, 1))[:, None]
        lo = np.array([0] + [-n] * (d - 1))
        hi = np.array([n] * d)
        # b lies on the face normal to an axis where |rel| reaches the
        # radius (the apex reads at the origin); interpolate along the others
        face = np.argmax(np.abs(rel), axis=1)
        rows = np.arange(len(g))
        base = np.clip(np.floor(b).astype(int), lo, hi - 1)
        base[rows, face] = np.where(rel[rows, face] > 0, hi[face], lo[face])
        free = np.array([[j for j in range(d) if j != k] for k in range(d)])[face]
        frac = np.take_along_axis(b - base, free, axis=1)
        ids, weights = [], []
        for bits in product((0, 1), repeat=d - 1):
            offset = np.zeros_like(base)
            np.put_along_axis(offset, free, np.broadcast_to(bits, free.shape), axis=1)
            ids.append(self.node_id[geo.cell_index(base + offset)])
            weights.append(np.prod(np.where(bits, frac, 1.0 - frac), axis=1))
        self._corner_ids = np.stack(ids, axis=-1)
        self._weights = np.stack(weights, axis=-1)

    def lift(self, values):
        """Continuous argument lift of nodal scalars along the spanning tree.

        Returns ``(theta, info)``.  A vanishing or non-finite value raises
        :class:`ValueError`, and any step between neighbouring nodes at or
        above ``pi / 2`` raises :class:`GridTooCoarse`.  Around the cycle
        that each edge off the tree closes, the steps add up to whole turns:
        ``info["degree"]`` is their count, signed counterclockwise about the
        apex, and ``info["lift_defect"]`` the largest closure left after the
        whole turns.  On the 2d loop the count is the degree of the values;
        on the closed 3d surface steps below ``pi / 2`` leave every cycle at
        zero turns.  ``theta`` is continuous along the tree edges only.
        """
        values = np.asarray(values)
        bad = ~(np.abs(values) >= 1e-13)  # NaN fails every comparison
        if np.any(bad):
            raise ValueError(
                f"argument lift of a vanishing or non-finite value at boundary "
                f"point {tuple(self.points[np.argmax(bad)].tolist())}"
            )
        # node by node, theta = theta[parent] + step in root-to-leaf order;
        # accumulating down each chain adds in that order too
        tree_step = np.append(np.angle(values / values[self._parent]), 0.0)
        theta = np.empty(len(tree_step))
        theta[self._root] = np.angle(values[self._root])
        for heads, nodes in self._rounds:
            rows = np.vstack([theta[heads], tree_step[nodes]])
            theta[nodes] = np.add.accumulate(rows)[1:]
        theta = theta[:-1]
        low, high = self._edges.T
        step = np.angle(values[high] / values[low])
        worst_step = float(np.max(np.abs(step)))
        if not worst_step < 0.5 * np.pi:
            raise GridTooCoarse(
                f"boundary phase step {worst_step:.3f} rad exceeds pi/2; refine the grid",
                step=worst_step,
            )
        closure = theta[low] + step - theta[high]
        turns = np.rint(closure / TWO_PI)
        # +1 where an edge that carries turns runs counterclockwise about
        # the apex; on the 2d loop one edge closes the cycle
        e = np.flatnonzero(turns)
        x, y = (2 * self.points[low[e], :2] - (self.geo.grid_n, 0)).T
        dx, dy = (self.points[high[e], :2] - self.points[low[e], :2]).T
        degree = int(np.sum(turns[e] * np.sign(x * dy - y * dx)))
        return theta, {"max_step": worst_step,
                       "lift_defect": float(np.max(np.abs(closure - TWO_PI * turns))),
                       "degree": degree}

    def interp(self, nodal):
        """Nodal data (leading axis over nodes) at every query point."""
        nodal = np.asarray(nodal)
        w = self._weights.reshape(self._weights.shape + (1,) * (nodal.ndim - 1))
        return np.sum(w * nodal[self._corner_ids], axis=1)


# ---------------------------------------------------------------------------
# stereographic machinery on the unit sphere of C^D


@lru_cache(maxsize=4)
def boundary_domain(geo):
    """The :class:`BoundaryDomain` of the cell geometry ``geo``, built once
    and shared by every construction on that geometry (the faces of a 3d
    cell share the 2d one).  Callers only read it."""
    return BoundaryDomain(geo)


def _real_ip(a, b):
    """Real inner product on C^D viewed as R^{2D}; broadcasts over rows."""
    return np.real(np.sum(np.conj(a) * b, axis=-1))


def chart_forward(p, v):
    """Stereographic chart about ``p``: sphere minus ``p`` to the plane ``p^perp``."""
    den = _real_ip(v, p) - 1.0
    return p - (v - p) / den[..., None]


def chart_backward(p, w):
    """Inverse stereographic chart; output is normalized onto the sphere."""
    diff = w - p
    d2 = np.sum(np.abs(diff) ** 2, axis=-1)
    v = p + 2.0 * diff / d2[..., None]
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _line_clearance(p, w, cut=1e-9):
    """Sine of the angle between chart vectors ``w`` and the line R(i p).

    The inverse chart sends that line to the circle of complex multiples of
    ``-p``, where completing a column by rotation is ill posed, so the cone
    (which scales ``w`` and preserves its direction) must keep clear of it.
    Vectors shorter than ``cut`` are harmless and report full clearance.
    """
    ip = 1j * p
    norms = np.linalg.norm(w, axis=-1)
    t = _real_ip(np.broadcast_to(ip, w.shape), w)
    perp2 = np.maximum(norms**2 - t**2, 0.0)
    out = np.ones_like(norms)
    big = norms > cut
    out[big] = np.sqrt(perp2[big]) / norms[big]
    return out


def select_stereographic_point(samples, need_line_margin=False, seed=0):
    """Choose a chart base point well separated from all boundary samples.

    The first candidate is the antipode of the normalized sample mean, which
    in particular reproduces a constant map exactly (its chart image is the
    origin, fixed by the cone).  Only if it violates a margin are
    ``N_CANDIDATES`` random unit vectors drawn and tried, and the one
    maximizing the worst margin is kept.

    Margins: every sample must lie at chordal distance at least
    ``CHORDAL_MARGIN`` from ``p``; when ``need_line_margin`` is set (column
    completion by rotation follows), every chart image must additionally make
    an angle of at least ``asin(LINE_MARGIN)`` with the line R(i p).

    Raises :class:`NoStereographicPoint` when no candidate satisfies both.
    """
    samples = np.asarray(samples, dtype=complex)
    dim = samples.shape[-1]

    def score(p):
        chordal = np.linalg.norm(samples - p, axis=-1)
        s = float(np.min(chordal)) / CHORDAL_MARGIN
        if need_line_margin:
            w = chart_forward(p, samples)
            s = min(s, float(np.min(_line_clearance(p, w))) / LINE_MARGIN)
        return s

    best, best_score = None, -np.inf
    mean = np.mean(samples, axis=0)
    norm = np.linalg.norm(mean)
    if norm > 1e-8:
        p = -mean / norm
        s = score(p)
        if s >= 1.0:
            return p, {"source": "mean", "margin_score": s}
        if s > best_score:
            best, best_score = p, s
    # drawn only when the mean fails: real, then imaginary part per candidate
    draws = np.random.default_rng(seed).standard_normal((N_CANDIDATES, 2, dim))
    for re, im in draws:
        raw = re + 1j * im
        p = raw / np.linalg.norm(raw)
        s = score(p)
        if s > best_score:
            best, best_score = p, s
    if best_score >= 1.0:
        return best, {"source": "random", "margin_score": best_score}
    raise NoStereographicPoint(
        "no admissible stereographic base point found "
        f"(best margin score {best_score:.3f} of 1.0)",
        margin_score=best_score,
    )


def rotation_to(u, targets):
    """Unitaries rotating the fixed unit vector ``u`` onto each target column.

    Each rotation is the identity on the orthogonal complement of the complex
    plane spanned by ``u`` and the target, has determinant one, and maps ``u``
    to the target exactly.  ``targets`` may be a single vector or a batch
    ``(Q, m)``; the result has matching leading shape.
    """
    u = np.asarray(u, dtype=complex)
    targets = np.asarray(targets, dtype=complex)
    single = targets.ndim == 1
    c = np.atleast_2d(targets)
    m = u.shape[0]
    alpha = c @ np.conj(u)
    r = c - alpha[:, None] * u[None, :]
    beta = np.linalg.norm(r, axis=-1)
    v = np.zeros_like(c)
    ok = beta > 1e-15
    v[ok] = r[ok] / beta[ok, None]
    eye = np.eye(m, dtype=complex)
    uu = np.outer(u, np.conj(u))
    vv = np.einsum("qi,qj->qij", v, np.conj(v))
    vu = np.einsum("qi,j->qij", v, np.conj(u))
    uv = np.einsum("i,qj->qij", u, np.conj(v))
    a = (
        eye[None, :, :]
        + (alpha - 1.0)[:, None, None] * uu[None, :, :]
        + (np.conj(alpha) - 1.0)[:, None, None] * vv
        + beta[:, None, None] * (vu - uv)
    )
    return a[0] if single else a


def su2_from_column(c):
    """The unique SU(2) matrix with prescribed first column(s)."""
    c = np.asarray(c, dtype=complex)
    a, b = c[..., 0], c[..., 1]
    out = np.empty(c.shape[:-1] + (2, 2), dtype=complex)
    out[..., 0, 0] = a
    out[..., 1, 0] = b
    out[..., 0, 1] = -np.conj(b)
    out[..., 1, 1] = np.conj(a)
    return out


def _su2_column_nodes(mats):
    """First-column sphere points of nearly-SU(2) matrices, symmetrized."""
    a = 0.5 * (mats[..., 0, 0] + np.conj(mats[..., 1, 1]))
    b = 0.5 * (mats[..., 1, 0] - np.conj(mats[..., 0, 1]))
    c = np.stack([a, b], axis=-1)
    return c / np.linalg.norm(c, axis=-1, keepdims=True)


def _interp_columns(dom, c_nodes):
    """Domain interpolation of nodal sphere points, renormalized."""
    c = dom.interp(c_nodes)
    norms = np.linalg.norm(c, axis=-1)
    if np.any(norms < 0.5):
        raise GridTooCoarse(
            "adjacent boundary columns nearly antipodal; refine the grid"
        )
    return c / norms[..., None]


def _cone_columns(p, c_nodes, dom):
    """Cone the nodal sphere points toward the chart base point ``p``."""
    c_q = _interp_columns(dom, c_nodes)
    w = chart_forward(p, c_q)
    return chart_backward(p, dom.sigma[..., None] * w)


def _extend_su(nodes, dom, seed, diag):
    """Extend SU(m)-valued boundary nodes; recursion on m."""
    m = nodes.shape[-1]
    if m == 2:
        c_nodes = _su2_column_nodes(nodes)
        p, info = select_stereographic_point(c_nodes, seed=seed)
        diag.append({"m": 2, **info})
        return su2_from_column(_cone_columns(p, c_nodes, dom))
    c_nodes = nodes[..., :, 0]
    p, info = select_stereographic_point(c_nodes, need_line_margin=True, seed=seed)
    diag.append({"m": m, **info})
    u = -p
    c_cone = _cone_columns(p, c_nodes, dom)
    base = rotation_to(np.eye(m, dtype=complex)[0], u)
    q_nodes = rotation_to(u, c_nodes) @ base
    q_query = rotation_to(u, c_cone) @ base
    g_nodes = np.einsum("qji,qjk->qik", np.conj(q_nodes), nodes)[..., 1:, 1:]
    g_ext = _extend_su(g_nodes, dom, seed, diag)
    full = np.zeros(dom.sigma.shape + (m, m), dtype=complex)
    full[..., 0, 0] = 1.0
    full[..., 1:, 1:] = g_ext
    return np.einsum("qij,qjk->qik", q_query, full)


def extend_unitary_cone(nodes, dom, seed=0):
    """Extend a degree-zero unitary boundary map into the cell.

    Parameters
    ----------
    nodes : (K, m, m) array
        Unitary values at the boundary nodes, in the order of ``dom``.
    dom : BoundaryDomain
        The cell's boundary nodes, argument lift and query points.
    seed : int
        Seed for the randomized chart-point fallback; fixed for determinism.

    Returns ``(values, diag)``: unitary values at the query points (every
    cell grid point, row-major) and a diagnostics dict (chart choices per
    recursion level, determinant lift).  The boundary determinant must have
    degree zero; otherwise :class:`NonzeroDegree` is raised.
    """
    nodes = np.asarray(nodes, dtype=complex)
    m = nodes.shape[-1]
    lift, lift_info = dom.lift(np.linalg.det(nodes))
    if lift_info["degree"]:
        raise NonzeroDegree(
            f"boundary determinant winds {lift_info['degree']} times; correct "
            "the degree before extending",
            degree=lift_info["degree"],
        )
    diag_levels = []
    scalar = np.exp(1j * dom.sigma * dom.interp(lift) / m)
    if m == 1:
        values = scalar[..., None, None]
    else:
        f_nodes = nodes * np.exp(-1j * lift / m)[..., None, None]
        values = scalar[..., None, None] * _extend_su(f_nodes, dom, seed, diag_levels)
    return values, {"det_lift": lift_info, "levels": diag_levels}
