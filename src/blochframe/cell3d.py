"""Symmetric frame construction on the three-dimensional cell.

The effective cell is the half cube ``[0, 1/2] x [-1/2, 1/2]^2``.  The
boundary frame is assembled face by face:

* the face ``k_1 = 0`` is itself a two-dimensional symmetric problem for the
  family restricted to that plane and is solved by the full square-cell
  construction;
* the edge ``k_2 = k_3 = 1/2`` is filled by geodesic transport between its
  endpoint solutions, and translated copies of it seed the faces
  ``k_2 = 1/2`` and ``k_3 = 1/2``, each solved by the square-cell routine
  with its own composed time-reversal operation;
* translation copies fill ``k_2 = -1/2`` and ``k_3 = -1/2``;
* on the last face ``k_1 = 1/2`` the half with ``k_2 >= 0`` is again a
  square-cell problem in mirrored coordinates, and the other half follows
  from the residual symmetry of that face.

Each face's input frames are a plain slice of the cell's ``psi.data`` (the
mirrored half face ``k_1 = 1/2`` a reversed one), and the faces are glued
into one cell-shaped array whose overlapping writes are compared as arrays.

The assembled boundary map is then extended into the interior by the cone
construction.  The boundary of the half cube is a mask over the cell array
and is unfolded onto a T-shaped planar chart whose node ids are computed
arithmetically; a continuous argument lift for determinant phases is
computed directly on the boundary surface graph, so the unfolding seams are
coherent by construction and are verified explicitly.
"""

import numpy as np

from .cells import CellGeometry
from .errors import BoundaryRelationViolated, ChartSeamMismatch, GridTooCoarse
from .extension import extend_unitary_cone
from .face2d import FaceContext, build_face, macro2
from .frames import FrameField, evaluate, unitary_between
from .models import ProjectorFamily
from .vertex import macro1

__all__ = ["restricted_family", "DiskDomain", "construct_3d"]


def restricted_family(family):
    """Two-dimensional family obtained by freezing ``k_1 = 0``.

    Hoppings with the same transverse displacement are summed; the symmetry
    operations in the remaining directions are inherited unchanged.
    """
    if family.d != 3:
        raise ValueError("restriction requires a three-dimensional family")
    hop = {}
    for r, mat in family.hoppings.items():
        key = (r[1], r[2])
        hop[key] = hop.get(key, 0) + mat
    tau = None
    if family.tau is not None:
        tau = [family.tau[1], family.tau[2]]
    return ProjectorFamily(
        d=2,
        n=family.n,
        m=family.m,
        hoppings=hop,
        theta=family.theta,
        tau=tau,
        gap_tolerance=family.gap_tolerance,
        name=family.name + "[k1=0]",
        params=dict(family.params),
    )


# ---------------------------------------------------------------------------
# planar chart of the cell boundary
#
# The boundary of the half cube unfolds onto the T-shaped domain
#
#     D = [-1, 1] x [-1/2, 1/2]  union  [-1/2, 1/2] x [1/2, 5/2],
#
# in chart coordinates (s, t), with the six faces placed as
#
#     s in [-1, -1/2]: (k) = (-s - 1/2, -1/2, t)        face k2 = -1/2
#     s in [-1/2, 1/2]: (k) = (0, s, t)                 face k1 = 0
#     s in [1/2, 1]:   (k) = (s - 1/2, 1/2, t)          face k2 = +1/2
#     t in [1/2, 1]:   (k) = (t - 1/2, s, 1/2)          face k3 = +1/2
#     t in [1, 2]:     (k) = (1/2, s, 3/2 - t)          face k1 = 1/2
#     t in [2, 5/2]:   (k) = (5/2 - t, s, -1/2)         face k3 = -1/2
#
# Node coordinates are kept in grid units S = s * 2 grid_n, T = t * 2 grid_n,
# which are integers exactly on the face grids.  Nodes are numbered row by
# row in s, the horizontal bar (T <= n) first.


def _node_to_global(n, s_u, t_u):
    """Global face grid points of chart nodes (integer chart units), shape
    ``s_u.shape + (3,)``."""
    s, t = np.broadcast_arrays(s_u, t_u)
    bar = t <= n
    cases = [bar & (s < -n), bar & (s <= n), bar, t <= 2 * n, t <= 4 * n]
    choices = [(-s - n, -n, t), (0, s, t), (s - n, n, t), (t - n, s, n), (n, s, 3 * n - t)]
    last = (5 * n - t, s, -n)
    return np.stack(
        [np.select(cases, [c[j] for c in choices], last[j]) for j in range(3)], axis=-1
    )


def _node_ids(n, s_u, t_u):
    """Position of the chart nodes ``(s_u, t_u)`` in :attr:`DiskDomain.nodes`."""
    horizontal = (s_u + 2 * n) * (2 * n + 1) + t_u + n
    vertical = (4 * n + 1) * (2 * n + 1) + (s_u + n) * 4 * n + t_u - n - 1
    return np.where(t_u <= n, horizontal, vertical)


class DiskDomain:
    """Chart adapter for the cone extension over the half-cube boundary.

    Argument lifts are computed on the boundary surface graph itself (a
    simply connected closed surface), then read back through the chart, so
    nodes identified by the unfolding automatically receive equal lift
    values; the identification of nodal data across seams is still verified
    and a disagreement raises :class:`ChartSeamMismatch`.

    Attributes: ``nodes`` ``(K, 2)`` chart nodes, ``node_globals`` ``(K, 3)``
    their grid points, ``points`` ``(P, 3)`` the boundary grid points in
    row-major order, ``node_of_point`` ``(K,)`` the boundary point of each
    node and ``surface_edges`` ``(E, 2)`` the surface adjacency.
    """

    def __init__(self, geo):
        self.geo = geo
        n = geo.grid_n
        bar = np.meshgrid(np.arange(-2 * n, 2 * n + 1), np.arange(-n, n + 1), indexing="ij")
        stem = np.meshgrid(np.arange(-n, n + 1), np.arange(n + 1, 5 * n + 1), indexing="ij")
        self.nodes = np.stack(
            [np.concatenate([bar[j].ravel(), stem[j].ravel()]) for j in range(2)], axis=-1
        )
        self.node_globals = _node_to_global(n, self.nodes[:, 0], self.nodes[:, 1])
        mask = geo.boundary_mask()
        self.points = geo.cell_points()[mask]
        point_id = np.full(geo.cell_shape, -1)
        point_id[mask] = np.arange(len(self.points))
        self.node_of_point = point_id[geo.cell_index(self.node_globals)]
        self._first_node = np.unique(self.node_of_point, return_index=True)[1]

        # neighbours of each boundary point along -e1, -e2, -e3, +e1, +e2, +e3
        padded = np.pad(point_id, 1, constant_values=-1)
        steps = [(axis, step) for step in (-1, 1) for axis in range(3)]
        nbr = np.stack(
            [np.roll(padded, -step, axis=axis)[1:-1, 1:-1, 1:-1][mask] for axis, step in steps],
            axis=-1,
        )
        low, axis = np.nonzero(nbr[:, 3:] >= 0)
        self.surface_edges = np.stack([low, nbr[low, 3 + axis]], axis=-1)

        # breadth-first spanning tree from the origin; the neighbour order
        # fixes which parent each point's lift is continued from
        start = int(point_id[geo.cell_index((0, 0, 0))])
        parent = np.full(len(self.points), -1)
        depth = np.full(len(self.points), -1)
        depth[start] = 0
        order = [start]
        table = nbr.tolist()
        for cur in order:
            for nxt in table[cur]:
                if nxt >= 0 and depth[nxt] < 0:
                    parent[nxt] = cur
                    depth[nxt] = depth[cur] + 1
                    order.append(nxt)
        if len(order) != len(self.points):
            raise RuntimeError("boundary surface graph is not connected")
        self._root = start
        self._parent = parent
        self._levels = [np.array(order)[depth[order] == k] for k in range(1, depth.max() + 1)]
        self._corner_ids = None
        self._weights = None

    # -- queries --------------------------------------------------------
    def set_queries(self, coords):
        """Attach query chart coordinates: ``(Q, 3)`` rows (region, s_units,
        t_units), region 0 for the horizontal bar, 1 for the vertical one."""
        n = self.geo.grid_n
        region, s_f, t_f = np.asarray(coords, dtype=float).T
        bar = region == 0
        s_hi = np.where(bar, 2 * n, n)
        t_lo = np.where(bar, -n, n)
        t_hi = np.where(bar, n, 5 * n)
        s_f = np.clip(s_f, -s_hi, s_hi)
        t_f = np.clip(t_f, t_lo, t_hi)
        s0 = np.minimum(np.floor(s_f).astype(int), s_hi - 1)
        t0 = np.minimum(np.floor(t_f).astype(int), t_hi - 1)
        fs = s_f - s0
        ft = t_f - t0
        self._corner_ids = np.stack(
            [_node_ids(n, s0 + ds, t0 + dt) for dt in (0, 1) for ds in (0, 1)], axis=-1
        )
        self._weights = np.stack(
            [(1 - fs) * (1 - ft), fs * (1 - ft), (1 - fs) * ft, fs * ft], axis=-1
        )

    # -- adapter interface ---------------------------------------------
    def collapse(self, values, tol=1e-10):
        """Per-surface-point value of chart-node data; seams must agree."""
        values = np.asarray(values)
        out = values[self._first_node]
        worst = float(np.max(np.abs(values - out[self.node_of_point]), initial=0.0))
        if worst > tol:
            raise ChartSeamMismatch(
                f"chart nodes identified by the unfolding disagree by {worst:.3e}",
                defect=worst,
            )
        return out, worst

    def lift(self, values, max_step=0.5 * np.pi):
        """Continuous argument lift of nodal scalars across the surface."""
        by_point, seam = self.collapse(values)
        theta = np.empty(len(self.points))
        theta[self._root] = np.angle(by_point[self._root])
        for level in self._levels:
            par = self._parent[level]
            theta[level] = theta[par] + np.angle(by_point[level] / by_point[par])
        low, high = self.surface_edges.T
        step = np.angle(by_point[high] / by_point[low])
        worst_step = float(np.max(np.abs(step)))
        worst_defect = float(np.max(np.abs(theta[high] - theta[low] - step)))
        if worst_step >= max_step:
            raise GridTooCoarse(
                f"boundary phase step {worst_step:.3f} rad exceeds "
                f"{max_step:.3f}; refine the grid",
                step=worst_step,
            )
        if worst_defect > 1e-8:
            raise ChartSeamMismatch(
                f"argument lift inconsistent around the boundary surface "
                f"(defect {worst_defect:.3e})",
                defect=worst_defect,
            )
        info = {"seam_defect": seam, "max_step": worst_step,
                "lift_defect": worst_defect}
        return theta[self.node_of_point], info

    def interp(self, nodal):
        nodal = np.asarray(nodal)
        gathered = nodal[self._corner_ids]
        w = self._weights.reshape(self._weights.shape + (1,) * (nodal.ndim - 1))
        return np.sum(w * gathered, axis=1)


def _chart_units(geo, g):
    """Cone coordinates of 3d cell grid points ``g`` of shape ``(..., 3)``.

    Returns ``(sigma, region, s_units, t_units)`` with ``sigma`` in [0, 1]
    (0 at the apex ``(1/4, 0, 0)``, where the chart coordinates are 0) and
    chart coordinates of the radial projection of ``g`` onto the boundary,
    in node units.
    """
    n = geo.grid_n
    big = geo.n_side
    g1, g2, g3 = np.moveaxis(g, -1, 0)
    a = np.abs(np.stack([4 * g1 - big, 2 * g2, 2 * g3]))
    sig = np.max(a, axis=0)
    scale = big / np.maximum(sig, 1)
    b1 = n / 2.0 + (g1 - n / 2.0) * scale
    b2 = g2 * scale
    b3 = g3 * scale
    on_k1_0 = (a[0] == sig) & (4 * g1 < big)
    on_k2 = ~on_k1_0 & (a[1] == sig)
    on_k3 = ~on_k1_0 & ~on_k2 & (a[2] == sig)
    region = np.where(on_k1_0 | on_k2, 0, 1)
    s_f = np.where(on_k2, np.where(g2 < 0, -b1 - n, b1 + n), b2)
    t_f = np.select(
        [on_k1_0 | on_k2, on_k3 & (g3 > 0), on_k3], [b3, b1 + n, 5 * n - b1], 3 * n - b3
    )
    apex = sig == 0
    return (sig / big, np.where(apex, 0, region), np.where(apex, 0.0, s_f),
            np.where(apex, 0.0, t_f))


# ---------------------------------------------------------------------------
# boundary assembly


def _assemble_boundary(geo, family, face10, field2p, field3p, door, tol):
    """Glue the six face constructions into one cell-shaped array.

    Faces are written in a fixed order.  A point that a face shares with an
    earlier one keeps the earlier value, and the two must agree to ``tol``
    (:class:`BoundaryRelationViolated` names the first point that does not).
    Interior points stay NaN.
    """
    n = geo.grid_n
    t2_inv = family.tau_power((0, -1, 0))
    t3_inv = family.tau_power((0, 0, -1))
    a_door = family.antiunitary_matrix((1, 0, 0))
    points = geo.cell_points()
    out = np.full(geo.cell_shape + face10.shape[-2:], np.nan, dtype=complex)
    glue = {"glue_residual": 0.0, "glue_point": None}

    def write(at, values):
        view = out[at]
        unset = np.isnan(view[..., 0, 0])
        diff = np.where(unset, 0.0, np.linalg.norm(view - values, axis=(-2, -1)))
        worst = np.unravel_index(np.argmax(diff), diff.shape)
        if diff[worst] > glue["glue_residual"]:
            glue["glue_residual"] = float(diff[worst])
            glue["glue_point"] = tuple(int(x) for x in points[at][worst])
        if np.any(diff > tol):
            first = np.unravel_index(np.argmax(diff > tol), diff.shape)
            g = tuple(int(x) for x in points[at][first])
            raise BoundaryRelationViolated(
                f"face values disagree at grid point {g} "
                f"(residual {diff[first]:.3e} > {tol:.1e})",
                point=g,
                residual=float(diff[first]),
            )
        view[unset] = values[unset]

    write(np.s_[0], face10)
    write(np.s_[:, 2 * n], field2p)
    write(np.s_[:, 0], t2_inv @ field2p)
    write(np.s_[:, :, 2 * n], field3p)
    write(np.s_[:, :, 0], t3_inv @ field3p)
    write(np.s_[n, 2 * n:n - 1:-1], door)
    # the rest of the face k1 = 1/2: Phi(n, b, c) = tau theta Phi(n, -b, -c)
    write(np.s_[n, :n], a_door @ np.conj(out[n, 2 * n:n:-1, ::-1]))
    missing = np.count_nonzero(np.isnan(out[geo.boundary_mask()][:, 0, 0]))
    if missing:
        raise RuntimeError(f"boundary assembly left {missing} points unset")
    return out, glue


def construct_3d(psi_field, family, tol=1e-8, seed=0, extend=True):
    """Symmetric frame on the 3-torus from input frames on the half cell.

    Returns ``(field, diag)``; with ``extend`` (default) the field covers
    the full torus, otherwise the effective cell.
    """
    from .wannier import extend_symmetric

    geo = psi_field.geometry
    if geo.d != 3:
        raise ValueError("construct_3d needs a three-dimensional field")
    n = geo.grid_n
    psi = psi_field.data
    tau = family.tau_power
    theta = family.theta_matrix()
    geo2 = CellGeometry(2, n)
    diag = {}

    # face k1 = 0: full two-dimensional construction of the frozen family,
    # then its values on the whole face (b, c) in [-n, n]^2
    fam2 = restricted_family(family)
    ctx10 = FaceContext(
        geo2,
        psi[0, n:],
        fam2.tau_power((1, 0)),
        fam2.tau_power((0, 1)),
        fam2.theta_matrix(),
        label="face k1=0",
    )
    face10_half, diag["face_k1_0"] = build_face(ctx10, tol=tol, seed=seed)
    span = np.arange(-n, n + 1)
    face10 = evaluate(
        extend_symmetric(face10_half, fam2),
        fam2,
        np.stack(np.meshgrid(span, span, indexing="ij"), axis=-1),
    )

    # edge k2 = k3 = 1/2 and its translated copies
    edge, vstar = macro1(
        psi[:, 2 * n, 2 * n], face10[2 * n, 2 * n], family.antiunitary_matrix((1, 1, 1)),
        (1, 1, 1),
    )
    diag["corner_residual"] = vstar.residual

    # faces k2 = 1/2 and k3 = 1/2
    ctx2p = FaceContext(
        geo2, psi[:, 2 * n], tau((1, 0, 0)), tau((0, 0, 1)), tau((0, 1, 0)) @ theta,
        label="face k2=+1/2",
    )
    field2p, diag["face_k2_plus"] = macro2(
        ctx2p, face10[2 * n], tau((0, 0, -1)) @ edge, tol=tol, seed=seed
    )
    ctx3p = FaceContext(
        geo2, psi[:, :, 2 * n], tau((1, 0, 0)), tau((0, 1, 0)), tau((0, 0, 1)) @ theta,
        label="face k3=+1/2",
    )
    field3p, diag["face_k3_plus"] = macro2(
        ctx3p, face10[:, 2 * n], tau((0, -1, 0)) @ edge, tol=tol, seed=seed
    )

    # half of the face k1 = 1/2, in mirrored coordinates (a, c) -> (n, n - a, c)
    ctx_door = FaceContext(
        geo2, psi[n, 2 * n:n - 1:-1], tau((0, -1, 0)), tau((0, 0, 1)),
        tau((1, 1, 0)) @ theta, label="face k1=1/2 (mirrored)",
    )
    door, diag["face_k1_plus"] = macro2(
        ctx_door, field2p.data[n], tau((0, 0, -1)) @ field3p.data[n, 2 * n:n - 1:-1],
        tol=tol, seed=seed,
    )

    boundary, diag["assembly"] = _assemble_boundary(
        geo, family, face10, field2p.data, field3p.data, door.data, max(100 * tol, 1e-6)
    )

    # cone extension into the interior
    dom = DiskDomain(geo)
    on_boundary = geo.cell_index(dom.points)
    u_nodes = unitary_between(psi[on_boundary], boundary[on_boundary])[dom.node_of_point]
    sigma, region, s_f, t_f = _chart_units(geo, geo.cell_points().reshape(-1, 3))
    dom.set_queries(np.stack([region, s_f, t_f], axis=-1))
    u_cell, diag["extension"] = extend_unitary_cone(u_nodes, dom, sigma, seed=seed)
    frames = psi @ u_cell.reshape(geo.cell_shape + u_cell.shape[-2:])
    frames[on_boundary] = boundary[on_boundary]
    field = FrameField(geo, "effective-cell", frames)

    if not extend:
        return field, diag
    torus = extend_symmetric(field, family)
    return torus, diag
