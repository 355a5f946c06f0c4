"""Symmetric frame construction on a square cell (d = 2 and cube faces).

The effective cell of a two-dimensional symmetric family is the half square
``[0, 1/2] x [-1/2, 1/2]``.  Its boundary carries six special half-integer
points; a frame satisfying the invariance conditions there is transported
along the left and bottom edges, completed along the right edge by geodesic
interpolation, and mirrored onto the remaining edges by the symmetries.  The
cell's :class:`~blochframe.extension.BoundaryDomain`, built once per
geometry, lifts the determinant of the boundary map and reads its degree; a
phase ramp along the right edge removes that degree, after which the cone
extension fills the interior.

The same construction runs on any square face of a higher-dimensional cell:
a face is a plane of the family, and its translations and time reversal are
the family's ``tau`` and ``theta`` read along the plane's two lattice axes.
:class:`FaceContext` holds the plane, so the routines here never look at the
ambient dimension.  A face's input frames are one cell-shaped array (for a
face of the 3d cell, a slice of its ``psi.data``); the boundary is the
domain's node mask and every fill is one batched product.
"""

from functools import lru_cache

import numpy as np

from .errors import BoundaryRelationViolated
from .extension import BoundaryDomain, extend_unitary_cone
from .frames import FrameField, unitary_between
from .vertex import macro1, vertex_solution

__all__ = [
    "FaceContext",
    "macro2",
    "construct_2d",
]


class FaceContext:
    """A square face of the effective cell: a plane of the family and the
    input frames on it.

    The face's local lattice vector ``lam`` is the family's vector ``lam @
    axes``, and its local time reversal is ``tau_shift o theta``, so every
    operation the square-cell routines use is one of the family's own.

    Parameters
    ----------
    geometry : CellGeometry
        Local two-dimensional grid geometry of the face.
    psi : (grid_n + 1, 2 grid_n + 1, n, m) array
        Input frames at the local grid points, indexed like
        ``geometry.cell_shape`` (``psi[g_1, g_2 + grid_n]``).
    family : ProjectorFamily
        The family whose ``tau`` and ``theta`` act on the face.
    axes : (2, d) integer array
        The family's lattice vectors along the two local axes.
    shift : (d,) integer array
        Lattice vector of the translation in the local time reversal.
    label : str
        Name used in error messages.
    """

    def __init__(self, geometry, psi, family, axes, shift, label="cell"):
        if geometry.d != 2:
            raise ValueError("FaceContext needs a two-dimensional geometry")
        self.geometry = geometry
        self.psi = psi
        self.family = family
        self.axes = np.asarray(axes, dtype=int)
        self.shift = np.asarray(shift, dtype=int)
        self.label = label

    def antiunitary(self, lam):
        """Matrix of the local operation ``tau_lam o theta``."""
        return self.family.antiunitary_matrix(np.asarray(lam) @ self.axes + self.shift)

    def apply_anti(self, lam, frame):
        return self.antiunitary(lam) @ np.conj(frame)


@lru_cache(maxsize=4)
def _boundary_domain(geo):
    """One cone-extension domain per face geometry; the faces of a 3d cell
    share theirs."""
    return BoundaryDomain(geo)


def _check(cond_value, tol, what, point, label):
    if cond_value > tol:
        raise BoundaryRelationViolated(
            f"{what} fails on {label} at local {point} "
            f"(residual {cond_value:.3e} > {tol:.1e})",
            residual=cond_value,
            point=tuple(point),
        )


def macro2(ctx, left_edge, bottom_edge, tol=1e-8, seed=0):
    """Fill a square cell from symmetric frames on its left and bottom edges.

    Parameters
    ----------
    ctx : FaceContext
        Geometry, input frames and symmetry operations of the cell.
    left_edge : (2 grid_n + 1, n, m) array
        Frames on the edge ``k_1 = 0``, indexed by ``g_2 + grid_n``; must
        satisfy ``Phi(0, -k_2) = theta Phi(0, k_2)`` and the invariance
        conditions at ``(0, 0)`` and ``(0, +-1/2)``.
    bottom_edge : (grid_n + 1, n, m) array
        Frames on the edge ``k_2 = -1/2``, indexed by ``g_1``; must agree
        with the left edge at the shared corner and satisfy the invariance
        condition at the corner ``(1/2, -1/2)``.
    tol : float
        Acceptance tolerance for the input conditions.

    Returns ``(field, diag)``: the filled effective-cell frame field and a
    diagnostics dict (winding number, vertex residuals, extension data).
    """
    geo = ctx.geometry
    n = geo.grid_n
    psi = ctx.psi

    # --- input conditions -------------------------------------------------
    corner = bottom_edge[n]
    for what, point, defect in (
        ("corner agreement", (0, -n), left_edge[0] - bottom_edge[0]),
        ("vertex condition", (0, 0), left_edge[n] - ctx.apply_anti((0, 0), left_edge[n])),
        ("vertex condition", (0, n),
         left_edge[2 * n] - ctx.apply_anti((0, 1), left_edge[2 * n])),
        ("vertex condition", (n, -n), corner - ctx.apply_anti((1, -1), corner)),
    ):
        _check(float(np.linalg.norm(defect)), tol, what, point, ctx.label)
    # Phi(0, -g_2) against theta Phi(0, g_2) for g_2 = 0 .. n
    mirror = np.linalg.norm(
        left_edge[n::-1] - ctx.apply_anti((0, 0), left_edge[n:]), axis=(-2, -1)
    )
    worst = int(np.argmax(mirror))
    _check(float(mirror[worst]), tol, "left edge reflection relation", (0, worst),
           ctx.label)

    # --- boundary skeleton: the right edge interpolates into the vertex
    # solution at (1/2, 0), the rest follows by symmetry --------------------
    skel = np.full(psi.shape, np.nan, dtype=complex)
    skel[0] = left_edge
    skel[:, 0] = bottom_edge
    lower_right, sol4 = macro1(psi[n, :n + 1], corner, ctx.antiunitary((1, 0)))
    skel[n, :n + 1] = lower_right
    skel[n, n + 1:] = ctx.apply_anti((1, 0), skel[n, n - 1::-1])
    skel[1:n, 2 * n] = ctx.family.tau_power(ctx.axes[1]) @ skel[1:n, 0]

    # --- degree of the boundary determinant and its removal ---------------
    dom = _boundary_domain(geo)
    skel_nodes = skel[dom.mask]
    u_nodes = unitary_between(psi[dom.mask], skel_nodes)
    _, det_lift = dom.lift(np.linalg.det(u_nodes))
    r = det_lift["degree"]
    if r != 0:
        g1, g2 = dom.points.T
        right = (g1 == n) & (np.abs(g2) < n)
        x = np.tile(np.eye(u_nodes.shape[-1], dtype=complex), (np.count_nonzero(right), 1, 1))
        x[:, 0, 0] = np.exp(-2j * np.pi * r * (g2[right] + n) / geo.n_side)
        skel_nodes[right] = skel_nodes[right] @ x
        u_nodes[right] = u_nodes[right] @ x

    # --- cone extension into the cell; its own lift refuses any degree the
    # correction missed -----------------------------------------------------
    u_cell, ext_diag = extend_unitary_cone(u_nodes, dom, seed=seed)
    frames = psi @ u_cell.reshape(psi.shape[:2] + u_cell.shape[-2:])
    frames[dom.mask] = skel_nodes

    diag = {
        "winding": r,
        "winding_after_correction": ext_diag["det_lift"]["degree"],
        "vertex_residual": sol4.residual,
        "branch_snap": bool(sol4.branch_snap),
        "det_closure": det_lift["lift_defect"],
        "extension": ext_diag,
    }
    return FrameField(geo, "effective-cell", frames), diag


def _left_edge_frames(ctx):
    """Symmetric frames on the edge ``k_1 = 0`` of a face context."""
    n = ctx.geometry.grid_n
    psi = ctx.psi[0]
    origin = vertex_solution(psi[n], ctx.antiunitary((0, 0)))
    upper, top_sol = macro1(psi[n:], psi[n] @ origin.u, ctx.antiunitary((0, 1)))
    edge = np.empty_like(psi)
    edge[n:] = upper
    edge[n::-1] = ctx.apply_anti((0, 0), upper)
    diag = {
        "origin_residual": origin.residual,
        "top_residual": top_sol.residual,
        "branch_snap": bool(origin.branch_snap or top_sol.branch_snap),
    }
    return edge, diag


def _bottom_edge_frames(ctx, start):
    """Symmetric frames on the edge ``k_2 = -1/2``, continuing ``start``."""
    frames, end_sol = macro1(ctx.psi[:, 0], start, ctx.antiunitary((1, -1)))
    return frames, {"corner_residual": end_sol.residual,
                    "branch_snap": bool(end_sol.branch_snap)}


def build_face(ctx, tol=1e-8, seed=0):
    """Run the full square-cell construction on a face context."""
    left, left_diag = _left_edge_frames(ctx)
    bottom, bottom_diag = _bottom_edge_frames(ctx, left[0])
    field, diag = macro2(ctx, left, bottom, tol=tol, seed=seed)
    diag["left_edge"] = left_diag
    diag["bottom_edge"] = bottom_diag
    return field, diag


def construct_2d(psi_field, family, tol=1e-8, seed=0):
    """Symmetric frame on the 2-torus from input frames on the half cell.

    Returns ``(field, diag)``: the full-torus field and the diagnostics of
    the cell construction.
    """
    from .wannier import extend_symmetric

    geo = psi_field.geometry
    if geo.d != 2:
        raise ValueError("construct_2d needs a two-dimensional field")
    ctx = FaceContext(geo, psi_field.data, family, ((1, 0), (0, 1)), (0, 0))
    field, diag = build_face(ctx, tol=tol, seed=seed)
    return extend_symmetric(field, family), diag
