"""Symmetric frame construction on the three-dimensional cell.

The effective cell is the half cube ``[0, 1/2] x [-1/2, 1/2]^2``.  The
boundary frame is assembled face by face:

* the half ``k_2 >= 0`` of the face ``k_1 = 0`` is solved by the full
  square-cell construction in the plane's own coordinates, and time reversal
  gives the other half, ``Phi(0, -k_2, -k_3) = theta Phi(0, k_2, k_3)``;
* the edge ``k_2 = k_3 = 1/2`` is filled by geodesic transport between its
  endpoint solutions, and translated copies of it seed the faces
  ``k_2 = 1/2`` and ``k_3 = 1/2``, each solved by the square-cell routine
  with its own composed time-reversal operation;
* translation copies fill ``k_2 = -1/2`` and ``k_3 = -1/2``;
* on the last face ``k_1 = 1/2`` the half with ``k_2 >= 0`` is again a
  square-cell problem in mirrored coordinates, and the other half follows
  from the residual symmetry of that face.

Each face is a plane of the family (:class:`~blochframe.face2d.FaceContext`):
its local translations and time reversal are the family's ``tau`` and
``theta`` read along the face's lattice axes.  Its input frames are a plain
slice of the cell's ``psi.data`` (the mirrored half face ``k_1 = 1/2`` a
reversed one), and the faces are glued into one cell-shaped array whose
overlapping writes are compared as arrays.

The assembled boundary map is then extended into the interior by the same
cone construction that fills each face, over the half-cube surface
(:class:`~blochframe.extension.BoundaryDomain`).
"""

import numpy as np

from .cells import CellGeometry
from .errors import BoundaryRelationViolated
from .extension import BoundaryDomain, extend_unitary_cone
from .face2d import FaceContext, build_face, macro2
from .frames import FrameField, unitary_between
from .vertex import macro1

__all__ = ["construct_3d"]


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


def construct_3d(psi_field, family, tol=1e-8, seed=0):
    """Symmetric frame on the 3-torus from input frames on the half cell.

    Returns ``(field, diag)``: the full-torus field and the diagnostics of
    the cell construction.
    """
    from .wannier import extend_symmetric

    geo = psi_field.geometry
    if geo.d != 3:
        raise ValueError("construct_3d needs a three-dimensional field")
    n = geo.grid_n
    psi = psi_field.data
    tau = family.tau_power
    geo2 = CellGeometry(2, n)
    diag = {}

    # face k1 = 0: the square-cell construction on its half b >= 0, then
    # Phi(0, -b, -c) = theta Phi(0, b, c) on the rest
    ctx10 = FaceContext(geo2, psi[0, n:], family, ((0, 1, 0), (0, 0, 1)), 0,
                        label="face k1=0")
    half10, diag["face_k1_0"] = build_face(ctx10, tol=tol, seed=seed)
    face10 = np.empty((2 * n + 1,) + half10.data.shape[1:], dtype=complex)
    face10[n:] = half10.data
    face10[:n] = family.theta_matrix() @ np.conj(half10.data[n:0:-1, ::-1])

    # edge k2 = k3 = 1/2 and its translated copies
    edge, vstar = macro1(
        psi[:, 2 * n, 2 * n], face10[2 * n, 2 * n], family.antiunitary_matrix((1, 1, 1))
    )
    diag["corner_residual"] = vstar.residual

    # faces k2 = 1/2 and k3 = 1/2
    ctx2p = FaceContext(geo2, psi[:, 2 * n], family, ((1, 0, 0), (0, 0, 1)), (0, 1, 0),
                        label="face k2=+1/2")
    field2p, diag["face_k2_plus"] = macro2(
        ctx2p, face10[2 * n], tau((0, 0, -1)) @ edge, tol=tol, seed=seed
    )
    ctx3p = FaceContext(geo2, psi[:, :, 2 * n], family, ((1, 0, 0), (0, 1, 0)), (0, 0, 1),
                        label="face k3=+1/2")
    field3p, diag["face_k3_plus"] = macro2(
        ctx3p, face10[:, 2 * n], tau((0, -1, 0)) @ edge, tol=tol, seed=seed
    )

    # half of the face k1 = 1/2, in mirrored coordinates (a, c) -> (n, n - a, c)
    ctx_door = FaceContext(geo2, psi[n, 2 * n:n - 1:-1], family, ((0, -1, 0), (0, 0, 1)),
                           (1, 1, 0), label="face k1=1/2 (mirrored)")
    door, diag["face_k1_plus"] = macro2(
        ctx_door, field2p.data[n], tau((0, 0, -1)) @ field3p.data[n, 2 * n:n - 1:-1],
        tol=tol, seed=seed,
    )

    boundary, diag["assembly"] = _assemble_boundary(
        geo, family, face10, field2p.data, field3p.data, door.data, max(100 * tol, 1e-6)
    )

    # cone extension into the interior
    dom = BoundaryDomain(geo)
    u_nodes = unitary_between(psi[dom.mask], boundary[dom.mask])
    u_cell, diag["extension"] = extend_unitary_cone(u_nodes, dom, seed=seed)
    frames = psi @ u_cell.reshape(geo.cell_shape + u_cell.shape[-2:])
    frames[dom.mask] = boundary[dom.mask]
    return extend_symmetric(FrameField(geo, "effective-cell", frames), family), diag
