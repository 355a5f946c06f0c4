"""Orthonormal frames of spectral subspaces and fields of them on grids.

A frame is a plain ``(n, m)`` complex ndarray whose columns are orthonormal
and span ``Ran P(k)``.  Unitaries act on the right, ``(frame <| u)_b =
sum_a frame_a u_ab``, i.e. ordinary matrix multiplication ``frame @ u``.

A :class:`FrameField` stores one frame per grid point over one of two
regions, the effective cell or the full torus, as one array; every stage
reads and writes it whole.  A NaN entry is a poison value, not an empty
slot: residuals are maxima over every stored frame, so one NaN frame makes
them NaN, and :func:`check_same_span` and the smoothing precondition refuse
a NaN.

:func:`input_frame` builds the raw field the construction starts from by
discrete parallel transport.  It never forms an ``n x n`` projector: the
frame is carried as the family's sampled eigenframes times an ``m x m``
gauge, and each grid step multiplies the gauge by the polar factor of an
``m x m`` link overlap between neighbouring eigenframes.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import GridTooCoarse, SpanMismatch
from .linalg import RANK_FLOOR, lowdin

__all__ = [
    "FrameField",
    "frobenius",
    "unitary_between",
    "check_same_span",
    "input_frame",
]


def frobenius(a):
    """Frobenius norms over the last two axes of a stack of matrices,
    ``sqrt(sum(re**2 + im**2))`` in real arithmetic: the one norm of the
    torus-wide certificates.  A NaN or inf entry makes its norm NaN or inf.

    A complex stack is read as its real and imaginary parts side by side,
    so each norm is one real dot product of a matrix's entries with
    themselves."""
    a = np.ascontiguousarray(a)
    parts = a.view(a.real.dtype) if np.iscomplexobj(a) else a
    parts = parts.reshape(a.shape[:-2] + (-1,))
    return np.sqrt(np.einsum("...i,...i->...", parts, parts))


# Largest defect ``||b b^H a - a||`` of frames that span the same subspace.
SPAN_TOL = 1e-8


def check_same_span(a, b):
    """Raise :class:`SpanMismatch` unless ``a`` and ``b`` span the same subspace.

    Takes frames or stacks ``(..., n, m)`` of them; ``||b b^H a - a||`` is
    checked against :data:`SPAN_TOL` at every stack entry, so a NaN fails it.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    defect = float(np.max(frobenius(_times(b, _overlap(b, a)) - a), initial=0.0))
    if not defect <= SPAN_TOL:
        raise SpanMismatch(
            f"frames do not span the same subspace (defect {defect:.3e} > {SPAN_TOL:.1e})",
            defect=defect,
        )


def unitary_between(a, b):
    """Unitary ``u`` with ``a @ u ~= b`` for frames spanning the same subspace.

    Takes frames or stacks ``(..., n, m)`` of them.  The span agreement is
    checked by :func:`check_same_span`.  The returned matrix is polished to
    exact unitarity.
    """
    a = np.asarray(a)
    check_same_span(a, b)
    return lowdin(np.swapaxes(a.conj(), -1, -2) @ np.asarray(b))


def _grid_shape(geometry, region):
    """Leading shape of the data of a field over ``region``."""
    return geometry.torus_shape if region == "full-torus" else geometry.cell_shape


@dataclass
class FrameField:
    """Frames attached to grid points of a :class:`~blochframe.cells.CellGeometry`.

    ``region`` is ``"effective-cell"`` or ``"full-torus"``; ``data`` has
    shape ``geometry.cell_shape + (n, m)`` for the first and
    ``geometry.torus_shape + (n, m)`` for the torus.  A grid point ``g``
    of the cell is stored at ``data[geometry.cell_index(g)]``, one of the
    torus at ``data[g]``.  Data of another leading shape, or an unknown
    region, raises ``ValueError``.
    """

    geometry: object
    region: str
    data: np.ndarray
    meta: dict = field(default_factory=dict)

    REGIONS = ("effective-cell", "full-torus")

    def __post_init__(self):
        if self.region not in self.REGIONS:
            raise ValueError(f"unknown region {self.region!r}")
        grid = _grid_shape(self.geometry, self.region)
        if self.data.shape[:-2] != grid:
            raise ValueError(f"data of shape {self.data.shape} does not cover the "
                             f"{self.region} of shape {grid}")

    # -- construction ---------------------------------------------------
    @classmethod
    def empty(cls, geometry, n, m, region="effective-cell"):
        """Field over ``region`` filled with NaN, which the caller
        overwrites whole; a point it leaves unwritten poisons the
        field's residuals."""
        data = np.full(_grid_shape(geometry, region) + (n, m), np.nan, dtype=complex)
        return cls(geometry=geometry, region=region, data=data)

    @property
    def n(self):
        return self.data.shape[-2]

    @property
    def m(self):
        return self.data.shape[-1]

    # -- diagnostics ----------------------------------------------------
    def orthonormality_defect(self):
        """Largest ``||frame^H frame - 1||`` over every stored point;
        NaN when any frame holds a NaN."""
        return float(np.max(frobenius(_overlap(self.data, self.data) - np.eye(self.m))))


# ----------------------------------------------------------------------
# deterministic input frame by discrete parallel transport
# ----------------------------------------------------------------------
def _fix_column_phases(frame):
    """Deterministic per-column phase: largest-modulus entry made real positive."""
    frame = frame.copy()
    for a in range(frame.shape[1]):
        col = frame[:, a]
        i = int(np.argmax(np.abs(col)))
        z = col[i]
        if abs(z) > 0:
            frame[:, a] = col * (np.conj(z) / abs(z))
    return frame


# The transport's and the certificates' stacked products are sums of
# broadcast products over the inner index, one term at a time: on stacks of
# m x m and n x m matrices that is faster than a stacked ``@`` or an
# ``np.sum`` over the axis.
def _times(a, b):
    """``a @ b`` on stacks of small matrices."""
    out = a[..., :, 0, None] * b[..., 0, None, :]
    for j in range(1, a.shape[-1]):
        out += a[..., :, j, None] * b[..., j, None, :]
    return out


def _overlap(a, b):
    """``a^H @ b`` on stacks of small matrices."""
    a = a.conj()
    out = a[..., 0, :, None] * b[..., 0, None, :]
    for x in range(1, a.shape[-2]):
        out += a[..., x, :, None] * b[..., x, None, :]
    return out


def _adjoint(a):
    return np.swapaxes(a.conj(), -1, -2)


def input_frame(family, geometry, region="effective-cell"):
    """Continuous-in-practice input frame by discrete parallel transport.

    Seeds a phase-fixed spectral eigenbasis at ``k = 0`` and transports it
    along the first axis, then fans out along the remaining axes, one grid
    step at a time; each step projects the previous frame onto the next
    point's subspace and reorthonormalizes symmetrically.  No symmetry is
    imposed; the result is the raw gauge the construction refines.  With
    ``region="full-torus"`` the sweep covers the whole fundamental domain
    instead (used as a control; the seam at the wrap is then deliberately
    left discontinuous).

    The steps are taken on the occupied eigenframes ``v`` of the family's
    torus sample (:meth:`~blochframe.models.ProjectorFamily.grid_frames`)
    and carried as an ``m x m`` gauge: the frame is ``psi = v W``.  With
    ``P = v v^H`` a step from ``psi(i)`` is ``polar(P(i+1) psi(i)) = v(i+1)
    U_i W(i)``, where ``U_i = polar(O_i)`` is the polar factor of the link
    overlap ``O_i = v(i+1)^H v(i)`` (Marzari and Vanderbilt, PRB 56, 12847,
    1997), so ``W(i+1) = U_i W(i)`` and a backward step multiplies by
    ``U_i^H``.  The sweep along axis ``j`` takes the links of the whole slab
    the earlier axes cover at once, one overlap and one polar factor per
    link, and runs the product in lockstep over the slab; every point sees
    the steps of a point-by-point walk.  A link whose overlap has a singular
    value below ``RANK_FLOOR`` raises :class:`GridTooCoarse` at the first
    such step in sweep order (forward from the origin, then backward), with
    the step's worst destination point and its singular value.

    Returns the field; ``field.meta["transport_step_sup"]`` records the
    largest frame distance between adjacent transported points, a continuity
    proxy proportional to the grid step for smooth families, which the
    construct manifest keeps; it is taken once per axis, from the
    differences along that axis of the slab its sweep filled.
    """
    d = family.d
    if region == "full-torus":
        box = geometry.torus_points()
        origin = (0,) * d
    else:
        box = geometry.cell_points()
        origin = (0,) + (geometry.grid_n,) * (d - 1)
    frames = family.grid_frames(geometry.grid_n, box)
    seed = frames[origin]
    gauge = np.full(box.shape[:-1] + (family.m, family.m), np.nan, dtype=complex)
    gauge[origin] = _overlap(seed, lowdin(_fix_column_phases(seed)))

    slabs = []
    for axis in range(d):
        # slab: every point the earlier axes cover, any x_axis, and the
        # later coordinates at the origin; link i joins slab[.., i] to
        # slab[.., i + 1] along the axis
        head, tail = (slice(None),) * axis, origin[axis + 1:]
        slab = head + (slice(None),) + tail
        slabs.append(slab)
        v = frames[slab]
        links = _overlap(v[head + (slice(1, None),)], v[head + (slice(None, -1),)])
        try:
            polar = lowdin(links, rank_tol=RANK_FLOOR)
        except ValueError:
            raise _rank_loss(links, axis, origin[axis], box[slab]) from None
        w = gauge[slab]
        for i in range(origin[axis], v.shape[axis] - 1):
            w[head + (i + 1,)] = _times(polar[head + (i,)], w[head + (i,)])
        for i in range(origin[axis] - 1, -1, -1):
            w[head + (i,)] = _times(_adjoint(polar[head + (i,)]), w[head + (i + 1,)])

    psi = _times(frames, gauge)
    # the sweep's steps are the differences along the axis of the slab it
    # filled: one norm and one max per axis
    step_sup = max(
        float(np.max(np.linalg.norm(np.diff(psi[slab], axis=axis), axis=(-2, -1))))
        for axis, slab in enumerate(slabs)
    )
    return FrameField(geometry, region, psi, {"transport_step_sup": step_sup})


def _rank_loss(links, axis, start, points):
    """:class:`GridTooCoarse` for the first step of the sweep along ``axis``
    (forward from ``start``, then backward) whose link overlap has a
    singular value below ``RANK_FLOOR``, at the step's destination point of
    smallest singular value; ``points`` are the grid points of the slab."""
    sing = np.moveaxis(np.linalg.svd(links, compute_uv=False)[..., -1], axis, 0)
    order = list(range(start, len(sing))) + list(range(start - 1, -1, -1))
    i = next(i for i in order if np.min(sing[i]) < RANK_FLOOR)
    worst = np.unravel_index(np.argmin(sing[i]), sing[i].shape)
    destination = i + 1 if i >= start else i
    point = tuple(int(x) for x in np.moveaxis(points, axis, 0)[destination][worst])
    return GridTooCoarse(
        f"parallel transport lost rank at grid point {point} "
        f"(singular value {sing[i][worst]:.3e}); refine the grid",
        point=point,
        singular_value=float(sing[i][worst]),
    )
