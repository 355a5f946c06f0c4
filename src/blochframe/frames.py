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

Two functions build the field the construction starts from, both as the
family's sampled eigenframes ``v`` times an ``m x m`` gauge, so neither
forms an ``n x n`` projector nor runs an eigensolve:

* :func:`columns_frame`, tried first, projects one fixed set of selected
  columns, ``lowdin(P(k) D(k) X)`` (SCDM-k).  Its gauge at each point is
  the polar factor of ``v^H D(k) X``.  With ``C conj(X) = X`` the frame is
  already periodic up to ``tau`` and time-reversal symmetric, so its
  obstruction unitaries are the identity, the construction barely moves
  it, and on every built-in workload the smoothing ladder stops at its
  first rung.  Where a column is orthogonal to the occupied space at some
  grid point (a singular value below ``RANK_FLOOR``), it refuses with
  :class:`ProjectionRankLoss`;
* :func:`input_frame`, the fallback, transports a frame across the grid:
  each step multiplies the gauge by the polar factor of an ``m x m`` link
  overlap between neighbouring eigenframes.  Its frame is continuous but
  not symmetric, which the construction repairs.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import GridTooCoarse, ProjectionRankLoss, SpanMismatch
from .linalg import RANK_FLOOR, gram_polar, lowdin

__all__ = [
    "FrameField",
    "frobenius",
    "unitary_between",
    "check_same_span",
    "input_frame",
    "columns_frame",
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


def _pivoted_rows(a, m):
    """The ``m`` rows of ``a`` that a greedy column-pivoted QR of ``a^H``
    picks, in pick order: the row of largest residual norm, then every row
    less its component along the picked one; ties go to the first row."""
    rest = np.array(a, dtype=complex)
    picks = []
    for _ in range(m):
        norms = np.sum(rest.real**2 + rest.imag**2, axis=1)
        i = int(np.argmax(norms))
        picks.append(i)
        q = rest[i] / np.sqrt(norms[i])
        rest -= np.outer(rest @ q.conj(), q)
    return picks


def columns_frame(family, geometry):
    """Input frame of selected columns on the effective cell (SCDM-k:
    Damle, Lin and Ying, J. Comput. Phys. 2017).

    ``psi(k) = lowdin(P(k) D(k) X)`` for one fixed ``n x m`` matrix ``X``,
    with the untwisting gauge ``D(k)`` of
    :meth:`~blochframe.models.ProjectorFamily.twist`.  ``X = U Y``: ``U`` is
    the :func:`~blochframe.vertex.symmetric_sqrt` of the conjugation
    unitary ``C = U U^T`` (``act`` of the identity, so ``C conj(X) = X``),
    and ``Y`` holds the ``m`` identity columns that a greedy column-pivoted
    QR picks from the rows of ``U^H v(0)``, the occupied eigenframe at ``k =
    0`` in that basis.  ``P D X`` is then periodic up to ``tau`` and, where
    ``D(-k) = C conj(D(k)) C^-1``, time-reversal symmetric, so every
    obstruction unitary of the frame is the identity and the construction
    has nothing to wind.

    ``P(k) D(k) X`` is ``v (v^H D(k) X)`` on the occupied eigenframes ``v``
    of the family's torus sample, and its polar factor is ``v`` times that
    of the ``m x m`` overlap ``v^H D(k) X``: no eigensolve runs.  Where the
    overlap has a singular value below ``RANK_FLOOR`` at some cell point,
    :class:`ProjectionRankLoss` names the worst point, its singular value
    and the columns; no grid refines that away, since a column of ``X`` can
    be orthogonal to ``P(k)`` at a ``k`` of every grid.

    Returns the field; ``field.meta`` holds the picked ``columns``, the
    ``smallest_singular_value`` of the overlaps over the cell and
    ``transport_step_sup``, the largest frame distance between grid
    neighbours of the cell along any axis.
    """
    from .vertex import symmetric_sqrt

    points = geometry.cell_points()
    frames = family.grid_frames(geometry.grid_n, points)
    # U = 1 where theta is plain conjugation (C = 1): no n x n eigh runs there
    u = np.eye(family.n) if family.theta is None else symmetric_sqrt(
        family.act((0,) * family.d, np.eye(family.n), anti=True))[0]
    origin = (0,) + (geometry.grid_n,) * (family.d - 1)
    columns = _pivoted_rows(u.conj().T @ frames[origin], family.m)
    x = u[:, columns]
    overlap = _overlap(frames, family.twist(points / geometry.n_side, x))
    # the Gram eigenvalues screen; an SVD measures a rank loss exactly
    smallest = float(np.sqrt(max(np.min(gram_polar(overlap)[0]), 0.0)))
    if not smallest >= RANK_FLOOR:
        sing = np.linalg.svd(overlap, compute_uv=False)[..., -1]
        worst = np.unravel_index(np.argmin(sing), sing.shape)
        smallest = float(sing[worst])
        point = tuple(int(g) for g in points[worst])
        raise ProjectionRankLoss(
            f"selected columns {columns} fall out of the fibers at grid point {point} "
            f"(singular value {smallest:.3e} < {RANK_FLOOR})",
            point=point, singular_value=smallest, columns=columns,
        )
    psi = _times(frames, lowdin(overlap))
    step_sup = max(float(np.max(frobenius(np.diff(psi, axis=axis))))
                   for axis in range(family.d))
    meta = {"columns": columns, "smallest_singular_value": smallest,
            "transport_step_sup": step_sup}
    return FrameField(geometry, "effective-cell", psi, meta)


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
