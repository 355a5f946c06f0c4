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
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import GridTooCoarse, SpanMismatch
from .linalg import RANK_FLOOR, lowdin

__all__ = [
    "FrameField",
    "frame_distance",
    "unitary_between",
    "check_same_span",
    "input_frame",
]


def frame_distance(a, b):
    """Hilbert-Schmidt distance between two frames (Frobenius norm)."""
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))


def check_same_span(a, b, tol=1e-8):
    """Raise :class:`SpanMismatch` unless ``a`` and ``b`` span the same subspace.

    Takes frames or stacks ``(..., n, m)`` of them; the agreement is checked
    through ``||b b^H a - a|| <= tol`` at every stack entry, so a NaN in
    either frame fails it.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    moved = b @ (np.swapaxes(b.conj(), -1, -2) @ a) - a
    defect = float(np.max(np.linalg.norm(moved, axis=(-2, -1)), initial=0.0))
    if not defect <= tol:
        raise SpanMismatch(
            f"frames do not span the same subspace (defect {defect:.3e} > {tol:.1e})",
            defect=defect,
        )


def unitary_between(a, b, tol=1e-8):
    """Unitary ``u`` with ``a @ u ~= b`` for frames spanning the same subspace.

    Takes frames or stacks ``(..., n, m)`` of them.  The span agreement is
    checked by :func:`check_same_span`.  The returned matrix is polished to
    exact unitarity.
    """
    a = np.asarray(a)
    check_same_span(a, b, tol=tol)
    return lowdin(np.swapaxes(a.conj(), -1, -2) @ np.asarray(b))


@dataclass
class FrameField:
    """Frames attached to grid points of a :class:`~blochframe.cells.CellGeometry`.

    ``region`` is ``"effective-cell"`` or ``"full-torus"``; ``data`` has
    shape ``geometry.cell_shape + (n, m)`` for the first and
    ``geometry.torus_shape + (n, m)`` for the torus.  A grid point ``g``
    of the cell is stored at ``data[geometry.cell_index(g)]``, one of the
    torus at ``data[g]``.
    """

    geometry: object
    region: str
    data: np.ndarray
    meta: dict = field(default_factory=dict)

    REGIONS = ("effective-cell", "full-torus")

    def __post_init__(self):
        if self.region not in self.REGIONS:
            raise ValueError(f"unknown region {self.region!r}")

    # -- construction ---------------------------------------------------
    @classmethod
    def empty(cls, geometry, n, m, region="effective-cell"):
        """Field over ``region`` filled with NaN, which the caller
        overwrites whole; a point it leaves unwritten poisons the
        field's residuals."""
        if region == "full-torus":
            shape = geometry.torus_shape + (n, m)
        else:
            shape = geometry.cell_shape + (n, m)
        data = np.full(shape, np.nan, dtype=complex)
        return cls(geometry=geometry, region=region, data=data)

    @property
    def n(self):
        return self.data.shape[-2]

    @property
    def m(self):
        return self.data.shape[-1]

    def copy(self):
        return FrameField(self.geometry, self.region, self.data.copy(), dict(self.meta))

    # -- diagnostics ----------------------------------------------------
    def orthonormality_defect(self):
        """Largest ``||frame^H frame - 1||`` over every stored point;
        NaN when any frame holds a NaN."""
        f = self.data
        gram = np.swapaxes(f.conj(), -1, -2) @ f - np.eye(self.m)
        return float(np.max(np.linalg.norm(gram, axis=(-2, -1))))


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


def input_frame(family, geometry, region="effective-cell"):
    """Continuous-in-practice input frame by projected parallel transport.

    Seeds a phase-fixed spectral eigenbasis at ``k = 0`` and transports it
    along the first axis, then fans out along the remaining axes, one grid
    step at a time (each step projects the previous frame and reorthonormalizes
    symmetrically).  The sweep along axis ``j`` moves the whole slab the
    earlier axes cover in lockstep, so every point sees the same steps as a
    point-by-point walk.  No symmetry is imposed; the result is the raw gauge
    the construction refines.  With ``region="full-torus"`` the sweep covers
    the whole fundamental domain instead (used as a control; the seam at the
    wrap is then deliberately left discontinuous).  The projectors and the
    seed are read from the family's torus sample
    (:meth:`~blochframe.models.ProjectorFamily.grid_projectors`).

    The sweep writes every stored point.  Returns the field;
    ``field.meta["transport_step_sup"]`` records the largest frame distance
    between adjacent transported points, a continuity proxy proportional to
    the grid step for smooth families, which the construct manifest keeps;
    it is taken once per axis, from the differences along that axis of the
    slab its sweep filled.
    """
    d = family.d
    fld = FrameField.empty(geometry, family.n, family.m, region=region)

    # the stored array is the sweep box: axis j runs over lo_j + range(shape_j)
    if region == "full-torus":
        lo = np.zeros(d, dtype=int)
    else:
        lo = np.array([0] + [-geometry.grid_n] * (d - 1))
    shape = fld.data.shape[:d]
    box = np.moveaxis(np.indices(shape), 0, -1) + lo
    projectors = family.grid_projectors(
        geometry.grid_n, None if region == "full-torus" else box
    )
    origin = tuple(-lo)

    evals, evecs = family.torus_eigensystem(geometry.grid_n)
    zero = (0,) * d
    seed_frame, _ = family.spectral_frame(np.zeros(d), (evals[zero], evecs[zero]))
    fld.data[origin] = lowdin(_fix_column_phases(seed_frame))
    step_sup = 0.0

    for axis in range(d):
        # slab i: every point the earlier axes cover, with x_axis = lo + i
        # and the later coordinates at the origin
        head, tail = (slice(None),) * axis, origin[axis + 1:]
        for direction in (+1, -1):
            i = origin[axis]
            while 0 <= i + direction < shape[axis]:
                prev = fld.data[head + (i,) + tail]
                i += direction
                at = head + (i,) + tail
                moved = projectors[at] @ prev
                try:
                    cur = lowdin(moved, rank_tol=RANK_FLOOR)
                except ValueError:
                    sing = np.linalg.svd(moved, compute_uv=False)[..., -1]
                    worst = np.unravel_index(np.argmin(sing), sing.shape)
                    point = tuple(int(x) for x in box[at][worst])
                    raise GridTooCoarse(
                        f"parallel transport lost rank at grid point {point} "
                        f"(singular value {sing[worst]:.3e}); refine the grid",
                        point=point,
                        singular_value=float(sing[worst]),
                    ) from None
                fld.data[at] = cur
        # the sweep's steps are the differences along the axis of the slab
        # it filled: one norm and one max per axis
        swept = fld.data[head + (slice(None),) + tail]
        step = np.linalg.norm(np.diff(swept, axis=axis), axis=(-2, -1))
        step_sup = max(step_sup, float(np.max(step)))

    fld.meta["transport_step_sup"] = step_sup
    return fld
