"""Orthonormal frames of spectral subspaces and fields of them on grids.

A frame is a plain ``(n, m)`` complex ndarray whose columns are orthonormal
and span ``Ran P(k)``.  Unitaries act on the right, ``(frame <| u)_b =
sum_a frame_a u_ab``, i.e. ordinary matrix multiplication ``frame @ u``.

A :class:`FrameField` stores one frame per grid point over one of two
regions: the effective cell or the full torus.  Points not yet filled hold
NaN.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import SpanMismatch
from .linalg import lowdin, polish_unitary

__all__ = [
    "FrameField",
    "act",
    "frame_distance",
    "unitary_between",
    "evaluate",
    "input_frame",
]


def act(frame, u, check=True):
    """Right action of a unitary on a frame.

    With ``check`` (default) the unitarity of ``u`` is verified to 1e-10.
    """
    u = np.asarray(u)
    if check:
        defect = np.linalg.norm(u.conj().T @ u - np.eye(u.shape[1]))
        if defect > 1e-10:
            raise ValueError(f"matrix is not unitary (defect {defect:.3e})")
    return np.asarray(frame) @ u


def frame_distance(a, b):
    """Hilbert-Schmidt distance between two frames (Frobenius norm)."""
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))


def unitary_between(a, b, tol=1e-8):
    """Unitary ``u`` with ``a @ u ~= b`` for frames spanning the same subspace.

    The span agreement is checked through ``||b b^H a - a|| <= tol``; a
    violation raises :class:`SpanMismatch`.  The returned matrix is polished
    to exact unitarity.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    defect = float(np.linalg.norm(b @ (b.conj().T @ a) - a))
    if defect > tol:
        raise SpanMismatch(
            f"frames do not span the same subspace (defect {defect:.3e} > {tol:.1e})",
            defect=defect,
        )
    return polish_unitary(a.conj().T @ b)


@dataclass
class FrameField:
    """Frames attached to grid points of a :class:`~blochframe.cells.CellGeometry`.

    ``region`` is ``"effective-cell"`` or ``"full-torus"``; ``data`` has
    shape ``geometry.cell_shape + (n, m)`` for the first and
    ``geometry.torus_shape + (n, m)`` for the torus.  Unfilled points carry
    NaN.
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
        if region == "full-torus":
            shape = geometry.torus_shape + (n, m)
        else:
            shape = geometry.cell_shape + (n, m)
        data = np.full(shape, np.nan, dtype=complex)
        return cls(geometry=geometry, region=region, data=data)

    # -- indexing -------------------------------------------------------
    def _index(self, g):
        if self.region == "full-torus":
            rep, _ = self.geometry.torus_wrap(g)
            return rep
        return self.geometry.cell_index(g)

    def get(self, g):
        return self.data[self._index(g)]

    def set(self, g, frame):
        self.data[self._index(g)] = frame

    def has(self, g):
        if self.region != "full-torus" and not self.geometry.in_effective_cell(g):
            return False
        return not np.any(np.isnan(self.data[self._index(g)]))

    @property
    def n(self):
        return self.data.shape[-2]

    @property
    def m(self):
        return self.data.shape[-1]

    def points(self):
        """Grid points carrying data, in array order."""
        geo = self.geometry
        if self.region == "full-torus":
            return [tuple(int(i) for i in idx) for idx in np.ndindex(geo.torus_shape)]
        pts = []
        for idx in np.ndindex(geo.cell_shape):
            if not np.any(np.isnan(self.data[idx])):
                pts.append(geo.cell_point(idx))
        return pts

    def copy(self):
        return FrameField(self.geometry, self.region, self.data.copy(), dict(self.meta))

    # -- diagnostics ----------------------------------------------------
    def orthonormality_defect(self):
        """Largest ``||frame^H frame - 1||`` over stored points."""
        f = self.data
        gram = np.swapaxes(f.conj(), -1, -2) @ f - np.eye(self.m)
        defects = np.linalg.norm(gram, axis=(-2, -1))
        return float(np.max(defects[~np.isnan(defects)], initial=0.0))


# ----------------------------------------------------------------------
# deterministic input frame by discrete parallel transport
# ----------------------------------------------------------------------
def evaluate(field, family, g):
    """Value of a full-torus frame field at an arbitrary grid point.

    Points outside the stored fundamental domain are reached through the
    lattice equivariance ``Phi(k + lam) = tau_lam Phi(k)``.
    """
    if field.region != "full-torus":
        raise ValueError("evaluate needs a full-torus field")
    rep, lam = field.geometry.torus_wrap(g)
    val = field.get(rep)
    if any(lam):
        val = family.tau_power(lam) @ val
    return val


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


def _transport(projector, frame, rank_tol=0.1):
    """One step of projected transport followed by symmetric orthonormalization."""
    moved = projector @ frame
    try:
        return lowdin(moved, rank_tol=rank_tol)
    except ValueError as exc:
        raise RuntimeError(
            "parallel transport lost rank; grid too coarse for this family"
        ) from exc


def input_frame(family, geometry, region="effective-cell"):
    """Continuous-in-practice input frame by projected parallel transport.

    Seeds a phase-fixed spectral eigenbasis at ``k = 0`` and transports it
    along the first axis, then fans out along the remaining axes, one grid
    step at a time (each step projects the previous frame and reorthonormalizes
    symmetrically).  No symmetry is imposed; the result is the raw gauge the
    construction refines.  With ``region="full-torus"`` the sweep covers the
    whole fundamental domain instead (used as a control; the seam at the wrap
    is then deliberately left discontinuous).

    Returns the field; ``field.meta["transport_step_sup"]`` records the
    largest frame distance between adjacent transported points, a continuity
    proxy proportional to the grid step for smooth families.
    """
    d, n, m = family.d, family.n, family.m
    fld = FrameField.empty(geometry, n, m, region=region)

    if region == "full-torus":
        axis_ranges = [range(0, geometry.n_side)] * d
    else:
        axis_ranges = [range(0, geometry.grid_n + 1)] + [
            range(-geometry.grid_n, geometry.grid_n + 1)
        ] * (d - 1)
    origin = (0,) * d

    # the sweep visits every point of the box spanned by the axis ranges
    box = np.stack(np.meshgrid(*axis_ranges, indexing="ij"), axis=-1)
    projectors = family.projector(geometry.k_of(box))
    corner = np.array([rng.start for rng in axis_ranges])

    def proj(g):
        return projectors[tuple(np.subtract(g, corner))]

    seed_frame, _ = family.spectral_frame(np.zeros(d))
    seed_frame = lowdin(_fix_column_phases(seed_frame))
    step_sup = 0.0

    fld.set(origin, seed_frame)

    def sweep_axis(base_points, axis):
        """Transport outward along ``axis`` from every point in ``base_points``."""
        nonlocal step_sup
        new_points = []
        rng = axis_ranges[axis]
        lo, hi = rng.start, rng.stop - 1
        for base in base_points:
            for direction in (+1, -1):
                g = list(base)
                prev = fld.get(base)
                while True:
                    nxt = g.copy()
                    nxt[axis] += direction
                    if not lo <= nxt[axis] <= hi:
                        break
                    cur = _transport(proj(tuple(nxt)), prev)
                    fld.set(tuple(nxt), cur)
                    step_sup = max(step_sup, frame_distance(cur, prev))
                    new_points.append(tuple(nxt))
                    prev = cur
                    g = nxt
        return new_points

    covered = [origin]
    for axis in range(d):
        covered = covered + sweep_axis(covered, axis)

    fld.meta["transport_step_sup"] = step_sup
    return fld
