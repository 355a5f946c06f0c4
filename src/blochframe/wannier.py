"""Symmetric extension to the torus and discrete Wannier certificates.

A frame on the effective half cell fixes the frame everywhere through
``Phi(k + e_j) = tau_j Phi(k)`` and ``Phi(-k) = theta Phi(k)``.
:func:`extend_symmetric` copies the slab ``k_1 <= 1/2`` from the cell and
mirrors the rest by time reversal.  Where the two rules identify two stored
frames it checks them: the faces ``k_j = 1/2`` and ``k_j = -1/2`` (``j >=
2``) differ by ``tau_j``, and the slices ``k_1 = 0`` and ``k_1 = 1/2`` are
their own images under ``theta`` and ``tau_1 theta``.

The inverse discrete Fourier transform of that field gives the lattice
Wannier functions, whose reality and localization
:mod:`~blochframe.certify` measures.
"""

from dataclasses import dataclass, field as dataclass_field
from itertools import product

import numpy as np

from .errors import BoundaryRelationViolated, UsageError
from .frames import FrameField

__all__ = [
    "EXTENSION_BOUND",
    "extend_symmetric",
    "WannierSet",
    "wannier_transform",
    "frames_from_wannier",
]

# The largest distance between two stored frames that the boundary
# relations identify: the default tolerance of :func:`extend_symmetric`
# and the bound of the extension certificate.
EXTENSION_BOUND = 1e-10


def extend_symmetric(field, family, tol=EXTENSION_BOUND):
    """Extend an effective-cell frame field to the full torus grid.

    Along each axis ``j >= 2`` the slab ``g_1 <= grid_n`` reads the cell at
    ``g_j <= grid_n``, and ``tau_j`` times the cell at ``g_j - N`` beyond;
    the points ``g_1 > grid_n`` are the
    :meth:`~blochframe.models.ProjectorFamily.reflect` of the slab.  Every
    symmetry here (slab, mirror and relations) is applied by
    :meth:`~blochframe.models.ProjectorFamily.act`, which multiplies by no
    identity matrix.  The boundary relations of the module docstring must
    hold within ``tol`` (``extension_mismatch`` in ``meta`` is their
    largest distance); otherwise, or on a NaN,
    :class:`BoundaryRelationViolated` names the first failing torus point
    in row-major order, its ``k``, the relation and its mismatch there.
    """
    if field.region != "effective-cell":
        raise UsageError("extend_symmetric needs an effective-cell field")
    geometry, cell = field.geometry, field.data
    n, big, d = geometry.grid_n, geometry.n_side, geometry.d
    at = np.ravel_multi_index(np.moveaxis(geometry.cell_points() % big, -1, 0),
                              geometry.torus_shape)
    relations = []
    for j in range(1, d):
        plus, minus = (slice(None),) * j + (-1,), (slice(None),) * j + (0,)
        image = family.act(np.eye(d, dtype=int)[j], cell[minus])
        relations.append((f"translation k{j + 1}", cell[plus] - image, at[plus]))
    # cell[g1, -h] is cell[g1, h] reversed along every axis but the first
    for lam1, label in ((0, "0"), (1, "1/2")):
        image = family.act((lam1,) + (0,) * (d - 1),
                           np.flip(cell[lam1 * n], axis=tuple(range(d - 1))), anti=True)
        relations.append((f"reflection k1={label}", cell[lam1 * n] - image, at[lam1 * n]))
    # first: the row-major first failing torus point; the earlier relation wins a tie
    worst, first = 0.0, (np.inf,)
    for name, diff, where in relations:
        mismatch = np.linalg.norm(diff, axis=(-2, -1))
        worst = max(worst, float(np.max(mismatch)))
        where = np.where(mismatch <= tol, np.inf, where)
        i = np.unravel_index(np.argmin(where), where.shape)
        if where[i] < first[0]:
            first = (where[i], name, float(mismatch[i]))
    if first[0] < np.inf:
        _, name, value = first
        g = tuple(int(x) for x in np.unravel_index(int(first[0]), geometry.torus_shape))
        k = tuple(x / big for x in g)
        raise BoundaryRelationViolated(
            f"boundary relation {name} fails at grid point {g} (k = {k}) by {value:.3e}",
            point=g,
            k=k,
            relation=name,
            mismatch=value,
        )

    out = FrameField.empty(geometry, field.n, field.m, region="full-torus")
    out.meta = dict(field.meta)
    for wrapped in product((0, 1), repeat=d - 1):
        rows = (slice(None, n + 1),) + tuple(
            slice(n + 1, None) if w else slice(None, n + 1) for w in wrapped)
        value = cell[(slice(None),) + tuple(slice(1, n) if w else slice(n, None) for w in wrapped)]
        out.data[rows] = family.act((0,) + wrapped, value)
    out.data[n + 1:] = family.reflect(out.data, range(n + 1, big))
    out.meta["extension_mismatch"] = worst
    return out


@dataclass
class WannierSet:
    """Lattice Wannier amplitudes of a torus frame field.

    ``data`` has the ``d`` lattice axes first (length ``N``, site ``gamma =
    offset + index``) followed by (orbital, band); band ``a`` holds the
    amplitudes ``w_a(gamma, orbital)``.
    """

    geometry: object
    data: np.ndarray
    offset: int
    meta: dict = dataclass_field(default_factory=dict)

    @property
    def d(self):
        return self.geometry.d

    def gamma_axis(self):
        """Lattice coordinates along each axis."""
        return self.offset + np.arange(self.data.shape[0])

    def band_norms(self):
        """Total weight per band; one for frames with orthonormal columns."""
        d = self.geometry.d
        return np.sum(np.abs(self.data) ** 2, axis=tuple(range(d)) + (d,))


def wannier_transform(field):
    """Wannier amplitudes of a full-torus frame field.

    Discretizes the inverse Bloch transform as
    ``w_a(gamma, orb) = N^{-d} sum_g exp(2 pi i g . gamma / N) Phi(g)[orb, a]``
    and centers the lattice window on the origin.  The transform is unitary
    up to the normalization, so each band carries total weight one.
    """
    if field.region != "full-torus":
        raise UsageError("wannier_transform needs a full-torus field")
    geometry = field.geometry
    d = geometry.d
    axes = tuple(range(d))
    amplitudes = np.fft.ifftn(np.asarray(field.data), axes=axes)
    shifted = np.fft.fftshift(amplitudes, axes=axes)
    return WannierSet(
        geometry, shifted, -(geometry.n_side // 2), dict(field.meta)
    )


def frames_from_wannier(wset):
    """Inverse of :func:`wannier_transform` (round-trip check helper)."""
    d = wset.geometry.d
    axes = tuple(range(d))
    data = np.fft.fftn(np.fft.ifftshift(wset.data, axes=axes), axes=axes)
    return FrameField(wset.geometry, "full-torus", data, dict(wset.meta))
