"""Symmetric extension to the torus and discrete Wannier certificates.

A frame on the effective half cell determines its values everywhere: any
grid point ``g`` of the torus can be written ``g = (-1)^s g' + N lam`` with
``g'`` in the half cell, and the frame there must be ``tau^lam theta^s`` of
the stored one.  :func:`extend_symmetric` evaluates every such reduction,
verifies they all agree (this check subsumes each boundary gluing relation
of the construction) and produces the full-torus field.

The inverse discrete Fourier transform of that field gives the lattice
Wannier functions; their reality and localization are measured here, since
they are precisely the properties the frame construction exists to deliver.
"""

from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .errors import BoundaryRelationViolated, UsageError
from .frames import FrameField
from .smoothing import apply_twist, twist_gauge

__all__ = [
    "extend_symmetric",
    "WannierSet",
    "wannier_transform",
    "frames_from_wannier",
    "reality_check",
    "localization_report",
]

# First radius and amplitude floor of localization_report's shell fit.
FIT_MIN = 2
SHELL_FLOOR = 1e-13


def extend_symmetric(field, family, tol=1e-10):
    """Extend an effective-cell frame field to the full torus grid.

    Every torus point takes the value of its first reduction in canonical
    order; at points with several reductions (boundary identifications and
    their time-reversed partners) all candidate values must agree within
    ``tol``, otherwise :class:`BoundaryRelationViolated` reports the first
    such grid point in row-major order, its quasimomentum and the two
    disagreeing reductions; a NaN mismatch (from a NaN frame) is refused
    the same way.  Returns the full-torus field together with the largest
    observed mismatch.
    """
    if field.region != "effective-cell":
        raise UsageError("extend_symmetric needs an effective-cell field")
    geometry = field.geometry
    out = FrameField.empty(geometry, field.n, field.m, region="full-torus")
    out.meta = dict(field.meta)
    candidates = geometry.reductions(geometry.torus_points())
    first = np.full(geometry.torus_shape, -1)
    mismatch = np.zeros(geometry.torus_shape + (len(candidates),))
    for c, (s, lam, k_prime, valid) in enumerate(candidates):
        value = field.data[geometry.cell_index(k_prime[valid])]
        if s:
            value = family.theta_matrix() @ np.conj(value)
        # torus points have g // n_side = 0, so lam is the candidate's step
        value = family.tau_power(lam[(0,) * geometry.d]) @ value
        fresh = valid & (first < 0)
        held = valid & ~fresh
        taken = fresh[valid]
        mismatch[held, c] = np.linalg.norm(value[~taken] - out.data[held], axis=(-2, -1))
        out.data[fresh] = value[taken]
        first[fresh] = c
    over = ~(mismatch <= tol)
    if over.any():
        g = np.unravel_index(int(np.argmax(over.any(axis=-1))), geometry.torus_shape)
        g = tuple(int(x) for x in g)
        k = tuple(x / geometry.n_side for x in g)
        second = int(np.argmax(over[g]))

        def described(c):
            s, lam, k_prime, _ = candidates[c]
            return (s, tuple(lam[g].tolist()), tuple(k_prime[g].tolist()))

        first_red, second_red = described(first[g]), described(second)
        mism = float(mismatch[g][second])
        raise BoundaryRelationViolated(
            f"symmetry relations disagree at grid point {g} "
            f"(k = {k}): reductions (s, lam, rep) {first_red} and "
            f"{second_red} differ by {mism:.3e}",
            point=g,
            k=k,
            reductions=(first_red, second_red),
            mismatch=mism,
        )
    out.meta["extension_mismatch"] = float(np.max(mismatch))
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

    @property
    def n_bands(self):
        return self.data.shape[-1]

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


def reality_check(wset, family):
    """Reality certificate of the Wannier amplitudes.

    With plain-conjugation time reversal the amplitudes of a symmetric
    frame are real and the defect is ``max |Im w|``.  A model with a
    nontrivial conjugation unitary ``C`` cannot have literally real
    functions; the invariant condition is ``w = C conj(w)`` and the defect
    measures that instead (``mode`` reports which certificate applies).
    Families with a nontrivial translation representation are first moved
    to the adapted gauge, in which unit shifts act trivially; the stored
    gauge mixes the two members of each reflection pair across the grid
    seam and neither certificate can close there (``untwisted`` records
    whether this happened).
    """
    data = wset.data
    untwisted = False
    if family.tau is not None:
        axes = tuple(range(wset.geometry.d))
        stored = np.fft.fftn(np.fft.ifftshift(data, axes=axes), axes=axes)
        periodic = apply_twist(twist_gauge(wset.geometry, family), stored, inverse=True)
        data = np.fft.fftshift(np.fft.ifftn(periodic, axes=axes), axes=axes)
        untwisted = True
    if family.theta is None:
        return {
            "mode": "imag",
            "untwisted": untwisted,
            "defect": float(np.max(np.abs(data.imag))),
        }
    c = family.theta_matrix()
    image = np.einsum("ab,...bm->...am", c, np.conj(data))
    return {
        "mode": "theta",
        "untwisted": untwisted,
        "defect": float(np.max(np.abs(data - image))),
    }


def _radius_grid(wset):
    """Sup-norm lattice radius of every site in the window."""
    d = wset.geometry.d
    gamma = np.abs(wset.gamma_axis())
    radius = np.zeros((len(gamma),) * d, dtype=int)
    for j in range(d):
        shape = [1] * d
        shape[j] = len(gamma)
        radius = np.maximum(radius, gamma.reshape(shape))
    return radius


def localization_report(wset, fit_max=None, moment_window=None):
    """Localization certificate: moments, shell decay and an exponential fit.

    Moments are ``M_r = sum <gamma>^{2r} |w|^2`` per band for ``r`` up to 4
    with the weight ``<gamma> = (1 + |gamma|^2)^{1/2}``; shells collect the
    sup amplitude at each sup-norm radius.  ``moment_window`` truncates the
    moment sums to sup-norm radius at most that value, which makes reports
    from different grid sizes comparable (the outermost shells of a coarse
    grid carry its wrap-around error).  The decay rate is a least squares
    fit of ``log`` shell sups over radii ``FIT_MIN..fit_max`` (default half
    the window), ignoring shells below ``SHELL_FLOOR``; its quality is reported
    as ``r_squared``.  ``max_decreasing_run`` counts the longest chain of
    consecutive strictly decreasing shells.
    """
    d = wset.geometry.d
    grid_n = wset.geometry.grid_n
    if fit_max is None:
        fit_max = grid_n // 2
    weights2 = np.abs(wset.data) ** 2
    radius = _radius_grid(wset)

    gamma = wset.gamma_axis().astype(float)
    dist2 = np.zeros((len(gamma),) * d)
    for j in range(d):
        shape = [1] * d
        shape[j] = len(gamma)
        dist2 = dist2 + (gamma**2).reshape(shape)
    site_axes = tuple(range(d))
    keep_site = 1.0 if moment_window is None else (
        radius <= int(moment_window)
    ).astype(float)
    moments = {}
    for r in range(5):
        w = (1.0 + dist2) ** r * keep_site
        moments[r] = np.sum(
            w.reshape(w.shape + (1, 1)) * weights2, axis=site_axes + (d,)
        ).tolist()
    amplitude = np.max(
        np.abs(wset.data).reshape(wset.data.shape[: d] + (-1,)), axis=-1
    )
    shells = np.zeros(grid_n + 1)
    for rho in range(grid_n + 1):
        mask = radius == rho
        if np.any(mask):
            shells[rho] = float(np.max(amplitude[mask]))

    run = 1
    best_run = 1
    for rho in range(1, len(shells)):
        if shells[rho] < shells[rho - 1] and shells[rho - 1] > SHELL_FLOOR:
            run += 1
        else:
            run = 1
        best_run = max(best_run, run)

    lo = FIT_MIN
    hi = min(len(shells) - 1, int(fit_max))
    radii = np.arange(lo, hi + 1)
    vals = shells[lo : hi + 1]
    keep = vals > SHELL_FLOOR
    rate = None
    r_squared = None
    if np.count_nonzero(keep) >= 3:
        x = radii[keep]
        y = np.log(vals[keep])
        slope, intercept = np.polyfit(x, y, 1)
        pred = slope * x + intercept
        ss_res = float(np.sum((y - pred) ** 2))
        ss_tot = float(np.sum((y - np.mean(y)) ** 2))
        rate = float(-slope)
        r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot

    interior = radius < grid_n
    tail = 1.0 - float(
        np.sum(weights2[interior]) / max(np.sum(weights2), 1e-300)
    )
    return {
        "moments": moments,
        "moment_window": None if moment_window is None else int(moment_window),
        "shell_radii": np.arange(grid_n + 1).tolist(),
        "shell_sup": shells.tolist(),
        "max_decreasing_run": int(best_run),
        "fit_range": [int(lo), int(hi)],
        "decay_rate": rate,
        "r_squared": r_squared,
        "window_tail_fraction": tail,
    }
