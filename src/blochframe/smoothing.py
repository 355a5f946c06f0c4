"""Symmetry-preserving smoothing of torus frame fields.

The constructed frame is continuous but only piecewise smooth (the cone
extensions have sector kinks), which would spoil the localization of its
Wannier images.  This module provides the three tools that repair that
without losing the symmetries:

* geodesic midpoints on the unitary group, used to average a frame with a
  symmetry image of itself.  For frames ``a`` and ``b = a u`` spanning the
  same subspace the midpoint ``a exp(log(u)/2)`` is the polar factor of
  ``a + b``, because ``polar(1 + u) = u^(1/2)`` whenever ``u`` has no
  eigenvalue ``-1``; no principal logarithm is taken, and stacks of frames
  are midpointed in one call;
* a band-limiting smoother: the frame entries are made genuinely periodic
  by :meth:`~blochframe.models.ProjectorFamily.twist`, damped with a
  flat-top Fourier multiplier (weight one up to half the cutoff, linear
  taper to zero at the cutoff), twisted back, re-projected onto the fibers
  and re-orthonormalized; the cutoff is raised, up to ``n_side - 1``, until the
  result is within the requested distance of the input.  The projection
  onto the fibers is ``v (v^H c)`` on the family's sampled eigenframes
  ``v``; no ``n x n`` projector is formed.  A rung is first
  screened on the stride-2 subgrid, whose values the aliased coefficients
  give exactly through an inverse FFT of ``1/2**d`` the size; the
  eigenvalues and polar factor of its ``m x m`` Gram matrices can only
  reject it there.  A rung the subgrid keeps is projected on the slab
  ``k_1 <= 1/2`` and decided by the package's one polar factor,
  :func:`~blochframe.linalg.lowdin`;
* the reflection ``Phi(-k) = theta Phi(k)``, which fixes a symmetric field
  by its slab ``k_1 <= 1/2``: the smoothed slab is mirrored to the rest of
  the torus, and the two self-paired slices ``k_1 = 0`` and ``k_1 = 1/2``
  are midpointed with their own images.  :func:`symmetrize` does the same
  for every grid pair of a whole torus field.  Every image is read by the
  family's one reflection gather,
  :meth:`~blochframe.models.ProjectorFamily.reflect`.

Averaging with a translation-invariant kernel commutes with the lattice
action, and real even multipliers commute with the reflection symmetry, so
both structures survive to roundoff; only closeness to the input has to be
measured.  The flat-top kernel is not positive, but its summed magnitude
stays bounded by a small constant, and the reprojection step removes
whatever orthonormality drift the averaging introduces.
"""

import numpy as np

from .certify import reflection_defect, sup_distance
from .errors import EpsilonInfeasible, ProjectionRankLoss, TooFarApart, UsageError
from .frames import FrameField, _overlap, _times, check_same_span, frobenius
from .linalg import RANK_FLOOR, gram_polar, lowdin

__all__ = [
    "MIDPOINT_LIMIT",
    "frame_midpoint",
    "symmetrize",
    "periodic_smooth",
    "smooth_symmetric",
]

# Frames at least this far apart (Hilbert-Schmidt) are not midpointed.
# Everything this module midpoints is far closer than this.
MIDPOINT_LIMIT = 0.25 * np.pi

# The subgrid Gram screen rejects a smoothing rung only when it misses the
# rank floor or the distance target by more than this times its condition
# number squared.
SCREEN_MARGIN = 1e-12

# periodic_smooth refuses an input field whose orthonormality or reflection
# defect exceeds this.
PRECONDITION_TOL = 1e-6


def frame_midpoint(a, b):
    """Midpoint of two frames, or two stacks ``(..., n, m)`` of frames, that
    span the same subspace (:class:`SpanMismatch` otherwise).

    The frames must be closer than :data:`MIDPOINT_LIMIT` in frame distance
    (:class:`TooFarApart` otherwise); the result is ``a`` acted on by the
    geodesic midpoint of the unitary carrying ``a`` to ``b``, computed as the
    polar factor of ``a + b``.  Commutative in its arguments and equivariant
    under unitary and antiunitary maps of the ambient space, up to roundoff.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    check_same_span(a, b)
    sep = float(np.max(frobenius(b - a), initial=0.0))
    if sep >= MIDPOINT_LIMIT:
        raise TooFarApart(
            f"frames at distance {sep:.3f}, limit {MIDPOINT_LIMIT:.3f}",
            distance=sep,
            limit=MIDPOINT_LIMIT,
        )
    return lowdin(a + b)


# ---------------------------------------------------------------------------
# reflection pairs on the torus grid


def symmetrize(field, family):
    """Restore the reflection property exactly by pairwise midpointing.

    For each grid pair ``(k, -k)`` the owner frame (the row-major first point
    of the pair) is replaced by its midpoint with the time-reversed partner
    frame, and the partner is set to the exact time-reversed image of the
    result; self-paired points (where ``-k = k`` on the torus) are
    midpointed with their own image, which is a fixed point of the
    involution.  Owners at least :data:`MIDPOINT_LIMIT` from their image are
    collected and reported in a single :class:`TooFarApart`.

    Returns ``(field, report)``; the report holds the worst defect before
    (``reflection_before``) and the measured sup distance between the
    result and the input (``max_shift``).  The defect after is not
    measured here: :func:`~blochframe.certify.final_residuals` reports it.
    """
    if field.region != "full-torus":
        raise UsageError("symmetrize needs a full-torus field")
    geometry = field.geometry
    data = field.data.copy()
    report = _midpoint_pairs(data, family, _owners(geometry), range(geometry.n_side))
    return FrameField(geometry, field.region, data, dict(field.meta)), report


def _owners(geometry):
    """The row-major first point of each torus pair ``(g, (-g) mod N)``;
    a self-paired point is its own pair's owner."""
    partner, _ = geometry.reflection_map()
    flat = np.ravel_multi_index(
        tuple(np.moveaxis(partner, -1, 0)), geometry.torus_shape
    )
    return np.arange(flat.size).reshape(flat.shape) <= flat


def _midpoint_pairs(torus, family, owner, rows):
    """Midpoint the ``owner`` frames of the torus rows ``g_1 in rows`` (an
    ascending ``range``) with their images under the reflection, and set
    every other frame of those rows to the image of the result, in place.

    Every pair lies within ``rows``; ``owner`` marks the owners there.
    Owners at least :data:`MIDPOINT_LIMIT` from their image are collected
    and reported, as torus points, in a single :class:`TooFarApart`.
    Returns :func:`symmetrize`'s report.
    """
    data = torus[rows]
    image = family.reflect(torus, rows)
    defect = frobenius(data - image)
    far = owner & (defect >= MIDPOINT_LIMIT)
    if np.any(far):
        failures = [
            {"point": (int(rows[g[0]]), *(int(x) for x in g[1:])),
             "distance": float(defect[tuple(g)])}
            for g in np.argwhere(far)
        ]
        raise TooFarApart(
            f"{len(failures)} grid pair(s) too far apart to midpoint",
            points=failures,
        )
    out = data.copy()
    out[owner] = frame_midpoint(data[owner], image[owner])
    torus[rows] = out
    out[~owner] = family.reflect(torus, rows)[~owner]
    torus[rows] = out
    return {
        "reflection_before": float(np.max(defect[owner])),
        "max_shift": sup_distance(out, data),
    }


# ---------------------------------------------------------------------------
# Fejer smoothing


def _gram_screen(candidate, data, rank_floor, target):
    """Reject a ladder rung from its ``m x m`` Gram matrices when that is safe.

    :func:`~blochframe.linalg.gram_polar` gives the singular values
    ``sqrt(w)`` of the projected frames ``c`` and their polar factor from
    ``G = c^H c``.  That route loses accuracy like the condition number
    ``kappa`` squared, for the closed forms of ``m <= 2`` as for ``eigh``,
    so it rejects only a rung whose smallest singular value is below
    ``rank_floor``, or whose sup distance to ``data`` is above ``target``,
    by more than ``SCREEN_MARGIN * kappa**2``.

    Returns the rejected rung's ``tried`` entry, or ``None`` when the
    screen cannot reject it.
    """
    w_min, w_max, polar = gram_polar(candidate)
    if polar is None:
        return None
    smallest = float(np.min(w_min))
    low = float(np.sqrt(smallest))
    margin = SCREEN_MARGIN * float(np.max(w_max)) / smallest
    if low < rank_floor - margin:
        return {"rank_loss": low}
    if low < rank_floor + margin:
        return None
    dist = sup_distance(polar, data)
    if dist > target + margin:
        return {"sup_distance": dist}
    return None


def periodic_smooth(field, family, epsilon):
    """Band-limit a symmetric torus field to within ``0.9 * epsilon``.

    The field entries are untwisted to exactly periodic functions by
    ``D(k)^-1`` (:meth:`~blochframe.models.ProjectorFamily.twist`), their
    discrete Fourier coefficients are damped by the flat-top multiplier
    ``prod_j min(1, max(0, 2 - 2 |q_j| / K))`` (untouched harmonics up to
    ``K/2``, linear taper to zero at ``K``), and the inverse transform is
    cut to the slab ``g_1 <= grid_n``.  There it is twisted back by
    ``D(k)``, projected onto ``Ran P(k)`` as ``v (v^H c)`` on the
    eigenframes ``v`` of the family's torus sample, and symmetrically
    re-orthonormalized, and its sup distance to the input is measured.  The
    accepted rung's slab is mirrored to ``g_1 > grid_n`` by
    :meth:`~blochframe.models.ProjectorFamily.reflect`: the real, even
    multiplier commutes with the reflection, so the other half of the
    full-torus result is that mirror up to roundoff.

    The cutoff ``K`` climbs a geometric ladder from 2 until the sup frame
    distance to the input drops below ``0.9 * epsilon``; the smallest
    workable cutoff is kept, since every extra harmonic slows the Wannier
    decay.  The ladder ends at ``n_side - 1``: from ``K = n_side``
    on the multiplier is one on every grid harmonic, so such a rung smooths
    nothing.  A step that would pass ``n_side - 1`` tries ``n_side - 1``
    itself, and exhausting the ladder raises :class:`EpsilonInfeasible`.
    A projection losing rank (smallest singular value below
    ``linalg.RANK_FLOOR``) marks the cutoff as infeasible and the search
    continues upward; if no cutoff succeeds the last rank failure is
    raised as :class:`ProjectionRankLoss`.

    Each rung is decided in two steps:

    * on the slab's points of the stride-2 subgrid.  The smoothed field at
      the even grid points is exactly the inverse FFT, ``1/2**d`` the size
      and divided by ``2**d``, of the damped coefficients folded mod
      ``n_side / 2`` (DFT aliasing); its rows ``0 .. grid_n / 2`` are the
      slab's.  A sup distance above the target, or a singular value below
      the floor, at those points holds on the whole torus, so
      :func:`_gram_screen` rejects such a rung there; its ``tried`` entry
      carries the subgrid value, a lower bound of the torus one, and
      ``"subgrid": true``.  The subgrid never accepts: the frame may be far
      off only at odd points.  A rung rejected there for its distance is
      recorded as a distance failure even if the torus would also show a
      rank loss;
    * on the slab, by the frames ``lowdin(candidate,
      rank_tol=RANK_FLOOR)`` (the closed form for ``m <= 2`` and condition
      at most 10, the SVD otherwise) and their sup distance.  A rank loss
      there records the smallest singular value of the candidate's SVD,
      and a :class:`ProjectionRankLoss` names a slab point.

    So the chosen cutoff is that of a ladder decided by ``lowdin`` alone,
    and the report's ``sup_distance`` is the distance of the returned
    frames on the slab; :func:`smooth_symmetric` measures the whole torus.

    Returns ``(field, report)``; the report records the chosen cutoff, its
    fraction of ``n_side`` and whether it zeroes the grid's Nyquist shell
    (``K <= n_side // 2``; reported, not gated), the measured distance, the
    target and the attempted cutoffs.
    """
    if field.region != "full-torus":
        raise UsageError("periodic_smooth needs a full-torus field")
    if epsilon <= 0:
        raise UsageError("epsilon must be positive")
    geometry = field.geometry
    d = geometry.d
    big = geometry.n_side

    ortho = field.orthonormality_defect()
    refl = reflection_defect(field, family)
    if not max(ortho, refl) <= PRECONDITION_TOL:
        raise UsageError(
            "input field violates its symmetry preconditions "
            f"(orthonormality {ortho:.2e}, reflection {refl:.2e})"
        )

    # ``twist`` keeps the frames where ``tau = 1``, so no ``k`` is built there
    torus_k = geometry.torus_k() if family.tau is not None else None

    def twist(index, frames, inverse=False):
        return frames if torus_k is None else family.twist(torus_k[index], frames, inverse)

    data = twist(Ellipsis, np.asarray(field.data), inverse=True)

    axes = tuple(range(d))
    coeffs = np.fft.fftn(data, axes=axes)
    freqs = np.abs(np.fft.fftfreq(big, d=1.0 / big)).astype(int)

    # the slab g_1 <= grid_n, and its points on the stride-2 subgrid
    n = geometry.grid_n
    slab = (slice(None, n + 1),)
    sub = (slice(None, n + 1, 2),) + (slice(None, None, 2),) * (d - 1)
    points = geometry.torus_points()
    slab_frames = family.grid_frames(n, points[slab])
    sub_frames = family.grid_frames(n, points[sub])
    fold = (2, big // 2) * d + coeffs.shape[d:]

    def candidate_at(k, subgrid=False):
        """The field smoothed at cutoff ``k`` and projected onto the fibers,
        on the slab or, with ``subgrid``, at its even grid points."""
        mult = np.ones(geometry.torus_shape)
        for j in range(d):
            shape = [1] * d
            shape[j] = big
            mult = mult * np.clip(2.0 - 2.0 * freqs / k, 0.0, 1.0).reshape(shape)
        damped = coeffs * mult.reshape(geometry.torus_shape + (1, 1))
        if not subgrid:
            smoothed = twist(slab, np.fft.ifftn(damped, axes=axes)[slab])
            return _times(slab_frames, _overlap(slab_frames, smoothed))
        folded = damped.reshape(fold).sum(axis=tuple(range(0, 2 * d, 2)))
        smoothed = np.fft.ifftn(folded, axes=axes)[: n // 2 + 1] / 2**d
        smoothed = twist(sub, smoothed)
        return _times(sub_frames, _overlap(sub_frames, smoothed))

    target = 0.9 * epsilon
    last = big - 1
    tried = []
    k = 2
    while k <= last:
        entry = _gram_screen(
            candidate_at(k, subgrid=True), field.data[sub], RANK_FLOOR, target
        )
        if entry is not None:
            entry["subgrid"] = True
        else:
            candidate = candidate_at(k)
            try:
                ortho_frames = lowdin(candidate, rank_tol=RANK_FLOOR)
            except ValueError:
                sing = np.linalg.svd(candidate, compute_uv=False)
                entry = {"rank_loss": float(np.min(sing))}
            else:
                entry = {"sup_distance": sup_distance(ortho_frames, field.data[slab])}
        tried.append({"cutoff": k, **entry})
        if entry.get("sup_distance", target) < target:
            frames = np.empty_like(field.data)
            frames[slab] = ortho_frames
            frames[n + 1:] = family.reflect(frames, range(n + 1, big))
            out = FrameField(
                geometry, "full-torus", frames, dict(field.meta, smoothing_cutoff=k)
            )
            report = {
                "cutoff": k,
                "cutoff_fraction": k / big,
                "nyquist_resolved": k <= big // 2,
                "sup_distance": entry["sup_distance"],
                "target": target,
                "tried": tried,
            }
            return out, report
        if k == last:
            break
        k = min(last, max(k + 1, int(np.ceil(1.25 * k))))
    if tried and all("rank_loss" in t for t in tried):
        _, sing, _ = np.linalg.svd(
            candidate_at(tried[-1]["cutoff"]), full_matrices=False
        )
        worst_sing = float(np.min(sing))
        flat = int(np.argmin(sing[..., -1]))
        bad = tuple(int(x) for x in np.unravel_index(flat, geometry.torus_shape))
        raise ProjectionRankLoss(
            f"smoothed frame falls out of the fibers at grid point {bad} "
            f"(singular value {worst_sing:.3e} < {RANK_FLOOR})",
            point=bad,
            singular_value=worst_sing,
        )
    raise EpsilonInfeasible(
        f"no cutoff up to {last} brings the smoothed field within "
        f"{target:.3e} of the input",
        tried=tried,
    )


def smooth_symmetric(field, family, epsilon):
    """Smooth on the slab and mirror; the standard last pipeline stage.

    Runs :func:`periodic_smooth`, which keeps the frames of its slab ``g_1
    <= grid_n`` and mirrors them to the rest, then midpoints each pair of
    the two self-paired slices ``g_1 = 0`` and ``g_1 = grid_n`` with its
    image, by :func:`symmetrize`'s owner rule (a pair too far apart raises
    :class:`TooFarApart` with its ``points``), and raises
    :class:`EpsilonInfeasible` if the sup distance to the input over the
    whole torus reaches ``epsilon``.  The mirrored half is the exact image
    of the slab, so those slices are the only place the reflection can
    fail.  The real, even multiplier commutes with the reflection, so they
    are symmetric up to roundoff and the midpoints move them by about half
    that defect: the total stays within ``0.9 * epsilon`` plus roundoff,
    and there is nothing to retry.  Returns ``(field, report)``;
    ``report["symmetrization"]`` is :func:`symmetrize`'s report over the
    two slices.
    """
    final, sm_report = periodic_smooth(field, family, epsilon)
    # each self-paired slice is its own image under theta (tau_1 theta at
    # g_1 = grid_n); the pairs within it are midpointed as symmetrize does
    rows = range(0, field.geometry.n_side, field.geometry.grid_n)
    sym_report = _midpoint_pairs(final.data, family, _owners(field.geometry)[rows], rows)
    dist = sup_distance(final.data, field.data)
    if dist >= epsilon:
        raise EpsilonInfeasible(
            f"smoothing and the self-paired midpoints moved the field by "
            f"{dist:.3e}, target {epsilon:.3e}",
            distance=dist,
        )
    report = {
        "smoothing": sm_report,
        "symmetrization": sym_report,
        "sup_distance_total": dist,
        "epsilon": epsilon,
    }
    return final, report
