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
  by untwisting the translation cocycle, damped with a flat-top Fourier
  multiplier (weight one up to half the cutoff, linear taper to zero at the
  cutoff), twisted back, re-projected onto the fibers and
  re-orthonormalized; the cutoff is raised, up to ``n_side - 1``, until the
  result is within the requested distance of the input.  Each rung is first
  screened through the eigenvalues and polar factor of its ``m x m`` Gram
  matrix, in closed form for ``m <= 2`` and through ``eigh`` beyond, and
  only a rung the screen cannot reject takes the full SVD, so the ladder
  costs a few elementwise passes per rung (one small ``eigh`` per point
  when ``m >= 3``) and one SVD per decision;
* an exact re-symmetrization that restores the reflection property at
  every grid point by midpointing each frame with the time-reversed image
  of its partner.

Averaging with a translation-invariant kernel commutes with the lattice
action, and real even multipliers commute with the reflection symmetry, so
both structures survive to roundoff; only closeness to the input has to be
measured.  The flat-top kernel is not positive, but its summed magnitude
stays bounded by a small constant, and the reprojection step removes
whatever orthonormality drift the averaging introduces.
"""

from itertools import product

import numpy as np

from .errors import (
    EigenphaseNearPi,
    EpsilonInfeasible,
    ProjectionRankLoss,
    TooFarApart,
    UsageError,
)
from .frames import FrameField, check_same_span
from .linalg import joint_eigenbasis, lowdin

__all__ = [
    "MIDPOINT_LIMIT",
    "midpoint_unitary",
    "frame_midpoint",
    "reflection_defect",
    "symmetrize",
    "twist_gauge",
    "apply_twist",
    "periodic_smooth",
    "smooth_symmetric",
]

# Frames at least this far apart (Hilbert-Schmidt) are not midpointed.
# Everything this module midpoints is far closer than this.
MIDPOINT_LIMIT = 0.25 * np.pi

# A smoothing rung is decided on its Gram screen only when it clears the
# rank floor or the distance target by more than this times its condition
# number squared; otherwise the full SVD decides.
SCREEN_MARGIN = 1e-12


def midpoint_unitary(u, margin=1e-8):
    """Geodesic midpoint between the identity and ``u``: ``exp(log(u)/2)``.

    Computed as the polar factor of ``1 + u`` for one unitary or a stack.
    The singular values of ``1 + u`` are ``2 cos(phase / 2)``, so the
    smallest one tells how close an eigenphase comes to the branch cut at
    ``pi``; within ``margin`` raises :class:`EigenphaseNearPi`.
    """
    plus = np.eye(np.shape(u)[-1]) + np.asarray(u)
    sing = np.linalg.svd(plus, compute_uv=False)[..., -1]
    worst = 2.0 * float(np.arcsin(min(1.0, 0.5 * np.min(sing))))
    if worst <= margin:
        raise EigenphaseNearPi(
            f"eigenphase within {worst:.2e} of the branch cut at pi",
            margin=worst,
        )
    return lowdin(plus)


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
    sep = float(np.max(np.linalg.norm(b - a, axis=(-2, -1)), initial=0.0))
    if sep >= MIDPOINT_LIMIT:
        raise TooFarApart(
            f"frames at distance {sep:.3f}, limit {MIDPOINT_LIMIT:.3f}",
            distance=sep,
            limit=MIDPOINT_LIMIT,
        )
    return lowdin(a + b)


# ---------------------------------------------------------------------------
# reflection pairs on the torus grid


def _reflected_partners(field, family):
    """``tau^(-lam) theta Phi(partner(g))`` at every stored point ``g``.

    With ``-g = partner + N lam`` the reflection property reads ``Phi(g) =
    tau^(-lam) theta Phi(partner)``; the points are grouped by their ``2**d``
    distinct shifts ``lam``.
    """
    geometry = field.geometry
    partner, lam = geometry.reflection_map()
    conj_partner = np.conj(field.data[tuple(np.moveaxis(partner, -1, 0))])
    out = np.empty_like(conj_partner)
    for shift in product((0, -1), repeat=geometry.d):
        at = np.all(lam == shift, axis=-1)
        minus = tuple(-x for x in shift)
        out[at] = family.antiunitary_matrix(minus) @ conj_partner[at]
    return out


def reflection_defect(field, family):
    """Largest violation of ``Phi(-k) = theta Phi(k)`` over the torus grid."""
    image = _reflected_partners(field, family)
    return float(np.max(np.linalg.norm(field.data - image, axis=(-2, -1))))


def symmetrize(field, family):
    """Restore the reflection property exactly by pairwise midpointing.

    For each grid pair ``(k, -k)`` the owner frame (the row-major first point
    of the pair) is replaced by its midpoint with the time-reversed partner
    frame, and the partner is set to the exact time-reversed image of the
    result; self-paired points (where ``-k = k`` on the torus) are
    midpointed with their own image, which is a fixed point of the
    involution.  Owners at least :data:`MIDPOINT_LIMIT` from their image are
    collected and reported in a single :class:`TooFarApart`.

    Returns ``(field, report)`` with the worst defect before and after and
    the largest pointwise shift.
    """
    if field.region != "full-torus":
        raise UsageError("symmetrize needs a full-torus field")
    geometry = field.geometry
    partner, _ = geometry.reflection_map()
    flat = np.ravel_multi_index(
        tuple(np.moveaxis(partner, -1, 0)), geometry.torus_shape
    )
    owner = np.arange(flat.size).reshape(flat.shape) <= flat
    image = _reflected_partners(field, family)
    defect = np.linalg.norm(field.data - image, axis=(-2, -1))
    far = owner & (defect >= MIDPOINT_LIMIT)
    if np.any(far):
        failures = [
            {"point": tuple(int(x) for x in g), "distance": float(defect[tuple(g)])}
            for g in np.argwhere(far)
        ]
        raise TooFarApart(
            f"{len(failures)} grid pair(s) too far apart to midpoint",
            points=failures,
        )
    out = field.copy()
    out.data[owner] = frame_midpoint(field.data[owner], image[owner])
    out.data[~owner] = _reflected_partners(out, family)[~owner]
    before = float(np.max(defect[owner]))
    after = reflection_defect(out, family)
    out.meta["reflection_defect"] = after
    report = {
        "reflection_before": before,
        "reflection_after": after,
        "max_shift": 0.5 * before,
    }
    return out, report


# ---------------------------------------------------------------------------
# Fejer smoothing


def _joint_log_eigenbasis(generators):
    """Joint eigenbasis of commuting unitaries and their phase exponents.

    Returns ``(v, ell)`` with ``generators[j] = v diag(exp(2 pi i ell[j])) v*``
    and ``ell[j]`` real in ``[0, 1)``; ``v`` is their
    :func:`~blochframe.linalg.joint_eigenbasis`.
    """
    v, diags = joint_eigenbasis(generators, 1e-10)
    return v, np.mod(np.angle(np.asarray(diags)) / (2.0 * np.pi), 1.0)


def twist_gauge(geometry, family):
    """Diagonalized translation twist of a family, or ``None`` if trivial.

    Returns ``(v, phases)`` defining the pointwise gauge ``D(k) = v
    diag(phases(k)) v*`` that carries the unit translation action;
    multiplying a field by ``D(k)^{-1}`` yields exactly periodic samples
    (the adapted gauge), multiplying back restores the stored one.
    """
    if family.tau is None:
        return None
    v, ells = _joint_log_eigenbasis([np.asarray(t) for t in family.tau])
    return v, _twist_phases(geometry, v, ells)


def apply_twist(twist, data, inverse=False):
    """Multiply a torus field by the gauge ``D(k)`` of :func:`twist_gauge`,
    or by ``D(k)^{-1}`` with ``inverse`` (which yields periodic samples);
    a trivial twist (``None``) leaves the data as it is."""
    if twist is None:
        return data
    v, phases = twist
    if inverse:
        phases = np.conj(phases)
    return np.einsum("ab,...b,bc,...cm->...am", v, phases, v.conj().T, data)


def _twist_phases(geometry, v, ells):
    """Per-point diagonal phases of the untwisting gauge, shape grid + (dim,).

    The gauge is ``D(k) = v diag(exp(2 pi i k . ell)) v*``; multiplying the
    field by ``D(k)^{-1}`` makes it exactly periodic on the grid.
    """
    big = geometry.n_side
    d = geometry.d
    axes = np.arange(big) / big
    expo = np.zeros(geometry.torus_shape + (v.shape[0],))
    for j in range(d):
        shape = [1] * (d + 1)
        shape[j] = big
        expo = expo + axes.reshape(shape) * ells[j].reshape((1,) * d + (-1,))
    return np.exp(2j * np.pi * expo)


def _second_difference(data, d):
    """Largest centered second difference of the entries along any axis."""
    worst = 0.0
    for axis in range(d):
        f = np.roll(data, -1, axis=axis) - 2.0 * data + np.roll(data, 1, axis=axis)
        worst = max(worst, float(np.max(np.abs(f))))
    return worst


def _spectral_shells(coeffs, d):
    """Max coefficient magnitude per sup-norm frequency shell."""
    big = coeffs.shape[0]
    freqs = np.fft.fftfreq(big, d=1.0 / big).astype(int)
    radius = np.zeros(coeffs.shape[:d], dtype=int)
    for j in range(d):
        shape = [1] * d
        shape[j] = big
        radius = np.maximum(radius, np.abs(freqs).reshape(shape))
    mags = np.max(np.abs(coeffs).reshape(coeffs.shape[:d] + (-1,)), axis=-1)
    out = np.zeros(big // 2 + 1)
    for r in range(big // 2 + 1):
        mask = radius == r
        if np.any(mask):
            out[r] = float(np.max(mags[mask]))
    return out


def _decay_slope(shells):
    """Least-squares slope of ``log`` shell magnitudes above roundoff."""
    radii = np.arange(len(shells))
    keep = shells > 1e-14
    if np.count_nonzero(keep) < 3:
        return None
    coeff = np.polyfit(radii[keep], np.log(shells[keep]), 1)
    return float(coeff[0])


def _gram_polar(candidate):
    """Smallest and largest Gram eigenvalues of a stack of frames, and their
    polar factor.

    For frames ``c`` of shape ``(..., n, m)`` returns per-point arrays
    ``w_min`` and ``w_max``, the extreme eigenvalues of ``G = c^H c``, and
    the polar factor ``c G^(-1/2)``, which is ``None`` when some ``w_min``
    is not positive.  ``m = 1`` and ``m = 2`` are in closed form with
    ``G = [[a, b], [conj(b), e]]``: ``w_max = (a + e)/2 + sqrt(((a - e)/2)**2
    + |b|**2)`` and ``w_min = det / w_max`` with ``det = a e - |b|**2``,
    which avoids the cancellation of the difference form; ``G^(-1/2) =
    adj(G + s) / (s t)`` with ``s = sqrt(det)`` and ``t = sqrt(a + e + 2 s)``
    (the 2 x 2 square root is ``(G + s) / t``).  Larger ``m`` takes
    ``eigh``.
    """
    m = candidate.shape[-1]
    if m == 1:
        w_min = w_max = np.sum(candidate.real**2 + candidate.imag**2, axis=(-2, -1))
        if not np.min(w_min) > 0.0:
            return w_min, w_max, None
        return w_min, w_max, candidate / np.sqrt(w_min)[..., None, None]
    if m == 2:
        c0 = candidate[..., 0]
        c1 = candidate[..., 1]
        a = np.sum(c0.real**2 + c0.imag**2, axis=-1)
        e = np.sum(c1.real**2 + c1.imag**2, axis=-1)
        b = np.sum(c0.conj() * c1, axis=-1)
        bb = b.real**2 + b.imag**2
        det = a * e - bb
        half = 0.5 * (a - e)
        w_max = 0.5 * (a + e) + np.sqrt(half * half + bb)
        # w_max is zero only where the frame is zero, and so is det there
        w_min = det / np.where(w_max > 0.0, w_max, 1.0)
        if not np.min(w_min) > 0.0:
            return w_min, w_max, None
        s = np.sqrt(det)
        scale = 1.0 / (s * np.sqrt(a + e + 2.0 * s))
        h00, h01, h11 = ((x * scale)[..., None] for x in (e + s, b, a + s))
        polar = np.empty_like(candidate)
        polar[..., 0] = c0 * h00 - c1 * h01.conj()
        polar[..., 1] = c1 * h11 - c0 * h01
        return w_min, w_max, polar
    w, v = np.linalg.eigh(np.swapaxes(candidate.conj(), -1, -2) @ candidate)
    w_min, w_max = w[..., 0], w[..., -1]
    if not np.min(w_min) > 0.0:
        return w_min, w_max, None
    polar = (candidate @ (v / np.sqrt(w)[..., None, :])) @ np.swapaxes(v.conj(), -1, -2)
    return w_min, w_max, polar


def _gram_screen(candidate, data, rank_floor, target):
    """Reject a ladder rung from its ``m x m`` Gram matrix when that is safe.

    :func:`_gram_polar` gives the singular values ``sqrt(w)`` of the
    projected frames ``c`` and their polar factor from ``G = c^H c``.  That
    route loses accuracy like the condition number ``kappa`` squared, so it
    decides only when the smallest singular value lies below ``rank_floor``
    or the sup distance to ``data`` above ``target`` by more than
    ``SCREEN_MARGIN * kappa**2``.  The margin holds for the closed forms of
    ``m <= 2`` as for ``eigh``: ``a``, ``e``, ``b`` and ``w_max`` carry
    relative errors of a few eps, so ``det`` and ``w_min = det / w_max`` err
    by ``O(eps w_max)`` in absolute terms, as ``eigh``'s eigenvalues do, and
    the polar factor built from ``s = sqrt(det)`` errs by ``O(eps
    kappa**2)``.  Returns the rung's ``tried`` entry then, and ``None`` when
    the rung needs the SVD.
    """
    w_min, w_max, polar = _gram_polar(candidate)
    if polar is None:
        return None
    w_min = float(np.min(w_min))
    low = float(np.sqrt(w_min))
    margin = SCREEN_MARGIN * float(np.max(w_max)) / w_min
    if low < rank_floor - margin:
        return {"rank_loss": low}
    if low < rank_floor + margin:
        return None
    dist = _sup_distance(polar, data)
    return {"sup_distance": dist} if dist > target + margin else None


def _svd_rung(candidate, data, rank_floor):
    """The exact rung: rank test and polar factor from one full SVD.

    Returns the rung's ``tried`` entry and its polar factor (``None`` on a
    rank loss).
    """
    u, sing, vh = np.linalg.svd(candidate, full_matrices=False)
    worst_sing = float(np.min(sing))
    if worst_sing < rank_floor:
        return {"rank_loss": worst_sing}, None
    ortho_frames = np.einsum("...ab,...bm->...am", u, vh)
    return {"sup_distance": _sup_distance(ortho_frames, data)}, ortho_frames


def periodic_smooth(
    field,
    family,
    epsilon,
    k_start=2,
    k_max=None,
    rank_floor=0.1,
    precondition_tol=1e-6,
    projectors=None,
):
    """Band-limit a symmetric torus field to within ``0.9 * epsilon``.

    The field entries are untwisted to exactly periodic functions, their
    discrete Fourier coefficients are damped by the flat-top multiplier
    ``prod_j min(1, max(0, 2 - 2 |q_j| / K))`` (untouched harmonics up to
    ``K/2``, linear taper to zero at ``K``), and the result is twisted
    back, projected onto ``Ran P(k)`` and symmetrically re-orthonormalized.
    ``projectors`` are the spectral projectors on the torus grid when the
    caller has sampled them.

    The cutoff ``K`` climbs a geometric ladder until the sup frame distance
    to the input drops below ``0.9 * epsilon``; the smallest workable
    cutoff is kept, since every extra harmonic slows the Wannier decay.
    The ladder ends at ``k_max``, which is clamped to ``n_side - 1``: from
    ``K = n_side`` on the multiplier is one on every grid harmonic, so such
    a rung smooths nothing.  A step that would pass ``k_max`` tries
    ``k_max`` itself, and exhausting the ladder raises
    :class:`EpsilonInfeasible`.  A projection losing rank (smallest
    singular value below ``rank_floor``) marks the cutoff as infeasible and
    the search continues upward; if no cutoff succeeds the last rank
    failure is raised as :class:`ProjectionRankLoss`.

    Each rung is screened by :func:`_gram_screen`, which needs no
    eigensolver for ``m <= 2`` and one ``eigh`` of the Gram stack beyond;
    the rung it cannot reject, and so the accepted one, is decided by the
    full SVD, which makes the chosen cutoff and the returned frames those
    of an all-SVD ladder.  Screened rungs record their Gram values in
    ``tried``, which agree with the SVD's to roundoff.

    Returns ``(field, report)``; the report records the chosen cutoff, its
    fraction of ``n_side`` and whether it zeroes the grid's Nyquist shell
    (``K <= n_side // 2``; reported, not gated), the measured distance, the
    attempted cutoffs, second-difference and spectral shell summaries.
    """
    if field.region != "full-torus":
        raise UsageError("periodic_smooth needs a full-torus field")
    if epsilon <= 0:
        raise UsageError("epsilon must be positive")
    geometry = field.geometry
    d = geometry.d
    big = geometry.n_side
    k_max = big - 1 if k_max is None else min(int(k_max), big - 1)

    ortho = field.orthonormality_defect()
    refl = reflection_defect(field, family)
    if max(ortho, refl) > precondition_tol:
        raise UsageError(
            "input field violates its symmetry preconditions "
            f"(orthonormality {ortho:.2e}, reflection {refl:.2e})"
        )

    twist = twist_gauge(geometry, family)
    data = apply_twist(twist, np.asarray(field.data), inverse=True)

    axes = tuple(range(d))
    coeffs = np.fft.fftn(data, axes=axes)
    freqs = np.abs(np.fft.fftfreq(big, d=1.0 / big)).astype(int)

    if projectors is None:
        projectors = family.projector(geometry.torus_k())

    def candidate_at(k):
        """The field smoothed at cutoff ``k`` and projected onto the fibers."""
        mult = np.ones(geometry.torus_shape)
        for j in range(d):
            shape = [1] * d
            shape[j] = big
            mult = mult * np.clip(2.0 - 2.0 * freqs / k, 0.0, 1.0).reshape(shape)
        smoothed = np.fft.ifftn(
            coeffs * mult.reshape(geometry.torus_shape + (1, 1)), axes=axes
        )
        smoothed = apply_twist(twist, smoothed)
        return np.einsum("...ab,...bm->...am", projectors, smoothed)

    shells_before = _spectral_shells(coeffs, d)
    diff_before = _second_difference(data, d)

    target = 0.9 * epsilon
    tried = []
    k = int(k_start)
    while k <= k_max:
        candidate = candidate_at(k)
        entry = _gram_screen(candidate, field.data, rank_floor, target)
        if entry is None:
            entry, ortho_frames = _svd_rung(candidate, field.data, rank_floor)
        tried.append({"cutoff": k, **entry})
        # the screen only rejects, so an accepted rung went through the SVD
        if entry.get("sup_distance", target) < target:
            out = FrameField(
                geometry,
                "full-torus",
                ortho_frames,
                dict(field.meta, smoothing_cutoff=k),
            )
            after = apply_twist(twist, ortho_frames, inverse=True)
            diff_after = _second_difference(after, d)
            shells_after = _spectral_shells(np.fft.fftn(after, axes=axes), d)
            report = {
                "cutoff": k,
                "cutoff_fraction": k / big,
                "nyquist_resolved": k <= big // 2,
                "sup_distance": entry["sup_distance"],
                "target": target,
                "tried": tried,
                "second_difference_before": diff_before,
                "second_difference_after": diff_after,
                "spectral_slope_before": _decay_slope(shells_before),
                "spectral_slope_after": _decay_slope(shells_after),
            }
            return out, report
        if k == k_max:
            break
        k = min(k_max, max(k + 1, int(np.ceil(1.25 * k))))
    if tried and all("rank_loss" in t for t in tried):
        _, sing, _ = np.linalg.svd(
            candidate_at(tried[-1]["cutoff"]), full_matrices=False
        )
        worst_sing = float(np.min(sing))
        flat = int(np.argmin(sing[..., -1]))
        bad = tuple(int(x) for x in np.unravel_index(flat, geometry.torus_shape))
        raise ProjectionRankLoss(
            f"smoothed frame falls out of the fibers at grid point {bad} "
            f"(singular value {worst_sing:.3e} < {rank_floor})",
            point=bad,
            singular_value=worst_sing,
        )
    raise EpsilonInfeasible(
        f"no cutoff up to {k_max} brings the smoothed field within "
        f"{target:.3e} of the input",
        tried=tried,
    )


def smooth_symmetric(field, family, epsilon, **kwargs):
    """Smooth and re-symmetrize; the standard last pipeline stage.

    Runs :func:`periodic_smooth` to within ``0.9 * epsilon`` and then
    :func:`symmetrize`; if the combined sup distance to the input still
    reaches ``epsilon`` the smoothing is retried once at half the target.
    Returns ``(field, report)``.
    """
    smoothed, sm_report = periodic_smooth(field, family, epsilon, **kwargs)
    final, sym_report = symmetrize(smoothed, family)
    dist = _sup_distance(final.data, field.data)
    if dist >= epsilon:
        kwargs.pop("k_start", None)
        smoothed, sm_report = periodic_smooth(
            field, family, 0.5 * epsilon, k_start=sm_report["cutoff"], **kwargs
        )
        final, sym_report = symmetrize(smoothed, family)
        dist = _sup_distance(final.data, field.data)
        if dist >= epsilon:
            raise EpsilonInfeasible(
                f"smoothing plus symmetrization moved the field by {dist:.3e}, "
                f"target {epsilon:.3e}",
                distance=dist,
            )
    report = {
        "smoothing": sm_report,
        "symmetrization": sym_report,
        "sup_distance_total": dist,
        "epsilon": epsilon,
    }
    return final, report


def _sup_distance(a, b):
    """Sup over the grid of the frame distance between two stacks of frames."""
    return float(np.max(np.sqrt(np.sum(np.abs(a - b) ** 2, axis=(-2, -1)))))
