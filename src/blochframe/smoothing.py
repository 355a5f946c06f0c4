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
  result is within the requested distance of the input.  A rung is first
  screened on the stride-2 subgrid, whose values the aliased coefficients
  give exactly through an inverse FFT of ``1/2**d`` the size; the
  eigenvalues and polar factor of its ``m x m`` Gram matrices can only
  reject it there.  A rung the subgrid keeps is projected on the full
  torus and decided by the package's one polar factor,
  :func:`~blochframe.linalg.lowdin`;
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

from .errors import EpsilonInfeasible, ProjectionRankLoss, TooFarApart, UsageError
from .frames import FrameField, check_same_span
from .linalg import RANK_FLOOR, gram_polar, joint_eigenbasis, lowdin

__all__ = [
    "MIDPOINT_LIMIT",
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
    tau^(-lam) theta Phi(partner)``.  ``partner = (-g) mod N`` is a flip and
    a roll by one along every axis, and ``lam_j`` is ``0`` on the slice
    ``g_j = 0`` and ``-1`` on ``g_j > 0``, so each of the ``2**d`` shifts
    covers one block of slices.
    """
    axes = tuple(range(field.geometry.d))
    conj_partner = np.roll(np.flip(np.conj(field.data), axes), 1, axes)
    out = np.empty_like(conj_partner)
    for minus in product((0, 1), repeat=len(axes)):
        block = tuple(slice(1, None) if x else slice(0, 1) for x in minus)
        out[block] = family.antiunitary_matrix(minus) @ conj_partner[block]
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

    Returns ``(field, report)``; the report holds the worst defect before
    (``reflection_before``) and the measured sup distance between the
    result and the input (``max_shift``).  The defect after is not
    measured here: :func:`~blochframe.pipeline.final_residuals` reports it.
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
    report = {
        "reflection_before": float(np.max(defect[owner])),
        "max_shift": _sup_distance(out.data, field.data),
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
    dist = _sup_distance(polar, data)
    if dist > target + margin:
        return {"sup_distance": dist}
    return None


def periodic_smooth(field, family, epsilon):
    """Band-limit a symmetric torus field to within ``0.9 * epsilon``.

    The field entries are untwisted to exactly periodic functions, their
    discrete Fourier coefficients are damped by the flat-top multiplier
    ``prod_j min(1, max(0, 2 - 2 |q_j| / K))`` (untouched harmonics up to
    ``K/2``, linear taper to zero at ``K``), and the result is twisted
    back, projected onto ``Ran P(k)`` (the projectors of the family's torus
    sample) and symmetrically re-orthonormalized.

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

    * on the stride-2 subgrid.  The smoothed field at the even grid points
      is exactly the inverse FFT, ``1/2**d`` the size and divided by
      ``2**d``, of the damped coefficients folded mod ``n_side / 2`` (DFT
      aliasing).  A sup distance above the target, or a singular value
      below the floor, at those points holds on the whole torus, so
      :func:`_gram_screen` rejects such a rung there; its ``tried`` entry
      carries the subgrid value, a lower bound of the torus one, and
      ``"subgrid": true``.  The subgrid never accepts: the frame may be far
      off only at odd points.  A rung rejected there for its distance is
      recorded as a distance failure even if the torus would also show a
      rank loss;
    * on the full torus, by the frames ``lowdin(candidate,
      rank_tol=RANK_FLOOR)`` (the closed form for ``m <= 2`` and condition
      at most 10, the SVD otherwise) and their sup distance.  A rank loss
      there records the smallest singular value of the candidate's SVD.

    So the chosen cutoff is that of a ladder decided by ``lowdin`` alone,
    and the report's ``sup_distance`` is the distance of the returned
    frames.

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

    twist = twist_gauge(geometry, family)
    data = apply_twist(twist, np.asarray(field.data), inverse=True)

    axes = tuple(range(d))
    coeffs = np.fft.fftn(data, axes=axes)
    freqs = np.abs(np.fft.fftfreq(big, d=1.0 / big)).astype(int)

    projectors = family.grid_projectors(geometry.grid_n)
    sub = (slice(None, None, 2),) * d
    sub_twist = None if twist is None else (twist[0], twist[1][sub])
    fold = (2, big // 2) * d + coeffs.shape[d:]

    def candidate_at(k, subgrid=False):
        """The field smoothed at cutoff ``k`` and projected onto the fibers,
        on the torus or, with ``subgrid``, at its even grid points."""
        mult = np.ones(geometry.torus_shape)
        for j in range(d):
            shape = [1] * d
            shape[j] = big
            mult = mult * np.clip(2.0 - 2.0 * freqs / k, 0.0, 1.0).reshape(shape)
        damped = coeffs * mult.reshape(geometry.torus_shape + (1, 1))
        if not subgrid:
            smoothed = apply_twist(twist, np.fft.ifftn(damped, axes=axes))
            return np.einsum("...ab,...bm->...am", projectors, smoothed)
        folded = damped.reshape(fold).sum(axis=tuple(range(0, 2 * d, 2)))
        smoothed = apply_twist(sub_twist, np.fft.ifftn(folded, axes=axes) / 2**d)
        return np.einsum("...ab,...bm->...am", projectors[sub], smoothed)

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
                entry = {"sup_distance": _sup_distance(ortho_frames, field.data)}
        tried.append({"cutoff": k, **entry})
        if entry.get("sup_distance", target) < target:
            out = FrameField(
                geometry,
                "full-torus",
                ortho_frames,
                dict(field.meta, smoothing_cutoff=k),
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
    """Smooth and re-symmetrize; the standard last pipeline stage.

    Runs :func:`periodic_smooth` to within ``0.9 * epsilon`` and then
    :func:`symmetrize`, and raises :class:`EpsilonInfeasible` if the
    combined sup distance to the input reaches ``epsilon``.  The real, even
    multiplier commutes with the reflection, so the smoothed field is
    symmetric up to roundoff and :func:`symmetrize` moves it by about half
    that defect: the total stays within ``0.9 * epsilon`` plus roundoff,
    and there is nothing to retry.  Returns ``(field, report)``.
    """
    smoothed, sm_report = periodic_smooth(field, family, epsilon)
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
