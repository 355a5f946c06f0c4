"""Small dense linear-algebra helpers shared across the construction.

Everything here operates on modest matrices (n, m <= a few dozen), so the
implementations favour robustness and determinism over asymptotic speed.
Three ingredients are nontrivial.  The eigensystem of a stack of Hermitian
matrices, the torus sample's kernel, is in closed form for ``2 x 2``
matrices, where LAPACK's per-matrix overhead is most of ``eigh``'s time on
a stack of them.  The polar factor (the closest matrix
with orthonormal columns) is taken on stacks of ``n x m`` frames at every
projection step of the construction; for ``m <= 2`` it has a closed form
through the ``m x m`` Gram matrix (Higham, "Computing the polar
decomposition -- with applications", SIAM J. Sci. Stat. Comput. 7, 1986),
which :func:`lowdin` takes on well-conditioned stacks instead of an SVD.
The other is :func:`unitary_phases`, the one kernel for the eigenphases
of a unitary: an exactly-unitary eigenbasis and phases on a branch that is
synchronized inside each cluster of (numerically) repeated eigenvalues.
Every fractional power of a unitary the construction takes (the symmetric
square root at a vertex, the geodesic along an edge) goes through it.  It
needs numpy only: the commuting Hermitian parts of a normal matrix are
diagonalized together by one ``eigh`` of a generic real combination of
them.
"""

import numpy as np

from .errors import BlochFrameError

__all__ = [
    "gram_polar",
    "hermitian_eigensystem",
    "joint_eigenbasis",
    "lowdin",
    "unitary_phases",
    "wrap_to_pi",
]

TWO_PI = 2.0 * np.pi

# The smallest singular value a projected frame may have: the transport of
# input_frame and the smoothing ladder refuse a frame below it.
RANK_FLOOR = 0.1

# lowdin takes the closed-form polar factor when every Gram matrix of the
# stack has condition number w_max / w_min at most this, that is every frame
# at most 10; its error then stays at about 100 eps.  It is RANK_FLOOR**-2,
# the Gram condition of a frame with singular values 1 and RANK_FLOOR,
# written out because 0.1**-2 rounds to 99.99999999999999.
GRAM_CONDITION = 100.0


def wrap_to_pi(x):
    """Wrap angles into the half-open interval [-pi, pi)."""
    return np.mod(np.asarray(x) + np.pi, TWO_PI) - np.pi


def hermitian_eigensystem(h):
    """Eigenvalues (ascending) and orthonormal eigenvectors of a stack ``(...,
    n, n)`` of Hermitian matrices, as ``np.linalg.eigh(h)`` returns them.

    ``n = 2`` is in closed form.  With ``H = [[a, b], [conj(b), c]]`` (``b``
    read from the lower triangle, as ``eigh`` does), ``mean = (a + c)/2``,
    ``delta = (a - c)/2`` and ``r = hypot(delta, |b|)``, the eigenvalues are
    ``mean -/+ r``.  The lower eigenvector is the column of ``H - (mean +
    r)`` whose large entry has no cancellation, ``(b, -(delta + r))`` when
    ``delta >= 0`` and ``(-(r - delta), conj(b))`` otherwise.  That entry
    is ``p = |delta| + r >= |b|``, so the column divided by it is ``(q,
    -1)`` or ``(-1, conj(q))`` with ``q = b / p`` and ``|q| <= 1``, which
    is normalized by ``hypot(|q|, 1)``.  The upper eigenvector is the
    orthogonal complement ``(-conj(x_2), conj(x_1))`` of the lower one
    ``(x_1, x_2)``.  Where ``r = 0`` (``H`` a multiple of the identity) the
    basis is the identity; a NaN entry gives NaN, never that basis.  Other
    ``n`` take ``eigh``.

    The closed form keeps ``eigh``'s accuracy.  ``mean``, ``delta`` and
    ``r`` carry errors of a few ``eps ||H||``, and so do the eigenvalues.
    ``p`` is a sum of two non-negative numbers and ``q`` one quotient, so the
    column's direction errs by ``O(eps ||H|| / r)`` (from ``delta`` alone):
    the eigenvector by ``O(eps ||H|| / gap)``, the residual ``||H v - v w||``
    by ``O(eps ||H||)``, and the two columns are orthonormal to a few
    ``eps`` by construction.  No entry is squared and the only divisor is
    ``p``, so no scale over- or underflows before the result does, and a
    subnormal ``H`` keeps unit vectors.
    """
    h = np.asarray(h)
    if h.shape[-1] != 2:
        return np.linalg.eigh(h)
    a = h[..., 0, 0].real
    c = h[..., 1, 1].real
    b = h[..., 1, 0].conj()
    mean = 0.5 * (a + c)
    delta = 0.5 * (a - c)
    r = np.hypot(delta, np.abs(b))
    p = np.abs(delta) + r
    # p is zero only where r is: H is a multiple of the identity there
    flat = p == 0.0
    p = np.where(flat, 1.0, p)
    if np.iscomplexobj(b):
        # real quotients: numpy's complex one overflows on a subnormal p
        q = b.real / p + 1j * (b.imag / p)
    else:
        q = b / p
    t = 1.0 / np.hypot(np.abs(q), 1.0)
    upper = delta >= 0.0
    lower = np.stack((np.where(upper, q * t, -t), np.where(upper, -t, q.conj() * t)), axis=-1)
    lower[flat] = (1.0, 0.0)
    vecs = np.empty(h.shape, dtype=lower.dtype)
    vecs[..., :, 0] = lower
    vecs[..., 0, 1] = -lower[..., 1].conj()
    vecs[..., 1, 1] = lower[..., 0].conj()
    return np.stack((mean - r, mean + r), axis=-1), vecs


def gram_polar(candidate):
    """Smallest and largest Gram eigenvalues of a stack of frames, and their
    polar factor.

    For frames ``c`` of shape ``(..., n, m)`` returns per-point arrays
    ``w_min`` and ``w_max``, the extreme eigenvalues of ``G = c^H c``, and
    the polar factor ``c G^(-1/2)``, which is ``None`` when some ``w_min``
    is not positive.  ``m = 1`` is ``c / |c|``.  ``m = 2`` is in closed
    form with ``G = [[a, b], [conj(b), e]]``: ``w_max = (a + e)/2 +
    sqrt(((a - e)/2)**2 + |b|**2)`` and ``w_min = det / w_max`` with ``det
    = a e - |b|**2``, which avoids the cancellation of the difference form;
    ``G^(-1/2) = adj(G + s) / (s t)`` with ``s = sqrt(det)`` and ``t =
    sqrt(a + e + 2 s)`` (the 2 x 2 square root is ``(G + s) / t``).  A real
    stack gives a real polar factor.  Larger ``m`` takes ``eigh``.

    The Gram route loses accuracy like the condition number ``w_max /
    w_min`` of ``G``: ``a``, ``e``, ``b`` and ``w_max`` carry relative
    errors of a few eps, so ``det`` and ``w_min`` err by ``O(eps w_max)`` in
    absolute terms, as ``eigh``'s eigenvalues do, and the polar factor
    built from ``s = sqrt(det)`` errs by ``O(eps w_max / w_min)``.
    """
    m = candidate.shape[-1]
    if m == 1:
        w_min = w_max = np.sum(candidate.real**2 + candidate.imag**2, axis=(-2, -1))
        if not np.min(w_min, initial=np.inf) > 0.0:
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
        if not np.min(w_min, initial=np.inf) > 0.0:
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
    if not np.min(w_min, initial=np.inf) > 0.0:
        return w_min, w_max, None
    polar = (candidate @ (v / np.sqrt(w)[..., None, :])) @ np.swapaxes(v.conj(), -1, -2)
    return w_min, w_max, polar


def lowdin(mat, rank_tol=0.0):
    """Closest matrix with orthonormal columns (symmetric orthonormalization).

    The polar factor of one matrix or a stack ``(..., n, m)``.  For ``m <=
    2`` it is the closed form of :func:`gram_polar` when every matrix of
    the stack has condition number at most ``sqrt(GRAM_CONDITION) = 10``
    (the range a ``rank_tol`` of ``RANK_FLOOR`` admits for projected
    frames), which keeps it within about ``100 eps`` of the SVD's.  Larger
    ``m``, worse conditioned and singular stacks take the polar factor ``u
    vh`` of the SVD.  If ``rank_tol`` is positive and the smallest singular
    value in the stack falls below it, a ``ValueError`` is raised so
    callers can map the failure onto their own error type; a stack whose
    Gram eigenvalues put it near that floor goes to the SVD, which raises
    it, so the error is the same on both routes.  Real input gives real
    output.
    """
    mat = np.asarray(mat)
    if mat.dtype.kind not in "fc":
        mat = mat.astype(float)
    if mat.shape[-1] <= 2:
        w_min, w_max, polar = gram_polar(mat)
        # w_min errs by O(eps w_max), far inside this margin
        floor = (1.0 + 1e-10) * rank_tol**2
        if (
            polar is not None
            and np.all(w_max <= GRAM_CONDITION * w_min)
            and np.min(w_min, initial=np.inf) > floor
        ):
            return polar
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    worst = float(np.min(s[..., -1], initial=np.inf))
    if rank_tol > 0.0 and worst < rank_tol:
        raise ValueError(f"rank-deficient input, smallest singular value {worst:.3e}")
    return u @ vh


def cluster_labels(values, tol):
    """Union-find clustering of complex numbers by pairwise distance <= tol."""
    k = len(values)
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(k):
        for j in range(i + 1, k):
            if abs(values[i] - values[j]) <= tol:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    return np.array([find(i) for i in range(k)])


def joint_eigenbasis(unitaries, bound):
    """Orthonormal eigenbasis shared by commuting normal matrices.

    The Hermitian parts ``H_j = (u_j + u_j^H) / 2`` and ``K_j = (u_j -
    u_j^H) / 2i`` of all ``unitaries`` commute, so the orthonormal
    eigenbasis ``q`` of ``eigh(H_1 + c K_1 + c' H_2 + ...)`` for random real
    ``c, c', ...`` (drawn from a fixed-seed generator) diagonalizes every
    one of them, however close two eigenvalues are, without the loss of
    orthogonality that plain ``eig`` suffers on repeated spectra.  A draw
    that merges two distinct joint eigenvalues leaves an off-diagonal
    residual ``||q^H u_j q - diag||`` (Frobenius) above ``bound`` and is
    retried with fresh draws; a residual above it on all 8 tries (a
    non-normal or non-commuting input) raises :class:`BlochFrameError`.
    A mix with a zero imaginary part (every ``u_j`` complex symmetric) takes
    the real ``eigh``, so that ``q`` is real orthogonal.

    Returns ``(q, diags)`` with ``diags[j]`` the diagonal of ``q^H u_j q``.
    """
    parts = []
    for u in unitaries:
        parts += [0.5 * (u + u.conj().T), -0.5j * (u - u.conj().T)]
    rng = np.random.default_rng(1234)
    for _ in range(8):
        mix = parts[0]
        for part in parts[1:]:
            mix = mix + rng.standard_normal() * part
        _, q = np.linalg.eigh(mix if mix.imag.any() else mix.real)
        blocks = [q.conj().T @ u @ q for u in unitaries]
        diags = [np.diag(t) for t in blocks]
        residual = max(float(np.linalg.norm(t - np.diag(w))) for t, w in zip(blocks, diags))
        if residual <= bound:
            return q, diags
    raise BlochFrameError(
        f"joint eigenbasis residual {residual:.3e} exceeds {bound:.1e}",
        residual=residual,
    )


def unitary_phases(u, center, bound, cluster_tol):
    """Eigenbasis and branch-synchronized eigenphases of a unitary matrix.

    Returns ``(q, phases)`` with ``u ~= q diag(exp(i phases)) q^H`` and
    ``q`` exactly unitary: the :func:`joint_eigenbasis` of ``u`` alone,
    one ``eigh(H + c K)`` per try, accepted at the residual ``bound``
    (real orthogonal for a complex symmetric ``u``).  A ``1 x 1`` ``u``
    takes the complex basis ``eye(1)`` without a solve.

    Eigenvalues (normalized to modulus one) whose pairwise distance is at
    most ``cluster_tol`` form one cluster of numerically repeated ones.
    Each cluster's representative phase is ``center`` (a callable mapping a
    principal argument onto the desired branch) of the argument of its
    members' mean, or of its first member where that mean vanishes (a
    cluster spread over the whole circle); every member deviates from it by
    its wrapped offset, so a split degeneracy never straddles a branch cut.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape == (1, 1):
        q, w = np.eye(1, dtype=complex), np.array([u[0, 0] / abs(u[0, 0])])
    else:
        q, (w,) = joint_eigenbasis([u], bound)
        w = w / np.abs(w)
    labels = cluster_labels(w, cluster_tol)
    phases = np.empty(len(w))
    for lab in np.unique(labels):
        idx = np.flatnonzero(labels == lab)
        mean = w[idx].sum()
        if abs(mean) < 1e-14:
            mean = w[idx[0]]
        rep = center(float(np.angle(mean)))
        phases[idx] = rep + wrap_to_pi(np.angle(w[idx]) - rep)
    return q, phases
