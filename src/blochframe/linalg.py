"""Small dense linear-algebra helpers shared across the construction.

Everything here operates on modest matrices (n, m <= a few dozen), so the
implementations favour robustness and determinism over asymptotic speed.
Two ingredients are nontrivial.  The polar factor (the closest matrix
with orthonormal columns) is taken on stacks of ``n x m`` frames at every
projection step of the construction; for ``m <= 2`` it has a closed form
through the ``m x m`` Gram matrix (Higham, "Computing the polar
decomposition -- with applications", SIAM J. Sci. Stat. Comput. 7, 1986),
which :func:`lowdin` takes on well-conditioned stacks instead of an SVD.
The other is an eigendecomposition of a unitary matrix with an
exactly-unitary eigenvector factor and eigenvalue clustering, used wherever
a fractional power of a unitary must be taken with a consistent branch on
(numerically) repeated eigenvalues.  It needs numpy only: the commuting
Hermitian parts of a normal matrix are diagonalized together by one
``eigh`` of a generic real combination of them.
"""

import numpy as np

from .errors import BlochFrameError

__all__ = [
    "gram_polar",
    "joint_eigenbasis",
    "lowdin",
    "unitary_eigensystem",
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
        _, q = np.linalg.eigh(mix)
        blocks = [q.conj().T @ u @ q for u in unitaries]
        diags = [np.diag(t) for t in blocks]
        residual = max(float(np.linalg.norm(t - np.diag(w))) for t, w in zip(blocks, diags))
        if residual <= bound:
            return q, diags
    raise BlochFrameError(
        f"joint eigenbasis residual {residual:.3e} exceeds {bound:.1e}",
        residual=residual,
    )


def unitary_eigensystem(u, cluster_tol=1e-8):
    """Eigendecomposition of a unitary matrix.

    Parameters
    ----------
    u : (m, m) array
        Unitary (within roundoff) matrix.
    cluster_tol : float
        Eigenvalues whose pairwise chordal distance is below this are treated
        as one degenerate cluster.

    Returns
    -------
    w : (m,) complex array
        Eigenvalues (diagonal of ``q^H u q``, normalized to modulus one).
    q : (m, m) complex array
        Exactly-unitary eigenvector matrix, ``u ~= q @ diag(w) @ q^H``.
    labels : (m,) int array
        Cluster label per eigenvalue; equal labels mark a degenerate cluster.

    ``q`` is the :func:`joint_eigenbasis` of ``u`` alone, one ``eigh(H + c
    K)`` per try, accepted at the roundoff bound ``5e-14 m``.
    """
    u = np.asarray(u, dtype=complex)
    if u.shape == (1, 1):
        w = u[0, 0] / abs(u[0, 0])
        return np.array([w]), np.eye(1, dtype=complex), np.array([0])
    q, (w,) = joint_eigenbasis([u], 5e-14 * len(u))
    w = w / np.abs(w)
    return w, q, cluster_labels(w, cluster_tol)


def cluster_phases(w, labels, center):
    """Per-eigenvalue phases with a branch synchronized inside each cluster.

    The representative phase of each cluster is taken from the normalized mean
    of its eigenvalues, mapped by ``center`` (a callable turning a principal
    argument into the desired branch); individual eigenvalues then deviate
    from the representative by their wrapped offset, so numerically split
    degeneracies never straddle a branch cut.
    """
    w = np.asarray(w)
    phases = np.empty(len(w))
    for lab in np.unique(labels):
        idx = np.flatnonzero(labels == lab)
        mean = w[idx].sum()
        if abs(mean) < 1e-14:
            # Pathological cluster spread over the whole circle; fall back to
            # the first member as representative.
            mean = w[idx[0]]
        rep = center(float(np.angle(mean)))
        phases[idx] = rep + wrap_to_pi(np.angle(w[idx]) - rep)
    return phases
