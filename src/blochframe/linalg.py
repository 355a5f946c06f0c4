"""Small dense linear-algebra helpers shared across the construction.

Everything here operates on modest matrices (n, m <= a few dozen), so the
implementations favour robustness and determinism over asymptotic speed.
The one nontrivial ingredient is an eigendecomposition of a unitary matrix
with an exactly-unitary eigenvector factor and eigenvalue clustering, used
wherever a fractional power of a unitary must be taken with a consistent
branch on (numerically) repeated eigenvalues.  It needs numpy only: the
commuting Hermitian parts of a normal matrix are diagonalized together by
one ``eigh`` of a generic real combination of them.
"""

import numpy as np

from .errors import BlochFrameError

__all__ = [
    "joint_eigenbasis",
    "lowdin",
    "unitary_eigensystem",
    "wrap_to_pi",
]

TWO_PI = 2.0 * np.pi


def wrap_to_pi(x):
    """Wrap angles into the half-open interval [-pi, pi)."""
    return np.mod(np.asarray(x) + np.pi, TWO_PI) - np.pi


def lowdin(mat, rank_tol=0.0):
    """Closest matrix with orthonormal columns (symmetric orthonormalization).

    Computed through the polar factor of the SVD, for one matrix or a stack
    ``(..., n, m)``.  If ``rank_tol`` is positive and the smallest singular
    value in the stack falls below it, a ``ValueError`` is raised so callers
    can map the failure onto their own error type.
    """
    u, s, vh = np.linalg.svd(np.asarray(mat), full_matrices=False)
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
