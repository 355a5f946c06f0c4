"""Pointwise and one-dimensional steps of the symmetric frame construction.

At a high-symmetry (half-integer) point ``k`` the combined operation
``tau_lam o theta`` (with ``lam = 2k``) maps ``Ran P(k)`` to itself, so for
any input frame ``psi`` there is an obstruction unitary ``V`` with

    tau_lam theta psi = psi <| conj(V),   equivalently  V_ab = <psi_a, tau_lam theta psi_b>.

Structural symmetry of the family forces ``V`` to be complex symmetric,
``V = V^T``, and any factorization ``V = U U^T`` turns ``psi <| U`` into a
frame invariant under ``tau_lam o theta``.  The factorization used here
diagonalizes ``V`` by a real orthogonal ``O`` (its real and imaginary parts
are commuting real symmetric matrices), ``V = O exp(i M) O^T``, and takes
``U = O exp(i M / 2) O^T`` with all eigenphases in ``[0, 2 pi)`` on a
synchronized branch; ``U`` is symmetric by construction.

Between two such points a geodesic interpolation of unitaries transports one
frame correction into the other, which settles the construction in d = 1.
A segment's input frames arrive as one ``(steps + 1, n, m)`` array (a slice
of the cell's ``psi.data``), and the whole segment is corrected by one
batched product.
"""

from dataclasses import dataclass

import numpy as np

from .errors import BlochFrameError, ObstructionAsymmetric
from .frames import FrameField, unitary_between
from .linalg import cluster_labels, cluster_phases, lowdin, unitary_eigensystem, wrap_to_pi

__all__ = [
    "VertexSolution",
    "obstruction_unitary",
    "symmetric_sqrt",
    "vertex_solution",
    "interpolate_unitaries",
    "macro1",
    "construct_1d",
]

TWO_PI = 2.0 * np.pi

# Tolerances of obstruction_unitary (SYM_TOL) and symmetric_sqrt (the rest);
# CLUSTER_TOL merges numerically repeated eigenvalues.
SYM_TOL = 1e-10
CLUSTER_TOL = 1e-8
SNAP_TOL = 1e-12
SQRT_TOL = 1e-10


def obstruction_unitary(frame, antiunitary):
    """Obstruction unitary of ``frame`` under an antiunitary ``v -> A conj(v)``.

    Parameters
    ----------
    frame : (n, m) array
        Orthonormal frame at a high-symmetry point.
    antiunitary : (n, n) array
        Matrix ``A`` of the antiunitary operation (``tau_lam @ theta``).

    An asymmetry ``||V - V^T||`` above ``SYM_TOL`` signals a family whose
    time-reversal or periodicity structure is broken and raises
    :class:`ObstructionAsymmetric`.
    """
    frame = np.asarray(frame)
    image = np.asarray(antiunitary) @ np.conj(frame)
    v = lowdin(frame.conj().T @ image)
    asym = float(np.linalg.norm(v - v.T))
    if asym > SYM_TOL:
        raise ObstructionAsymmetric(
            f"obstruction unitary asymmetric (defect {asym:.3e} > {SYM_TOL:.1e})",
            defect=asym,
        )
    # exact symmetrization of the roundoff remainder
    return 0.5 * (v + v.T)


def symmetric_sqrt(v):
    """Factor a complex symmetric unitary as ``v = u @ u.T``.

    ``Re v`` and ``Im v`` are commuting real symmetric matrices (``v`` is
    symmetric and ``v conj(v) = 1``), so one real orthogonal ``o``
    diagonalizes both, ``v = o diag(exp(i mu)) o^T``, and ``u = o
    diag(exp(i mu / 2)) o^T`` is symmetric with ``u u^T = v`` to roundoff,
    however close two eigenphases are.  ``o`` comes from ``eigh(Re v + c Im
    v)`` with a random ``c`` (fixed seed), which splits the joint
    eigenspaces generically; a factorization residual above ``SQRT_TOL`` is
    retried with a fresh ``c``.

    Eigenphases are synchronized to a common branch ``[0, 2 pi)``; clusters of
    numerically repeated eigenvalues share one representative phase so that a
    degeneracy split across the branch point cannot desynchronize the square
    root.  Phases within ``SNAP_TOL`` of ``2 pi`` are snapped to ``0``; the
    returned diagnostics flag records whether the snap fired.

    Returns ``(u, info)`` with ``info`` containing the factorization residual
    and the snap flag.  An asymmetric ``v`` raises
    :class:`ObstructionAsymmetric`, and a residual above ``SQRT_TOL`` on
    every try raises :class:`BlochFrameError`.
    """
    v = np.asarray(v, dtype=complex)
    sym_defect = float(np.linalg.norm(v - v.T))
    if sym_defect > SQRT_TOL:
        raise ObstructionAsymmetric(
            f"input is not symmetric (defect {sym_defect:.3e})", defect=sym_defect
        )

    def to_positive_branch(angle):
        nonlocal snapped
        mu = angle % TWO_PI
        if mu >= TWO_PI - SNAP_TOL:
            mu = 0.0
            snapped = True
        return mu

    rng = np.random.default_rng(1234)
    for _ in range(8):
        _, o = np.linalg.eigh(v.real + rng.standard_normal() * v.imag)
        w = np.diag(o.T @ v @ o)
        w = w / np.abs(w)
        snapped = False
        phases = cluster_phases(w, cluster_labels(w, CLUSTER_TOL), to_positive_branch)
        u = lowdin(o @ (np.exp(0.5j * phases)[:, None] * o.T))
        residual = float(np.linalg.norm(u @ u.T - v))
        if residual <= SQRT_TOL:
            return u, {"residual": residual, "branch_snap": snapped}
    raise BlochFrameError(
        f"symmetric square root residual {residual:.3e} exceeds {SQRT_TOL:.1e}",
        residual=residual,
    )


@dataclass
class VertexSolution:
    """Frame correction solving the invariance condition at one point."""

    u: np.ndarray
    residual: float
    branch_snap: bool


def vertex_solution(frame, antiunitary):
    """Solve the invariance condition at a high-symmetry point.

    The corrected frame ``frame <| u`` satisfies ``phi = tau_lam theta phi``
    up to the reported residual.
    """
    v = obstruction_unitary(frame, antiunitary)
    u, info = symmetric_sqrt(v)
    phi = frame @ u
    image = np.asarray(antiunitary) @ np.conj(phi)
    res = float(np.linalg.norm(phi - image))
    return VertexSolution(u=u, residual=res, branch_snap=info["branch_snap"])


def interpolate_unitaries(u1, u2, t):
    """Geodesic path ``W(t)`` with ``W(0) = u1`` and ``W(1/2) = u2``.

    Writes ``u1^{-1} u2 = S exp(i D) S^H`` with eigenphases on the principal
    branch ``(-pi, pi]`` (an eigenvalue at ``-1`` contributes ``+pi``) and
    returns ``u1 S exp(2 i t D) S^H``.  ``t`` may be a scalar or an array;
    the result gains one leading axis per ``t`` axis.
    """
    u1 = np.asarray(u1, dtype=complex)
    u2 = np.asarray(u2, dtype=complex)
    ustar = lowdin(u1.conj().T @ u2)
    w, q, labels = unitary_eigensystem(ustar)

    def principal(angle):
        # map to (-pi, pi], sending -pi to +pi
        a = wrap_to_pi(angle)
        if a <= -np.pi + 1e-15:
            a = np.pi
        return float(a)

    phases = cluster_phases(w, labels, principal)
    t = np.asarray(t, dtype=float)[..., None]
    return u1 @ (q @ (np.exp(2j * t * phases)[..., :, None] * q.conj().T))


def macro1(frames, start_frame, end_antiunitary):
    """Transport a symmetric frame along a straight high-symmetry segment.

    Parameters
    ----------
    frames : (steps + 1, n, m) array
        Input frames along the segment, in order; the first point carries
        ``start_frame`` (already invariant under its own vertex operation)
        and the last point is a high-symmetry point with antiunitary matrix
        ``end_antiunitary``.
    start_frame : (n, m) array
        Value prescribed at the first point; reproduced exactly.
    end_antiunitary : (n, n) array
        Matrix of ``tau_lam o theta`` at the end point.

    Returns ``(corrected, end_solution)``: the corrected frames along the
    segment, shaped like ``frames``, and the vertex solution at the end.
    """
    steps = len(frames) - 1
    u_start = unitary_between(frames[0], start_frame)
    sol = vertex_solution(frames[-1], end_antiunitary)
    ts = 0.5 * np.arange(steps + 1) / steps
    return frames @ interpolate_unitaries(u_start, sol.u, ts), sol


def construct_1d(psi_field, family):
    """Symmetric frame on the 1-torus from an input frame on ``[0, 1/2]``.

    Solves the invariance condition at both half-integer points and joins the
    two corrections by geodesic interpolation.  Returns the symmetric
    extension to the full torus and a dict of diagnostics.
    """
    from .wannier import extend_symmetric

    geo = psi_field.geometry
    psi = psi_field.data
    origin_sol = vertex_solution(psi[0], family.antiunitary_matrix((0,)))
    frames, end_sol = macro1(psi, psi[0] @ origin_sol.u, family.antiunitary_matrix((1,)))
    fld = FrameField(geo, "effective-cell", frames)
    diagnostics = {
        "vertex_residuals": {
            str((0,)): origin_sol.residual,
            str((geo.grid_n,)): end_sol.residual,
        },
        "branch_snaps": bool(origin_sol.branch_snap or end_sol.branch_snap),
    }
    return extend_symmetric(fld, family), diagnostics
