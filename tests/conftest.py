"""Shared fixtures and random-object generators for the test suite."""

import numpy as np
import pytest

import blochframe as bf
from blochframe.face2d import FaceContext, build_face
from blochframe.frames import FrameField, input_frame
from blochframe.linalg import unitary_phases
from blochframe.models import ProjectorFamily


def _log_eigensystem(u, margin=1e-8):
    """Clustered eigenphases in (-pi, pi) and the unitary eigenbasis."""
    q, phases = unitary_phases(u, lambda a: a, 5e-14 * len(u), 1e-8)
    worst = float(np.pi - np.max(np.abs(phases))) if len(phases) else np.pi
    if worst <= margin:
        raise ValueError(f"eigenphase within {worst:.2e} of the branch cut at pi")
    return phases, q


def unitary_log(u, margin=1e-8):
    """Principal logarithm of a unitary matrix (reference for the tests).

    Returns the skew-Hermitian ``A`` with ``exp(A) = u`` and all eigenvalues
    of ``A/i`` in ``(-pi, pi)``.  An eigenphase within ``margin`` of the
    branch cut raises ``ValueError``; the Hilbert-Schmidt norm of
    the result is the geodesic distance from the identity to ``u``.
    """
    phases, q = _log_eigensystem(u, margin=margin)
    a = (q * (1j * phases)) @ q.conj().T
    return 0.5 * (a - a.conj().T)


def geodesic_distance(u):
    """Geodesic distance from the identity, ``(sum of eigenphases^2)^(1/2)``."""
    phases, _ = _log_eigensystem(u, margin=0.0)
    return float(np.sqrt(np.sum(phases**2)))


def random_unitary(rng, m):
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def gram_stack(rng, m, kappa, size=64, n=4):
    """Random frames ``(size, n, m)`` with singular values from 1 down to
    ``1 / kappa``, so that their Gram matrices have condition ``kappa**2``."""
    shape = (size, n, m)
    u = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))[0]
    v = np.stack([random_unitary(rng, m) for _ in range(size)])
    sing = np.geomspace(1.0, 1.0 / kappa, m) * rng.uniform(0.5, 2.0, (size, 1))
    return (u * sing[:, None, :]) @ v


def random_symmetric_unitary(rng, m):
    # every symmetric unitary factors as U U^T (Autonne-Takagi)
    u = random_unitary(rng, m)
    return u @ u.T


def skew_hermitian(rng, m, scale=1.0):
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return scale * 0.5 * (a - a.conj().T)


def planted_loop(ts, m, winding, rng, scale=0.4, order=3):
    """Unitary loop whose determinant has winding exactly ``winding``.

    Built as diag(e^{2 pi i r t}, 1, ..) times exp(A(t)) with A a random
    skew-Hermitian trigonometric polynomial; det exp(A) = exp(tr A) has a
    global continuous argument, so only the planted phase winds.
    """
    ts = np.asarray(ts, dtype=float)
    coeffs = [
        (skew_hermitian(rng, m, scale / (j + 1)), skew_hermitian(rng, m, scale / (j + 1)))
        for j in range(order + 1)
    ]
    out = np.empty((len(ts), m, m), dtype=complex)
    for i, t in enumerate(ts):
        a = np.zeros((m, m), dtype=complex)
        for j, (bj, cj) in enumerate(coeffs):
            a += np.cos(2 * np.pi * j * t) * bj + np.sin(2 * np.pi * j * t) * cj
        w, q = np.linalg.eigh(1j * a)
        g = (q * np.exp(-1j * w)) @ q.conj().T
        head = np.eye(m, dtype=complex)
        head[0, 0] = np.exp(2j * np.pi * winding * t)
        out[i] = head @ g
    return out


def boundary_loop(dom):
    """Node ids of a 2d ``BoundaryDomain`` in loop order: counterclockwise
    about the apex, from the origin."""
    g1, g2 = dom.points.T
    return np.argsort(np.mod(np.arctan2(g2, 2 * g1 - dom.geo.grid_n) - np.pi, 2 * np.pi))


def loop_nodes(dom, loop_values):
    """Values given in :func:`boundary_loop` order, in the node order of ``dom``."""
    out = np.empty_like(loop_values)
    out[boundary_loop(dom)] = loop_values
    return out


def copied(field):
    """A frame field with its own copy of ``field``'s data and meta."""
    return FrameField(field.geometry, field.region, field.data.copy(), dict(field.meta))


def face_cell(family, geo):
    """The effective-cell frame that ``construct_2d`` extends to the torus."""
    ctx = FaceContext(geo, input_frame(family, geo).data, family, ((1, 0), (0, 1)), (0, 0))
    return build_face(ctx)[0]


def trig_deg0_field(m, rng, d, order=1, scale=0.35, terms=4):
    """k -> exp(A(k)) with A a skew-Hermitian trig polynomial on the torus.

    The determinant exp(tr A) lifts globally, so the restriction to any
    loop or surface has degree zero.
    """
    amp = scale / (m * terms)
    parts = []
    for _ in range(terms):
        q = rng.integers(-order, order + 1, size=d)
        parts.append((q, skew_hermitian(rng, m, amp), skew_hermitian(rng, m, amp)))

    def at(k):
        a = np.zeros((m, m), dtype=complex)
        for q, bq, cq in parts:
            ph = 2 * np.pi * float(np.dot(q, k))
            a += np.cos(ph) * bq + np.sin(ph) * cq
        w, qv = np.linalg.eigh(1j * a)
        return (qv * np.exp(-1j * w)) @ qv.conj().T

    return at


def shifted_orbitals(base, positions, name):
    """``base`` with orbital ``a`` moved to the fractional position ``positions[a]``.

    The fractional positions turn the Bloch Hamiltonian quasi-periodic; the
    unit shifts are carried by diagonal tau generators ``diag(exp(2 pi i
    r_j))``, which keeps the family gapped and time-reversal symmetric.
    """
    pos = np.asarray(positions, dtype=float)
    hop = {}
    for vec, mat in base.hoppings.items():
        vec = np.asarray(vec, dtype=float)
        for a in range(base.n):
            for b in range(base.n):
                if mat[a, b] != 0:
                    entry = hop.setdefault(
                        tuple(vec + pos[a] - pos[b]),
                        np.zeros((base.n, base.n), dtype=complex),
                    )
                    entry[a, b] += mat[a, b]
    tau = [np.diag(np.exp(2j * np.pi * pos[:, j])) for j in range(base.d)]
    return ProjectorFamily(
        d=base.d, n=base.n, m=base.m, hoppings=hop, tau=tau, name=name
    )


def shifted_haldane(r2=(0.5, 0.5)):
    """Haldane model with the second orbital moved to ``r2``.

    Exercises every nontrivial-tau code path on a two-dimensional model; at
    the default offset ``tau_j**2 = 1``, at a quarter offset ``tau_lam !=
    tau_{-lam}``.
    """
    return shifted_orbitals(bf.builtin_model("haldane"), [(0.0, 0.0), r2],
                            "haldane-shifted")


def shifted_trs_3d():
    """random-trs d=3 n=4 m=2 seed 0 with three orbitals moved off the origin.

    The positions make the three generators distinct and ``tau_j !=
    tau_j^{-1}``, so a face of the 3d cell read along a wrong axis or with a
    wrong shift breaks a boundary relation.
    """
    base = bf.builtin_model("random-trs", n=4, m=2, d=3, seed=0)
    positions = [(0, 0, 0), (0.25, 0.75, 0.25), (0.75, 0.5, 0.75), (0.75, 0, 0)]
    return shifted_orbitals(base, positions, "random-trs-shifted")


def lapack_frames(family, k):
    """Occupied eigenvectors ``(..., n, m)`` of ``H(k)`` from a fresh LAPACK
    ``eigh``: an oracle that shares no code with the family's eigensystem
    kernel (in closed form for two bands) or its torus sample."""
    return np.linalg.eigh(family.hamiltonian(k))[1][..., : family.m]


def lapack_projector(family, k):
    """Spectral projectors ``v v^H`` of :func:`lapack_frames`."""
    v = lapack_frames(family, k)
    return v @ np.swapaxes(v.conj(), -1, -2)


def model_json(family):
    """JSON description of ``family`` that ``load_model`` reads back."""
    def matrix(a):
        return {"re": np.real(a).tolist(), "im": np.imag(a).tolist()}

    cfg = {
        "dimension": family.d, "orbitals": family.n, "rank": family.m,
        "hoppings": [{"R": list(r), **matrix(mat)} for r, mat in family.hoppings.items()],
        "gap_tolerance": family.gap_tolerance, "name": family.name,
    }
    if family.tau is not None:
        cfg["tau"] = {"generators": [matrix(t) for t in family.tau]}
    if family.theta is not None:
        cfg["theta"] = {"unitary": matrix(family.theta)}
    return cfg


def rotated(base, seed=2):
    """``base`` conjugated by a fixed unitary V: ``H_R -> V H_R V^H``, time
    reversal ``C -> V C V^T`` (``V V^T`` for plain conjugation) and ``tau_j
    -> V tau_j V^H``.

    Exercises the nontrivial conjugation-unitary code paths (obstruction
    algebra, theta-reality certificate, the symmetry products on the torus)
    while staying unitarily equivalent to the base model.
    """
    v = random_unitary(np.random.default_rng(seed), base.n)
    hop = {vec: v @ mat @ v.conj().T for vec, mat in base.hoppings.items()}
    tau = None if base.tau is None else [v @ t @ v.conj().T for t in base.tau]
    return ProjectorFamily(
        d=base.d, n=base.n, m=base.m, hoppings=hop, theta=v @ base.theta_matrix() @ v.T,
        tau=tau, name=f"{base.name}-rotated"
    )


def antiunitary_oracle(family, lam):
    """Matrix ``A = tau_lam C`` of the antiunitary ``tau_lam theta`` (acting
    as ``v -> A conj(v)``), built from the family's matrices: an oracle
    for :meth:`ProjectorFamily.act`, which applies it without forming it
    where it is the identity."""
    return family.tau_power(lam) @ family.theta_matrix()


def act_with_the_wrong_shift(monkeypatch):
    """Replace :meth:`ProjectorFamily.act` by a mutant that applies the
    antiunitary ``tau^(+lam) theta`` where ``tau^(-lam) theta`` is asked
    for, and ``tau_lam`` unchanged."""
    real = ProjectorFamily.act

    def flipped(self, lam, frames, anti=False):
        return real(self, tuple(-x for x in lam) if anti else lam, frames, anti)

    monkeypatch.setattr(ProjectorFamily, "act", flipped)


def act_ignoring_theta(monkeypatch):
    """Replace :meth:`ProjectorFamily.act` by a mutant that multiplies by
    nothing whenever ``tau = 1``, as if ``theta`` were plain conjugation."""
    real = ProjectorFamily.act

    def skips_for_tau(self, lam, frames, anti=False):
        if self.tau is None:
            return np.conj(frames) if anti else frames
        return real(self, lam, frames, anti)

    monkeypatch.setattr(ProjectorFamily, "act", skips_for_tau)


def rotated_ssh(seed=2):
    """The SSH chain under :func:`rotated`; theta becomes V V^T."""
    return rotated(bf.builtin_model("ssh"), seed)


def reversal_break_between_grid_points():
    """JSON config of the SSH chain plus ``H_{+-16} = +-0.2i diag(1, -1)``.

    The added term is odd in ``k`` and purely imaginary, so it breaks time
    reversal, yet ``sin(32 pi k)`` vanishes on the points ``i / 16`` of a
    grid_n 8 torus: any check sampled there sees the plain SSH chain.
    """
    return {
        "dimension": 1, "orbitals": 2, "rank": 1,
        "hoppings": [
            {"R": [0], "re": [[0, 1], [1, 0]]},
            {"R": [1], "re": [[0, 0], [0.4, 0]]},
            {"R": [-1], "re": [[0, 0.4], [0, 0]]},
            {"R": [16], "im": [[0.2, 0], [0, -0.2]]},
            {"R": [-16], "im": [[-0.2, 0], [0, 0.2]]},
        ],
    }


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


@pytest.fixture(scope="session")
def haldane():
    return bf.builtin_model("haldane")


@pytest.fixture(scope="session")
def ssh():
    return bf.builtin_model("ssh")


@pytest.fixture(scope="session")
def random_trs_2d():
    return bf.builtin_model("random-trs", n=4, m=2, d=2, seed=3)
