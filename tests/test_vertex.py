"""Unit tests for vertex corrections and segment transport.

The square-root factorization is checked against its defining property
directly (u u^T reproduces the input, u is unitary and itself symmetric),
including branch-point and near-degenerate edge cases that a naive
eigenphase halving would get wrong.
"""
import numpy as np
import pytest
import scipy.cluster.hierarchy
import scipy.linalg

from blochframe.cells import CellGeometry
from blochframe.errors import ObstructionAsymmetric
from blochframe.frames import input_frame, unitary_between
from blochframe.linalg import lowdin
from blochframe.vertex import (
    construct_1d,
    interpolate_unitaries,
    macro1,
    obstruction_unitary,
    symmetric_sqrt,
    vertex_solution,
)

from blochframe.models import builtin_model

from conftest import (
    antiunitary_oracle,
    lapack_projector,
    random_symmetric_unitary,
    random_unitary,
    rotated,
    shifted_haldane,
)


@pytest.mark.parametrize("m", [1, 2, 3, 5])
def test_symmetric_sqrt_factorizes(rng, m):
    for _ in range(50):
        v = random_symmetric_unitary(rng, m)
        u, info = symmetric_sqrt(v)
        assert np.linalg.norm(u @ u.T - v) < 1e-11
        assert np.linalg.norm(u.conj().T @ u - np.eye(m)) < 1e-12
        # the principal functional square root is itself symmetric
        assert np.linalg.norm(u - u.T) < 1e-10
        assert info["residual"] < 1e-11


def test_symmetric_sqrt_rejects_asymmetric(rng):
    u = random_unitary(rng, 3)
    if np.linalg.norm(u - u.T) < 1e-3:  # essentially impossible, but be safe
        u = u @ np.diag([1, 1j, 1])
    with pytest.raises(ObstructionAsymmetric):
        symmetric_sqrt(u)


def test_symmetric_sqrt_snaps_wraparound_phase():
    v = np.diag([np.exp(-1e-14j), 1.0]).astype(complex)
    u, info = symmetric_sqrt(v)
    assert info["branch_snap"]
    # the snapped root sits near +1, not near the opposite branch -1
    assert np.linalg.norm(u - np.eye(2)) < 1e-6


def test_symmetric_sqrt_keeps_split_degeneracy_together(rng):
    """A degenerate pair straddling the 0/2 pi cut stays on one branch."""
    eps = 1e-10
    q = scipy.linalg.qr(rng.standard_normal((3, 3)))[0]  # real orthogonal
    v = q @ np.diag(np.exp(1j * np.array([eps, -eps, 1.3]))) @ q.T
    u, _ = symmetric_sqrt(v)
    assert np.linalg.norm(u @ u.T - v) < 1e-11
    # both members of the cluster took the branch near zero phase
    w = np.linalg.eigvals(u)
    assert sorted(np.abs(np.angle(w)))[1] < 1e-6


@pytest.mark.parametrize("seed", range(8))
def test_symmetric_sqrt_of_phases_straddling_the_branch_point(seed):
    """Eigenphases just below and above 0 put the square roots near -1 and
    +1; the root must still factor ``v`` to roundoff."""
    rng = np.random.default_rng(seed)
    o = scipy.linalg.qr(rng.standard_normal((3, 3)))[0]
    mu = np.array([-1.05e-5, 3.0e-7, 1.5e-3]) * rng.uniform(0.5, 2.0, size=3)
    v = o @ np.diag(np.exp(1j * mu)) @ o.T
    v = 0.5 * (v + v.T)
    u, info = symmetric_sqrt(v)
    assert np.linalg.norm(u @ u.T - v) <= 1e-12
    assert info["residual"] <= 1e-12
    assert np.linalg.norm(u - u.T) <= 1e-12


def test_obstruction_unitary_closed_form(rng):
    q = random_unitary(rng, 4)
    v = obstruction_unitary(q, np.conj(q))
    want = q.conj().T @ np.conj(q)
    assert np.linalg.norm(v - want) < 1e-12
    assert np.linalg.norm(v - v.T) == 0.0


def test_obstruction_unitary_real_frame_is_identity(rng):
    r = scipy.linalg.qr(rng.standard_normal((4, 2)))[0][:, :2]
    v = obstruction_unitary(r, np.conj(r))
    assert np.linalg.norm(v - np.eye(2)) < 1e-12


def test_obstruction_unitary_rejects_antisymmetric():
    # the image of the frame 1 under A = a, which squares to -1: no valid vertex
    a = np.array([[0.0, 1.0], [-1.0, 0.0]])
    with pytest.raises(ObstructionAsymmetric):
        obstruction_unitary(np.eye(2), a)


def test_vertex_solution_fixes_the_frame(rng):
    # an invariant span: real basis rotated by an arbitrary unitary
    r = scipy.linalg.qr(rng.standard_normal((4, 2)))[0][:, :2]
    frame = r @ random_unitary(rng, 2)
    sol = vertex_solution(frame, np.conj(frame))
    phi = frame @ sol.u
    assert np.linalg.norm(phi - np.conj(phi)) < 1e-10
    assert sol.residual < 1e-10


def test_interpolate_endpoints_and_unitarity(rng):
    u1 = random_unitary(rng, 3)
    u2 = random_unitary(rng, 3)
    assert np.linalg.norm(interpolate_unitaries(u1, u2, 0.0) - u1) < 1e-12
    assert np.linalg.norm(interpolate_unitaries(u1, u2, 0.5) - u2) < 1e-12
    ts = np.linspace(0.0, 0.5, 11)
    path = interpolate_unitaries(u1, u2, ts)
    assert path.shape == (11, 3, 3)
    for w in path:
        assert np.linalg.norm(w.conj().T @ w - np.eye(3)) < 1e-12


def test_interpolate_is_a_geodesic(rng):
    """Increments depend only on the parameter difference."""
    u1 = random_unitary(rng, 2)
    u2 = random_unitary(rng, 2)
    w = lambda t: interpolate_unitaries(u1, u2, t)
    inc1 = w(0.1).conj().T @ w(0.3)
    inc2 = w(0.2).conj().T @ w(0.4)
    assert np.linalg.norm(inc1 - inc2) < 1e-11


def test_interpolate_minus_one_takes_positive_halfturn():
    u2 = np.diag([-1.0, 1.0]).astype(complex)
    w = interpolate_unitaries(np.eye(2), u2, 0.25)
    assert np.linalg.norm(w - np.diag([1j, 1.0])) < 1e-12


def test_interpolate_conjugate_pair_near_minus_one():
    delta = 1e-9
    u2 = np.diag(np.exp(1j * np.array([np.pi - delta, -(np.pi - delta)])))
    w = interpolate_unitaries(np.eye(2), u2, 0.5)
    assert np.linalg.norm(w - u2) < 1e-7


def schur_interpolation(u1, u2, t):
    """Reference geodesic from scipy's complex Schur factor of ``u1^H u2``."""
    tri, q = scipy.linalg.schur(lowdin(u1.conj().T @ u2), output="complex")
    w = np.diag(tri) / np.abs(np.diag(tri))

    def principal(angle):
        a = float(np.angle(np.exp(1j * angle)))
        return np.pi if a <= -np.pi + 1e-15 else a

    # the branch step, kept apart from the package's: eigenvalues joined by
    # a chain of steps of at most 1e-8 form a cluster, whose members take
    # the branch of their mean and their wrapped offsets from it
    points = np.stack([w.real, w.imag], axis=-1)
    labels = scipy.cluster.hierarchy.fclusterdata(points, 1e-8, "distance", method="single")
    phases = np.empty(len(w))
    for lab in np.unique(labels):
        idx = labels == lab
        rep = principal(float(np.angle(w[idx].sum())))
        phases[idx] = rep + np.angle(w[idx] * np.exp(-1j * rep))
    return np.stack(
        [u1 @ q @ np.diag(np.exp(2j * s * phases)) @ q.conj().T for s in t]
    )


def _first_mixing_angle():
    return float(np.arctan(np.random.default_rng(1234).standard_normal()))


@pytest.mark.parametrize("phases", [
    None,
    [0.7, 0.7, 0.7, 2.0],
    [1.1, -1.1, 0.3],
    [np.pi - 4e-10, -(np.pi - 4e-10), 0.5],
    # ``c = tan((phi1 + phi2) / 2)`` merges the first two in ``H + c K``
    [_first_mixing_angle() + 0.9, _first_mixing_angle() - 0.9, 2.0],
], ids=["random", "triple", "conjugate-pair", "pair-near-minus-one", "retry"])
def test_interpolate_matches_a_schur_reference(rng, phases):
    m = 3 if phases is None else len(phases)
    u1 = random_unitary(rng, m)
    if phases is None:
        u2 = random_unitary(rng, m)
    else:
        v = random_unitary(rng, m)
        u2 = u1 @ v @ np.diag(np.exp(1j * np.asarray(phases))) @ v.conj().T
    ts = np.linspace(0.0, 0.5, 6)
    got = interpolate_unitaries(u1, u2, ts)
    assert np.max(np.abs(got - schur_interpolation(u1, u2, ts))) < 1e-12


def test_macro1_reproduces_start_and_fixes_end(rng):
    r = scipy.linalg.qr(rng.standard_normal((4, 2)))[0][:, :2]
    h = 0.3 * (lambda a: a + a.conj().T)(
        rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    )
    points = [(i,) for i in range(9)]
    frames_in = np.stack([r @ scipy.linalg.expm(1j * g[0] / 8 * h) for g in points])
    start_sol = vertex_solution(frames_in[0], np.conj(frames_in[0]))
    start = frames_in[0] @ start_sol.u
    frames, end_sol = macro1(frames_in, start, np.conj(frames_in[-1]))
    assert np.linalg.norm(frames[0] - start) < 1e-12
    phi_end = frames[-1]
    assert np.linalg.norm(phi_end - np.conj(phi_end)) < 1e-10
    assert end_sol.residual < 1e-10
    steps = [np.linalg.norm(a - b) for a, b in zip(frames, frames[1:])]
    assert max(steps) < 0.6


@pytest.mark.parametrize("make, grid_n", [
    (lambda: rotated(builtin_model("haldane")), 4),
    (shifted_haldane, 4),
    (lambda: rotated(builtin_model("random-trs", d=3, n=4, m=2, seed=0)), 2),
], ids=["rotated-haldane", "shifted-haldane", "rotated-trs-3d"])
def test_vertex_solution_on_images_matches_the_matrix_oracle(make, grid_n):
    """At every high-symmetry point, the solve on the image ``act(lam,
    psi, anti=True)`` is the solve with the matrix ``A = tau_lam C``:
    ``V = lowdin(psi^H A conj(psi))`` and the residual ``||phi - A
    conj(phi)||`` of ``phi = psi u``."""
    family = make()
    geo = CellGeometry(family.d, grid_n)
    psi = input_frame(family, geo).data
    for t in geo.trims():
        lam = geo.trim_lambda(t)
        frame = psi[geo.cell_index(np.array(t))]
        a = antiunitary_oracle(family, lam)
        v = lowdin(frame.conj().T @ a @ np.conj(frame))
        u, _ = symmetric_sqrt(0.5 * (v + v.T))
        residual = np.linalg.norm(frame @ u - a @ np.conj(frame @ u))
        sol = vertex_solution(frame, family.act(lam, frame, anti=True))
        assert np.max(np.abs(sol.u - u)) <= 1e-14, t
        assert abs(sol.residual - residual) <= 1e-14, t


def test_construct_1d_symmetric_frame(ssh):
    geo = CellGeometry(1, 8)
    psi = input_frame(ssh, geo)
    torus, diag = construct_1d(psi, ssh)
    assert torus.region == "full-torus"
    assert torus.orthonormality_defect() < 1e-12
    assert all(v < 1e-10 for v in diag["vertex_residuals"].values())
    data = torus.data
    # reflection symmetry on the whole torus (theta is plain conjugation,
    # and ssh's tau is one, so -g is stored at -g mod n_side)
    minus = data[-np.arange(geo.n_side) % geo.n_side]
    assert np.max(np.linalg.norm(minus - np.conj(data), axis=(-2, -1))) < 1e-10
    # frames still span the spectral subspace
    p = lapack_projector(ssh, geo.torus_k())
    assert np.max(np.linalg.norm(p @ data - data, axis=(-2, -1))) < 1e-9
    steps = np.linalg.norm(np.roll(data, -1, axis=0) - data, axis=(-2, -1))
    assert np.max(steps) < 0.8


def test_construct_1d_without_extension(ssh):
    # the effective cell [0, 1/2] of the result, before the extension fills the
    # rest of the torus: real vertex frames, the input frame rotated in its span
    geo = CellGeometry(1, 8)
    psi = input_frame(ssh, geo)
    torus, _ = construct_1d(psi, ssh)
    phi0, phi_half = torus.data[0], torus.data[8]
    assert np.linalg.norm(phi0 - np.conj(phi0)) < 1e-10
    assert np.linalg.norm(phi_half - np.conj(phi_half)) < 1e-10
    # the cell's grid points g = 0..grid_n are stored at index g in both
    cell = torus.data[:geo.grid_n + 1]
    u = unitary_between(psi.data, cell)
    assert np.max(np.linalg.norm(psi.data @ u - cell, axis=(-2, -1))) < 1e-10
