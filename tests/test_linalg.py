"""Unit tests for the dense linear algebra helpers.

The Lowdin orthonormalization is cross-checked against an independent
oracle built from the Gram matrix: the closest orthonormal-column matrix
to M is M (M^H M)^{-1/2}, computed here by eigendecomposition.  Its
closed form for ``m <= 2`` is checked against the polar factor ``u vh`` of
an explicit SVD.  The closed-form ``2 x 2`` Hermitian eigensystem is
cross-checked against LAPACK's ``eigh``, and the eigenphases of a unitary
(``unitary_phases``) against scipy's complex Schur factorization.
"""
from itertools import permutations

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from blochframe.errors import BlochFrameError
from blochframe.linalg import (
    gram_polar,
    hermitian_eigensystem,
    joint_eigenbasis,
    lowdin,
    unitary_phases,
    wrap_to_pi,
)

from conftest import gram_stack, random_symmetric_unitary, random_unitary


def gram_power_orthonormalize(mat):
    """Oracle: M (M^H M)^{-1/2} via eigendecomposition of the Gram matrix."""
    gram = mat.conj().T @ mat
    evals, evecs = np.linalg.eigh(gram)
    inv_sqrt = evecs @ np.diag(evals ** -0.5) @ evecs.conj().T
    return mat @ inv_sqrt


def test_wrap_to_pi_range_and_period():
    xs = np.linspace(-25.0, 25.0, 4001)
    w = wrap_to_pi(xs)
    assert np.all(w >= -np.pi) and np.all(w < np.pi)
    assert np.allclose(wrap_to_pi(xs + 2 * np.pi), w, atol=1e-12)
    assert wrap_to_pi(0.0) == 0.0
    assert wrap_to_pi(np.pi) == pytest.approx(-np.pi)
    assert wrap_to_pi(-np.pi) == pytest.approx(-np.pi)


@pytest.mark.parametrize("shape", [(5, 3), (4, 4), (6, 2), (2, 1)])
def test_lowdin_matches_gram_oracle(rng, shape):
    mat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    got = lowdin(mat)
    want = gram_power_orthonormalize(mat)
    assert np.linalg.norm(got - want) < 1e-11
    assert np.linalg.norm(got.conj().T @ got - np.eye(shape[1])) < 1e-13


def test_lowdin_fixes_orthonormal_input(rng):
    q = random_unitary(rng, 5)[:, :3]
    assert np.linalg.norm(lowdin(q) - q) < 1e-13


def test_lowdin_is_nearest_projection(rng):
    """Small rotations of the result never get closer to the input."""
    mat = random_unitary(rng, 4)[:, :2] + 0.05 * (
        rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    )
    best = lowdin(mat)
    base = np.linalg.norm(mat - best)
    for _ in range(20):
        a = 0.1 * rng.standard_normal((2, 2))
        skew = a - a.T + 1j * (a + a.T)
        skew -= np.trace(skew) / 2 * np.eye(2)
        rival = best @ scipy.linalg.expm(skew - skew.conj().T)
        assert np.linalg.norm(mat - rival) >= base - 1e-12


def test_lowdin_rank_tolerance(rng):
    col = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    mat = np.column_stack([col, col])
    with pytest.raises(ValueError):
        lowdin(mat, rank_tol=1e-8)
    # without a tolerance the output is still orthonormal
    q = lowdin(mat)
    assert np.linalg.norm(q.conj().T @ q - np.eye(2)) < 1e-12



def _svd_polar(mat):
    u, _, vh = np.linalg.svd(mat, full_matrices=False)
    return u @ vh


def _svd_rank_error(mat):
    """The message of the SVD route's rank refusal for ``mat``."""
    worst = np.min(np.linalg.svd(mat, compute_uv=False)[..., -1])
    return f"rank-deficient input, smallest singular value {worst:.3e}"


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("kappa", [1.0, 3.0, 9.5])
def test_lowdin_takes_the_closed_form_within_its_bound(rng, m, kappa):
    """Up to condition number 10 ``lowdin`` is the closed form of
    ``gram_polar`` and within ``64 eps kappa**2`` of the SVD's polar
    factor."""
    c = gram_stack(rng, m, kappa)
    got = lowdin(c)
    assert np.array_equal(got, gram_polar(c)[2])
    bound = 64 * np.finfo(float).eps * kappa**2
    assert np.max(np.abs(got - _svd_polar(c))) <= bound


def test_lowdin_takes_the_svd_on_an_ill_conditioned_stack(rng):
    """One frame of condition 1e4 among well-conditioned ones sends the
    whole stack to the SVD; the Gram route errs by about 1e-8 there."""
    c = gram_stack(rng, 2, 1.0, size=16)
    c[5] = gram_stack(rng, 2, 1e4, size=1)[0]
    want = _svd_polar(c)
    assert np.max(np.abs(lowdin(c) - want)) <= 1e-12
    assert np.max(np.abs(gram_polar(c)[2] - want)) > 1e-12


@pytest.mark.parametrize("m, kappa", [(1, 1.0), (2, 8.0), (2, 1e4)])
def test_lowdin_refuses_a_rank_floor_alike_on_both_routes(rng, m, kappa):
    """A stack whose smallest singular value is 0.05 is refused at
    ``rank_tol`` 0.1 with the SVD's message, within the closed form's range
    of condition (1 and 8) and beyond it (1e4)."""
    c = gram_stack(rng, m, kappa, size=8)
    c *= 0.05 / np.min(np.linalg.svd(c, compute_uv=False))
    w_min, w_max, _ = gram_polar(c)
    assert bool(np.all(w_max <= 100 * w_min)) is (kappa <= 10)
    with pytest.raises(ValueError) as exc:
        lowdin(c, rank_tol=0.1)
    assert str(exc.value) == _svd_rank_error(c)
    # well above the floor, the closed-form stacks pass
    if kappa <= 10:
        assert np.array_equal(lowdin(c, rank_tol=0.04), gram_polar(c)[2])


@pytest.mark.parametrize("m", [1, 2, 3])
def test_lowdin_keeps_a_real_input_real(rng, m):
    c = rng.standard_normal((8, 5, m))
    got = lowdin(c)
    assert got.dtype == np.float64
    assert np.max(np.abs(got - _svd_polar(c))) <= 1e-13


EPS = np.finfo(float).eps


def _two_band_stack(rng, size, scale, real=False):
    """``scale`` times ``2 x 2`` Hermitian matrices ``[[mean + delta, b],
    [conj(b), mean - delta]]``: ``delta`` of either sign, ``|b| / |delta|``
    from 1e-12 to 10, ``|mean|`` up to 1e6 times ``|delta|`` (gaps far below
    ``||H||``), and ``b = 0`` on every tenth matrix."""
    delta = rng.choice([-1.0, 1.0], size) * rng.uniform(0.1, 1.0, size)
    mean = rng.uniform(-1.0, 1.0, size) * 10.0 ** rng.uniform(-1, 6, size)
    b = delta * 10.0 ** rng.uniform(-12, 1, size)
    if not real:
        b = b * np.exp(2j * np.pi * rng.uniform(size=size))
    b[::10] = 0.0
    h = np.empty((size, 2, 2), dtype=b.dtype)
    h[:, 0, 0], h[:, 1, 1] = mean + delta, mean - delta
    h[:, 1, 0], h[:, 0, 1] = b, np.conj(b)
    return scale * h


def _check_two_band_eigensystem(h, w, v, bound=8 * EPS):
    """Ascending eigenvalues within ``bound ||H||`` of LAPACK's, a residual
    ``||H v - v w||`` and orthonormality within ``bound`` relative, and a
    lower-band projector within ``2 bound ||H|| / gap`` of LAPACK's, whose
    own error is of that size."""
    w_ref, v_ref = np.linalg.eigh(h)
    norm = np.max(np.abs(w_ref), axis=-1)
    assert np.all(w[..., 0] <= w[..., 1])
    assert np.all(np.abs(w - w_ref) <= bound * norm[..., None])
    # relative to ||H||, so that no product under- or overflows; real
    # quotients, because numpy's complex one overflows on a subnormal norm
    scale = norm[..., None, None]
    hn, wn = h.real / scale + 1j * (h.imag / scale), w / norm[..., None]
    residual = np.linalg.norm(hn @ v - v * wn[..., None, :], axis=(-2, -1))
    assert np.max(residual) <= bound
    gram = np.swapaxes(v.conj(), -1, -2) @ v
    assert np.max(np.linalg.norm(gram - np.eye(2), axis=(-2, -1))) <= bound
    gap = (w_ref[..., 1] - w_ref[..., 0]) / norm
    lower, lower_ref = v[..., :, :1], v_ref[..., :, :1]
    moved = np.linalg.norm(lower * lower.conj().swapaxes(-1, -2)
                           - lower_ref * lower_ref.conj().swapaxes(-1, -2), axis=(-2, -1))
    apart = gap > 1e-6
    assert np.all(moved[apart] <= 2 * bound / gap[apart])


@pytest.mark.parametrize("scale", [1e-150, 1e-8, 1.0, 1e8, 1e150])
@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
def test_hermitian_eigensystem_matches_eigh(rng, scale, real):
    """The closed form agrees with LAPACK within a few eps of ``||H||``
    over 1e-150 to 1e150, with no over- or underflow warning (an error
    under pytest), and keeps a real stack real."""
    h = _two_band_stack(rng, 4000, scale, real=real)
    w, v = hermitian_eigensystem(h)
    assert v.dtype == (np.float64 if real else np.complex128)
    _check_two_band_eigensystem(h, w, v)


def test_hermitian_eigensystem_of_a_multiple_of_the_identity_is_the_identity_basis():
    h = np.array([0.0, 1.0, -3.5, 1e-300, 1e300])[:, None, None] * np.eye(2)
    w, v = hermitian_eigensystem(h + 0j)
    assert np.array_equal(v, np.broadcast_to(np.eye(2), v.shape))
    assert np.array_equal(w, np.stack([h[:, 0, 0]] * 2, axis=-1))


def test_hermitian_eigensystem_gives_nan_for_nan(rng):
    """A NaN entry anywhere poisons that matrix's eigenvalues and both
    vectors: never the clean identity basis of ``r = 0``."""
    h = np.tile(np.array([[1.0, 0.5j], [-0.5j, -1.0]]), (4, 1, 1))
    h[0, 0, 0] = np.nan
    h[1, 1, 1] = np.nan
    h[2, 1, 0] = h[2, 0, 1] = complex(np.nan, 0.0)
    w, v = hermitian_eigensystem(h)
    assert np.all(np.isnan(w[:3])) and np.all(np.isnan(v[:3]))
    _check_two_band_eigensystem(h[3:], w[3:], v[3:])


@pytest.mark.parametrize("n", [1, 3, 4])
def test_hermitian_eigensystem_is_eigh_beyond_two_bands(rng, n):
    a = rng.standard_normal((5, 3, n, n)) + 1j * rng.standard_normal((5, 3, n, n))
    h = a + np.swapaxes(a.conj(), -1, -2)
    w, v = hermitian_eigensystem(h)
    w_ref, v_ref = np.linalg.eigh(h)
    assert np.array_equal(w, w_ref) and np.array_equal(v, v_ref)


def test_hermitian_eigensystem_of_a_subnormal_matrix_is_orthonormal():
    """Entries below the normal range: ``q = b / p`` is a quotient of two
    subnormals, so the vectors stay unit to a few eps."""
    tiny = np.array([[3e-310, 2e-313j], [-2e-313j, 0.0]])
    for h in (tiny, tiny.T.copy(), np.array([[0.0, 2e-313j], [-2e-313j, 0.0]])):
        w, v = hermitian_eigensystem(h)
        assert np.all(np.isfinite(w)) and w[0] <= w[1]
        assert np.linalg.norm(v.conj().T @ v - np.eye(2)) <= 8 * EPS


# zero, or far enough above the normal floor that no scale below makes it
# subnormal, where no relative bound holds
_ENTRY = st.one_of(st.just(0.0), st.floats(1e-100, 1.0), st.floats(-1.0, -1e-100))


@settings(max_examples=200, deadline=None)
@given(diag=st.tuples(_ENTRY, _ENTRY), off=st.tuples(_ENTRY, _ENTRY),
       exponent=st.integers(-150, 150))
def test_hermitian_eigensystem_property(diag, off, exponent):
    """Any ``2 x 2`` Hermitian matrix, degenerate, diagonal or with entries
    1e-100 of the others included, at any scale from 1e-150 to 1e150."""
    b = complex(*off)
    h = 10.0 ** exponent * np.array([[diag[0], b], [b.conjugate(), diag[1]]])
    if not np.any(h):
        return
    w, v = hermitian_eigensystem(h)
    _check_two_band_eigensystem(h, w, v)


def _multiset_distance(a, b):
    """Largest gap between two eigenvalue lists under their best pairing."""
    b = np.asarray(b)
    return min(np.max(np.abs(a - b[list(p)])) for p in permutations(range(len(b))))


def _phases(u, cluster_tol=1e-8, center=lambda a: a):
    """``unitary_phases`` at the roundoff bound ``5e-14 m`` (principal
    branch by default): the eigenvalues ``exp(i phases)``, the basis, the
    phases and the representative angle ``center`` was asked for, one per
    cluster."""
    reps = []

    def spy(angle):
        reps.append(angle)
        return center(angle)

    q, phases = unitary_phases(u, spy, 5e-14 * len(u), cluster_tol)
    return np.exp(1j * phases), q, phases, reps


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_unitary_eigensystem_reconstructs(rng, m):
    u = random_unitary(rng, m)
    w, q, phases, _ = _phases(u)
    assert np.allclose(np.abs(w), 1.0, atol=1e-12)
    assert np.linalg.norm(q.conj().T @ q - np.eye(m)) < 1e-13
    assert np.linalg.norm(u - q @ np.diag(w) @ q.conj().T) < 1e-12
    assert phases.shape == (m,)
    t = scipy.linalg.schur(u, output="complex")[0]
    assert _multiset_distance(w, np.diag(t) / np.abs(np.diag(t))) < 1e-12


def test_unitary_eigensystem_orthonormal_on_degenerate_spectrum(rng):
    """Repeated eigenvalues must not degrade the eigenbasis."""
    v = random_unitary(rng, 4)
    u = v @ np.diag(np.exp(1j * np.array([0.7, 0.7, 0.7, 2.0]))) @ v.conj().T
    w, q, phases, reps = _phases(u)
    assert np.linalg.norm(q.conj().T @ q - np.eye(4)) < 1e-13
    assert np.linalg.norm(u - q @ np.diag(w) @ q.conj().T) < 1e-12
    # the triple eigenvalue forms one cluster, the simple one another
    assert len(reps) == 2
    sizes = [int(np.sum(np.abs(phases - rep) <= 1e-8)) for rep in reps]
    assert sorted(sizes) == [1, 3]


def test_unitary_eigensystem_splits_separated_eigenvalues(rng):
    v = random_unitary(rng, 3)
    u = v @ np.diag(np.exp(1j * np.array([0.1, 0.8, 2.4]))) @ v.conj().T
    *_, reps = _phases(u, cluster_tol=1e-8)
    assert len(reps) == 3


def test_unitary_eigensystem_retries_a_mixing_draw_that_merges_eigenvalues(
    rng, monkeypatch
):
    """``H + c K`` has the eigenvalue ``cos(phi - a) / cos(a)`` with ``c =
    tan(a)``, so the generator's first ``c`` merges ``a + 0.9`` and ``a -
    0.9`` into one eigenspace of ``H + c K``; only a fresh draw separates
    them."""
    first = np.random.default_rng(1234).standard_normal()
    a = np.arctan(first)
    v = random_unitary(rng, 3)
    phases = np.array([a + 0.9, a - 0.9, a + 2.5])
    u = v @ np.diag(np.exp(1j * phases)) @ v.conj().T
    calls = []
    real = np.linalg.eigh

    def spy(mat):
        calls.append(mat)
        return real(mat)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    w, q, _, reps = _phases(u)
    herm, skew = 0.5 * (u + u.conj().T), -0.5j * (u - u.conj().T)
    assert np.linalg.norm(calls[0] - (herm + first * skew)) < 1e-14
    assert len(calls) >= 2
    assert np.linalg.norm(q.conj().T @ q - np.eye(3)) < 1e-13
    assert np.linalg.norm(u - q @ np.diag(w) @ q.conj().T) < 1e-12
    assert _multiset_distance(w, np.exp(1j * phases)) < 1e-12
    assert len(reps) == 3


def test_unitary_eigensystem_refuses_a_non_normal_matrix():
    """Negative control: a Jordan block has no orthonormal eigenbasis."""
    with pytest.raises(BlochFrameError) as info:
        _phases(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert info.value.code == "error"
    assert info.value.details["residual"] > 0.1


def test_cluster_phases_no_branch_split_inside_cluster():
    """A numerically split pair straddling the cut stays together."""
    eps = 1e-9
    w = np.exp(1j * np.array([np.pi - eps, -np.pi + eps]))
    _, _, phases, reps = _phases(np.diag(w))
    assert len(reps) == 1
    assert abs(phases[0] - phases[1]) < 3 * eps


def test_cluster_phases_respects_center_branch():
    w = np.exp(1j * np.array([-0.3, -0.3 + 1e-12]))
    # force the representative onto the [0, 2 pi) branch
    _, _, phases, reps = _phases(np.diag(w), center=lambda a: a % (2 * np.pi))
    assert len(reps) == 1
    assert np.allclose(phases, 2 * np.pi - 0.3, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6), rows=st.integers(2, 6), cols=st.integers(1, 4))
def test_lowdin_idempotent_and_right_equivariant(seed, rows, cols):
    if cols > rows:
        rows, cols = cols, rows
    gen = np.random.default_rng(seed)
    mat = gen.standard_normal((rows, cols)) + 1j * gen.standard_normal((rows, cols))
    if np.linalg.svd(mat, compute_uv=False)[-1] < 1e-3:
        return
    q = lowdin(mat)
    assert np.linalg.norm(lowdin(q) - q) < 1e-12
    u = random_unitary(gen, cols)
    assert np.linalg.norm(lowdin(mat @ u) - q @ u) < 1e-10


@pytest.mark.parametrize("m", [2, 3, 5])
def test_joint_eigenbasis_of_a_complex_symmetric_unitary_is_real_orthogonal(rng, m):
    """The Hermitian parts ``Re v`` and ``Im v`` of a symmetric unitary are
    real, so the basis is a real orthogonal ``o`` with ``v = o diag o^T``,
    the factorization ``symmetric_sqrt`` needs."""
    for _ in range(20):
        v = random_symmetric_unitary(rng, m)
        v = 0.5 * (v + v.T)
        o, (w,) = joint_eigenbasis([v], 1e-10)
        assert np.isrealobj(o)
        assert np.linalg.norm(o.T @ o - np.eye(m)) < 1e-13
        assert np.linalg.norm(o @ np.diag(w) @ o.T - v) < 1e-12


def test_joint_eigenbasis_diagonalizes_commuting_unitaries(rng):
    """One basis for two unitaries that share eigenvectors but not their
    degeneracies; a pair that does not commute is refused."""
    v = random_unitary(rng, 4)
    phases = (np.array([0.3, 0.3, -1.2, 2.0]), np.array([1.0, -0.5, -0.5, 1.0]))
    pair = [v @ np.diag(np.exp(1j * p)) @ v.conj().T for p in phases]
    q, diags = joint_eigenbasis(pair, 1e-12)
    assert np.linalg.norm(q.conj().T @ q - np.eye(4)) < 1e-13
    for u, w in zip(pair, diags):
        assert np.linalg.norm(u - q @ np.diag(w) @ q.conj().T) < 1e-12
    # the joint eigenvalue pairs are all distinct, so q splits every one
    assert _multiset_distance(diags[0] + 3 * diags[1],
                              np.exp(1j * phases[0]) + 3 * np.exp(1j * phases[1])) < 1e-12
    with pytest.raises(BlochFrameError):
        joint_eigenbasis([pair[0], random_unitary(rng, 4)], 1e-12)
