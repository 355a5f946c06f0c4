"""Unit tests for the model library.

The honeycomb model is checked against a closed-form oracle written
directly from its hopping geometry: nearest-neighbour amplitude
f(k) = t1 (1 + e^{-2 pi i k_1} + e^{-2 pi i k_2}), chiral second-neighbour
sums on the two sites, and the lower-band projector from the Bloch vector
(never calling the library's eigensolver).
"""
import dataclasses
import json

import numpy as np
import pytest

from blochframe.cells import CellGeometry
from blochframe.errors import AssumptionsFailed, GapClosed, ModelConfigError, UsageError
from blochframe.models import (
    BUILTINS,
    ProjectorFamily,
    builtin_model,
    load_model,
    require_assumptions,
    verify_assumptions,
)

from conftest import (
    act_ignoring_theta,
    act_with_the_wrong_shift,
    lapack_projector,
    model_json,
    reversal_break_between_grid_points,
    rotated,
    rotated_ssh,
    shifted_haldane,
    shifted_trs_3d,
)

SECOND_NEIGHBOUR = [(1, 0), (-1, 1), (0, -1)]


def eigen_projector(family, k):
    """Projectors ``v v^H`` onto the lowest ``m`` eigenvectors ``v`` of
    ``family.eigensystem(k)``."""
    v = family.eigensystem(k)[1][..., : family.m]
    return v @ np.swapaxes(v.conj(), -1, -2)


def haldane_oracle(k, t1=1.0, t2=0.1, phi=0.0, mass=0.5):
    """Closed-form Bloch Hamiltonian of the honeycomb model."""
    k1, k2 = float(k[0]), float(k[1])
    f = t1 * (1 + np.exp(-2j * np.pi * k1) + np.exp(-2j * np.pi * k2))
    sa = sum(np.cos(2 * np.pi * np.dot(k, b) + phi) for b in SECOND_NEIGHBOUR)
    sb = sum(np.cos(2 * np.pi * np.dot(k, b) - phi) for b in SECOND_NEIGHBOUR)
    return np.array(
        [[mass + 2 * t2 * sa, f], [np.conj(f), -mass + 2 * t2 * sb]],
        dtype=complex,
    )


def haldane_projector_oracle(k, t1=1.0, t2=0.1, phi=0.0, mass=0.5):
    """Lower-band projector (I - n.sigma)/2 from the Bloch vector."""
    h = haldane_oracle(k, t1, t2, phi, mass)
    shift = 0.5 * np.trace(h).real
    d3 = (h[0, 0].real - shift)
    d1, d2 = h[1, 0].real, h[1, 0].imag
    vec = np.array([d1, d2, d3])
    nhat = vec / np.linalg.norm(vec)
    sigma = [
        np.array([[0, 1], [1, 0]], dtype=complex),
        np.array([[0, -1j], [1j, 0]]),
        np.array([[1, 0], [0, -1]], dtype=complex),
    ]
    return 0.5 * (np.eye(2) - sum(n * s for n, s in zip(nhat, sigma)))


def test_haldane_matches_closed_form(rng):
    fam = builtin_model("haldane")
    for _ in range(50):
        k = rng.uniform(-2, 2, size=2)
        assert np.linalg.norm(fam.hamiltonian(k) - haldane_oracle(k)) < 1e-12


def test_haldane_matches_closed_form_offzero_flux(rng):
    fam = builtin_model("haldane", phi=0.7, t2=0.15, M=0.3)
    for _ in range(50):
        k = rng.uniform(-2, 2, size=2)
        want = haldane_oracle(k, t2=0.15, phi=0.7, mass=0.3)
        assert np.linalg.norm(fam.hamiltonian(k) - want) < 1e-12


def test_haldane_projector_matches_bloch_vector_oracle(rng):
    fam = builtin_model("haldane")
    for _ in range(30):
        k = rng.uniform(0, 1, size=2)
        p = eigen_projector(fam, k)
        assert np.linalg.norm(p - haldane_projector_oracle(k)) < 1e-11


def test_haldane_verify_passes_at_zero_flux():
    fam = builtin_model("haldane")
    report = verify_assumptions(fam, grid_n=16)
    assert report.passed
    assert report.periodicity < 1e-12
    assert report.time_reversal < 1e-12
    assert report.compatibility == 0.0
    # gap floor equals the closed-form minimum over the same grid
    pts = np.arange(32) / 32
    gaps = [
        np.diff(np.linalg.eigvalsh(haldane_oracle((x, y))))[0]
        for x in pts
        for y in pts
    ]
    assert report.gap_floor == pytest.approx(min(gaps), abs=1e-12)
    assert report.gap_floor > 1.0


def test_haldane_half_pi_flux_breaks_time_reversal():
    fam = builtin_model("haldane", phi=np.pi / 2)
    report = verify_assumptions(fam, grid_n=16)
    assert not report.passed
    assert report.time_reversal > 0.1
    assert report.periodicity < 1e-12
    with pytest.raises(AssumptionsFailed) as exc:
        require_assumptions(fam, grid_n=16)
    assert exc.value.details["time_reversal"] > 0.1


def test_ssh_matches_closed_form(rng):
    fam = builtin_model("ssh")
    for _ in range(30):
        k = float(rng.uniform(-1, 2))
        f = 1.0 + 0.4 * np.exp(-2j * np.pi * k)
        want = np.array([[0, f], [np.conj(f), 0]])
        assert np.linalg.norm(fam.hamiltonian([k]) - want) < 1e-13
    report = verify_assumptions(fam, grid_n=8)
    assert report.passed
    # minimum gap 2|v - w| sits at k = 1/2, which lies on the grid
    assert report.gap_floor == pytest.approx(1.2, abs=1e-12)


def test_random_trs_real_hoppings_and_reversal(rng):
    fam = builtin_model("random-trs", n=4, m=2, d=2, seed=3)
    assert max(np.abs(mat.imag).max() for mat in fam.hoppings.values()) == 0.0
    for _ in range(20):
        k = rng.uniform(-1, 1, size=2)
        h, rev = fam.hamiltonian(k), fam.hamiltonian(-k)
        assert np.linalg.norm(np.conj(h) - rev) < 1e-13
    report = verify_assumptions(fam, grid_n=8)
    assert report.passed
    assert report.gap_floor > 1.39  # amplitude 0.3 leaves a gap of 2 - 0.6


@pytest.mark.parametrize("params, digest", [
    ({"d": 3, "n": 4, "m": 2, "seed": 0},
     "e018d0d80e2647d112cfc8d27bf4482a698a34c7de8a3bf07313dc9110144ed9"),
    ({"d": 2, "n": 5, "m": 3, "seed": 3},
     "50c4df0bc18d3ec47289774a7ad6c0d7bfd35784fd9cb411a6c74c1c41ff7592"),
    ({"d": 1, "n": 4, "m": 2, "seed": 1},
     "a02407e59e6b96ce2b72a4bba51586a5e959c3a72468c9daef6943c623c7875f"),
], ids=["d3", "d2", "d1"])
def test_random_trs_content_is_pinned(params, digest):
    """The rescaling's spectral norms are summed in the hoppings' order, so
    a seed gives the same model bytes from one release to the next; the
    perturbation's total spectral norm is the amplitude."""
    fam = builtin_model("random-trs", **params)
    assert fam.content_sha256() == digest
    m, n = params["m"], params["n"]
    base = np.diag([-1.0] * m + [1.0] * (n - m))
    total = sum(np.linalg.norm(mat - (0.0 if any(r) else base), 2)
                for r, mat in fam.hoppings.items())
    assert total == pytest.approx(fam.params["amplitude"], rel=1e-12)


def test_random_trs_range_parameter():
    fam = builtin_model("random-trs", range=2)
    assert fam.params["range"] == 2
    assert set(fam.hoppings) == {(a, b) for a in range(-2, 3) for b in range(-2, 3)}
    assert verify_assumptions(fam, grid_n=4).passed


def test_random_trs_rejects_bad_rank():
    with pytest.raises(ModelConfigError):
        builtin_model("random-trs", n=2, m=2)


def test_builtin_model_unknown_name_and_param():
    with pytest.raises(ModelConfigError):
        builtin_model("kagome")
    with pytest.raises(ModelConfigError):
        builtin_model("haldane", flux=1.0)


# A value every built-in model accepts for each public parameter, each
# unlike the default.
_PARAMETER_VALUES = {"t1": 0.9, "t2": 0.05, "phi": 0.25, "M": 0.4, "v": 0.8, "w": 0.3,
                     "n": 5, "m": 1, "d": 1, "range": 2, "seed": 7, "amplitude": 0.2}


@pytest.mark.parametrize("name", sorted(BUILTINS))
def test_every_declared_parameter_is_recorded_under_its_public_name(name):
    """Each public parameter of the table is accepted and recorded on the
    family under its public name (``M`` and ``range``, not the builder's
    ``mass`` and ``hop_range``); one the table does not declare is refused,
    naming the allowed list."""
    keywords = BUILTINS[name][1]
    for key in keywords:
        family = builtin_model(name, **{key: _PARAMETER_VALUES[key]})
        assert family.params[key] == _PARAMETER_VALUES[key]
        assert family.name == name
    with pytest.raises(ModelConfigError) as exc:
        builtin_model(name, flux=1.0)
    assert f"allowed: {sorted(keywords)}" in str(exc.value)
    assert "unknown parameter(s) ['flux']" in str(exc.value)


def test_a_json_model_names_every_malformed_matrix():
    """Negative control: the SSH chain with a ``3 x 3`` hopping and a
    ``3 x 3`` theta is refused naming both, not only the first."""
    cfg = model_json(builtin_model("ssh"))
    cfg["hoppings"][0].update(re=np.eye(3).tolist(), im=np.zeros((3, 3)).tolist())
    cfg["theta"] = {"unitary": {"re": np.eye(3).tolist()}}
    with pytest.raises(ModelConfigError) as exc:
        load_model(cfg)
    assert "hopping H_(0,) has shape (3, 3), expected (2, 2)" in str(exc.value)
    assert "theta unitary has shape (3, 3), expected (2, 2)" in str(exc.value)


def test_tau_power_composition(rng):
    fam = shifted_haldane()
    t1m, t2m = fam.tau
    for a in range(-2, 3):
        for b in range(-2, 3):
            want = np.linalg.matrix_power(t1m, a) @ np.linalg.matrix_power(t2m, b)
            assert np.linalg.norm(fam.tau_power((a, b)) - want) < 1e-13
    assert np.array_equal(fam.tau_power((0, 0)), np.eye(2))
    x = rng.standard_normal((3, 2, 1)) + 1j * rng.standard_normal((3, 2, 1))
    want = fam.tau_power((1, -1)) @ fam.theta_matrix() @ np.conj(x)
    assert np.linalg.norm(fam.act((1, -1), x, anti=True) - want) == 0.0


def test_fractional_hoppings_give_twisted_periodicity(rng):
    """Orbitals away from the origin shift H(k) by conjugation with tau."""
    fam = shifted_haldane()
    report = verify_assumptions(fam, grid_n=8)
    assert report.passed
    for j in range(2):
        e = np.zeros(2)
        e[j] = 1.0
        tau_j = fam.tau[j]
        for _ in range(10):
            k = rng.uniform(-1, 1, size=2)
            lhs = fam.hamiltonian(k + e)
            rhs = tau_j @ fam.hamiltonian(k) @ tau_j.conj().T
            assert np.linalg.norm(lhs - rhs) < 1e-12


def test_unitary_theta_family_verifies():
    fam = rotated_ssh()
    assert fam.theta is not None
    report = verify_assumptions(fam, grid_n=8)
    assert report.passed
    c = fam.theta_matrix()
    assert np.linalg.norm(c @ np.conj(c) - np.eye(fam.n)) < 1e-13


def _demo_config():
    return {
        "dimension": 1,
        "orbitals": 2,
        "rank": 1,
        "hoppings": [
            {"R": [0], "re": [[0.3, 1.0], [1.0, -0.3]]},
            {"R": [1], "re": [[0, 0], [0.5, 0]], "im": [[0, 0], [0.2, 0]]},
            {"R": [-1], "re": [[0, 0.5], [0, 0]], "im": [[0, -0.2], [0, 0]]},
        ],
        "theta": "conjugation",
        "tau": "identity",
    }


def test_load_model_from_dict_and_file(tmp_path):
    cfg = _demo_config()
    fam = load_model(cfg)
    k = 0.37
    want = (
        np.array([[0.3, 1.0], [1.0, -0.3]], dtype=complex)
        + (0.5 + 0.2j) * np.exp(2j * np.pi * k) * np.array([[0, 0], [1, 0]])
        + (0.5 - 0.2j) * np.exp(-2j * np.pi * k) * np.array([[0, 1], [0, 0]])
    )
    assert np.linalg.norm(fam.hamiltonian([k]) - want) < 1e-13

    path = tmp_path / "model.json"
    path.write_text(json.dumps(cfg))
    fam2 = load_model(str(path))
    assert np.linalg.norm(fam2.hamiltonian([k]) - fam.hamiltonian([k])) == 0.0


def test_load_model_error_reporting(tmp_path):
    with pytest.raises(ModelConfigError):
        load_model({"orbitals": 2, "rank": 1})  # missing dimension
    bad = _demo_config()
    bad["hoppings"][1]["im"] = [[0, 0], [0.3, 0]]  # breaks hermiticity pairing
    with pytest.raises(ModelConfigError):
        load_model(bad)
    bad2 = _demo_config()
    bad2["theta"] = "transpose"
    with pytest.raises(ModelConfigError):
        load_model(bad2)
    missing = tmp_path / "nope.json"
    with pytest.raises(ModelConfigError):
        load_model(str(missing))
    notjson = tmp_path / "garbled.json"
    notjson.write_text("{not json")
    with pytest.raises(ModelConfigError):
        load_model(str(notjson))
    with pytest.raises(ModelConfigError):
        load_model(_demo_config(), params={"v": 2.0})


@pytest.mark.parametrize("bad", [float("nan"), float("inf")], ids=["NaN", "Infinity"])
def test_a_non_finite_hopping_is_a_model_config_error(bad):
    """Negative control: Python's json reads ``NaN`` and ``Infinity``, and a
    NaN passes the Hermiticity tolerance; the SSH chain with one such entry
    in ``H_(-1)`` is refused by name instead of reaching LAPACK."""
    cfg = model_json(builtin_model("ssh"))
    next(h for h in cfg["hoppings"] if h["R"] == [-1])["re"][0][1] = bad
    with pytest.raises(ModelConfigError, match=r"hopping H_\(-1,\) has a non-finite entry"):
        load_model(json.loads(json.dumps(cfg)))


@pytest.mark.parametrize("what", ["hopping H_(0,)", "theta unitary", "tau generator 1"])
def test_a_directly_built_family_with_a_non_finite_matrix_is_refused(what):
    """``validate`` covers families built without ``load_model``."""
    ssh = builtin_model("ssh")
    poisoned = np.eye(2, dtype=complex)
    poisoned[1, 1] = np.nan
    hop = dict(ssh.hoppings)
    kwargs = {}
    if what.startswith("hopping"):
        hop[(0,)] = poisoned
    elif what.startswith("theta"):
        kwargs["theta"] = poisoned
    else:
        kwargs["tau"] = [poisoned]
    with pytest.raises(ModelConfigError) as exc:
        ProjectorFamily(d=1, n=2, m=1, hoppings=hop, **kwargs)
    assert f"{what} has a non-finite entry" in str(exc.value)


@pytest.mark.parametrize("kwargs, named", [
    ({"tau": [np.eye(3)]}, "tau generator 1 has shape (3, 3), expected (2, 2)"),
    ({"theta": np.eye(3), "tau": [np.diag([1, -1])]},
     "theta unitary has shape (3, 3), expected (2, 2)"),
    ({"tau": [[[1, 0], [0]]]}, "tau generator 1: matrix entries must be numbers"),
], ids=["tau-3x3", "theta-3x3", "ragged-tau"])
def test_a_malformed_symmetry_matrix_is_refused_by_name(kwargs, named):
    """Negative control: a directly built SSH chain with a wrong-shaped or
    ragged symmetry matrix is a ``model-config`` error naming it, not a raw
    numpy ``ValueError`` from a product of mismatched shapes."""
    ssh = builtin_model("ssh")
    with pytest.raises(ModelConfigError) as exc:
        ProjectorFamily(d=1, n=2, m=1, hoppings=dict(ssh.hoppings), **kwargs)
    assert named in str(exc.value)


@pytest.mark.parametrize("kwargs, named", [
    ({"gap_tolerance": "1e-8"}, ["gap_tolerance='1e-8' is not a real number"]),
    ({"gap_tolerance": None}, ["gap_tolerance=None is not a real number"]),
    ({"m": "1"}, ["m='1' is not a finite whole number"]),
    ({"n": 2.5}, ["n=2.5 is not a finite whole number"]),
    ({"d": True}, ["d=True is not a finite whole number"]),
    ({"d": 10**400}, [f"d={10**400} is not a finite whole number"]),
    ({"hoppings": {"a": np.eye(2)}}, ["hopping vector R='a' has a coordinate that is not"]),
    ({"hoppings": [1, 2]}, ["hoppings=[1, 2] is not a dict"]),
    ({"m": "1", "gap_tolerance": None},
     ["m='1' is not a finite whole number", "gap_tolerance=None is not a real number"]),
    ({"tau": 5}, ["tau=5 is not a list of matrices"]),
    ({"tau": {"a": 1}}, ["tau={'a': 1} is not a list of matrices"]),
    ({"tau": "xy"}, ["tau='xy' is not a list of matrices"]),
    ({"tau": np.array(5)}, ["tau=array(5) is not a list of matrices"]),
], ids=["gap-tolerance-str", "gap-tolerance-None", "m-str", "n-2.5", "d-True", "d-10**400",
        "hopping-key-str", "hoppings-list", "m-and-gap-tolerance", "tau-5", "tau-dict",
        "tau-str", "tau-0d-array"])
def test_a_field_of_the_wrong_type_is_refused_by_name(kwargs, named):
    """Negative control: a directly built SSH chain with a field of the
    wrong type is a ``model-config`` error naming every such field, not a
    raw ``TypeError`` from the first comparison that meets it."""
    fields = {"d": 1, "n": 2, "m": 1, "hoppings": dict(builtin_model("ssh").hoppings)}
    with pytest.raises(ModelConfigError) as exc:
        ProjectorFamily(**{**fields, **kwargs})
    for phrase in named:
        assert phrase in str(exc.value)


def test_whole_float_sizes_are_stored_as_int():
    ssh = builtin_model("ssh")
    fam = ProjectorFamily(d=1.0, n=2.0, m=1.0, hoppings=dict(ssh.hoppings))
    assert [(type(x), x) for x in (fam.d, fam.n, fam.m)] == [(int, 1), (int, 2), (int, 1)]
    points = CellGeometry(1, 4).torus_points()
    assert np.array_equal(fam.grid_frames(4, points), ssh.grid_frames(4, points))


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, 10**400],
                         ids=["NaN", "inf", "zero", "10**400"])
def test_a_gap_tolerance_that_is_not_positive_and_finite_is_refused(tol):
    """Negative control: ``NaN <= 0`` is False, and a NaN tolerance would
    refuse every gap of a healthy chain later, at its first frame;
    ``10**400 < inf`` is True, but no float holds that int."""
    ssh = builtin_model("ssh")
    with pytest.raises(ModelConfigError, match="gap_tolerance must be positive and finite"):
        ProjectorFamily(d=1, n=2, m=1, hoppings=dict(ssh.hoppings), gap_tolerance=tol)


def _refused_twice(family, grid_n, g):
    """The payloads of two reads of ``family.grid_frames(grid_n, g)``,
    each of which must raise :class:`GapClosed`."""
    payloads = []
    for _ in range(2):
        with pytest.raises(GapClosed) as exc:
            family.grid_frames(grid_n, g)
        payloads.append(exc.value.details)
    assert payloads[0] == payloads[1]
    return payloads[0]


def test_a_nan_gap_is_refused_at_its_point(monkeypatch):
    """Negative control: ``NaN < gap_tolerance`` is False, so a gate written
    that way passes NaN frames on.  With NaN planted in the sampled slab,
    every read of the sample refuses the first NaN gap in row-major order,
    once ``verify_assumptions`` has reported it without raising."""
    family = builtin_model("haldane")
    real = ProjectorFamily.eigensystem

    def planted(self, k):
        evals, evecs = real(self, k)
        evals[2, 5, 1] = np.nan
        evals[3, 1, 0] = np.nan
        return evals, evecs

    monkeypatch.setattr(ProjectorFamily, "eigensystem", planted)
    report = verify_assumptions(family, grid_n=4)
    assert np.isnan(report.gap_floor) and not report.passed
    details = _refused_twice(family, 4, CellGeometry(2, 4).torus_points())
    assert details["k"] == (2 / 8, 5 / 8)
    assert np.isnan(details["above"])


def test_colliding_hopping_vectors_are_reported():
    cfg = _demo_config()
    cfg["hoppings"].append({"R": [0.0], "re": [[0.0, 0.0], [0.0, 0.0]]})
    with pytest.raises(ModelConfigError, match="collides"):
        load_model(cfg)
    hop = {(0,): np.eye(2), (1e-12,): np.eye(2)}
    with pytest.raises(ModelConfigError, match="both round to"):
        ProjectorFamily(d=1, n=2, m=1, hoppings=hop)


def _loop_hamiltonian(family, k):
    """Reference: sum_R H_R exp(2 pi i k . R), one hopping at a time."""
    h = np.zeros((family.n, family.n), dtype=complex)
    for r, mat in family.hoppings.items():
        h += mat * np.exp(2j * np.pi * float(np.dot(k, r)))
    return h


@pytest.mark.parametrize("make", [
    lambda: builtin_model("haldane"),
    lambda: builtin_model("random-trs", n=4, m=2, d=3, seed=1),
    shifted_haldane,
], ids=["haldane", "random-trs-3d", "shifted-haldane"])
def test_stacked_sampling_matches_per_point(make, rng):
    fam = make()
    ks = rng.uniform(-1, 1, size=(3, 4, fam.d))
    h = fam.hamiltonian(ks)
    evals, evecs = fam.eigensystem(ks)
    p = eigen_projector(fam, ks)
    assert h.shape == (3, 4, fam.n, fam.n)
    assert evals.shape == (3, 4, fam.n) and evecs.shape == (3, 4, fam.n, fam.n)
    assert p.shape == (3, 4, fam.n, fam.n)
    for idx in np.ndindex(3, 4):
        k = ks[idx]
        assert np.linalg.norm(h[idx] - fam.hamiltonian(k)) < 1e-13
        assert np.linalg.norm(h[idx] - _loop_hamiltonian(fam, k)) < 1e-13
        assert np.linalg.norm(evals[idx] - fam.eigensystem(k)[0]) < 1e-12
        assert np.linalg.norm(p[idx] - eigen_projector(fam, k)) < 1e-12


def test_batched_gap_closure_names_the_dirac_point():
    """The gate is over the whole torus sample, not the points a read
    asks for: a gather of the origin alone from the gapless haldane at
    grid_n 6 (``N = 12``, so ``(1/3, 2/3)`` is on the grid) names the
    Dirac point."""
    fam = builtin_model("haldane", M=0.0, t2=0.0)
    details = _refused_twice(fam, 6, np.zeros((1, 2), dtype=int))
    assert details["k"] == pytest.approx((1 / 3, 2 / 3), abs=1e-15)


def test_fractional_hoppings_without_tau_fail_periodicity():
    """Negative control: without tau the fractional hoppings break
    ``H_R = exp(2 pi i R_j) H_R`` for every half-integer ``R_j``."""
    twisted = shifted_haldane()
    fam = ProjectorFamily(d=2, n=2, m=1, hoppings=dict(twisted.hoppings))
    report = verify_assumptions(fam, grid_n=8)
    assert not report.passed
    assert report.periodicity > 0.1
    assert report.time_reversal < 1e-12


def test_gap_closed_raises_at_dirac_point():
    """Negative control: the gapless haldane at grid_n 6 has its Dirac
    point ``(1/3, 2/3)`` on the grid; ``verify_assumptions`` reports the
    closed gap, and every later read of the sample refuses it there."""
    fam = builtin_model("haldane", M=0.0, t2=0.0)
    report = verify_assumptions(fam, grid_n=6)
    assert not report.passed and report.gap_floor < 1e-12
    details = _refused_twice(fam, 6, CellGeometry(2, 6).torus_points())
    assert details["k"] == pytest.approx((1 / 3, 2 / 3), abs=1e-15)
    assert details["below"] == pytest.approx(details["above"], abs=1e-6)
    assert details["above"] - details["below"] == report.gap_floor


def test_describe_is_json_safe():
    fam = builtin_model("haldane", phi=0.25)
    desc = fam.describe()
    json.dumps(desc)
    assert desc["dimension"] == 2
    assert desc["orbitals"] == 2
    assert desc["rank"] == 1
    assert desc["theta"] == "conjugation"
    assert desc["params"]["phi"] == 0.25


@pytest.mark.parametrize("family, grid_n", [
    (builtin_model("haldane"), 8),
    (shifted_haldane(), 4),
    (builtin_model("random-trs", d=3, n=2, m=1), 16),
])
def test_the_torus_sample_gives_the_same_report(family, grid_n):
    """``require_assumptions`` reads the family's torus sample; its report
    and its eigenframes are the ones a fresh copy of the family gives."""
    fresh = dataclasses.replace(family)
    alone = verify_assumptions(fresh, grid_n=grid_n).as_dict()
    report = require_assumptions(family, grid_n=grid_n)
    assert report.as_dict() == alone
    points = CellGeometry(family.d, grid_n).torus_points()
    assert np.array_equal(family.grid_frames(grid_n, points),
                          fresh.grid_frames(grid_n, points))


def test_the_torus_frames_are_gap_gated_at_every_call():
    """Negative control: raising the gap tolerance after the torus is
    sampled refuses the next gather at the sample's smallest gap."""
    family = builtin_model("haldane")
    points = CellGeometry(2, 8).torus_points()
    family.grid_frames(8, points)
    family.gap_tolerance = 10.0
    with pytest.raises(GapClosed) as exc:
        family.grid_frames(8, points)
    details = exc.value.details
    assert details["k"] == (0.3125, 0.6875)
    assert details["below"] == pytest.approx(-0.8468, abs=1e-4)
    assert details["above"] == pytest.approx(0.2578, abs=1e-4)


# quarter offsets make tau_j**2 != 1, so a gather shifting the wrong way
# round lands on P(k + 2 e_j) instead of P(k)
_GATHER_CASES = pytest.mark.parametrize("make, grid_n", [
    (lambda: shifted_haldane((0.25, 0.75)), 4),
    (shifted_trs_3d, 2),
], ids=["shifted-haldane", "shifted-trs-3d"])


def _gather_defect(family, grid_n):
    """Largest distance between the projectors ``F F^H`` of the cell-box
    frames ``F`` gathered from the torus sample and the projectors sampled
    directly at the box's ``k``."""
    geo = CellGeometry(family.d, grid_n)
    box = geo.cell_points()
    frames = family.grid_frames(grid_n, box)
    gathered = frames @ np.swapaxes(frames.conj(), -1, -2)
    direct = lapack_projector(family, box / geo.n_side)
    return float(np.max(np.linalg.norm(gathered - direct, axis=(-2, -1))))


@_GATHER_CASES
def test_the_gathered_cell_box_projectors_are_the_sampled_ones(make, grid_n):
    """The frames ``tau_lam v(rep)`` gathered from the torus sample span
    ``P(k)`` on the whole effective-cell box, whose points off the stored
    torus wrap by ``lam_j = -1``."""
    assert _gather_defect(make(), grid_n) < 1e-13


@_GATHER_CASES
def test_a_gather_conjugating_the_wrong_way_fails(make, grid_n, monkeypatch):
    """Negative control: ``tau_lam^H v(rep)`` misses ``P(k)``."""
    real = ProjectorFamily.tau_power
    monkeypatch.setattr(ProjectorFamily, "tau_power",
                        lambda self, lam: real(self, lam).conj().T)
    assert _gather_defect(make(), grid_n) > 1e-2


def test_fractional_hoppings_without_tau_fail_on_the_torus_sample():
    """The identity-tau control of above, through the shared torus sample."""
    twisted = shifted_haldane()
    fam = ProjectorFamily(d=2, n=2, m=1, hoppings=dict(twisted.hoppings))
    with pytest.raises(AssumptionsFailed) as exc:
        require_assumptions(fam, grid_n=8)
    assert exc.value.details["periodicity"] > 0.1
    assert exc.value.details["time_reversal"] < 1e-12


def test_the_gap_floor_is_the_minimum_over_the_whole_torus_sample():
    """The gap floor of a construct covers every torus point: every second
    point per axis at d=3 grid_n 16 alone gives 1.882556 for this model."""
    family = builtin_model("random-trs", d=3, n=4, m=2, seed=0)
    report = require_assumptions(family, grid_n=16)
    evals = np.linalg.eigvalsh(family.hamiltonian(CellGeometry(3, 16).torus_k()))
    assert report.gap_floor == pytest.approx(np.min(evals[..., 2] - evals[..., 1]),
                                             abs=1e-12)
    assert report.gap_floor == pytest.approx(1.881906, abs=5e-7)


def test_a_reversal_break_between_grid_points_is_refused():
    """Negative control: ``H_{+-16} = +-0.2i sz`` breaks time reversal by
    ``0.8 |sin(32 pi k)|``, which vanishes on every point ``i / 16`` of a
    grid_n 8 torus."""
    fam = load_model(reversal_break_between_grid_points())
    report = verify_assumptions(fam, grid_n=8)
    assert not report.passed
    assert report.time_reversal > 0.1
    assert report.periodicity < 1e-12
    with pytest.raises(AssumptionsFailed) as exc:
        require_assumptions(fam, grid_n=8)
    assert exc.value.details["time_reversal"] > 0.1


@pytest.mark.parametrize("make", [
    lambda: builtin_model("haldane"),
    shifted_haldane,
    lambda: builtin_model("random-trs", n=4, m=2, d=3, seed=0),
], ids=["haldane", "shifted-haldane", "random-trs-3d"])
def test_the_lipschitz_bound_holds_on_random_pairs(make, rng):
    """``||H(k) - H(k')||_2 <= L |k - k'|`` at separations from 1e-6 to 1,
    and the largest measured slope is within a factor 10 of ``L``."""
    fam = make()
    bound = verify_assumptions(fam, grid_n=2).lipschitz_bound
    k = rng.uniform(-1, 1, size=(400, fam.d))
    step = rng.standard_normal((400, fam.d)) * 10.0 ** rng.uniform(-6, 0, size=(400, 1))
    moved = np.linalg.norm(fam.hamiltonian(k + step) - fam.hamiltonian(k), 2, axis=(-2, -1))
    slope = moved / np.linalg.norm(step, axis=1)
    assert np.max(slope) <= bound * (1 + 1e-9)
    assert np.max(slope) > 0.1 * bound


# theta = V V^T != 1 with tau = 1: the reflection's products must not be
# skipped for tau alone
_ROTATED = [
    (lambda: rotated(builtin_model("haldane")), 4),
    (lambda: rotated(builtin_model("random-trs", d=3, n=4, m=2, seed=0)), 2),
]
_ROTATED_IDS = ["rotated-haldane", "rotated-trs-3d"]
_ROTATED_CASES = pytest.mark.parametrize("make, grid_n", _ROTATED, ids=_ROTATED_IDS)

_SAMPLE_CASES = pytest.mark.parametrize("make, grid_n", [
    (lambda: builtin_model("haldane"), 8),
    (lambda: shifted_haldane((0.25, 0.75)), 4),
    (shifted_trs_3d, 2),
    (lambda: builtin_model("random-trs", d=3, n=4, m=2, seed=0), 4),
    *_ROTATED,
], ids=["haldane", "shifted-haldane", "shifted-trs-3d", "random-trs-3d", *_ROTATED_IDS])


@_SAMPLE_CASES
def test_the_sample_slab_is_a_direct_eigensystem(make, grid_n):
    """On ``g_1 <= grid_n`` the torus sample's frames are ``eigensystem``
    bit for bit."""
    family = make()
    geo = CellGeometry(family.d, grid_n)
    frames, _ = family.torus_eigensystem(grid_n)
    _, slab_evecs = family.eigensystem(geo.torus_k()[: grid_n + 1])
    assert frames.shape == geo.torus_shape + (family.n, family.m)
    assert np.array_equal(frames[: grid_n + 1], slab_evecs[..., : family.m])


@pytest.mark.parametrize("family, grid_n", [
    (builtin_model("haldane"), 8),
    (builtin_model("random-trs", d=3, n=4, m=2, seed=0), 4),
], ids=["haldane", "random-trs-3d"])
def test_the_sample_edge_is_the_torus_minimum_in_the_slab(family, grid_n):
    """The sample's worst point lies in the slab ``k_1 <= 1/2`` and has the
    smallest gap of a fresh full-torus scan; haldane at grid_n 8 has six
    tied minima, so the slab's row-major first one is reported."""
    _, (k, below, above) = family.torus_eigensystem(grid_n)
    torus_k = CellGeometry(family.d, grid_n).torus_k()
    evals = np.linalg.eigvalsh(family.hamiltonian(torus_k))
    gaps = evals[..., family.m] - evals[..., family.m - 1]
    assert k in {tuple(p) for p in torus_k[: grid_n + 1].reshape(-1, family.d).tolist()}
    assert above - below == pytest.approx(float(np.min(gaps)), abs=1e-12)
    direct = np.linalg.eigvalsh(family.hamiltonian(np.array(k)))
    assert direct[family.m - 1] == pytest.approx(below, abs=1e-12)
    assert direct[family.m] == pytest.approx(above, abs=1e-12)


def _sample_defect(family, grid_n):
    """Largest distance between the projectors ``F F^H`` of the sampled
    torus frames ``F`` and the projectors of a fresh LAPACK ``eigh`` at the
    torus's ``k``."""
    geo = CellGeometry(family.d, grid_n)
    frames = family.grid_frames(grid_n, geo.torus_points())
    sampled = frames @ np.swapaxes(frames.conj(), -1, -2)
    direct = lapack_projector(family, geo.torus_k())
    return float(np.max(np.linalg.norm(sampled - direct, axis=(-2, -1))))


@_SAMPLE_CASES
def test_the_mirrored_sample_gives_the_sampled_projectors(make, grid_n):
    """``tau^(-lam) C conj(v(partner))`` spans ``P(k)`` on the half
    ``g_1 > grid_n`` the sample does not solve."""
    assert _sample_defect(make(), grid_n) < 1e-13


@_ROTATED_CASES
def test_an_action_that_ignores_theta_misses_the_sample(make, grid_n, monkeypatch):
    """Negative control: a symmetry action that multiplies by nothing
    whenever ``tau = 1``, ignoring ``theta = V V^T``, mirrors frames that
    miss ``P(k)``."""
    act_ignoring_theta(monkeypatch)
    assert _sample_defect(make(), grid_n) > 1e-2


@_GATHER_CASES
def test_a_sample_mirrored_with_the_wrong_shift_fails(make, grid_n, monkeypatch):
    """Negative control: mirroring with ``tau^(+lam)`` lands on ``P(k + 2
    lam)``, which is not ``P(k)`` when ``tau_j**2 != 1``."""
    family = make()
    act_with_the_wrong_shift(monkeypatch)
    assert _sample_defect(family, grid_n) > 1e-2


_MIRROR_CASES = pytest.mark.parametrize("make, grid_n", [
    (lambda: builtin_model("ssh"), 4),
    (lambda: builtin_model("haldane"), 4),
    (lambda: shifted_haldane((0.25, 0.75)), 4),
    (shifted_trs_3d, 2),
    (lambda: builtin_model("random-trs", d=3, n=4, m=2, seed=0), 2),
    *_ROTATED,
], ids=["ssh", "haldane", "shifted-haldane", "shifted-trs-3d", "random-trs-3d",
        *_ROTATED_IDS])


def _random_torus_frames(family, grid_n, rng):
    shape = CellGeometry(family.d, grid_n).torus_shape + (family.n, family.m)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@_MIRROR_CASES
def test_mirror_slab_writes_the_half_of_reflected_partners(make, grid_n, rng):
    """``reflect`` at the half ``g_1 > grid_n`` and at the self-paired
    slices ``g_1 = 0, grid_n`` reads only the partner rows (every other row
    may be NaN) and is the whole-torus ``reflect`` there: bit for bit, but
    for the self-paired slices of a dense ``theta``, whose product rounds
    with the shape of its block."""
    family = make()
    frames = _random_torus_frames(family, grid_n, rng)
    big = 2 * grid_n
    want = family.reflect(frames, range(big))
    for rows, dense in ((range(grid_n + 1, big), False), (range(0, big, grid_n), True)):
        partners = [-g % big for g in rows]
        others = np.setdiff1d(np.arange(big), partners)
        poisoned = frames.copy()
        poisoned[others] = np.nan
        got = family.reflect(poisoned, rows)
        assert np.array_equal(got, family.reflect(frames, rows))
        tol = 4 * np.finfo(float).eps if dense and family.theta is not None else 0.0
        assert np.max(np.abs(got - want[list(rows)])) <= tol


@_GATHER_CASES
def test_a_mirror_with_the_wrong_shift_misses(make, grid_n, rng, monkeypatch):
    """Negative control: the mirror ``reflect`` with ``tau^(+lam)`` misses
    the image when ``tau_j**2 != 1``."""
    family = make()
    frames = _random_torus_frames(family, grid_n, rng)
    rows = range(grid_n + 1, 2 * grid_n)
    want = family.reflect(frames, rows)
    act_with_the_wrong_shift(monkeypatch)
    assert np.max(np.abs(family.reflect(frames, rows) - want)) > 1e-2


def test_the_mirrored_gap_of_a_reversal_broken_family_is_within_weyls_bound():
    """Haldane at ``phi = 0.3`` breaks time reversal, so the mirrored half
    of the torus does not repeat the slab's spectrum; the gap floor, taken
    on the slab, is within twice the ``time_reversal`` residual of the
    torus minimum, and the family is still refused."""
    family = builtin_model("haldane", phi=0.3)
    report = verify_assumptions(family, grid_n=8)
    assert not report.passed
    direct = np.linalg.eigvalsh(family.hamiltonian(CellGeometry(2, 8).torus_k()))
    true_floor = float(np.min(direct[..., 1] - direct[..., 0]))
    assert abs(report.gap_floor - true_floor) <= 2 * report.time_reversal


@pytest.mark.parametrize("grid_n", [0, 3, -2, 2.5])
def test_a_bad_grid_n_is_a_usage_error_on_every_torus_read(grid_n):
    """Negative control: the library's torus reads refuse a ``grid_n`` that
    is not an even integer of at least 2 with a coded error, as the command
    line does, never a raw ``ValueError``."""
    family = builtin_model("haldane")
    reads = [lambda: verify_assumptions(family, grid_n=grid_n),
             lambda: family.torus_eigensystem(grid_n),
             lambda: family.grid_frames(grid_n, np.zeros((1, 2), dtype=int))]
    for read in reads:
        with pytest.raises(UsageError, match="grid_n"):
            read()
