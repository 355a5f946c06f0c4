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
from blochframe.errors import AssumptionsFailed, GapClosed, ModelConfigError
from blochframe.models import (
    ProjectorFamily,
    builtin_model,
    load_model,
    require_assumptions,
    verify_assumptions,
)

from conftest import (
    reversal_break_between_grid_points,
    rotated_ssh,
    shifted_haldane,
    shifted_trs_3d,
)

SECOND_NEIGHBOUR = [(1, 0), (-1, 1), (0, -1)]


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
        p = fam.projector(k)
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


def test_tau_power_composition():
    fam = shifted_haldane()
    t1m, t2m = fam.tau
    for a in range(-2, 3):
        for b in range(-2, 3):
            want = np.linalg.matrix_power(t1m, a) @ np.linalg.matrix_power(t2m, b)
            assert np.linalg.norm(fam.tau_power((a, b)) - want) < 1e-13
    assert np.array_equal(fam.tau_power((0, 0)), np.eye(2))
    amat = fam.antiunitary_matrix((1, -1))
    assert np.linalg.norm(amat - fam.tau_power((1, -1)) @ fam.theta_matrix()) == 0.0


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
    p = fam.projector(ks)
    frames, gaps = fam.spectral_frame(ks)
    assert h.shape == (3, 4, fam.n, fam.n)
    assert p.shape == (3, 4, fam.n, fam.n)
    assert frames.shape == (3, 4, fam.n, fam.m) and gaps.shape == (3, 4)
    for idx in np.ndindex(3, 4):
        k = ks[idx]
        assert np.linalg.norm(h[idx] - fam.hamiltonian(k)) < 1e-13
        assert np.linalg.norm(h[idx] - _loop_hamiltonian(fam, k)) < 1e-13
        assert np.linalg.norm(p[idx] - fam.projector(k)) < 1e-12


def test_batched_gap_closure_names_the_dirac_point():
    fam = builtin_model("haldane", M=0.0, t2=0.0)
    offsets = np.arange(-1, 2) / 12
    ks = np.stack(np.meshgrid(1 / 3 + offsets, 2 / 3 + offsets, indexing="ij"), axis=-1)
    with pytest.raises(GapClosed) as exc:
        fam.spectral_frame(ks)
    assert exc.value.details["k"] == pytest.approx((1 / 3, 2 / 3), abs=1e-15)


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
    fam = builtin_model("haldane", M=0.0, t2=0.0)
    with pytest.raises(GapClosed) as exc:
        fam.projector((1.0 / 3.0, 2.0 / 3.0))
    assert exc.value.details["below"] == pytest.approx(exc.value.details["above"], abs=1e-6)
    # away from the cone the projector is fine
    fam.projector((0.0, 0.0))


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
    is the one ``verify_assumptions`` gives on a fresh copy of the family,
    and the sample's projectors are those of ``projector`` on the grid."""
    alone = verify_assumptions(dataclasses.replace(family), grid_n=grid_n).as_dict()
    report = require_assumptions(family, grid_n=grid_n)
    assert report.as_dict() == alone
    torus_k = CellGeometry(family.d, grid_n).torus_k()
    assert np.array_equal(family.grid_projectors(grid_n), family.projector(torus_k))


def test_the_torus_projectors_are_built_once_per_sample():
    """Every full-torus call returns the one read-only array of the sample;
    a new ``grid_n`` builds a new one."""
    family = builtin_model("haldane")
    torus = family.grid_projectors(8)
    assert family.grid_projectors(8) is torus
    assert not torus.flags.writeable
    assert family.grid_projectors(4).shape[:2] == (8, 8)
    assert family.grid_projectors(8) is not torus


def test_the_kept_torus_projectors_are_gap_gated_at_every_call():
    """Negative control: raising the gap tolerance after the projectors are
    kept refuses the next call at the sample's smallest gap."""
    family = builtin_model("haldane")
    family.grid_projectors(8)
    family.gap_tolerance = 10.0
    with pytest.raises(GapClosed) as exc:
        family.grid_projectors(8)
    details = exc.value.details
    assert details["k"] == (0.3125, 0.6875)
    assert details["below"] == pytest.approx(-0.8468, abs=1e-4)
    assert details["above"] == pytest.approx(0.2578, abs=1e-4)


# quarter offsets make tau_j**2 != 1, so a gather conjugating the wrong
# way round lands on P(k + 2 e_j) instead of P(k)
_GATHER_CASES = pytest.mark.parametrize("make, grid_n", [
    (lambda: shifted_haldane((0.25, 0.75)), 4),
    (shifted_trs_3d, 2),
], ids=["shifted-haldane", "shifted-trs-3d"])


def _gather_defect(family, grid_n):
    """Largest distance between the cell-box projectors gathered from the
    torus sample and those sampled directly at the box's ``k``."""
    geo = CellGeometry(family.d, grid_n)
    box = geo.cell_points()
    gathered = family.grid_projectors(grid_n, box)
    direct = family.projector(box / geo.n_side)
    return float(np.max(np.linalg.norm(gathered - direct, axis=(-2, -1))))


@_GATHER_CASES
def test_the_gathered_cell_box_projectors_are_the_sampled_ones(make, grid_n):
    """``tau_lam P(rep) tau_lam^H`` from the torus sample is ``P(k)`` on the
    whole effective-cell box, whose points wrap by ``lam_j = -1``."""
    assert _gather_defect(make(), grid_n) < 1e-13


@_GATHER_CASES
def test_a_gather_conjugating_the_wrong_way_fails(make, grid_n, monkeypatch):
    """Negative control: ``tau_lam^H P(rep) tau_lam`` misses ``P(k)``."""
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
