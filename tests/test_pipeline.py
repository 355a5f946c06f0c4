"""Unit tests for the end-to-end pipeline stages."""
import json
import os
import shutil

import numpy as np
import pytest

from blochframe import models
from blochframe.cells import CellGeometry
from blochframe.errors import AssumptionsFailed, EpsilonInfeasible, UsageError
from blochframe.io import file_sha256, load_frames, read_json
from blochframe.models import ProjectorFamily
from blochframe.certify import final_residuals, rows, verdict
from blochframe.frames import input_frame
from blochframe.linalg import RANK_FLOOR
from blochframe.pipeline import (
    RunConfig,
    load_family,
    report_rows,
    run_construct,
    run_report,
    run_verify,
    run_wannierize,
)

from conftest import copied, model_json, rotated, shifted_haldane, shifted_trs_3d
from test_frames import _twisted_2d


def test_runconfig_validation():
    with pytest.raises(UsageError):
        RunConfig(model="ssh", grid_n=7)
    with pytest.raises(UsageError):
        RunConfig(model="ssh", tol=0.0)
    with pytest.raises(UsageError):
        RunConfig(model="ssh", epsilon=-1.0)
    for threads in (0, -3):
        with pytest.raises(UsageError):
            RunConfig(model="ssh", threads=threads)


@pytest.mark.parametrize("field, value", [
    ("grid_n", 8.0), ("grid_n", True), ("grid_n", "8"),
    ("seed", 1.5), ("seed", False), ("threads", 1.0), ("threads", True),
    ("tol", "1e-8"), ("tol", True), ("gap_tol", "0.1"), ("gap_tol", False),
    ("epsilon", True), ("epsilon", None), ("epsilon", 1j),
    ("model", {"dimension": 1}), ("params", [1]), ("out", 5),
])
def test_runconfig_refuses_a_field_of_the_wrong_type(field, value):
    """A whole-number field takes an integer and a tolerance a real number;
    neither takes a ``bool``.  ``model`` is a string, ``params`` a dict and
    ``out`` a path.  Each is refused naming the field, before a stage could
    stop on a raw ``TypeError``."""
    with pytest.raises(UsageError, match=field):
        RunConfig(**{"model": "ssh", field: value})


def test_runconfig_refuses_a_negative_seed():
    with pytest.raises(UsageError):
        RunConfig(model="haldane", seed=-1)


def test_load_family_builtins_and_files(tmp_path):
    fam = load_family(RunConfig(model="haldane", params={"phi": 0.1}))
    assert fam.name == "haldane"
    assert fam.params["phi"] == 0.1
    # random-trs inherits the run seed unless overridden
    fam_a = load_family(RunConfig(model="random-trs", seed=4))
    fam_b = load_family(RunConfig(model="random-trs", params={"seed": 4}))
    assert all(
        np.array_equal(fam_a.hoppings[r], fam_b.hoppings[r])
        for r in fam_a.hoppings
    )
    with pytest.raises(UsageError):
        load_family(RunConfig(model=str(tmp_path / "absent.json")))
    fam_g = load_family(RunConfig(model="ssh", gap_tol=1e-3))
    assert fam_g.gap_tolerance == 1e-3


def test_run_verify_writes_the_report(tmp_path):
    config = RunConfig(model="haldane", grid_n=8, out=str(tmp_path))
    family, report = run_verify(config)
    assert report.passed
    on_disk = read_json(tmp_path / "assumptions.json")
    assert on_disk["passed"] is True
    assert on_disk["gap_floor"] == pytest.approx(report.gap_floor)


def test_run_verify_reports_the_gap_floor_of_a_construct():
    """Without a torus sample ``verify-model`` used to take the d=3 gap floor
    from the coarse slice of its residuals (1.882556165242136 here);
    ``construct`` records the minimum over the whole torus, 1.8819059769208948
    (see test_models)."""
    config = RunConfig(model="random-trs", params={"d": 3, "n": 4, "m": 2, "seed": 0},
                       grid_n=16)
    _, report = run_verify(config)
    assert report.gap_floor == pytest.approx(1.8819059769208948, abs=1e-12)


def test_run_verify_flags_broken_reversal():
    config = RunConfig(
        model="haldane", params={"phi": float(np.pi / 2)}, grid_n=8
    )
    _, report = run_verify(config)
    assert not report.passed
    assert report.time_reversal > 0.1


@pytest.fixture(scope="module")
def ssh_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("sshrun")
    config = RunConfig(model="ssh", grid_n=8, out=str(out))
    result = run_construct(config)
    return config, result


def test_run_construct_manifest_and_artifacts(ssh_run):
    config, result = ssh_run
    manifest = result["manifest"]
    for key in (
        "model",
        "config",
        "assumptions",
        "obstruction_symmetry_defects",
        "construction",
        "extension_mismatch",
        "smoothing",
        "final_residuals",
        "elapsed_seconds",
        "artifacts",
    ):
        assert key in manifest
    res = manifest["final_residuals"]
    assert all(v < 1e-8 for v in res.values())
    for name in ("psi.blf1", "phi.blf1", "phi_sm.blf1", "manifest.json"):
        assert os.path.exists(os.path.join(config.out, name))
    stored = load_frames(os.path.join(config.out, "phi_sm.blf1"))
    assert np.array_equal(stored.data, result["phi_sm"].data)
    assert manifest["artifacts"]["phi_sm.blf1"] == file_sha256(
        os.path.join(config.out, "phi_sm.blf1")
    )


def test_run_construct_is_deterministic(tmp_path):
    conf_a = RunConfig(model="ssh", grid_n=8, out=str(tmp_path / "a"))
    conf_b = RunConfig(model="ssh", grid_n=8, out=str(tmp_path / "b"))
    art_a = run_construct(conf_a)["manifest"]["artifacts"]
    art_b = run_construct(conf_b)["manifest"]["artifacts"]
    assert art_a == art_b


def test_run_construct_refuses_failing_model():
    config = RunConfig(
        model="haldane", params={"phi": float(np.pi / 2)}, grid_n=8
    )
    with pytest.raises(AssumptionsFailed):
        run_construct(config)


def test_final_residuals_of_a_construct(ssh_run):
    _, result = ssh_run
    res = final_residuals(result["phi_sm"], result["family"])
    assert set(res) == {"projector", "orthonormality", "reflection"}
    assert all(v < 1e-8 for v in res.values())


@pytest.mark.parametrize("residual, plant", [
    # the complement of the fiber: orthonormal but off the projector
    ("projector", lambda f: np.linalg.svd(f)[0][:, -f.shape[1]:]),
    ("orthonormality", lambda f: 1.1 * f),
    # a phase keeps the fiber and the norm but breaks Phi(-k) = theta Phi(k)
    ("reflection", lambda f: np.exp(0.1j) * f),
])
def test_final_residuals_catch_a_planted_defect(ssh_run, residual, plant):
    _, result = ssh_run
    field = copied(result["phi_sm"])
    field.data[1] = plant(field.data[1])
    assert final_residuals(field, result["family"])[residual] > 1e-8


def test_run_wannierize_reuses_artifacts(ssh_run):
    config, _ = ssh_run
    manifest_path = os.path.join(config.out, "manifest.json")
    doc = read_json(manifest_path)
    doc["marker"] = "reused"
    with open(manifest_path, "w") as fh:
        json.dump(doc, fh)
    result = run_wannierize(config)
    assert result["manifest"].get("marker") == "reused"
    report = result["report"]
    assert report["reality"]["defect"] < 1e-8
    assert np.allclose(report["band_norms"], 1.0, atol=1e-10)
    loc = report["localization"]
    sup = loc["shell_sup"]
    assert sup[0] > sup[1] > sup[2] > sup[3]
    # the fit range is half the window, whatever the smoothing cutoff
    assert loc["fit_range"] == [2, config.grid_n // 2]
    for name in ("wannier.wan1", "wannier_report.json"):
        assert os.path.exists(os.path.join(config.out, name))
    # the binary set is the only amplitude artifact; CSV is an export
    assert not os.path.exists(os.path.join(config.out, "wannier.csv"))
    assert report["artifacts"] == {
        "wannier.wan1": file_sha256(os.path.join(config.out, "wannier.wan1")),
        "phi_sm.blf1": file_sha256(os.path.join(config.out, "phi_sm.blf1")),
    }
    on_disk = read_json(os.path.join(config.out, "wannier_report.json"))
    assert on_disk["artifacts"] == report["artifacts"]
    # the raw transported frame is reported as a control point; for the
    # 1D chain it happens to come out real, so only check the wiring here
    assert report["control_reality"]["defect"] >= 0.0
    assert report["control_reality"]["mode"] == report["reality"]["mode"]


def test_run_wannierize_refuses_foreign_artifacts(ssh_run, tmp_path):
    config, _ = ssh_run
    out = tmp_path / "copy"
    shutil.copytree(config.out, out)
    other = RunConfig(model="ssh", grid_n=8, epsilon=0.05, out=str(out))
    with pytest.raises(UsageError) as exc:
        run_wannierize(other)
    assert exc.value.details["stored"]["epsilon"] == config.epsilon
    same = RunConfig(model="ssh", grid_n=8, out=str(out))
    phi_sm = out / "phi_sm.blf1"
    raw = bytearray(phi_sm.read_bytes())
    raw[-1] ^= 1
    phi_sm.write_bytes(bytes(raw))
    with pytest.raises(UsageError, match="sha256"):
        run_wannierize(same)


def test_run_wannierize_in_memory():
    config = RunConfig(model="ssh", grid_n=8)
    result = run_wannierize(config)
    assert result["report"]["reality"]["mode"] == "imag"
    assert result["wannier"].data.ndim == 3


def test_run_report_text(ssh_run):
    config, _ = ssh_run
    run_wannierize(config)
    text = run_report(config)
    assert "final residuals:" in text
    assert "wannier:" in text
    assert "decay rate:" in text
    assert os.path.exists(os.path.join(config.out, "report.txt"))


def test_run_report_needs_artifacts(tmp_path):
    with pytest.raises(UsageError):
        run_report(RunConfig(model="ssh"))
    with pytest.raises(UsageError):
        run_report(RunConfig(model="ssh", out=str(tmp_path / "empty")))


@pytest.mark.parametrize("config", [
    RunConfig(model="haldane", grid_n=8),
    RunConfig(model="random-trs", params={"d": 3, "n": 4, "m": 1, "seed": 9},
              grid_n=2),
])
def test_construct_samples_the_torus_once(config, monkeypatch):
    """One ``eigensystem`` call, on the slab ``k_1 <= 1/2`` of the torus;
    time reversal gives the rest.  Two bands (haldane) take the closed
    form, so LAPACK's ``eigh`` sees no ``n x n`` stack; four bands take one
    ``eigh`` over the slab."""
    family = load_family(config)
    torus_shape = CellGeometry(family.d, config.grid_n).torus_shape
    slab_shape = (config.grid_n + 1,) + torus_shape[1:]
    shapes, lapack = [], []
    real, real_eigh = ProjectorFamily.eigensystem, np.linalg.eigh

    def spy(self, k):
        shapes.append(np.shape(k)[:-1])
        return real(self, k)

    def eigh_spy(a, *args, **kwargs):
        if np.shape(a)[-1] == family.n:
            lapack.append(np.shape(a)[:-2])
        return real_eigh(a, *args, **kwargs)

    monkeypatch.setattr(ProjectorFamily, "eigensystem", spy)
    monkeypatch.setattr(np.linalg, "eigh", eigh_spy)
    run_construct(config)
    assert shapes == [slab_shape]
    assert lapack == ([] if family.n == 2 else [slab_shape])


@pytest.mark.parametrize("model", ["haldane", "shifted-trs-3d"])
def test_each_command_samples_the_bloch_data_once(model, tmp_path, monkeypatch):
    """``construct`` reads its gap floor, input frame, smoothing and
    residuals from one torus sample (the symmetries are checked on the
    hopping matrices); ``wannierize`` on its artifacts samples once more,
    for its control frame.  Each sample is one ``eigensystem`` call on the
    slab ``k_1 <= 1/2``."""
    if model == "haldane":
        config = RunConfig(model="haldane", grid_n=8, out=str(tmp_path / "out"))
    else:
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_json(shifted_trs_3d())))
        config = RunConfig(model=str(path), grid_n=4, out=str(tmp_path / "out"))
    calls = []
    real = ProjectorFamily.eigensystem

    def spy(self, k):
        calls.append(np.shape(k)[:-1])
        return real(self, k)

    monkeypatch.setattr(ProjectorFamily, "eigensystem", spy)
    torus_shape = CellGeometry(load_family(config).d, config.grid_n).torus_shape
    slab_shape = (config.grid_n + 1,) + torus_shape[1:]
    run_construct(config)
    assert calls == [slab_shape]
    calls.clear()
    run_wannierize(config)
    assert calls == [slab_shape]


def test_a_frame_read_builds_no_torus(tmp_path, monkeypatch):
    """The gap is measured where the torus is sampled, and every later
    ``grid_frames`` read compares the one point the sample keeps.  So
    ``construct`` and ``wannierize`` on haldane at grid_n 8 build the
    torus's ``k`` twice, once for each of the two samples; the six frame
    reads build none, and neither does the smoothing, whose ``twist`` is
    the identity where ``tau = 1``."""
    config = RunConfig(model="haldane", grid_n=8, out=str(tmp_path / "out"))
    builds, samples = [], []
    real_torus_k, real_eigensystem = CellGeometry.torus_k, ProjectorFamily.eigensystem

    def torus_k_spy(self):
        builds.append(self.grid_n)
        return real_torus_k(self)

    def eigensystem_spy(self, k):
        samples.append(np.shape(k)[:-1])
        return real_eigensystem(self, k)

    monkeypatch.setattr(CellGeometry, "torus_k", torus_k_spy)
    monkeypatch.setattr(ProjectorFamily, "eigensystem", eigensystem_spy)
    run_construct(config)
    run_wannierize(config)
    assert builds == [8] * 2
    assert samples == [(9, 16)] * 2


@pytest.mark.parametrize("make, grid_n", [(shifted_haldane, 8), (shifted_trs_3d, 4)],
                         ids=["shifted-haldane", "shifted-trs-3d"])
def test_a_twist_that_ignores_inverse_cannot_smooth(make, grid_n, tmp_path, monkeypatch):
    """Negative control: smoothing untwists the field by ``D(k)^-1`` and
    twists it back by ``D(k)``.  A ``twist`` that ignores ``inverse``
    applies ``D(k)`` both ways, so every rung is off the input by about
    ``D(k)^2``, and the ladder is exhausted."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_json(make())))
    clean = run_construct(RunConfig(model=str(path), grid_n=grid_n, out=str(tmp_path / "clean")))
    assert clean["manifest"]["smoothing"]["smoothing"]["cutoff"] == 2
    real = ProjectorFamily.twist
    monkeypatch.setattr(ProjectorFamily, "twist",
                        lambda self, k, frames, inverse=False: real(self, k, frames))
    with pytest.raises(EpsilonInfeasible):
        run_construct(RunConfig(model=str(path), grid_n=grid_n, out=str(tmp_path / "mutant")))


def _spy_projector_builds(monkeypatch, frames_shape):
    """Count the ``n x n`` projectors ``F F^H`` built on the torus from the
    sample's frames ``F`` (of shape ``frames_shape``), and the reflection
    gathers of whole tori, of mirrored slabs and of the self-paired slices,
    in a dict the spies update."""
    calls = {"build": 0, "torus": 0, "mirror": 0, "self_paired": 0}

    def counting(owner, name, key):
        real = getattr(owner, name)

        def spy(*args, **kwargs):
            k = key(*args) if callable(key) else key
            if k is not None:
                calls[k] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)

    def gather(family, frames, rows):
        big = frames.shape[0]
        if list(rows) == list(range(big)):
            return "torus"
        return "mirror" if rows[0] == big // 2 + 1 else "self_paired"

    counting(models, "_dagger", lambda a: "build" if np.shape(a) == frames_shape else None)
    counting(ProjectorFamily, "reflect", gather)
    return calls


def test_a_construct_builds_no_torus_projectors(monkeypatch):
    """One construct projects onto its torus sample's frames and builds no
    ``n x n`` projector there.  It gathers the reflection of the whole torus
    2 times (smoothing precondition, final residual), mirrors a slab 3 times
    (the torus sample, the extended frame, the smoothed frame) and gathers
    the self-paired slices 2 times (their midpoints and the images of the
    result)."""
    config = RunConfig(model="haldane", grid_n=8)
    frames_shape = CellGeometry(2, config.grid_n).torus_shape + (2, 1)
    calls = _spy_projector_builds(monkeypatch, frames_shape)
    run_construct(config)
    assert calls == {"build": 0, "torus": 2, "mirror": 3, "self_paired": 2}


def test_wannierize_builds_no_torus_projectors(tmp_path, monkeypatch):
    """``wannierize`` on stored artifacts transports its control frame on
    the sampled eigenframes: it builds no torus projector array, mirrors
    only its own torus sample and gathers the reflection of the whole torus
    once, for the reflection residual of the ``phi_sm`` it certifies again."""
    config = RunConfig(model="haldane", grid_n=8, out=str(tmp_path))
    run_construct(config)
    frames_shape = CellGeometry(2, config.grid_n).torus_shape + (2, 1)
    calls = _spy_projector_builds(monkeypatch, frames_shape)
    run_wannierize(config)
    assert calls == {"build": 0, "torus": 1, "mirror": 1, "self_paired": 0}


def _symmetry_products(monkeypatch):
    """Count the ``einsum`` products of :meth:`ProjectorFamily.act`, which
    apply a symmetry matrix to a stack of frames."""
    products = []
    real = np.einsum

    def spy(subscripts, *operands, **kwargs):
        if subscripts == "ab,...bm->...am":
            products.append(np.shape(operands[1]))
        return real(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", spy)
    return products


def test_a_haldane_construct_multiplies_by_no_symmetry_matrix(tmp_path, monkeypatch):
    """Haldane's ``theta`` is conjugation and its ``tau`` is 1: no symmetry
    action on the torus multiplies by a matrix.  The same model conjugated
    by a unitary V (``theta = V V^T``) does, so the spy sees the products."""
    products = _symmetry_products(monkeypatch)
    run_construct(RunConfig(model="haldane", grid_n=8))
    assert products == []
    path = tmp_path / "rotated.json"
    path.write_text(json.dumps(model_json(rotated(models.builtin_model("haldane")))))
    run_construct(RunConfig(model=str(path), grid_n=8))
    assert len(products) > 0


@pytest.mark.parametrize("model, params", [
    ("haldane", {}),
    ("random-trs", {"d": 3, "n": 4, "m": 2, "seed": 0}),
], ids=["haldane", "trs-3d"])
def test_a_builtin_construct_fetches_each_symmetry_matrix_once(model, params, monkeypatch):
    """Every symmetry of a built-in family is the identity, which ``act``
    applies without a matrix, so a construct fetches only the matrices of
    ``verify_assumptions``' coefficient checks: ``tau_power`` once per axis
    and ``theta_matrix`` once."""
    fetched = {"tau_power": 0, "theta_matrix": 0}
    for name in fetched:
        def spy(self, *args, real=getattr(ProjectorFamily, name), name=name):
            fetched[name] += 1
            return real(self, *args)

        monkeypatch.setattr(ProjectorFamily, name, spy)
    family = run_construct(RunConfig(model=model, params=params, grid_n=8))["family"]
    assert fetched == {"tau_power": family.d, "theta_matrix": 1}


@pytest.mark.parametrize("grid_n, cutoff, resolved", [(4, 5, False), (8, 7, True)])
def test_the_cutoff_is_reported_against_the_grid(band_inversion_file, tmp_path, grid_n,
                                                 cutoff, resolved):
    """The band-inversion model's accepted cutoff, on its transported
    frame, leaves the Nyquist shell of ``n_side = 8`` untouched at grid_n 4
    and zeroes it at grid_n 8 (``n_side = 16``)."""
    config = RunConfig(model=str(band_inversion_file), grid_n=grid_n, out=str(tmp_path / "run"))
    sm = run_construct(config)["manifest"]["smoothing"]["smoothing"]
    assert sm["cutoff"] == cutoff
    assert sm["cutoff_fraction"] == cutoff / (2 * grid_n)
    assert sm["nyquist_resolved"] is resolved
    stored = read_json(os.path.join(config.out, "manifest.json"))["smoothing"]
    assert stored["smoothing"]["nyquist_resolved"] is resolved
    text = run_report(config)
    assert f"cutoff fraction: {cutoff / (2 * grid_n):.3e}" in text
    assert f"nyquist resolved: {resolved}" in text


@pytest.mark.parametrize("config", [
    RunConfig(model="ssh", grid_n=8),
    RunConfig(model="haldane", grid_n=8),
    RunConfig(model="random-trs", params={"d": 3, "n": 4, "m": 2, "seed": 0}, grid_n=8),
], ids=["ssh", "haldane", "trs-3d"])
def test_report_recomputes_every_stored_value_bit_for_bit(config, tmp_path):
    """``report`` measures the stored frames again with the functions that
    wrote the records; on an honest run every value it prints equals the
    stored one exactly, and only its first row says what it reprints."""
    config.out = str(tmp_path)
    run_construct(config)
    run_wannierize(config)
    stored = rows(read_json(tmp_path / "manifest.json"),
                  read_json(tmp_path / "wannier_report.json"), config)
    recomputed = report_rows(config)
    assert recomputed[0][0] == "stored"
    assert recomputed[1:] == stored


# ----------------------------------------------------------------------
# the input frame the construct starts from
# ----------------------------------------------------------------------
@pytest.mark.parametrize("config", [
    RunConfig(model="haldane", grid_n=32),
    RunConfig(model="random-trs", params={"d": 3, "n": 4, "m": 2, "seed": 0}, grid_n=8),
], ids=["haldane-2d", "trs-3d"])
def test_the_benchmark_inputs_take_the_columns_and_the_first_rung(config):
    """The selected columns are symmetric and smooth, so the ladder accepts
    its first rung, with every residual at roundoff."""
    manifest = run_construct(config)["manifest"]
    assert manifest["input_frame"]["path"] == "columns"
    assert manifest["input_frame"]["smallest_singular_value"] >= RANK_FLOOR
    ladder = manifest["smoothing"]["smoothing"]
    assert (ladder["cutoff"], len(ladder["tried"]), ladder["nyquist_resolved"]) == (2, 1, True)
    assert max(manifest["final_residuals"].values()) <= 1e-14
    assert manifest["extension_mismatch"] <= 1e-10


def test_the_band_inversion_model_falls_back_to_the_transport(band_inversion_file):
    """Its columns lose rank on the grid, so the construct transports: the
    manifest says so, with the columns' singular value, and ``psi`` is the
    transport of a fresh family bit for bit."""
    built = run_construct(RunConfig(model=str(band_inversion_file), grid_n=4))
    record = built["manifest"]["input_frame"]
    assert record["path"] == "transport"
    assert record["smallest_singular_value"] < RANK_FLOOR
    assert record["columns"] == [0]
    fresh = input_frame(models.load_model(str(band_inversion_file)), CellGeometry(2, 4))
    assert np.array_equal(built["psi"].data, fresh.data)
    assert built["manifest"]["transport_step_sup"] == fresh.meta["transport_step_sup"]


def test_a_random_trs_3d_input_the_transport_refused_constructs(tmp_path):
    """random-trs d=3 n=4 m=2 with model seed 1 at grid_n 6 was refused with
    ``grid-too-coarse`` on the transported frame; from the columns every
    certificate holds."""
    config = RunConfig(model="random-trs", params={"d": 3, "n": 4, "m": 2, "seed": 1},
                       grid_n=6, out=str(tmp_path))
    manifest = run_construct(config)["manifest"]
    report = run_wannierize(config)["report"]
    assert manifest["input_frame"]["path"] == "columns"
    assert manifest["smoothing"]["smoothing"]["cutoff"] == 2
    assert verdict(rows(manifest, report, config)) == []


@pytest.mark.parametrize("case, grid_n", [
    ("twisted-2d", 8), ("shifted-haldane", 8), ("shifted-trs-3d", 4),
    ("rotated-haldane", 8), ("rotated-trs-3d", 4),
])
def test_every_certificate_holds_on_twisted_and_rotated_inputs(case, grid_n, tmp_path,
                                                               monkeypatch):
    """Nontrivial ``tau`` or ``theta``, on whichever path the construct takes."""
    family = {
        "twisted-2d": lambda: _twisted_2d(monkeypatch),
        "shifted-haldane": shifted_haldane,
        "shifted-trs-3d": shifted_trs_3d,
        "rotated-haldane": lambda: rotated(models.builtin_model("haldane")),
        "rotated-trs-3d": lambda: rotated(models.builtin_model("random-trs", d=3, n=4, m=2)),
    }[case]()
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_json(family)))
    config = RunConfig(model=str(path), grid_n=grid_n, out=str(tmp_path / "run"))
    manifest = run_construct(config)["manifest"]
    report = run_wannierize(config)["report"]
    assert verdict(rows(manifest, report, config)) == []


@pytest.mark.parametrize("path", ["columns", "transport"])
def test_report_prints_the_input_frame_ungated(path, band_inversion_file, tmp_path):
    model = "haldane" if path == "columns" else str(band_inversion_file)
    config = RunConfig(model=model, grid_n=4, out=str(tmp_path / "run"))
    record = run_construct(config)["manifest"]["input_frame"]
    table = {name: row for name, *row in report_rows(config)}
    assert table["construction/input frame"] == [
        f"{path} (columns {record['columns']})", None, None]
    assert table["construction/columns smallest singular value"] == [
        record["smallest_singular_value"], None, None]
