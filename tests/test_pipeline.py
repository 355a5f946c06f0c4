"""Unit tests for the end-to-end pipeline stages."""
import json
import os
import shutil

import numpy as np
import pytest

from blochframe import models, smoothing
from blochframe.cells import CellGeometry
from blochframe.errors import AssumptionsFailed, UsageError
from blochframe.io import file_sha256, load_frames, read_json
from blochframe.models import ProjectorFamily
from blochframe.pipeline import (
    RunConfig,
    final_residuals,
    load_family,
    run_construct,
    run_report,
    run_verify,
    run_wannierize,
)

from conftest import model_json, shifted_trs_3d


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
    field = result["phi_sm"].copy()
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
    cutoff = result["manifest"]["smoothing"]["smoothing"]["cutoff"]
    assert report["fit_max"] == min(config.grid_n // 2, cutoff)
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
    torus_shape = CellGeometry(
        load_family(config).d, config.grid_n
    ).torus_shape
    shapes = []
    real = ProjectorFamily.eigensystem

    def spy(self, k):
        shapes.append(np.shape(k)[:-1])
        return real(self, k)

    monkeypatch.setattr(ProjectorFamily, "eigensystem", spy)
    run_construct(config)
    assert shapes.count(torus_shape) == 1


@pytest.mark.parametrize("model", ["haldane", "shifted-trs-3d"])
def test_each_command_samples_the_bloch_data_once(model, tmp_path, monkeypatch):
    """``construct`` reads its gap floor, input frame, smoothing and
    residuals from one torus sample (the symmetries are checked on the
    hopping matrices); ``wannierize`` on its artifacts samples once more,
    for its control frame."""
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
    run_construct(config)
    assert calls == [torus_shape]
    calls.clear()
    run_wannierize(config)
    assert calls == [torus_shape]


def test_a_construct_builds_the_torus_projectors_once(monkeypatch):
    """One construct asks for its torus projectors 3 times (input frame,
    smoothing, residuals) and builds them once, as ``P = F F^H`` from the
    sample's frames ``F``; it pairs the reflection 4 times (smoothing
    precondition, symmetrize's image and partners, the final residual)."""
    config = RunConfig(model="haldane", grid_n=8)
    frames_shape = CellGeometry(2, config.grid_n).torus_shape + (2, 1)
    calls = {"grid_projectors": 0, "build": 0, "partners": 0}

    def counting(owner, name, key, counts=lambda *args: True):
        real = getattr(owner, name)

        def spy(*args, **kwargs):
            calls[key] += bool(counts(*args))
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)

    counting(ProjectorFamily, "grid_projectors", "grid_projectors")
    counting(models, "_dagger", "build", lambda a: np.shape(a) == frames_shape)
    counting(smoothing, "_reflected_partners", "partners")
    run_construct(config)
    assert calls == {"grid_projectors": 3, "build": 1, "partners": 4}


@pytest.mark.parametrize("grid_n, cutoff, resolved", [(8, 9, False), (32, 12, True)])
def test_the_cutoff_is_reported_against_the_grid(tmp_path, grid_n, cutoff, resolved):
    """Haldane's accepted cutoff leaves the Nyquist shell of ``n_side = 16``
    untouched at grid_n 8 and zeroes it at grid_n 32 (``n_side = 64``)."""
    config = RunConfig(model="haldane", grid_n=grid_n, out=str(tmp_path))
    sm = run_construct(config)["manifest"]["smoothing"]["smoothing"]
    assert sm["cutoff"] == cutoff
    assert sm["cutoff_fraction"] == cutoff / (2 * grid_n)
    assert sm["nyquist_resolved"] is resolved
    stored = read_json(os.path.join(config.out, "manifest.json"))["smoothing"]
    assert stored["smoothing"]["nyquist_resolved"] is resolved
    text = run_report(config)
    assert f"cutoff fraction: {cutoff / (2 * grid_n):.3e}" in text
    assert f"nyquist resolved: {resolved}" in text
