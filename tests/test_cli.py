"""Command-line interface: exit codes, output texture, error payloads."""
import json
import os
import shutil
import subprocess
import sys

import pytest

import blochframe
from blochframe.cells import CellGeometry
from blochframe.cli import main
from blochframe.errors import EpsilonInfeasible
from blochframe.frames import input_frame
from blochframe.io import file_sha256, read_json

from conftest import reversal_break_between_grid_points

HALF_PI = "1.5707963267948966"


def test_verify_model_passes(capsys):
    code = main(["verify-model", "--model", "haldane", "--grid-n", "8"])
    out = capsys.readouterr().out
    assert code == 0
    assert "passed: True" in out
    assert "gap_floor:" in out


def test_verify_model_fails_on_broken_reversal(capsys):
    code = main(
        [
            "verify-model",
            "--model",
            "haldane",
            "--grid-n",
            "8",
            "--param",
            f"phi={HALF_PI}",
        ]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "passed: False" in out


def test_threads_flag_overrides_the_environment(monkeypatch, capsys):
    names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")
    for var in names:
        monkeypatch.setenv(var, "2")
    code = main(["verify-model", "--model", "ssh", "--grid-n", "2", "--threads", "1"])
    capsys.readouterr()
    assert code == 0
    assert [os.environ[var] for var in names] == ["1"] * 4


@pytest.mark.parametrize("threads", ["0", "-3"])
def test_a_thread_count_below_one_is_a_usage_error(monkeypatch, capsys, threads):
    """``--threads`` below 1 is refused, and the thread variables stay as
    they were."""
    names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS")
    for var in names:
        monkeypatch.setenv(var, "2")
    code = main(["verify-model", "--model", "ssh", "--grid-n", "2", "--threads", threads])
    captured = capsys.readouterr()
    assert code == 2
    assert json.loads(captured.err)["error"] == "usage"
    assert [os.environ[var] for var in names] == ["2"] * 4


def test_usage_errors_exit_2_with_json(capsys):
    code = main(["verify-model", "--model", "haldane", "--grid-n", "7"])
    captured = capsys.readouterr()
    assert code == 2
    payload = json.loads(captured.err)
    assert payload["error"] == "usage"
    assert "message" in payload

    code = main(["construct", "--model", "/no/such/model.json"])
    payload = json.loads(capsys.readouterr().err)
    assert code == 2
    assert payload["error"] == "usage"


def test_a_negative_seed_is_a_usage_error(capsys):
    """``--seed -1`` is refused before any stage draws from it."""
    code = main(["construct", "--model", "random-trs", "--param", "seed=0",
                 "--seed", "-1", "--grid-n", "4"])
    captured = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in captured.err
    assert json.loads(captured.err)["error"] == "usage"


def test_construct_writes_three_frame_files_and_the_manifest(tmp_path, capsys):
    """The manifest is the one record of a construct: no sidecar files, and
    it keeps the input frame's transport step."""
    out = tmp_path / "run"
    assert main(["construct", "--model", "ssh", "--grid-n", "4", "--out", str(out)]) == 0
    capsys.readouterr()
    assert sorted(os.listdir(out)) == [
        "manifest.json", "phi.blf1", "phi_sm.blf1", "psi.blf1"
    ]
    psi = input_frame(blochframe.builtin_model("ssh"), CellGeometry(1, 4))
    manifest = read_json(out / "manifest.json")
    assert manifest["transport_step_sup"] == psi.meta["transport_step_sup"]


def test_assumption_failure_exits_1_with_payload(capsys):
    code = main(
        [
            "construct",
            "--model",
            "haldane",
            "--grid-n",
            "8",
            "--param",
            f"phi={HALF_PI}",
        ]
    )
    captured = capsys.readouterr()
    assert code == 1
    payload = json.loads(captured.err)
    assert payload["error"] == "assumptions-failed"
    assert payload["details"]["time_reversal"] > 0.1


def test_construct_refuses_a_reversal_break_between_grid_points(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(reversal_break_between_grid_points()))
    code = main(["construct", "--model", str(path), "--grid-n", "8",
                 "--out", str(tmp_path / "run")])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    payload = json.loads(captured.err)
    assert payload["error"] == "assumptions-failed"
    assert payload["details"]["time_reversal"] > 0.1
    assert not (tmp_path / "run" / "manifest.json").exists()


@pytest.mark.parametrize(
    "model, param",
    [
        ("random-trs", "n=abc"),
        ("random-trs", "amplitude=x"),
        ("random-trs", "range=-1"),
        ("random-trs", "range=1.5"),
        ("random-trs", "seed=-1"),
        ("haldane", "t2=nan"),
    ],
)
def test_a_bad_builtin_parameter_is_a_model_config_error(model, param, capsys):
    code = main(["verify-model", "--model", model, "--param", param, "--grid-n", "4"])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    payload = json.loads(captured.err)
    assert payload["error"] == "model-config"
    assert payload["details"]["parameter"] == param.split("=")[0]


def test_construct_wannierize_report_round(tmp_path, capsys):
    out = str(tmp_path)
    argv = ["construct", "--model", "ssh", "--grid-n", "8", "--out", out]
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert "reflection:" in text
    assert f"artifacts written to {out}" in text
    assert os.path.exists(os.path.join(out, "manifest.json"))

    argv = ["wannierize", "--model", "ssh", "--grid-n", "8", "--out", out]
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert "reality defect (imag):" in text
    assert os.path.exists(os.path.join(out, "wannier.wan1"))

    argv = ["report", "--model", "ssh", "--grid-n", "8", "--out", out]
    assert main(argv) == 0
    text = capsys.readouterr().out
    assert "final residuals:" in text
    assert "wannier:" in text


def test_wannierize_refuses_artifacts_of_another_model(tmp_path, capsys):
    out = str(tmp_path)
    argv = ["construct", "--model", "haldane", "--grid-n", "8", "--out", out]
    assert main(argv) == 0
    capsys.readouterr()
    argv = ["wannierize", "--model", "random-trs", "--grid-n", "16", "--out", out]
    assert main(argv) == 2
    payload = json.loads(capsys.readouterr().err)
    assert payload["error"] == "usage"
    assert payload["details"]["stored"]["model"] == "haldane"
    assert not os.path.exists(os.path.join(out, "wannier.wan1"))


def test_report_without_a_run_is_a_usage_error(tmp_path, capsys):
    code = main(["report", "--model", "ssh", "--out", str(tmp_path / "nope")])
    assert code == 2
    assert json.loads(capsys.readouterr().err)["error"] == "usage"


def test_param_values_are_cast():
    from blochframe.cli import _parse_param

    assert _parse_param("n=4") == ("n", 4)
    assert _parse_param("phi=0.25") == ("phi", 0.25)
    assert _parse_param("name=thing") == ("name", "thing")
    with pytest.raises(Exception):
        _parse_param("no-equals-sign")


def test_malformed_param_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit):
        main(["verify-model", "--model", "haldane", "--param", "oops"])
    capsys.readouterr()


def test_verify_model_reports_a_closed_gap(capsys):
    code = main(["verify-model", "--model", "haldane", "--param", "M=0",
                 "--param", "t2=0", "--grid-n", "6"])
    captured = capsys.readouterr()
    assert code == 1
    assert "gap_floor:" in captured.out
    assert "passed: False" in captured.out
    assert captured.err == ""


def test_report_refuses_artifacts_of_another_configuration(tmp_path, capsys):
    out = str(tmp_path)
    assert main(["construct", "--model", "ssh", "--grid-n", "8", "--out", out]) == 0
    capsys.readouterr()
    code = main(["report", "--model", "haldane", "--grid-n", "32", "--out", out])
    captured = capsys.readouterr()
    assert code == 2
    payload = json.loads(captured.err)
    assert payload["error"] == "usage"
    assert payload["details"]["stored"]["model"] == "ssh"
    assert captured.out == ""


def _haldane(command, out, *params):
    argv = [command, "--model", "haldane", "--grid-n", "8", "--out", str(out)]
    for param in params:
        argv += ["--param", param]
    return main(argv)


def _refused_report(out, capsys, *params):
    """Run ``report`` and return its error payload; it must print nothing
    and write no ``report.txt``."""
    code = _haldane("report", out, *params)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert not (out / "report.txt").exists()
    payload = json.loads(captured.err)
    assert payload["error"] == "usage"
    assert "rerun wannierize" in payload["message"]
    return payload


def test_report_refuses_a_swapped_wannier_set(tmp_path, capsys):
    """Negative control: another run's ``wannier.wan1`` (same format, same
    grid) under a report that did not measure it.  Right after
    ``wannierize`` the same ``report`` passes; once refused, it leaves no
    ``report.txt`` of that passing run behind."""
    ours, other = tmp_path / "ours", tmp_path / "other"
    for out, params in ((ours, ()), (other, ("t2=0.15",))):
        assert _haldane("construct", out, *params) == 0
        assert _haldane("wannierize", out, *params) == 0
    capsys.readouterr()
    assert _haldane("report", ours) == 0
    assert "reality defect (imag):" in capsys.readouterr().out
    recorded = read_json(ours / "wannier_report.json")["artifacts"]["wannier.wan1"]
    shutil.copyfile(other / "wannier.wan1", ours / "wannier.wan1")
    payload = _refused_report(ours, capsys)
    assert payload["details"] == {
        "recorded": recorded,
        "found": file_sha256(ours / "wannier.wan1"),
    }


def test_report_refuses_a_wannier_report_of_an_earlier_construct(tmp_path, capsys):
    """Negative control: ``construct`` with another parameter overwrites the
    frame but leaves the old Wannier files; ``report`` used to print their
    reality defect (2.949e-17 against a fresh run's 3.990e-17)."""
    assert _haldane("construct", tmp_path) == 0
    assert _haldane("wannierize", tmp_path) == 0
    built_from = read_json(tmp_path / "wannier_report.json")["artifacts"]["phi_sm.blf1"]
    assert _haldane("construct", tmp_path, "t2=0.15") == 0
    capsys.readouterr()
    payload = _refused_report(tmp_path, capsys, "t2=0.15")
    assert payload["details"] == {
        "recorded": built_from,
        "current": read_json(tmp_path / "manifest.json")["artifacts"]["phi_sm.blf1"],
    }
    assert payload["details"]["recorded"] != payload["details"]["current"]
    assert _haldane("wannierize", tmp_path, "t2=0.15") == 0
    capsys.readouterr()
    assert _haldane("report", tmp_path, "t2=0.15") == 0
    assert "wannier:" in capsys.readouterr().out


def test_input_frame_rank_loss_exits_1_with_payload(tmp_path, capsys):
    """``H(k) = cos(4 pi k) sx + sin(4 pi k) sy`` turns its occupied line by
    a right angle between neighbours of a grid_n 2 transport, so the
    projected frame loses its rank there."""
    model = {
        "dimension": 1, "orbitals": 2, "rank": 1,
        "hoppings": [{"R": [2], "re": [[0, 0], [1, 0]]},
                     {"R": [-2], "re": [[0, 1], [0, 0]]}],
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    assert main(["verify-model", "--model", str(path), "--grid-n", "2"]) == 0
    capsys.readouterr()
    code = main(["construct", "--model", str(path), "--grid-n", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    payload = json.loads(captured.err)
    assert payload["error"] == "grid-too-coarse"
    assert payload["details"]["point"] == [1]
    assert payload["details"]["singular_value"] < 0.1
    assert main(["construct", "--model", str(path), "--grid-n", "4"]) == 0


def test_construct_refuses_an_epsilon_only_a_no_op_cutoff_meets(tmp_path, capsys):
    """Negative control: at grid_n 8 (``n_side`` 16) only the cutoff 19, which
    keeps every grid harmonic, came within ``0.9e-6``; it is never tried."""
    code = main(["construct", "--model", "haldane", "--grid-n", "8",
                 "--epsilon", "1e-6", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 1
    payload = json.loads(captured.err)
    assert payload["error"] == "epsilon-infeasible"
    cutoffs = [t["cutoff"] for t in payload["details"]["tried"]]
    assert cutoffs[-1] == 15
    assert not (tmp_path / "manifest.json").exists()


def test_error_message_does_not_repeat_its_details(tmp_path, capsys):
    code = main(["construct", "--model", "haldane", "--grid-n", "8",
                 "--epsilon", "1e-6", "--out", str(tmp_path)])
    lines = capsys.readouterr().err.splitlines()
    assert code == 1
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert "tried" not in payload["message"]
    assert payload["details"]["tried"]
    # the library's own text keeps every detail
    assert "tried=[1]" in str(EpsilonInfeasible("no cutoff", tried=[1]))


_NO_SCIPY_SCRIPT = """
import json, sys
from blochframe.cli import main

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

seen = [["import", 0, scipy_modules()]]
runs = [("haldane", [], sys.argv[1]),
        ("random-trs", ["--param", "n=4", "--param", "m=2", "--param", "d=2",
                        "--grid-n", "4"], sys.argv[2])]
for model, extra, out in runs:
    for command in ("verify-model", "construct", "wannierize", "report"):
        argv = [command, "--model", model, "--grid-n", "8", *extra, "--out", out]
        seen.append([command, main(argv), scipy_modules()])
print(json.dumps(seen))
"""


def test_the_pipeline_never_loads_scipy(tmp_path):
    """Every subcommand runs in a fresh interpreter without importing scipy,
    on haldane (``m = 1``) and on a ``m = 2`` model whose vertex corrections
    take the full unitary eigensystem."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(blochframe.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    done = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_SCRIPT,
         str(tmp_path / "haldane"), str(tmp_path / "trs")],
        capture_output=True, text=True, env=env, check=True,
    )
    seen = json.loads(done.stdout.splitlines()[-1])
    assert len(seen) == 9
    assert all(code == 0 for _, code, _ in seen)
    assert [mods for _, _, mods in seen] == [[]] * 9


def _ssh_json(w=0.5):
    """A JSON model that ``verify-model`` accepts: the SSH chain with
    intercell hopping ``w``."""
    return {
        "dimension": 1, "orbitals": 2, "rank": 1,
        "hoppings": [{"R": [0], "re": [[0, 1], [1, 0]]},
                     {"R": [1], "re": [[0, 0], [w, 0]]},
                     {"R": [-1], "re": [[0, w], [0, 0]]}],
    }


def _plane_json():
    """A 2-d JSON model that ``verify-model`` accepts: two flat bands."""
    return {
        "dimension": 2, "orbitals": 2, "rank": 1,
        "hoppings": [{"R": [0, 0], "re": [[-1, 0], [0, 1]]}],
    }


def _tau(*generators):
    """A ``tau`` entry of real generators, or of ``{"re", "im"}`` blocks."""
    return {"generators": [g if isinstance(g, dict) else {"re": g} for g in generators]}


_SIGMA_X = [[0, 1], [1, 0]]
_SIGMA_Z = [[1, 0], [0, -1]]
_NOT_UNITARY = [[2, 0], [0, 1]]
_ONE_I = {"re": [[0, 1], [0, 0]], "im": [[0, 0], [1, 0]]}  # [[0, 1], [i, 0]]

# Each case edits a model that verify-model accepts (the SSH chain, or the
# 2-d bands of _plane_json where noted) and names the phrases the refusal
# must carry.
_MALFORMED = {
    "dimension-x": (lambda cfg: {**cfg, "dimension": "x"}, ["dimension='x'"]),
    "hopping-without-R": (lambda cfg: {**cfg, "hoppings": [{"re": [[0, 1], [1, 0]]}]},
                          ["needs a lattice vector 'R'"]),
    "non-numeric-re": (lambda cfg: {**cfg, "hoppings": [{"R": [0], "re": [["one", 1], [1, 0]]}]},
                       ["matrix entries must be numbers"]),
    "hoppings-5": (lambda cfg: {**cfg, "hoppings": 5}, ["hoppings must be a list"]),
    "top-level-list": (lambda cfg: [cfg], ["must be a JSON object"]),
    "gap-tolerance-abc": (lambda cfg: {**cfg, "gap_tolerance": "abc"},
                          ["gap_tolerance='abc'"]),
    "orbitals-2.7": (lambda cfg: {**cfg, "orbitals": 2.7}, ["orbitals=2.7"]),
    "R-string": (lambda cfg: {**cfg, "hoppings": [{**cfg["hoppings"][0], "R": "0"}]
                              + cfg["hoppings"][1:]},
                 ["needs a lattice vector 'R'"]),
    # C conj(C) = -1 is a fermionic time reversal; the theorem needs C conj(C) = 1
    "fermionic-theta": (lambda cfg: {**cfg, "theta": {"unitary": {"re": [[0, 1], [-1, 0]]}}},
                        ["theta does not square to the identity"]),
    "theta-not-unitary": (lambda cfg: {**cfg, "theta": {"unitary": {"re": _NOT_UNITARY}}},
                          ["theta matrix is not unitary"]),
    "two-tau-in-1d": (lambda cfg: {**cfg, "tau": _tau(_SIGMA_X, _SIGMA_X)},
                      ["need 1 lattice generators, got 2"]),
    "tau-not-unitary": (lambda cfg: {**cfg, "tau": _tau(_NOT_UNITARY)},
                        ["tau generator 1 is not unitary"]),
    "tau-against-conjugation": (lambda cfg: {**cfg, "tau": _tau(_ONE_I)},
                                ["tau generator 1 incompatible with time reversal"]),
    "non-commuting-tau-2d": (lambda cfg: {**_plane_json(), "tau": _tau(_SIGMA_X, _SIGMA_Z)},
                             ["tau generators 1 and 2 do not commute"]),
    "dimension-4": (lambda cfg: {**cfg, "dimension": 4}, ["dimension must be 1, 2 or 3"]),
    "rank-2-of-2": (lambda cfg: {**cfg, "rank": 2}, ["need 1 <= m < n"]),
    "missing-partner": (lambda cfg: {**cfg, "hoppings": cfg["hoppings"][:2]},
                        ["lacks the Hermitian partner"]),
    "gap-tolerance-0": (lambda cfg: {**cfg, "gap_tolerance": 0},
                        ["gap_tolerance must be positive"]),
    "R-2-vector-in-1d": (lambda cfg: {**cfg, "hoppings": cfg["hoppings"][:1]
                                      + [{"R": [1, 0], "re": [[0, 0], [0.5, 0]]}]},
                         ["has wrong dimension"]),
    # every violated invariant is listed at once
    "rank-2-and-gap-tolerance-0": (lambda cfg: {**cfg, "rank": 2, "gap_tolerance": 0},
                                   ["need 1 <= m < n", "gap_tolerance must be positive"]),
}


@pytest.mark.parametrize("case", list(_MALFORMED))
def test_a_malformed_json_model_is_a_model_config_error(tmp_path, capsys, case):
    edit, phrases = _MALFORMED[case]
    base = _plane_json() if case.endswith("-2d") else _ssh_json()
    path = tmp_path / "model.json"
    path.write_text(json.dumps(base))
    assert main(["verify-model", "--model", str(path), "--grid-n", "4"]) == 0
    path.write_text(json.dumps(edit(_ssh_json())))
    capsys.readouterr()
    code = main(["verify-model", "--model", str(path), "--grid-n", "4"])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    payload = json.loads(captured.err)
    assert payload["error"] == "model-config"
    for phrase in phrases:
        assert phrase in payload["message"], (case, phrase)


def test_a_json_model_keeps_its_gap_tolerance(tmp_path, capsys):
    """The SSH chain's gap floor is 1.0: a model asking for a gap of 5 fails
    unless ``--gap-tol`` overrides it."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps({**_ssh_json(), "gap_tolerance": 5.0}))
    code = main(["verify-model", "--model", str(path), "--grid-n", "4"])
    out = capsys.readouterr().out
    assert code == 1
    assert "passed: False" in out
    code = main(["verify-model", "--model", str(path), "--grid-n", "4", "--gap-tol", "0.5"])
    assert code == 0
    assert "passed: True" in capsys.readouterr().out


def test_an_edited_json_model_is_another_configuration(tmp_path, capsys):
    """Artifacts of the SSH chain at ``w = 0.4`` are refused once the file
    says ``w = 1.6``: the path is the same, the model is not."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_ssh_json(0.4)))
    out = tmp_path / "run"
    argv = ["--model", str(path), "--grid-n", "8", "--out", str(out)]
    for command in ("construct", "wannierize", "report"):
        assert main([command, *argv]) == 0
    wan1 = file_sha256(out / "wannier.wan1")
    path.write_text(json.dumps(_ssh_json(1.6)))
    for command in ("wannierize", "report"):
        capsys.readouterr()
        code = main([command, *argv])
        captured = capsys.readouterr()
        assert code == 2, command
        assert captured.out == ""
        payload = json.loads(captured.err)
        assert payload["error"] == "usage"
        assert "another configuration" in payload["message"]
        stored, current = payload["details"]["stored"], payload["details"]["current"]
        assert stored["model"] == current["model"] == str(path)
        assert stored["model_sha256"] != current["model_sha256"]
    assert file_sha256(out / "wannier.wan1") == wan1
    assert not (out / "report.txt").exists()


def test_report_counts_the_rungs_rejected_on_the_subgrid(tmp_path, capsys):
    assert _haldane("construct", tmp_path) == 0
    tried = read_json(tmp_path / "manifest.json")["smoothing"]["smoothing"]["tried"]
    on_subgrid = sum(1 for t in tried if t.get("subgrid"))
    assert 0 < on_subgrid < len(tried)
    capsys.readouterr()
    assert _haldane("report", tmp_path) == 0
    text = capsys.readouterr().out
    block = text[text.index("smoothing:"):text.index("final residuals:")]
    assert (
        f"  rungs tried: {len(tried)} ({on_subgrid} rejected on the stride-2 subgrid)"
        in block.splitlines()
    )


@pytest.mark.parametrize("flag", ["--tol", "--gap-tol", "--epsilon"])
def test_a_non_finite_tolerance_is_a_usage_error(flag, capsys):
    for value in ("nan", "inf"):
        code = main(["verify-model", "--model", "ssh", "--grid-n", "4", flag, value])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        payload = json.loads(captured.err)
        assert payload["error"] == "usage"
        assert flag.lstrip("-").replace("-", "_") in payload["message"]


@pytest.fixture(scope="module")
def ssh_artifacts(tmp_path_factory):
    out = tmp_path_factory.mktemp("ssh")
    for command in ("construct", "wannierize"):
        assert main([command, "--model", "ssh", "--grid-n", "8", "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize(
    "name, damage, command",
    [
        ("wannier_report.json", "truncate", "report"),
        ("manifest.json", "truncate", "report"),
        ("manifest.json", "truncate", "wannierize"),
        ("manifest.json", "list", "report"),
        ("manifest.json", "list", "wannierize"),
    ],
)
def test_a_corrupt_json_artifact_is_a_usage_error(ssh_artifacts, tmp_path, capsys,
                                                  name, damage, command):
    out = tmp_path / "run"
    shutil.copytree(ssh_artifacts, out)
    doc = (out / name).read_text()
    (out / name).write_text(doc[: len(doc) // 2] if damage == "truncate" else "[1, 2]\n")
    capsys.readouterr()
    code = main([command, "--model", "ssh", "--grid-n", "8", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert "Traceback" not in captured.err
    payload = json.loads(captured.err)
    assert payload["error"] == "usage"
    assert name in payload["message"]
    assert "rerun construct" in payload["message"]
