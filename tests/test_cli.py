"""Command-line interface: exit codes, output texture, error payloads."""
import json
import os
import shutil
import subprocess
import sys

import pytest

import blochframe
from blochframe.cli import main
from blochframe.errors import EpsilonInfeasible
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
