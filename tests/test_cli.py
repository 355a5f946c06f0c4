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
from blochframe.io import file_sha256, load_frames, read_json, save_frames, write_json
from blochframe.linalg import RANK_FLOOR
from blochframe.models import load_model

from conftest import model_json, reversal_break_between_grid_points, shifted_haldane
from test_frames import _pointwise_input_frame

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
        "found": read_json(tmp_path / "manifest.json")["artifacts"]["phi_sm.blf1"],
    }
    assert payload["details"]["recorded"] != payload["details"]["found"]
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


@pytest.fixture
def rank_loss_2d(tmp_path):
    """JSON model whose transport at grid_n 2 first loses rank on axis 2,
    going backward, and loses it again on the next backward step.

    ``H(k) = d(k) . sigma`` with ``d = (cos 4 pi k_2, sin 4 pi k_2, d_z)``
    and ``d_z = 2 + cos 4 pi k_1 + 1.8 sin 2 pi k_1 sin 2 pi k_2``: ``d_x``
    and ``d_z`` are even, ``d_y`` odd, so the real hoppings are time
    reversal symmetric, and ``|d| >= 1`` keeps the gap open.  A step of
    ``1/4`` along ``k_2`` turns the in-plane part by half a turn.  At ``k_1
    = 1/4`` the ``d_z`` of the backward points ``k_2 = -1/4`` and ``0`` (and
    ``-1/2``) nearly cancel that turn (``-0.8`` against ``1``), while
    forward, and at ``k_1 = 0`` and ``1/2``, ``d_z >= 1`` keeps neighbours
    apart by at most a right angle.
    """
    def sz(x):
        return {"re": [[x, 0], [0, -x]]}

    model = {
        "dimension": 2, "orbitals": 2, "rank": 1,
        "hoppings": [
            {"R": [0, 2], "re": [[0, 0], [1, 0]]},
            {"R": [0, -2], "re": [[0, 1], [0, 0]]},
            {"R": [0, 0], **sz(2.0)},
            {"R": [2, 0], **sz(0.5)}, {"R": [-2, 0], **sz(0.5)},
            {"R": [1, -1], **sz(0.45)}, {"R": [-1, 1], **sz(0.45)},
            {"R": [1, 1], **sz(-0.45)}, {"R": [-1, -1], **sz(-0.45)},
        ],
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    return path


def test_input_frame_rank_loss_payload_is_the_first_failing_step(rank_loss_2d, capsys):
    """The payload names the first step, in sweep order, whose projected
    frame falls below the rank floor, its worst destination point and that
    point's smallest singular value, as an ``n``-dimensional walk on
    directly sampled projectors finds them; the walk also fails a later
    step."""
    assert main(["verify-model", "--model", str(rank_loss_2d), "--grid-n", "2"]) == 0
    capsys.readouterr()
    code = main(["construct", "--model", str(rank_loss_2d), "--grid-n", "2"])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    payload = json.loads(captured.err)
    assert payload["error"] == "grid-too-coarse"

    family = load_model(str(rank_loss_2d))
    _, _, singular = _pointwise_input_frame(
        family, CellGeometry(2, 2), "effective-cell", independent=True)
    failing = sorted(step for step, sing in singular.items()
                     if min(sing.values()) < RANK_FLOOR)
    assert failing == [(1, 1, 1), (1, 1, 2)]  # axis 2, backward, steps 1 and 2
    point, value = min(singular[failing[0]].items(), key=lambda item: item[1])
    assert payload["details"]["point"] == list(point) == [1, -1]
    assert payload["details"]["singular_value"] == pytest.approx(value, abs=1e-13)


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
    # json reads an integer literal beyond the float range as an exact int
    "dimension-10**400": (lambda cfg: {**cfg, "dimension": 10**400},
                          ["is not a finite number"]),
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
    # Python's json reads NaN and Infinity, and NaN passes every tolerance
    "hopping-NaN": (lambda cfg: {**cfg, "hoppings": cfg["hoppings"][:2]
                                 + [{"R": [-1], "re": [[0, float("nan")], [0, 0]]}]},
                    ["hopping H_(-1,) has a non-finite entry"]),
    "hopping-Infinity": (lambda cfg: {**cfg, "hoppings": cfg["hoppings"][:2]
                                      + [{"R": [-1], "re": [[0, float("inf")], [0, 0]]}]},
                         ["hopping H_(-1,) has a non-finite entry"]),
    "theta-NaN": (lambda cfg: {**cfg, "theta": {"unitary": {"re": [[1, 0], [0, float("nan")]]}}},
                  ["theta unitary has a non-finite entry"]),
    "tau-Infinity": (lambda cfg: {**cfg, "tau": _tau([[float("inf"), 0], [0, 1]])},
                     ["tau generator 1 has a non-finite entry"]),
    "generators-5": (lambda cfg: {**cfg, "tau": {"generators": 5}}, ["tau generators=5"]),
    "generators-null": (lambda cfg: {**cfg, "tau": {"generators": None}},
                        ["tau generators=None"]),
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


def _store_as_phi_sm(out, field):
    """Forge a run: ``field`` replaces ``phi_sm.blf1`` and the manifest's
    sha256 is rewritten to match, so every reuse check passes."""
    save_frames(out / "phi_sm.blf1", field)
    manifest = read_json(out / "manifest.json")
    manifest["artifacts"]["phi_sm.blf1"] = file_sha256(out / "phi_sm.blf1")
    write_json(out / "manifest.json", manifest)


def _certificate_failed(code, capsys):
    """The failed row names of a ``certificate-failed`` exit, and its text."""
    captured = capsys.readouterr()
    assert code == 1
    payload = json.loads(captured.err)
    assert payload["error"] == "certificate-failed"
    return {row["name"]: row["value"] for row in payload["details"]["failed"]}, captured.out


def test_a_forged_transport_frame_fails_wannierize_and_report(tmp_path, capsys):
    """Negative control: haldane's full-torus transport frame is periodic
    and in the fibers but not time-reversal symmetric.  Stored as
    ``phi_sm.blf1`` under a rewritten sha256 it used to pass both
    commands, ``report`` printing the stored reflection residual 0.0."""
    assert _haldane("construct", tmp_path) == 0
    family = load_model("haldane")
    _store_as_phi_sm(tmp_path, input_frame(family, CellGeometry(2, 8), region="full-torus"))
    capsys.readouterr()
    failed, text = _certificate_failed(_haldane("wannierize", tmp_path), capsys)
    assert set(failed) == {"final residuals/reflection", "wannier/reality defect (imag)"}
    assert failed["final residuals/reflection"] == pytest.approx(1.59, abs=0.01)
    assert failed["wannier/reality defect (imag)"] == pytest.approx(0.263, abs=0.001)
    # the artifacts and the text are written before the exit
    assert (tmp_path / "wannier.wan1").exists()
    assert "reality defect (imag): 2.6" in text

    failed, text = _certificate_failed(_haldane("report", tmp_path), capsys)
    assert "  reflection: 1.588e+00 (FAIL, bound 1.000e-08)" in text.splitlines()
    assert {"total move", "final residuals/reflection"} <= set(failed)
    assert (tmp_path / "report.txt").read_text() == text


def test_a_frame_of_another_model_fails_wannierize_on_its_projector_row(tmp_path, capsys):
    """Negative control: the SSH chain's ``w = 1.6`` frame stored under a
    ``w = 0.4`` manifest spans the other band.  Only the projector residual
    of the re-certified frame can see that."""
    runs = {}
    for w in (0.4, 1.6):
        path = tmp_path / f"model{w}.json"
        path.write_text(json.dumps(_ssh_json(w)))
        runs[w] = ["--model", str(path), "--grid-n", "8", "--out", str(tmp_path / f"run{w}")]
        assert main(["construct", *runs[w]]) == 0
    _store_as_phi_sm(tmp_path / "run0.4", load_frames(tmp_path / "run1.6" / "phi_sm.blf1"))
    capsys.readouterr()
    failed, _ = _certificate_failed(main(["wannierize", *runs[0.4]]), capsys)
    assert failed == {"final residuals/projector": pytest.approx(1.0)}
    recertified = read_json(tmp_path / "run0.4" / "wannier_report.json")["final_residuals"]
    assert recertified["projector"] == pytest.approx(1.0)


@pytest.mark.parametrize("model, params, grid_n", [
    ("ssh", (), 8),
    ("haldane", (), 8),
    ("random-trs", ("d=3", "n=4", "m=2", "seed=0"), 8),
    ("shifted-haldane", (), 8),
])
def test_honest_runs_pass_every_certificate(model, params, grid_n, tmp_path, capsys):
    """construct, wannierize and report exit 0, each ending on a passing
    verdict; ``shifted-haldane`` is a JSON model with ``tau != 1``."""
    if model == "shifted-haldane":
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model_json(shifted_haldane())))
        model = str(path)
    argv = ["--model", model, "--grid-n", str(grid_n), "--out", str(tmp_path / "run")]
    for param in params:
        argv += ["--param", param]
    for command in ("construct", "wannierize", "report"):
        capsys.readouterr()
        assert main([command, *argv]) == 0, command
        lines = capsys.readouterr().out.splitlines()
        assert "verdict: pass" in lines
        assert not [line for line in lines if "FAIL" in line]


@pytest.mark.parametrize("command", ["wannierize", "report"])
def test_a_frame_of_another_grid_is_refused(command, tmp_path, capsys):
    """Negative control: haldane's grid_n 16 ``phi_sm`` under the rewritten
    sha256 of a grid_n 8 manifest.  It is an honest frame of the model, so
    its certificates would pass; the run's grid is checked before they are
    measured."""
    other = tmp_path / "fine"
    assert main(["construct", "--model", "haldane", "--grid-n", "16", "--out", str(other)]) == 0
    assert _haldane("construct", tmp_path / "run") == 0
    _store_as_phi_sm(tmp_path / "run", load_frames(other / "phi_sm.blf1"))
    capsys.readouterr()
    code = _haldane(command, tmp_path / "run")
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    payload = json.loads(captured.err)
    assert payload["error"] == "usage"
    assert "'full-torus', 2, 16, 2, 1)" in payload["message"]
    assert "rerun construct" in payload["message"]
    assert not (tmp_path / "run" / "wannier.wan1").exists()


def test_report_refuses_a_manifest_without_a_record_it_reprints(ssh_artifacts, tmp_path, capsys):
    out = tmp_path / "run"
    shutil.copytree(ssh_artifacts, out)
    manifest = read_json(out / "manifest.json")
    del manifest["transport_step_sup"]
    write_json(out / "manifest.json", manifest)
    capsys.readouterr()
    code = main(["report", "--model", "ssh", "--grid-n", "8", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    payload = json.loads(captured.err)
    assert payload["error"] == "usage"
    assert "transport_step_sup" in payload["message"]
    assert not (out / "report.txt").exists()


def test_report_refuses_a_psi_of_another_region(tmp_path, capsys):
    """The obstruction defects read ``psi`` on the effective cell; a
    full-torus frame in its place, under a rewritten sha256, is refused,
    not indexed as a cell."""
    assert _haldane("construct", tmp_path) == 0
    shutil.copy(tmp_path / "phi_sm.blf1", tmp_path / "psi.blf1")
    manifest = read_json(tmp_path / "manifest.json")
    manifest["artifacts"]["psi.blf1"] = file_sha256(tmp_path / "psi.blf1")
    write_json(tmp_path / "manifest.json", manifest)
    capsys.readouterr()
    code = _haldane("report", tmp_path)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    payload = json.loads(captured.err)
    assert payload["error"] == "usage"
    assert "psi.blf1" in payload["message"] and "'effective-cell'" in payload["message"]


@pytest.mark.parametrize("name, params", [
    ("psi.blf1", ("t2=0.15",)),
    ("phi.blf1", ("t2=0.15",)),
    ("phi_sm.blf1", ("t2=0.15",)),
    ("phi_sm.blf1", ("--epsilon", "0.02")),
])
def test_report_refuses_a_frame_file_of_another_run(name, params, tmp_path, capsys):
    """Negative control: another run's frame file copied over ours, its
    sha256 left as the manifest records it.  ``report`` used to measure
    the residuals and the Wannier rows on it, reprint our smoothing
    ladder beside them and pass."""
    ours, other = tmp_path / "ours", tmp_path / "other"
    for command in ("construct", "wannierize"):
        assert _haldane(command, ours) == 0
    if params[0] == "--epsilon":
        argv = ["construct", "--model", "haldane", "--grid-n", "8", "--out", str(other)]
        assert main([*argv, *params]) == 0
    else:
        assert _haldane("construct", other, *params) == 0
    recorded = read_json(ours / "manifest.json")["artifacts"][name]
    shutil.copyfile(other / name, ours / name)
    assert file_sha256(ours / name) != recorded
    capsys.readouterr()
    code = _haldane("report", ours)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert not (ours / "report.txt").exists()
    payload = json.loads(captured.err)
    assert payload["error"] == "usage"
    assert name in payload["message"] and "rerun construct" in payload["message"]
    assert payload["details"] == {"recorded": recorded, "found": file_sha256(ours / name)}


def _drop_artifacts(out):
    manifest = read_json(out / "manifest.json")
    del manifest["artifacts"]
    write_json(out / "manifest.json", manifest)


def _list_artifacts(out):
    manifest = read_json(out / "manifest.json")
    manifest["artifacts"] = sorted(manifest["artifacts"])
    write_json(out / "manifest.json", manifest)


@pytest.mark.parametrize("command, damage, details", [
    ("wannierize", _drop_artifacts, {"recorded": None}),
    ("report", _drop_artifacts, {"recorded": None}),
    ("wannierize", _list_artifacts, {"recorded": None}),
    ("report", _list_artifacts, {"recorded": None}),
    ("report", lambda out: (out / "phi.blf1").unlink(), {"found": None}),
])
def test_a_file_its_manifest_does_not_vouch_for_is_refused(command, damage, details,
                                                          ssh_artifacts, tmp_path, capsys):
    """Negative control: a manifest without an ``artifacts`` dict lists no
    sha256, so neither command reuses a stored frame under it; a listed
    frame file that is gone is refused the same way."""
    out = tmp_path / "run"
    shutil.copytree(ssh_artifacts, out)
    damage(out)
    wan1 = file_sha256(out / "wannier.wan1")
    capsys.readouterr()
    code = main([command, "--model", "ssh", "--grid-n", "8", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "Traceback" not in captured.err
    payload = json.loads(captured.err)
    assert payload["error"] == "usage"
    assert "rerun construct" in payload["message"]
    assert details.items() <= payload["details"].items()
    assert file_sha256(out / "wannier.wan1") == wan1
    assert not (out / "report.txt").exists()
