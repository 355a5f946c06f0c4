"""End-to-end pipeline driving model -> frame -> smoothing -> Wannier.

Each ``run_*`` function corresponds to one command-line subcommand and can
equally be used programmatically.  Artifacts are only written when the
configuration carries an output directory; everything is also returned in
memory.  All randomness flows from the single configured seed, so repeated
runs produce byte-identical artifacts.
"""

import hashlib
import json
import math
import os
import time
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from . import io as io_mod
from .cells import CellGeometry
from .errors import UsageError
from .frames import input_frame, unitary_between
from .models import builtin_model, load_model, require_assumptions, verify_assumptions
from .smoothing import reflection_defect, smooth_symmetric
from .vertex import construct_1d
from .face2d import construct_2d
from .cell3d import construct_3d
from .wannier import (
    localization_report,
    reality_check,
    wannier_transform,
)

__all__ = [
    "RunConfig",
    "load_family",
    "run_verify",
    "run_construct",
    "run_wannierize",
    "run_report",
    "final_residuals",
]

_BUILTIN_NAMES = {"haldane", "ssh", "random-trs"}


@dataclass
class RunConfig:
    """Everything a pipeline run depends on.

    ``gap_tol`` overrides the model's own ``gap_tolerance`` when set.
    """

    model: str
    params: dict = dataclass_field(default_factory=dict)
    grid_n: int = 16
    tol: float = 1e-8
    gap_tol: float = None
    epsilon: float = 0.1
    out: str = None
    seed: int = 0
    threads: int = 1

    def __post_init__(self):
        if self.grid_n < 2 or self.grid_n % 2:
            raise UsageError("grid_n must be even and at least 2")
        for name in ("tol", "gap_tol", "epsilon"):
            if name == "gap_tol" and self.gap_tol is None:
                continue
            if not 0 < getattr(self, name) < math.inf:
                raise UsageError(f"{name} must be positive and finite")
        if self.threads < 1:
            raise UsageError("threads must be at least 1")
        if self.seed < 0:
            raise UsageError("seed must be a nonnegative integer")


def load_family(config):
    """Model family named by the configuration (built-in or config file)."""
    if config.model in _BUILTIN_NAMES:
        params = dict(config.params)
        if config.model == "random-trs":
            params.setdefault("seed", config.seed)
        family = builtin_model(config.model, **params)
    else:
        if not os.path.exists(config.model):
            raise UsageError(
                f"model {config.model!r} is neither a built-in name "
                f"({sorted(_BUILTIN_NAMES)}) nor an existing config file"
            )
        family = load_model(config.model, params=config.params)
    if config.gap_tol is not None:
        family.gap_tolerance = config.gap_tol
    return family


def _model_sha256(family):
    """sha256 of a model's content: its shape, its hoppings in order of
    ``R``, then ``theta``, ``tau`` and ``gap_tolerance``.  It tells an
    edited JSON file from the one an artifact was built from."""
    digest = hashlib.sha256(repr((family.d, family.n, family.m)).encode())
    for r in sorted(family.hoppings):
        digest.update(repr(r).encode())
        digest.update(np.asarray(family.hoppings[r], dtype=complex).tobytes())
    for mat in [family.theta, *(family.tau or [None])]:
        digest.update(b"-" if mat is None else np.asarray(mat, dtype=complex).tobytes())
    digest.update(repr(float(family.gap_tolerance)).encode())
    return digest.hexdigest()


def _config_record(config, family):
    """The configuration as the manifest stores it."""
    return {
        "model": config.model,
        "model_sha256": _model_sha256(family),
        "params": config.params,
        "grid_n": config.grid_n,
        "tol": config.tol,
        "gap_tol": config.gap_tol,
        "epsilon": config.epsilon,
        "seed": config.seed,
    }


def _check_config(config, family, manifest):
    """Refuse a manifest that another configuration, or another content of
    the model, wrote."""
    current = json.loads(json.dumps(io_mod.jsonable(_config_record(config, family))))
    stored = manifest.get("config")
    if stored != current:
        raise UsageError(
            f"artifacts in {config.out!r} were built with another configuration; "
            "rerun the construct subcommand or choose another --out",
            stored=stored,
            current=current,
        )


def _check_reusable(config, family, manifest, phi_sm_path):
    """Refuse stored artifacts that another configuration wrote, or that
    changed since their manifest recorded them."""
    _check_config(config, family, manifest)
    recorded = manifest.get("artifacts", {}).get("phi_sm.blf1")
    if recorded != io_mod.file_sha256(phi_sm_path):
        raise UsageError(
            f"{phi_sm_path} does not match the sha256 its manifest records",
            recorded=recorded,
        )


def _check_wannier_report(config, manifest, report):
    """Refuse a Wannier report whose ``wannier.wan1`` changed since it was
    written, or that was built from another ``phi_sm.blf1`` than the one the
    manifest records."""
    recorded = report.get("artifacts", {})
    built_from = recorded.get("phi_sm.blf1")
    current = manifest.get("artifacts", {}).get("phi_sm.blf1")
    if built_from != current:
        raise UsageError(
            f"wannier_report.json in {config.out!r} was built from another "
            "phi_sm.blf1 than the manifest records; rerun wannierize",
            recorded=built_from,
            current=current,
        )
    wan1_path = os.path.join(config.out, "wannier.wan1")
    found = io_mod.file_sha256(wan1_path) if os.path.exists(wan1_path) else None
    if found != recorded.get("wannier.wan1"):
        raise UsageError(
            f"{wan1_path} does not match the sha256 its Wannier report "
            "records; rerun wannierize",
            recorded=recorded.get("wannier.wan1"),
            found=found,
        )


def _outpath(config, name):
    if config.out is None:
        return None
    os.makedirs(config.out, exist_ok=True)
    return os.path.join(config.out, name)


def run_verify(config):
    """Verify the structural assumptions; returns (family, report)."""
    family = load_family(config)
    report = verify_assumptions(family, grid_n=config.grid_n, tol=config.tol)
    if config.out is not None:
        io_mod.write_json(_outpath(config, "assumptions.json"), report.as_dict())
    return family, report


def _trim_obstruction_defects(psi_field, family, geometry):
    """Symmetry defect of the obstruction unitary at every high-symmetry point."""
    trims = geometry.trims()
    frames = psi_field.data[geometry.cell_index(np.array(trims))]
    antiunitaries = np.array(
        [family.antiunitary_matrix(geometry.trim_lambda(t)) for t in trims]
    )
    u = unitary_between(frames, antiunitaries @ np.conj(frames))
    return {str(t): float(np.linalg.norm(x - x.T)) for t, x in zip(trims, u)}


def final_residuals(field, family):
    """The certificate residuals of a full-torus frame field.

    The projector and orthonormality defects are pointwise, against the
    projectors of the family's torus sample; reflection compares every
    grid pair ``(k, -k)``.  Lattice periodicity needs no residual here: the
    stored field covers one fundamental domain and every other point is
    reached through ``tau``, and the manifest's ``extension_mismatch``
    certifies that every boundary identification of the constructed frame
    agrees.
    """
    projectors = family.grid_projectors(field.geometry.grid_n)
    frames = field.data
    moved = projectors @ frames - frames
    return {
        "projector": float(np.max(np.linalg.norm(moved, axis=(-2, -1)))),
        "orthonormality": field.orthonormality_defect(),
        "reflection": reflection_defect(field, family),
    }


def run_construct(config):
    """Full frame construction; returns a dict of fields and the manifest."""
    t0 = time.monotonic()
    family = load_family(config)
    report = require_assumptions(family, grid_n=config.grid_n, tol=config.tol)
    geometry = CellGeometry(family.d, config.grid_n)
    psi = input_frame(family, geometry)
    obstructions = _trim_obstruction_defects(psi, family, geometry)

    if family.d == 1:
        phi, diag = construct_1d(psi, family)
    elif family.d == 2:
        phi, diag = construct_2d(psi, family, tol=config.tol, seed=config.seed)
    else:
        phi, diag = construct_3d(psi, family, tol=config.tol, seed=config.seed)

    phi_sm, smooth_report = smooth_symmetric(phi, family, config.epsilon)
    residuals = final_residuals(phi_sm, family)
    elapsed = time.monotonic() - t0

    manifest = {
        "model": family.describe(),
        "config": _config_record(config, family),
        "assumptions": report.as_dict(),
        "obstruction_symmetry_defects": obstructions,
        "construction": io_mod.jsonable(diag),
        "transport_step_sup": psi.meta["transport_step_sup"],
        "extension_mismatch": phi.meta.get("extension_mismatch"),
        "smoothing": io_mod.jsonable(smooth_report),
        "final_residuals": residuals,
        "elapsed_seconds": elapsed,
    }

    if config.out is not None:
        fields = {"psi.blf1": psi, "phi.blf1": phi, "phi_sm.blf1": phi_sm}
        for name, fld in fields.items():
            io_mod.save_frames(_outpath(config, name), fld)
        manifest["artifacts"] = {
            name: io_mod.file_sha256(_outpath(config, name)) for name in fields
        }
        io_mod.write_json(_outpath(config, "manifest.json"), manifest)

    return {
        "family": family,
        "geometry": geometry,
        "psi": psi,
        "phi": phi,
        "phi_sm": phi_sm,
        "manifest": manifest,
    }


def run_wannierize(config):
    """Wannier transform plus certificates; reuses construct artifacts if present.

    With an output directory it writes ``wannier.wan1`` and
    ``wannier_report.json``; the report records the sha256 of the one and
    of the ``phi_sm.blf1`` it was built from, which ``run_report`` checks.
    """
    manifest_path = _outpath(config, "manifest.json")
    phi_sm_path = _outpath(config, "phi_sm.blf1")
    if (
        manifest_path is not None
        and os.path.exists(manifest_path)
        and os.path.exists(phi_sm_path)
    ):
        manifest = io_mod.read_json(manifest_path)
        family = load_family(config)
        _check_reusable(config, family, manifest, phi_sm_path)
        phi_sm = io_mod.load_frames(phi_sm_path)
        geometry = phi_sm.geometry
    else:
        built = run_construct(config)
        family = built["family"]
        phi_sm = built["phi_sm"]
        manifest = built["manifest"]
        geometry = built["geometry"]

    wset = wannier_transform(phi_sm)
    reality = reality_check(wset, family)

    control_field = input_frame(family, geometry, region="full-torus")
    control = reality_check(wannier_transform(control_field), family)

    cutoff = manifest.get("smoothing", {}).get("smoothing", {}).get("cutoff")
    fit_max = geometry.grid_n // 2
    if cutoff is not None:
        fit_max = min(fit_max, int(cutoff))
    localization = localization_report(wset, fit_max=fit_max)

    wannier_report = {
        "reality": reality,
        "control_reality": control,
        "localization": localization,
        "band_norms": wset.band_norms().tolist(),
        "fit_max": fit_max,
    }

    if config.out is not None:
        wan1_path = _outpath(config, "wannier.wan1")
        io_mod.save_wannier(wan1_path, wset)
        wannier_report["artifacts"] = {
            "wannier.wan1": io_mod.file_sha256(wan1_path),
            "phi_sm.blf1": manifest["artifacts"]["phi_sm.blf1"],
        }
        io_mod.write_json(_outpath(config, "wannier_report.json"), wannier_report)

    return {
        "family": family,
        "wannier": wset,
        "report": wannier_report,
        "manifest": manifest,
    }


def _fmt(x):
    if x is None:
        return "n/a"
    if isinstance(x, float):
        return f"{x:.3e}"
    return str(x)


def run_report(config):
    """Consolidated text certificate assembled from existing artifacts."""
    if config.out is None:
        raise UsageError("report needs --out pointing at an artifact directory")
    # a refused report must not leave an earlier certificate standing
    report_path = os.path.join(config.out, "report.txt")
    if os.path.exists(report_path):
        os.remove(report_path)
    manifest_path = os.path.join(config.out, "manifest.json")
    if not os.path.exists(manifest_path):
        raise UsageError(
            f"no manifest.json in {config.out!r}; run the construct "
            "subcommand first"
        )
    manifest = io_mod.read_json(manifest_path)
    _check_config(config, load_family(config), manifest)
    lines = []
    model = manifest.get("model", {})
    lines.append(f"model: {model.get('name')} (d={model.get('dimension')}, "
                 f"n={model.get('orbitals')}, m={model.get('rank')})")
    assumptions = manifest.get("assumptions", {})
    lines.append("assumptions:")
    for key in (
        "gap_floor",
        "periodicity_residual",
        "time_reversal_residual",
        "compatibility_residual",
        "lipschitz_bound",
    ):
        lines.append(f"  {key}: {_fmt(assumptions.get(key))}")
    lines.append(f"  passed: {assumptions.get('passed')}")
    lines.append("obstruction symmetry defects:")
    for trim, defect in sorted(manifest.get("obstruction_symmetry_defects", {}).items()):
        lines.append(f"  {trim}: {_fmt(defect)}")
    construction = manifest.get("construction", {})
    degrees = _collect_degrees(construction)
    if degrees:
        lines.append("boundary degrees (before correction):")
        for label, r in degrees:
            lines.append(f"  {label}: {r}")
    lines.append(f"extension mismatch: {_fmt(manifest.get('extension_mismatch'))}")
    smoothing = manifest.get("smoothing", {})
    sm = smoothing.get("smoothing", {})
    lines.append("smoothing:")
    lines.append(f"  cutoff: {sm.get('cutoff')}")
    lines.append(f"  cutoff fraction: {_fmt(sm.get('cutoff_fraction'))}")
    lines.append(f"  nyquist resolved: {_fmt(sm.get('nyquist_resolved'))}")
    lines.append(f"  sup distance: {_fmt(sm.get('sup_distance'))}")
    tried = sm.get("tried", [])
    on_subgrid = sum(1 for t in tried if t.get("subgrid"))
    lines.append(
        f"  rungs tried: {len(tried)} ({on_subgrid} rejected on the stride-2 subgrid)"
    )
    lines.append(
        f"  total move (with symmetrization): "
        f"{_fmt(smoothing.get('sup_distance_total'))} "
        f"(epsilon {_fmt(smoothing.get('epsilon'))})"
    )
    lines.append("final residuals:")
    for key, val in sorted(manifest.get("final_residuals", {}).items()):
        lines.append(f"  {key}: {_fmt(val)}")

    wannier_path = os.path.join(config.out, "wannier_report.json")
    if os.path.exists(wannier_path):
        wr = io_mod.read_json(wannier_path)
        _check_wannier_report(config, manifest, wr)
        reality = wr.get("reality", {})
        lines.append("wannier:")
        lines.append(
            f"  reality defect ({reality.get('mode')}): "
            f"{_fmt(reality.get('defect'))}"
        )
        control = wr.get("control_reality", {})
        lines.append(f"  raw-frame control defect: {_fmt(control.get('defect'))}")
        loc = wr.get("localization", {})
        lines.append(f"  decay rate: {_fmt(loc.get('decay_rate'))} "
                     f"(R^2 {_fmt(loc.get('r_squared'))})")
        lines.append(
            f"  decreasing shells: {loc.get('max_decreasing_run')}"
        )
        moments = loc.get("moments", {})
        for r in sorted(moments, key=int):
            vals = ", ".join(_fmt(v) for v in moments[r])
            lines.append(f"  moment r={r}: {vals}")
    text = "\n".join(lines)
    with open(report_path, "w") as fh:
        fh.write(text + "\n")
    return text


def _collect_degrees(diag, prefix=""):
    """Pull every recorded winding number out of a nested diagnostics dict."""
    found = []
    if isinstance(diag, dict):
        if "winding" in diag:
            found.append((prefix or "cell", diag["winding"]))
        for key, val in diag.items():
            if isinstance(val, dict):
                label = f"{prefix}.{key}" if prefix else key
                found.extend(_collect_degrees(val, label))
    return found
