"""End-to-end pipeline driving model -> frame -> smoothing -> Wannier.

Each ``run_*`` function corresponds to one command-line subcommand and can
equally be used programmatically.  Artifacts are only written when the
configuration carries an output directory; everything is also returned in
memory.  All randomness flows from the single configured seed, so repeated
runs produce byte-identical artifacts.
"""

import json
import numbers
import os
import time
from dataclasses import dataclass, field as dataclass_field

from . import io as io_mod
from .cells import CellGeometry
from .certify import (
    _trim_obstruction_defects,
    final_residuals,
    format_rows,
    localization_report,
    reality_check,
    rows,
    sup_distance,
)
from .errors import UsageError
from .frames import input_frame
from .models import (
    BUILTINS,
    _is_finite_real,
    load_model,
    require_assumptions,
    verify_assumptions,
)
from .smoothing import smooth_symmetric
from .vertex import construct_1d
from .face2d import construct_2d
from .cell3d import construct_3d
from .wannier import wannier_transform

__all__ = [
    "RunConfig",
    "load_family",
    "run_verify",
    "run_construct",
    "run_wannierize",
    "run_report",
    "report_rows",
]

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
        for name in ("grid_n", "seed", "threads"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise UsageError(f"{name} must be a whole number, got {value!r}")
        for name in ("tol", "gap_tol", "epsilon"):
            value = getattr(self, name)
            if name == "gap_tol" and value is None:
                continue
            if not (_is_finite_real(value) and value > 0):
                raise UsageError(f"{name} must be positive and finite, got {value!r}")
        if not isinstance(self.model, str):
            raise UsageError(f"model must be a built-in name or a file path, got {self.model!r}")
        if not isinstance(self.params, dict):
            raise UsageError(f"params must be a dict, got {self.params!r}")
        if not (self.out is None or isinstance(self.out, (str, os.PathLike))):
            raise UsageError(f"out must be a path, got {self.out!r}")
        if self.grid_n < 2 or self.grid_n % 2:
            raise UsageError("grid_n must be even and at least 2")
        if self.threads < 1:
            raise UsageError("threads must be at least 1")
        if self.seed < 0:
            raise UsageError("seed must be a nonnegative integer")


def load_family(config):
    """Model family named by the configuration, resolved by
    :func:`~blochframe.models.load_model`.  A built-in model that takes a
    ``seed`` gets ``config.seed`` unless a parameter gives one, ``gap_tol``
    overrides the model's gap tolerance, and a name neither built in nor a
    file is a :class:`UsageError` listing the built-in names."""
    params = dict(config.params)
    if config.model in BUILTINS:
        if "seed" in BUILTINS[config.model][1]:
            params.setdefault("seed", config.seed)
    elif not os.path.exists(config.model):
        raise UsageError(
            f"model {config.model!r} is neither a built-in name "
            f"({sorted(BUILTINS)}) nor an existing config file"
        )
    family = load_model(config.model, params=params)
    if config.gap_tol is not None:
        family.gap_tolerance = config.gap_tol
    return family


def _config_record(config, family):
    """The configuration as the manifest stores it."""
    return {
        "model": config.model,
        "model_sha256": family.content_sha256(),
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


def _load_field(config, family, name, region="full-torus"):
    """The frame field ``name`` of the artifact directory, refused unless it
    has the region, the grid and the fiber dimensions of the current run."""
    path = os.path.join(config.out, name)
    if not os.path.exists(path):
        raise UsageError(f"no {name} in {config.out!r}; rerun construct")
    field = io_mod.load_frames(path)
    found = (field.region, field.geometry.d, field.geometry.grid_n, field.n, field.m)
    expected = (region, family.d, config.grid_n, family.n, family.m)
    if found != expected:
        raise UsageError(f"{path} holds a frame of (region, d, grid_n, n, m) = {found}, "
                         f"this run needs {expected}; rerun construct")
    return field


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

    The report's ``final_residuals`` are those of a reused ``phi_sm.blf1``
    measured again on the current family, or the fresh construct's.  With
    an output directory it writes ``wannier.wan1`` and
    ``wannier_report.json``; the report records the sha256 of the one and
    of the ``phi_sm.blf1`` it was built from, which ``run_report`` checks.
    A failed certificate raises nothing here; see :func:`~blochframe.certify.verdict`.
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
        phi_sm = _load_field(config, family, "phi_sm.blf1")
        # the hash proves only that the manifest names this file
        residuals = final_residuals(phi_sm, family)
    else:
        built = run_construct(config)
        family = built["family"]
        phi_sm = built["phi_sm"]
        manifest = built["manifest"]
        residuals = manifest["final_residuals"]

    wset, wannier_report = _wannier_record(phi_sm, family, residuals)

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


def _wannier_record(phi_sm, family, residuals):
    """Wannier amplitudes of ``phi_sm`` and the report on them: reality,
    the reality of the raw full-torus transport frame as a control,
    localization, band norms, and ``residuals``, the final residuals of
    ``phi_sm`` itself."""
    wset = wannier_transform(phi_sm)
    control_field = input_frame(family, phi_sm.geometry, region="full-torus")
    return wset, {
        "reality": reality_check(wset, family),
        "control_reality": reality_check(wannier_transform(control_field), family),
        "localization": localization_report(wset),
        "band_norms": wset.band_norms().tolist(),
        "final_residuals": residuals,
    }


def report_rows(config):
    """Certificate rows of a finished run, also written to ``report.txt``.

    Every row a torus field gives back is measured again on the stored
    ``psi``, ``phi`` and ``phi_sm`` and the reloaded model, with the
    functions ``construct`` and ``wannierize`` use; the Wannier rows only
    once ``wannierize`` has run.  The extension mismatch, the transport
    step and the smoothing ladder are reprinted from the manifest, as a
    first ``stored`` row says.
    """
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
    family = load_family(config)
    _check_config(config, family, manifest)
    psi = _load_field(config, family, "psi.blf1", region="effective-cell")
    phi = _load_field(config, family, "phi.blf1")
    phi_sm = _load_field(config, family, "phi_sm.blf1")
    residuals = final_residuals(phi_sm, family)
    wannier = None
    wannier_path = os.path.join(config.out, "wannier_report.json")
    if os.path.exists(wannier_path):
        _check_wannier_report(config, manifest, io_mod.read_json(wannier_path))
        _, wannier = _wannier_record(phi_sm, family, residuals)
    record = dict(
        manifest,
        model=family.describe(),
        assumptions=verify_assumptions(family, grid_n=config.grid_n, tol=config.tol).as_dict(),
        obstruction_symmetry_defects=_trim_obstruction_defects(psi, family, psi.geometry),
        final_residuals=residuals,
    )
    table = [("stored", "extension mismatch, transport step and smoothing ladder "
                        "are reprinted from manifest.json", None, None)]
    try:
        record["smoothing"] = dict(manifest["smoothing"],
                                   sup_distance_total=sup_distance(phi_sm.data, phi.data))
        table += rows(record, wannier, config)
    except KeyError as exc:
        raise UsageError(f"{manifest_path} has no {exc} record; rerun construct") from None
    with open(report_path, "w") as fh:
        fh.write(format_rows(table) + "\n")
    return table


def run_report(config):
    """The text of :func:`report_rows`, as written to ``report.txt``."""
    return format_rows(report_rows(config))
