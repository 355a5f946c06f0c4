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
from .errors import ProjectionRankLoss, UsageError
from .frames import columns_frame, input_frame
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
    The library never reads ``threads``: numpy fixes its thread pools when
    it loads, so only the command line applies ``--threads``, before then.
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


def _stored_run(config):
    """The family and the manifest of the run in ``config.out``, refused
    unless the manifest exists and the current configuration, the model's
    content included, wrote it."""
    path = os.path.join(config.out, "manifest.json")
    if not os.path.exists(path):
        raise UsageError(f"no manifest.json in {config.out!r}; run the construct "
                         "subcommand first")
    manifest = io_mod.read_json(path)
    family = load_family(config)
    current = json.loads(json.dumps(io_mod.jsonable(_config_record(config, family))))
    stored = manifest.get("config")
    if stored != current:
        raise UsageError(f"artifacts in {config.out!r} were built with another configuration; "
                         "rerun the construct subcommand or choose another --out",
                         stored=stored, current=current)
    return family, manifest


# what to rerun when a file disagrees with the JSON record that lists it
_REMEDIES = {"manifest.json": "rerun construct", "wannier_report.json": "rerun wannierize"}


def _stored(config, family, name, records, region="full-torus"):
    """The file ``name`` of ``config.out``, refused unless each JSON record
    in ``records`` (by file name) lists its sha256 under ``artifacts``.  A
    ``.blf1`` file is returned as a frame field, refused unless it has the
    region, grid and fiber dimensions of this run; any other is only hashed."""
    path = os.path.join(config.out, name)
    found = io_mod.file_sha256(path) if os.path.exists(path) else None
    for record_name, record in records.items():
        artifacts = record.get("artifacts")
        recorded = artifacts.get(name) if isinstance(artifacts, dict) else None
        if found is None or found != recorded:
            state = ("is missing" if found is None
                     else f"does not match the sha256 {record_name} records")
            raise UsageError(f"{path} {state}; {_REMEDIES[record_name]}",
                             recorded=recorded, found=found)
    if not name.endswith(".blf1"):
        return None
    field = io_mod.load_frames(path)
    layout = (field.region, field.geometry.d, field.geometry.grid_n, field.n, field.m)
    expected = (region, family.d, config.grid_n, family.n, family.m)
    if layout != expected:
        raise UsageError(f"{path} holds a frame of (region, d, grid_n, n, m) = {layout}, "
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
    """Full frame construction; returns a dict of fields and the manifest.

    The input frame is :func:`~blochframe.frames.columns_frame`, or, when
    its selected columns fall below the rank floor at some cell point,
    the transport of :func:`~blochframe.frames.input_frame`.  The manifest
    records the choice as ``input_frame``: its ``path`` (``"columns"`` or
    ``"transport"``), the selected ``columns`` and their
    ``smallest_singular_value`` over the cell, which is below the floor
    exactly on the transport path.  ``transport_step_sup`` is the input
    frame's largest step between grid neighbours on either path.
    """
    t0 = time.monotonic()
    family = load_family(config)
    report = require_assumptions(family, grid_n=config.grid_n, tol=config.tol)
    geometry = CellGeometry(family.d, config.grid_n)
    try:
        psi = columns_frame(family, geometry)
        record = {"path": "columns", "columns": psi.meta["columns"],
                  "smallest_singular_value": psi.meta["smallest_singular_value"]}
    except ProjectionRankLoss as exc:
        psi = input_frame(family, geometry)
        record = {"path": "transport", "columns": exc.details["columns"],
                  "smallest_singular_value": exc.details["singular_value"]}
    obstructions = _trim_obstruction_defects(psi, family)

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
        "input_frame": record,
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

    A stored ``phi_sm.blf1`` is reused only under a manifest of the current
    configuration that lists its sha256.  The report's ``final_residuals``
    are those of a reused ``phi_sm.blf1`` measured again on the current
    family, or the fresh construct's.  With
    an output directory it writes ``wannier.wan1`` and
    ``wannier_report.json``; the report records the sha256 of the one and
    of the ``phi_sm.blf1`` it was built from, which ``run_report`` checks.
    A failed certificate raises nothing here; see :func:`~blochframe.certify.verdict`.
    """
    if config.out is not None and all(os.path.exists(os.path.join(config.out, name))
                                      for name in ("manifest.json", "phi_sm.blf1")):
        family, manifest = _stored_run(config)
        phi_sm = _stored(config, family, "phi_sm.blf1", {"manifest.json": manifest})
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
    once ``wannierize`` has run.  The input frame's path, the extension
    mismatch, the transport step and the smoothing ladder are reprinted
    from the manifest, as a first ``stored`` row says.  Every file read must match the sha256 the
    manifest (or the Wannier report) lists, so those rows belong to the
    frames that are measured.
    """
    if config.out is None:
        raise UsageError("report needs --out pointing at an artifact directory")
    # a refused report must not leave an earlier certificate standing
    report_path = os.path.join(config.out, "report.txt")
    if os.path.exists(report_path):
        os.remove(report_path)
    family, manifest = _stored_run(config)
    by_manifest = {"manifest.json": manifest}
    wannier_path = os.path.join(config.out, "wannier_report.json")
    by_wannier = ({"wannier_report.json": io_mod.read_json(wannier_path)}
                  if os.path.exists(wannier_path) else {})
    psi = _stored(config, family, "psi.blf1", by_manifest, region="effective-cell")
    phi = _stored(config, family, "phi.blf1", by_manifest)
    phi_sm = _stored(config, family, "phi_sm.blf1", dict(by_manifest, **by_wannier))
    if by_wannier:
        _stored(config, family, "wannier.wan1", by_wannier)
    residuals = final_residuals(phi_sm, family)
    wannier = _wannier_record(phi_sm, family, residuals)[1] if by_wannier else None
    record = dict(
        manifest,
        model=family.describe(),
        assumptions=verify_assumptions(family, grid_n=config.grid_n, tol=config.tol).as_dict(),
        obstruction_symmetry_defects=_trim_obstruction_defects(psi, family),
        final_residuals=residuals,
    )
    table = [("stored", "input frame, extension mismatch, transport step and smoothing "
                        "ladder are reprinted from manifest.json", None, None)]
    try:
        record["smoothing"] = dict(manifest["smoothing"],
                                   sup_distance_total=sup_distance(phi_sm.data, phi.data))
        table += rows(record, wannier, config)
    except KeyError as exc:
        raise UsageError(f"manifest.json in {config.out!r} has no {exc} record; "
                         "rerun construct") from None
    with open(report_path, "w") as fh:
        fh.write(format_rows(table) + "\n")
    return table


def run_report(config):
    """The text of :func:`report_rows`, as written to ``report.txt``."""
    return format_rows(report_rows(config))
