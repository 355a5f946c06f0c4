"""Symmetric Bloch frames and real localized Wannier functions.

Given a gapped, time-reversal symmetric family of spectral projectors on a
d-dimensional torus of quasimomenta (d up to 3), this package constructs a
global frame of the occupied fibers that is continuous, periodic up to the
lattice action and invariant under time reversal, smooths it without losing
either symmetry, and certifies the payoff: the Wannier functions obtained
by inverse Fourier transform are real and well localized.

Typical use::

    from blochframe import RunConfig, run_construct, run_wannierize

    cfg = RunConfig(model="haldane", params={"phi": 0.0}, grid_n=32, out="run")
    run_construct(cfg)
    run_wannierize(cfg)

or from the command line through the ``blochframe`` entry point.
"""

from .cells import CellGeometry
from .errors import (
    AssumptionsFailed,
    BlochFrameError,
    BoundaryRelationViolated,
    EpsilonInfeasible,
    GapClosed,
    GridTooCoarse,
    ModelConfigError,
    NonzeroDegree,
    NoStereographicPoint,
    ObstructionAsymmetric,
    ProjectionRankLoss,
    SpanMismatch,
    TooFarApart,
    UsageError,
)
from .models import (
    AssumptionReport,
    ProjectorFamily,
    builtin_model,
    load_model,
    verify_assumptions,
)
from .frames import FrameField, input_frame
from .vertex import construct_1d
from .face2d import construct_2d
from .cell3d import construct_3d
from .smoothing import smooth_symmetric
from .wannier import (
    WannierSet,
    localization_report,
    reality_check,
    wannier_transform,
)
from .io import load_frames, load_wannier, save_frames, save_wannier
from .pipeline import (
    RunConfig,
    run_construct,
    run_report,
    run_verify,
    run_wannierize,
)

__version__ = "0.1.0"

__all__ = [
    "AssumptionReport",
    "AssumptionsFailed",
    "BlochFrameError",
    "BoundaryRelationViolated",
    "CellGeometry",
    "EpsilonInfeasible",
    "FrameField",
    "GapClosed",
    "GridTooCoarse",
    "ModelConfigError",
    "NonzeroDegree",
    "NoStereographicPoint",
    "ObstructionAsymmetric",
    "ProjectionRankLoss",
    "ProjectorFamily",
    "RunConfig",
    "SpanMismatch",
    "TooFarApart",
    "UsageError",
    "WannierSet",
    "builtin_model",
    "construct_1d",
    "construct_2d",
    "construct_3d",
    "input_frame",
    "load_frames",
    "load_model",
    "load_wannier",
    "localization_report",
    "reality_check",
    "run_construct",
    "run_report",
    "run_verify",
    "run_wannierize",
    "save_frames",
    "save_wannier",
    "smooth_symmetric",
    "verify_assumptions",
    "wannier_transform",
    "__version__",
]
