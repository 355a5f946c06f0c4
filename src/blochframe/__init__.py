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

from .cells import CellGeometry, ReducedPoint
from .errors import (
    AssumptionsFailed,
    BlochFrameError,
    BoundaryRelationViolated,
    ChartSeamMismatch,
    EigenphaseNearPi,
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
    require_assumptions,
    verify_assumptions,
)
from .frames import (
    FrameField,
    act,
    evaluate,
    frame_distance,
    input_frame,
    unitary_between,
)
from .vertex import (
    VertexSolution,
    construct_1d,
    interpolate_unitaries,
    obstruction_unitary,
    symmetric_sqrt,
    vertex_solution,
)
from .extension import (
    LoopDomain,
    extend_unitary_cone,
    phase_lift_cyclic,
    select_stereographic_point,
)
from .face2d import construct_2d, winding_degree
from .cell3d import DiskDomain, construct_3d
from .smoothing import (
    frame_midpoint,
    midpoint_unitary,
    periodic_smooth,
    reflection_defect,
    smooth_symmetric,
    symmetrize,
    twist_gauge,
    unitary_log,
)
from .wannier import (
    WannierSet,
    extend_symmetric,
    frames_from_wannier,
    localization_report,
    reality_check,
    wannier_transform,
)
from .io import load_frames, load_wannier, save_frames, save_wannier
from .pipeline import (
    RunConfig,
    final_residuals,
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
    "ChartSeamMismatch",
    "DiskDomain",
    "EigenphaseNearPi",
    "EpsilonInfeasible",
    "FrameField",
    "GapClosed",
    "GridTooCoarse",
    "LoopDomain",
    "ModelConfigError",
    "NonzeroDegree",
    "NoStereographicPoint",
    "ObstructionAsymmetric",
    "ProjectionRankLoss",
    "ProjectorFamily",
    "ReducedPoint",
    "RunConfig",
    "SpanMismatch",
    "TooFarApart",
    "UsageError",
    "VertexSolution",
    "WannierSet",
    "act",
    "builtin_model",
    "construct_1d",
    "construct_2d",
    "construct_3d",
    "evaluate",
    "extend_symmetric",
    "extend_unitary_cone",
    "final_residuals",
    "frame_distance",
    "frame_midpoint",
    "frames_from_wannier",
    "input_frame",
    "interpolate_unitaries",
    "load_frames",
    "load_model",
    "load_wannier",
    "localization_report",
    "midpoint_unitary",
    "obstruction_unitary",
    "periodic_smooth",
    "phase_lift_cyclic",
    "reality_check",
    "reflection_defect",
    "require_assumptions",
    "run_construct",
    "run_report",
    "run_verify",
    "run_wannierize",
    "save_frames",
    "save_wannier",
    "select_stereographic_point",
    "smooth_symmetric",
    "symmetric_sqrt",
    "symmetrize",
    "twist_gauge",
    "unitary_between",
    "unitary_log",
    "verify_assumptions",
    "vertex_solution",
    "wannier_transform",
    "winding_degree",
    "__version__",
]
