"""Exception hierarchy.

Every fatal condition raised by the library carries a stable machine-readable
``code`` (used by the command line tools) plus keyword details describing
where the failure happened.
"""


class BlochFrameError(Exception):
    """Base class for all errors raised by blochframe."""

    code = "error"

    def __init__(self, message, **details):
        super().__init__(message)
        self.details = details

    def __str__(self):
        base = super().__str__()
        if self.details:
            extra = ", ".join(f"{k}={v!r}" for k, v in sorted(self.details.items()))
            return f"{base} [{extra}]"
        return base


class ModelConfigError(BlochFrameError):
    """Model description violates one or more structural invariants."""

    code = "model-config"


class GapClosed(BlochFrameError):
    """Spectral gap below tolerance at some quasimomentum."""

    code = "gap-closed"


class AssumptionsFailed(BlochFrameError):
    """Periodicity / time-reversal residuals exceed tolerance; pipeline refuses."""

    code = "assumptions-failed"


class SpanMismatch(BlochFrameError):
    """Two frames do not span the same subspace within tolerance."""

    code = "span-mismatch"


class ObstructionAsymmetric(BlochFrameError):
    """Obstruction unitary at a high-symmetry point is not symmetric.

    Signals a model whose time-reversal / periodicity structure is broken.
    """

    code = "obstruction-asymmetric"


class GridTooCoarse(BlochFrameError):
    """Phase increment between adjacent samples too large to track winding."""

    code = "grid-too-coarse"


class NonzeroDegree(BlochFrameError):
    """Boundary map has nonzero winding degree and cannot be extended."""

    code = "nonzero-degree"


class NoStereographicPoint(BlochFrameError):
    """No admissible projection point found for the sphere-valued extension."""

    code = "no-stereographic-point"


class TooFarApart(BlochFrameError):
    """Frames outside the geodesic ball where the midpoint is well defined."""

    code = "too-far-apart"


class EpsilonInfeasible(BlochFrameError):
    """Requested smoothing distance cannot be met on this grid."""

    code = "epsilon-infeasible"


class ProjectionRankLoss(BlochFrameError):
    """Smoothed frame lost rank after reprojection onto the spectral subspace."""

    code = "projection-rank-loss"


class BoundaryRelationViolated(BlochFrameError):
    """Frame values at identified boundary points disagree."""

    code = "boundary-relation-violated"


class CertificateFailed(BlochFrameError):
    """A certificate of a finished computation misses its bound; the
    artifacts and the text are written before this is raised."""

    code = "certificate-failed"


class UsageError(BlochFrameError):
    """Command line misuse (missing inputs, bad flags, empty directories)."""

    code = "usage"
