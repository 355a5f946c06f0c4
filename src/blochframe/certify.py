"""Every certificate of a run, its bound, and the verdict.

The smoothed frame ``phi_sm`` spans the occupied projector with
orthonormal columns and obeys ``Phi(-k) = theta Phi(k)``
(:func:`final_residuals`), stays within ``epsilon`` of the constructed
frame (:func:`sup_distance`), and its Wannier functions are real
(:func:`reality_check`) and localized (:func:`localization_report`).
:func:`rows` turns the records of a run into ``(name, value, bound,
passed)`` rows, :func:`verdict` lists the failed ones and
:func:`format_rows` prints them: ``construct``, ``wannierize`` and
``report`` (on recomputed records) all print through these.
"""

from functools import reduce

import numpy as np

from .frames import FrameField, _overlap, _times, frobenius, unitary_between
from .wannier import EXTENSION_BOUND, frames_from_wannier, wannier_transform

__all__ = [
    "EXTENSION_BOUND",
    "BAND_NORM_BOUND",
    "sup_distance",
    "reflection_defect",
    "final_residuals",
    "reality_check",
    "localization_report",
    "rows",
    "verdict",
    "format_rows",
]

# The largest distance of a band norm from 1 that passes; the FFT keeps
# band norms at 1 to a few ulps per grid point.  The extension mismatch
# passes up to ``wannier.EXTENSION_BOUND``, the default tolerance of
# ``extend_symmetric``.
BAND_NORM_BOUND = 1e-10

# First radius and amplitude floor of localization_report's shell fit.
FIT_MIN = 2
SHELL_FLOOR = 1e-13


def sup_distance(a, b):
    """Sup over the grid of the frame distance between two stacks of frames."""
    return float(np.max(frobenius(a - b)))


def reflection_defect(field, family):
    """Largest violation of ``Phi(-k) = theta Phi(k)`` over the torus grid."""
    image = family.reflect(field.data, range(field.geometry.n_side))
    return float(np.max(frobenius(field.data - image)))


def _trim_obstruction_defects(psi_field, family):
    """Symmetry defect of the obstruction unitary at every high-symmetry point."""
    geometry = psi_field.geometry
    trims = geometry.trims()
    frames = psi_field.data[geometry.cell_index(np.array(trims))]
    images = np.array([family.act(geometry.trim_lambda(t), f, anti=True)
                       for t, f in zip(trims, frames)])
    u = unitary_between(frames, images)
    return {str(t): float(np.linalg.norm(x - x.T)) for t, x in zip(trims, u)}


def final_residuals(field, family):
    """The certificate residuals of a full-torus frame field.

    The projector and orthonormality defects are pointwise; the projector
    defect is ``|v (v^H F) - F|`` on the eigenframes ``v`` of the family's
    torus sample.  Reflection compares every
    grid pair ``(k, -k)``.  Lattice periodicity needs no residual here: the
    stored field covers one fundamental domain and every other point is
    reached through ``tau``, and the manifest's ``extension_mismatch``
    certifies that every boundary identification of the constructed frame
    agrees.
    """
    geometry = field.geometry
    v = family.grid_frames(geometry.grid_n, geometry.torus_points())
    frames = field.data
    moved = _times(v, _overlap(v, frames)) - frames
    return {
        "projector": float(np.max(frobenius(moved))),
        "orthonormality": field.orthonormality_defect(),
        "reflection": reflection_defect(field, family),
    }


def reality_check(wset, family):
    """Reality certificate of the Wannier amplitudes.

    With plain-conjugation time reversal the amplitudes of a symmetric
    frame are real and the defect is ``max |Im w|``.  A model with a
    nontrivial conjugation unitary ``C`` cannot have literally real
    functions; the invariant condition is ``w = C conj(w)`` and the defect
    measures that instead (``mode`` reports which certificate applies).
    Families with a nontrivial translation representation are first moved
    to the adapted gauge, in which unit shifts act trivially, by ``D(k)^-1``
    of :meth:`~blochframe.models.ProjectorFamily.twist`; the stored
    gauge mixes the two members of each reflection pair across the grid
    seam and neither certificate can close there (``untwisted`` records
    whether this happened).
    """
    data = wset.data
    untwisted = False
    if family.tau is not None:
        stored = frames_from_wannier(wset).data
        periodic = family.twist(wset.geometry.torus_k(), stored, inverse=True)
        data = wannier_transform(FrameField(wset.geometry, "full-torus", periodic)).data
        untwisted = True
    if family.theta is None:
        return {
            "mode": "imag",
            "untwisted": untwisted,
            "defect": float(np.max(np.abs(data.imag))),
        }
    image = family.act((0,) * family.d, data, anti=True)
    return {
        "mode": "theta",
        "untwisted": untwisted,
        "defect": float(np.max(np.abs(data - image))),
    }


def _radius_grid(wset):
    """Sup-norm lattice radius of every site in the window."""
    return reduce(np.maximum, np.ix_(*[np.abs(wset.gamma_axis())] * wset.geometry.d))


def localization_report(wset, moment_window=None):
    """Localization certificate: moments, shell decay and an exponential fit.

    Moments are ``M_r = sum <gamma>^{2r} |w|^2`` per band for ``r`` up to 4
    with the weight ``<gamma> = (1 + |gamma|^2)^{1/2}``; shells collect the
    sup amplitude at each sup-norm radius.  ``moment_window`` truncates the
    moment sums to sup-norm radius at most that value, which makes reports
    from different grid sizes comparable (the outermost shells of a coarse
    grid carry its wrap-around error).  The decay rate is a least squares
    fit of ``log`` shell sups over radii ``FIT_MIN..grid_n // 2``, half the
    window whatever the frame, ignoring shells below ``SHELL_FLOOR``; its
    quality is reported as ``r_squared``.  ``max_decreasing_run`` counts the
    longest chain of consecutive strictly decreasing shells.
    """
    d = wset.geometry.d
    grid_n = wset.geometry.grid_n
    weights2 = np.abs(wset.data) ** 2
    radius = _radius_grid(wset)

    dist2 = reduce(np.add, np.ix_(*[wset.gamma_axis().astype(float) ** 2] * d))
    site_axes = tuple(range(d))
    keep_site = 1.0 if moment_window is None else (
        radius <= int(moment_window)
    ).astype(float)
    moments = {}
    for r in range(5):
        w = (1.0 + dist2) ** r * keep_site
        moments[r] = np.sum(
            w.reshape(w.shape + (1, 1)) * weights2, axis=site_axes + (d,)
        ).tolist()
    amplitude = np.max(
        np.abs(wset.data).reshape(wset.data.shape[: d] + (-1,)), axis=-1
    )
    # amplitudes are at least 0, the empty shells' value; a NaN wins its
    # shell, which the scatter reports as an invalid comparison
    shells = np.zeros(grid_n + 1)
    with np.errstate(invalid="ignore"):
        np.maximum.at(shells, radius.ravel(), amplitude.ravel())

    run = 1
    best_run = 1
    for rho in range(1, len(shells)):
        if shells[rho] < shells[rho - 1] and shells[rho - 1] > SHELL_FLOOR:
            run += 1
        else:
            run = 1
        best_run = max(best_run, run)

    lo = FIT_MIN
    hi = grid_n // 2
    radii = np.arange(lo, hi + 1)
    vals = shells[lo : hi + 1]
    keep = vals > SHELL_FLOOR
    rate = None
    r_squared = None
    if np.count_nonzero(keep) >= 3:
        x = radii[keep]
        y = np.log(vals[keep])
        slope, intercept = np.polyfit(x, y, 1)
        pred = slope * x + intercept
        ss_res = float(np.sum((y - pred) ** 2))
        ss_tot = float(np.sum((y - np.mean(y)) ** 2))
        rate = float(-slope)
        r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot

    interior = radius < grid_n
    tail = 1.0 - float(
        np.sum(weights2[interior]) / max(np.sum(weights2), 1e-300)
    )
    return {
        "moments": moments,
        "moment_window": None if moment_window is None else int(moment_window),
        "shell_radii": np.arange(grid_n + 1).tolist(),
        "shell_sup": shells.tolist(),
        "max_decreasing_run": int(best_run),
        "fit_range": [int(lo), int(hi)],
        "decay_rate": rate,
        "r_squared": r_squared,
        "window_tail_fraction": tail,
    }


def _at_most(name, value, bound):
    return (name, value, bound, bool(value <= bound))


def _residual_rows(residuals, config):
    return [_at_most(f"final residuals/{key}", value, config.tol)
            for key, value in sorted(residuals.items())]


def rows(manifest, wannier_report, config):
    """Certificate rows ``(name, value, bound, passed)`` of a construct
    manifest, a Wannier report, or both (either may be ``None``).

    A name ``section/label`` prints under ``section``.  The gated rows are
    the final residuals (at most ``tol``), ``extension_mismatch`` (at most
    :data:`EXTENSION_BOUND`), the total smoothing move (below ``epsilon``),
    the assumption report's ``passed``, the reality defect (at most
    ``tol``) and each band norm's distance from 1 (at most
    :data:`BAND_NORM_BOUND`); every other row has ``bound`` and ``passed``
    ``None``.  The Wannier report's own ``final_residuals``, those of the
    frame it transformed, print only without a manifest: beside one they
    are the same certificate of the same frame.
    """
    out = []
    if manifest is not None:
        model = manifest["model"]
        out.append(("model", f"{model['name']} (d={model['dimension']}, "
                             f"n={model['orbitals']}, m={model['rank']})", None, None))
        assumptions = manifest["assumptions"]
        out += [(f"assumptions/{key}", assumptions[key], None, None) for key in (
            "gap_floor", "periodicity_residual", "time_reversal_residual",
            "compatibility_residual", "lipschitz_bound")]
        out.append(("assumptions/passed", assumptions["passed"], None,
                    bool(assumptions["passed"])))
        out += [(f"obstruction symmetry defects/{trim}", defect, None, None)
                for trim, defect in sorted(manifest["obstruction_symmetry_defects"].items())]
        out.append(_at_most("construction/extension mismatch",
                            manifest["extension_mismatch"], EXTENSION_BOUND))
        source = manifest["input_frame"]
        out.append(("construction/input frame",
                    f"{source['path']} (columns {source['columns']})", None, None))
        out.append(("construction/columns smallest singular value",
                    source["smallest_singular_value"], None, None))
        out.append(("construction/transport step", manifest["transport_step_sup"], None, None))
        smoothing = manifest["smoothing"]
        ladder = smoothing["smoothing"]
        on_subgrid = sum(1 for t in ladder["tried"] if t.get("subgrid"))
        out += [(f"smoothing/{key.replace('_', ' ')}", ladder[key], None, None)
                for key in ("cutoff", "cutoff_fraction", "nyquist_resolved", "sup_distance")]
        out.append(("smoothing/rungs tried", f"{len(ladder['tried'])} ({on_subgrid} "
                                             "rejected on the stride-2 subgrid)", None, None))
        moved = smoothing["sup_distance_total"]
        out.append(("total move", moved, config.epsilon, bool(moved < config.epsilon)))
        out += _residual_rows(manifest["final_residuals"], config)
    if wannier_report is not None:
        if manifest is None:
            out += _residual_rows(wannier_report["final_residuals"], config)
        reality = wannier_report["reality"]
        out.append(_at_most(f"wannier/reality defect ({reality['mode']})",
                            reality["defect"], config.tol))
        out.append(("wannier/raw-frame control defect",
                    wannier_report["control_reality"]["defect"], None, None))
        out += [_at_most(f"wannier/band {a} norm off 1", abs(norm - 1.0), BAND_NORM_BOUND)
                for a, norm in enumerate(wannier_report["band_norms"])]
        loc = wannier_report["localization"]
        out += [
            ("wannier/decay rate", loc["decay_rate"], None, None),
            ("wannier/decay fit R^2", loc["r_squared"], None, None),
            ("wannier/fit range", loc["fit_range"], None, None),
            ("wannier/decreasing shells", loc["max_decreasing_run"], None, None),
        ]
    return out


def verdict(rows):
    """The rows that miss their bound; the certificate holds when there are none."""
    return [row for row in rows if row[3] is False]


def _text(value):
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.3e}"
    return str(value)


def format_rows(rows):
    """The rows as text, one per line under their section's header, and a
    last ``verdict:`` line naming the failed rows."""
    lines, current = [], None
    for name, value, bound, passed in rows:
        section, _, label = name.rpartition("/")
        if section != current:
            current = section
            if section:
                lines.append(f"{section}:")
        line = f"{'  ' if section else ''}{label}: {_text(value)}"
        if passed is not None:
            line += f" ({'pass' if passed else 'FAIL'}"
            line += ")" if bound is None else f", bound {_text(bound)})"
        lines.append(line)
    failed = [row[0] for row in verdict(rows)]
    lines.append("verdict: " + (f"FAIL ({', '.join(failed)})" if failed else "pass"))
    return "\n".join(lines)
