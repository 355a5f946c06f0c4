"""Gapped periodic projector families with bosonic time-reversal symmetry.

A family is described by a finite set of hopping matrices ``H_R`` indexed by
lattice vectors ``R`` (fractional where orbitals sit away from the cell
origin); the Bloch Hamiltonian in adapted coordinates is

    H(k) = sum_R H_R exp(2 pi i k . R),

Hermitian provided ``H_{-R} = H_R^dagger``.  The spectral projector ``P(k)``
onto the lowest ``m`` bands is the object the rest of the package works with.
Time reversal acts as ``theta = C o conj`` with a unitary ``C`` satisfying
``C conj(C) = 1`` (plain conjugation when ``C = 1``); the lattice may act
through a unitary representation ``tau`` (identity for all built-in models,
the general interface is kept for user-supplied configurations).

The structural assumptions are checked on the coefficients, where they
are exact identities that hold at every ``k``, not only on a grid: a
lattice generator acts as ``tau_j H_R tau_j^-1 = exp(2 pi i R_j) H_R``,
which gives ``P(k + e_j) = tau_j P(k) tau_j^-1``, and time reversal as
``C conj(H_R) C^-1 = H_R``, which gives ``theta P(k) theta^-1 = P(-k)``.
Only the gap needs Bloch data.  A family samples its eigensystem on the
torus grid once (:meth:`ProjectorFamily.torus_eigensystem` keeps the last
grid's sample); the gap floor of :func:`verify_assumptions` and every
projector a construction transports, smooths and certifies with are read
from that one sample.
"""

import json
import math
import numbers
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .cells import CellGeometry
from .errors import AssumptionsFailed, GapClosed, ModelConfigError

__all__ = [
    "ProjectorFamily",
    "AssumptionReport",
    "verify_assumptions",
    "load_model",
    "builtin_model",
]

TWO_PI_I = 2j * np.pi


def _dagger(a):
    """Conjugate transpose of the last two axes."""
    return np.swapaxes(a.conj(), -1, -2)


def _as_matrix(x, n, what):
    try:
        a = np.asarray(x, dtype=complex)
    except (TypeError, ValueError):
        raise ModelConfigError(f"{what}: matrix entries must be numbers") from None
    if a.shape != (n, n):
        raise ModelConfigError(f"{what} must be {n}x{n}, got shape {a.shape}")
    return a


def _canon_coord(x):
    """Canonical hopping coordinate: ints stay ints, floats are rounded
    just enough that a vector and its negation hash to partner keys."""
    v = round(float(x), 9)
    return int(v) if v.is_integer() else v


@dataclass
class ProjectorFamily:
    """Spectral projector family of a finite-range tight-binding model.

    Attributes
    ----------
    d : int
        Spatial dimension, 1 to 3.
    n : int
        Number of orbitals (ambient dimension).
    m : int
        Rank of the projector (number of occupied bands).
    hoppings : dict
        Maps tuples ``R`` to ``(n, n)`` complex matrices.  Integer vectors
        give an exactly periodic Bloch Hamiltonian; fractional vectors
        (orbitals sitting away from the cell origin) produce the
        quasi-periodic form whose unit shifts are carried by ``tau``.
    theta : (n, n) array or None
        Unitary part of the time-reversal operator; ``None`` means plain
        complex conjugation.
    tau : list of arrays or None
        Unitary lattice generators ``tau_1 .. tau_d``; ``None`` means the
        identity representation.
    gap_tolerance : float
        Smallest admissible spectral gap between bands m and m+1.
    """

    d: int
    n: int
    m: int
    hoppings: dict
    theta: np.ndarray | None = None
    tau: list | None = None
    gap_tolerance: float = 1e-8
    name: str = "custom"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self._tau_cache = {}
        self._torus_sample = None
        self._torus_projectors = None
        errors = self.validate()
        if errors:
            raise ModelConfigError(
                "invalid model configuration:\n  - " + "\n  - ".join(errors)
            )

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self):
        """Collect every violated structural invariant (empty list if valid)."""
        errors = []
        if self.d not in (1, 2, 3):
            errors.append(f"dimension must be 1, 2 or 3, got {self.d}")
        if not 1 <= self.m < self.n:
            errors.append(f"need 1 <= m < n, got m={self.m}, n={self.n}")
        if self.gap_tolerance <= 0:
            errors.append("gap_tolerance must be positive")
        hop = {}
        raw_keys = {}
        for raw, mat in self.hoppings.items():
            r = tuple(_canon_coord(x) for x in np.atleast_1d(raw))
            if r in raw_keys:
                errors.append(
                    f"hopping vectors {raw_keys[r]} and {raw} both round to {r}"
                )
                continue
            raw_keys[r] = raw
            if len(r) != self.d:
                errors.append(f"hopping vector {r} has wrong dimension")
                continue
            mat = np.asarray(mat, dtype=complex)
            if mat.shape != (self.n, self.n):
                errors.append(f"hopping H_{r} has shape {mat.shape}, expected ({self.n}, {self.n})")
                continue
            hop[r] = mat
        for r, mat in hop.items():
            mr = tuple(-x for x in r)
            partner = hop.get(mr)
            if partner is None:
                errors.append(f"hopping H_{r} lacks the Hermitian partner H_{mr}")
            elif np.linalg.norm(partner - mat.conj().T) > 1e-12 * max(1.0, np.linalg.norm(mat)):
                errors.append(f"H_{mr} != H_{r}^dagger (Hermiticity broken)")
        self.hoppings = hop
        eye = np.eye(self.n)
        if self.theta is not None:
            c = np.asarray(self.theta, dtype=complex)
            if c.shape != (self.n, self.n):
                errors.append("theta unitary has wrong shape")
            else:
                if np.linalg.norm(c @ c.conj().T - eye) > 1e-10:
                    errors.append("theta matrix is not unitary")
                if np.linalg.norm(c @ c.conj() - eye) > 1e-10:
                    errors.append("theta does not square to the identity (need C conj(C) = 1)")
                self.theta = c
        if self.tau is not None:
            gens = [np.asarray(t, dtype=complex) for t in self.tau]
            if len(gens) != self.d:
                errors.append(f"need {self.d} lattice generators, got {len(gens)}")
            else:
                for j, t in enumerate(gens):
                    if t.shape != (self.n, self.n):
                        errors.append(f"tau generator {j + 1} has wrong shape")
                    elif np.linalg.norm(t @ t.conj().T - eye) > 1e-10:
                        errors.append(f"tau generator {j + 1} is not unitary")
                for i in range(len(gens)):
                    for j in range(i + 1, len(gens)):
                        if np.linalg.norm(gens[i] @ gens[j] - gens[j] @ gens[i]) > 1e-10:
                            errors.append(f"tau generators {i + 1} and {j + 1} do not commute")
                c = self.theta if self.theta is not None else eye
                for j, t in enumerate(gens):
                    # theta tau_j theta^{-1} = tau_j^{-1}  <=>  C conj(tau_j) = tau_j^dagger C
                    if np.linalg.norm(c @ t.conj() - t.conj().T @ c) > 1e-10:
                        errors.append(f"tau generator {j + 1} incompatible with time reversal")
                if all(np.linalg.norm(t - eye) < 1e-14 for t in gens):
                    gens = None
                self.tau = gens
        return errors

    # ------------------------------------------------------------------
    # Bloch data
    # ------------------------------------------------------------------
    def hamiltonian(self, k):
        """Bloch Hamiltonians at quasimomenta ``k`` of shape ``(..., d)``
        (adapted coordinates), stacked as ``(..., n, n)``."""
        k = np.asarray(k, dtype=float)
        vectors, blocks = _coefficients(self)
        blocks = blocks.reshape(len(vectors), self.n * self.n)
        phases = np.exp(TWO_PI_I * (k @ vectors.T))
        return (phases @ blocks).reshape(k.shape[:-1] + (self.n, self.n))

    def eigensystem(self, k):
        """Eigenvalues (ascending) and eigenvectors of ``H(k)``, stacked over
        the leading axes of ``k``; one ``eigh`` call for the whole stack."""
        h = self.hamiltonian(k)
        return np.linalg.eigh(0.5 * (h + _dagger(h)))

    def spectral_frame(self, k, eigensystem=None):
        """Orthonormal eigenbases ``(..., n, m)`` of the lowest ``m`` bands
        and the gaps ``(...)`` at quasimomenta ``k`` of shape ``(..., d)``.

        ``eigensystem`` is ``self.eigensystem(k)`` when the caller has
        already sampled it.  Raises :class:`GapClosed` at the point of the
        smallest gap when it falls below ``gap_tolerance``.
        """
        if eigensystem is None:
            eigensystem = self.eigensystem(k)
        evals, evecs = eigensystem
        below, above = evals[..., self.m - 1], evals[..., self.m]
        gap = above - below
        worst = np.unravel_index(np.argmin(gap), gap.shape)
        if gap[worst] < self.gap_tolerance:
            raise GapClosed(
                f"spectral gap {gap[worst]:.3e} below tolerance {self.gap_tolerance:.3e}",
                k=tuple(np.asarray(k, dtype=float)[worst].tolist()),
                below=float(below[worst]),
                above=float(above[worst]),
            )
        return evecs[..., : self.m], gap

    def projector(self, k):
        """Spectral projectors ``(..., n, n)`` at ``k`` of shape ``(..., d)``,
        gap-gated as in :meth:`spectral_frame`."""
        frame, _ = self.spectral_frame(k)
        return frame @ _dagger(frame)

    def torus_eigensystem(self, grid_n):
        """:meth:`eigensystem` on ``CellGeometry(d, grid_n).torus_k()``:
        all eigenvalues, and the eigenvectors of the lowest ``m`` bands.

        Sampled on the first call for a ``grid_n`` and kept until another
        ``grid_n`` is asked for, so one command samples the torus once.
        Nothing is gated here: the gap gate is at each use, through
        :meth:`spectral_frame` or :meth:`grid_projectors`.
        """
        if self._torus_sample is None or self._torus_sample[0] != grid_n:
            evals, evecs = self.eigensystem(CellGeometry(self.d, grid_n).torus_k())
            # only the occupied frames are read, so only they are kept
            self._torus_sample = (grid_n, (evals, evecs[..., : self.m].copy()))
            self._torus_projectors = None
        return self._torus_sample[1]

    def grid_projectors(self, grid_n, g=None):
        """Spectral projectors ``(..., n, n)`` at the integer grid points
        ``g`` of shape ``(..., d)`` of ``CellGeometry(d, grid_n)``, or on
        its stored torus when ``g`` is ``None``.

        They come from the :meth:`torus_eigensystem` sample and are built
        once per sample, as a read-only array; the gap gate of
        :meth:`spectral_frame` runs on the sampled eigenvalues at every
        call.  A point ``g = rep + N lam`` off the stored torus (``N = 2
        grid_n``) gets ``tau_lam P(rep) tau_lam^H``, which is ``P(k)`` by the
        lattice symmetry ``P(k + e_j) = tau_j P(k) tau_j^-1``.
        """
        geometry = CellGeometry(self.d, grid_n)
        sample = self.torus_eigensystem(grid_n)
        frame, _ = self.spectral_frame(geometry.torus_k(), sample)
        if self._torus_projectors is None:
            self._torus_projectors = frame @ _dagger(frame)
            self._torus_projectors.flags.writeable = False
        torus = self._torus_projectors
        if g is None:
            return torus
        g = np.asarray(g)
        lam = g // geometry.n_side
        out = torus[tuple(np.moveaxis(g - geometry.n_side * lam, -1, 0))]
        if self.tau is None:
            return out
        for shift in np.unique(lam.reshape(-1, self.d), axis=0):
            if shift.any():
                at = np.all(lam == shift, axis=-1)
                t = self.tau_power(shift)
                out[at] = t @ out[at] @ t.conj().T
        return out

    # ------------------------------------------------------------------
    # symmetry actions
    # ------------------------------------------------------------------
    def theta_matrix(self):
        return np.eye(self.n, dtype=complex) if self.theta is None else self.theta

    def tau_power(self, lam):
        """Unitary representing the lattice vector ``lam``."""
        lam = tuple(int(x) for x in lam)
        if self.tau is None:
            return np.eye(self.n, dtype=complex)
        if lam not in self._tau_cache:
            mat = np.eye(self.n, dtype=complex)
            for j, lj in enumerate(lam):
                gen = self.tau[j] if lj >= 0 else self.tau[j].conj().T
                for _ in range(abs(lj)):
                    mat = gen @ mat
            self._tau_cache[lam] = mat
        return self._tau_cache[lam]

    def antiunitary_matrix(self, lam):
        """Matrix ``A`` of the antiunitary ``tau_lam o theta``; acts as
        ``v -> A conj(v)``."""
        return self.tau_power(lam) @ self.theta_matrix()

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def describe(self):
        """JSON-safe summary used in manifests."""
        return {
            "name": self.name,
            "params": self.params,
            "dimension": self.d,
            "orbitals": self.n,
            "rank": self.m,
            "hopping_count": len(self.hoppings),
            "theta": "conjugation" if self.theta is None else "unitary",
            "tau": "identity" if self.tau is None else "unitary",
            "gap_tolerance": self.gap_tolerance,
        }


# ----------------------------------------------------------------------
# model assumptions
# ----------------------------------------------------------------------
@dataclass
class AssumptionReport:
    """Residuals of the structural assumptions and the grid's gap floor."""

    gap_floor: float
    periodicity: float
    time_reversal: float
    compatibility: float
    lipschitz_bound: float
    tolerance: float
    passed: bool

    def as_dict(self):
        return {
            "gap_floor": self.gap_floor,
            "periodicity_residual": self.periodicity,
            "time_reversal_residual": self.time_reversal,
            "compatibility_residual": self.compatibility,
            "lipschitz_bound": self.lipschitz_bound,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


def _coefficients(family):
    """Hopping vectors ``(N, d)`` and matrices ``(N, n, n)`` of the family."""
    vectors = np.array(list(family.hoppings), dtype=float).reshape(-1, family.d)
    blocks = np.array(list(family.hoppings.values()), dtype=complex)
    return vectors, blocks.reshape(-1, family.n, family.n)


def _norm2_sum(stack):
    """Sum of the spectral norms over a stack of matrices."""
    return float(np.sum(np.linalg.norm(stack, 2, axis=(-2, -1))))


def verify_assumptions(family, grid_n=16, tol=1e-8):
    """Check periodicity, time reversal, compatibility and the gap.

    The symmetries are checked as identities on the hopping matrices
    ``H_R``, which makes them hold at every ``k``, not only on a grid:

    - periodicity: ``tau_j H_R tau_j^-1 = exp(2 pi i R_j) H_R`` for each
      generator ``j``; the residual ``max_j sum_R`` of the defect's
      spectral norm bounds ``||H(k + e_j) - tau_j H(k) tau_j^-1||_2``;
    - time reversal: ``C conj(H_R) C^-1 = H_R``; the residual ``sum_R`` of
      the defect's spectral norm bounds ``||theta H(k) theta^-1 - H(-k)||_2``;
    - compatibility: ``C conj(tau_j) = tau_j^dagger C``.

    Equal Hamiltonians have equal spectral projectors, so zero residuals
    give ``P(k + e_j) = tau_j P(k) tau_j^-1`` and
    ``theta P(k) theta^-1 = P(-k)`` everywhere.  ``lipschitz_bound`` is
    ``L = 2 pi sum_R |R| ||H_R||_2``, which bounds
    ``||H(k) - H(k')||_2 / |k - k'|``.  The gap floor is the minimum gap
    over the family's :meth:`~ProjectorFamily.torus_eigensystem` sample.
    Returns an :class:`AssumptionReport`; ``passed`` is False when any
    residual exceeds ``tol`` or the gap floor drops below the family's gap
    tolerance.  A closed gap is reported that way, never raised.
    """
    d, m = family.d, family.m
    evals = family.torus_eigensystem(grid_n)[0]
    gap_floor = float(np.min(evals[..., m] - evals[..., m - 1]))
    vectors, blocks = _coefficients(family)
    c = family.theta_matrix()

    res_p2 = 0.0
    for j, e in enumerate(np.eye(d)):
        tau_j = family.tau_power(e)
        phases = np.exp(TWO_PI_I * vectors[:, j])[:, None, None]
        moved = tau_j @ blocks @ tau_j.conj().T
        res_p2 = max(res_p2, _norm2_sum(moved - phases * blocks))
    res_p3 = _norm2_sum(c @ blocks.conj() @ c.conj().T - blocks)

    res_p4 = 0.0
    if family.tau is not None:
        for t in family.tau:
            res_p4 = max(res_p4, float(np.linalg.norm(c @ t.conj() - t.conj().T @ c, 2)))

    passed = (
        res_p2 <= tol
        and res_p3 <= tol
        and res_p4 <= tol
        and gap_floor >= family.gap_tolerance
    )
    lipschitz = 2 * np.pi * float(np.linalg.norm(vectors, axis=1)
                                  @ np.linalg.norm(blocks, 2, axis=(-2, -1)))
    return AssumptionReport(
        gap_floor=gap_floor,
        periodicity=res_p2,
        time_reversal=res_p3,
        compatibility=res_p4,
        lipschitz_bound=lipschitz,
        tolerance=tol,
        passed=bool(passed),
    )


def require_assumptions(family, grid_n=16, tol=1e-8):
    """Raise :class:`AssumptionsFailed` unless :func:`verify_assumptions`
    passes; returns its report.

    The gap floor comes from the family's torus sample, which the rest of
    the command then reads its projectors from.
    """
    report = verify_assumptions(family, grid_n=grid_n, tol=tol)
    if not report.passed:
        raise AssumptionsFailed(
            "model violates the structural assumptions",
            periodicity=report.periodicity,
            time_reversal=report.time_reversal,
            compatibility=report.compatibility,
            gap_floor=report.gap_floor,
            tolerance=tol,
        )
    return report


# ----------------------------------------------------------------------
# built-in models
# ----------------------------------------------------------------------
def _haldane(t1=1.0, t2=0.1, phi=0.0, mass=0.5):
    """Two-band honeycomb model with staggered mass and complex second-neighbour
    hoppings; time reversal holds exactly when ``sin(phi) = 0``."""
    n = 2
    z = np.zeros((n, n), dtype=complex)
    hop = {}

    def add(r, i, j, val):
        r = tuple(r)
        if r not in hop:
            hop[r] = z.copy()
        hop[r] = hop[r].copy()
        hop[r][i, j] += val

    add((0, 0), 0, 0, mass)
    add((0, 0), 1, 1, -mass)
    # nearest neighbours: H_01(k) = t1 (1 + e^{-2 pi i k_1} + e^{-2 pi i k_2})
    for r in [(0, 0), (-1, 0), (0, -1)]:
        add(r, 0, 1, t1)
        add(tuple(-x for x in r), 1, 0, t1)
    # second neighbours with flux phi, opposite chirality on the two sites
    for b in [(1, 0), (-1, 1), (0, -1)]:
        mb = tuple(-x for x in b)
        add(b, 0, 0, t2 * np.exp(1j * phi))
        add(mb, 0, 0, t2 * np.exp(-1j * phi))
        add(b, 1, 1, t2 * np.exp(-1j * phi))
        add(mb, 1, 1, t2 * np.exp(1j * phi))
    return ProjectorFamily(
        d=2, n=2, m=1, hoppings=hop,
        name="haldane", params={"t1": t1, "t2": t2, "phi": phi, "M": mass},
    )


def _ssh(v=1.0, w=0.4):
    """Two-orbital chain with alternating real hoppings, gapped for |v| != |w|."""
    hop = {
        (0,): np.array([[0.0, v], [v, 0.0]], dtype=complex),
        (-1,): np.array([[0.0, w], [0.0, 0.0]], dtype=complex),
        (1,): np.array([[0.0, 0.0], [w, 0.0]], dtype=complex),
    }
    return ProjectorFamily(d=1, n=2, m=1, hoppings=hop, name="ssh", params={"v": v, "w": w})


def _random_trs(n=4, m=2, d=2, hop_range=1, seed=0, amplitude=0.3):
    """Random real-hopping family around a gapped diagonal reference.

    All hoppings are real; the combined perturbation is rescaled so its total
    spectral norm equals ``amplitude``, which keeps the gap between bands m
    and m+1 at least ``2 - 2 * amplitude`` uniformly in k.
    """
    if not 1 <= m < n:
        raise ModelConfigError(f"random-trs needs 1 <= m < n, got m={m}, n={n}")
    if not 0 < amplitude < 1:
        raise ModelConfigError("random-trs amplitude must lie in (0, 1)")
    rng = np.random.default_rng(seed)
    base = np.diag(np.concatenate([-np.ones(m), np.ones(n - m)])).astype(complex)
    raw = {}
    vectors = [r for r in product(*[range(-hop_range, hop_range + 1)] * d)]
    for r in vectors:
        raw[r] = rng.standard_normal((n, n))
    # symmetrize: H_R <- (H_R + H_{-R}^T) / 2 makes H(k) Hermitian with all
    # entries real, hence theta = conjugation holds exactly
    hop = {}
    for r in vectors:
        mr = tuple(-x for x in r)
        hop[r] = 0.5 * (raw[r] + raw[mr].T)
    total = sum(np.linalg.norm(mat, 2) for mat in hop.values())
    scale = amplitude / total
    hoppings = {r: scale * mat.astype(complex) for r, mat in hop.items()}
    hoppings[(0,) * d] = hoppings.get((0,) * d, 0.0) + base
    return ProjectorFamily(
        d=d, n=n, m=m, hoppings=hoppings,
        name="random-trs",
        params={"n": n, "m": m, "d": d, "range": hop_range, "seed": seed,
                "amplitude": amplitude},
    )


_BUILTINS = {"haldane": _haldane, "ssh": _ssh, "random-trs": _random_trs}

_BUILTIN_PARAM_NAMES = {
    "haldane": {"t1", "t2", "phi", "M"},
    "ssh": {"v", "w"},
    "random-trs": {"n", "m", "d", "range", "seed", "amplitude"},
}

# Parameters that count something and so must be whole numbers: those of
# the built-in models and the sizes of a JSON model (``range``, ``seed`` and
# the JSON sizes also non-negative).
_INT_PARAMS = {"n", "m", "d", "range", "seed", "dimension", "orbitals", "rank"}
_NONNEGATIVE_PARAMS = {"range", "seed", "dimension", "orbitals", "rank"}


def _checked_param(model, key, value):
    """A model parameter as a finite real number, integers as ``int``."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value)):
        problem = "is not a finite number"
    elif key in _INT_PARAMS and value != int(value):
        problem = "is not an integer"
    elif key in _NONNEGATIVE_PARAMS and value < 0:
        problem = "is negative"
    else:
        return int(value) if key in _INT_PARAMS else value
    raise ModelConfigError(
        f"parameter {key}={value!r} of model {model!r} {problem}",
        parameter=key, value=repr(value),
    )


def builtin_model(name, **params):
    """Instantiate a built-in model by name.

    Every parameter must be a finite real number, and ``n``, ``m``, ``d``,
    ``range`` and ``seed`` whole numbers (``range`` and ``seed``
    non-negative); anything else raises :class:`ModelConfigError`.
    """
    if name not in _BUILTINS:
        raise ModelConfigError(
            f"unknown built-in model {name!r}; available: {sorted(_BUILTINS)}"
        )
    allowed = _BUILTIN_PARAM_NAMES[name]
    bad = set(params) - allowed
    if bad:
        raise ModelConfigError(
            f"unknown parameter(s) {sorted(bad)} for model {name!r}; allowed: {sorted(allowed)}"
        )
    params = {key: _checked_param(name, key, val) for key, val in params.items()}
    if name == "haldane":
        mapped = {"t1": params.get("t1", 1.0), "t2": params.get("t2", 0.1),
                  "phi": params.get("phi", 0.0), "mass": params.get("M", 0.5)}
        return _haldane(**mapped)
    if name == "ssh":
        return _ssh(**params)
    if "range" in params:
        params["hop_range"] = params.pop("range")
    return _random_trs(**params)


def _matrix_from_json(obj, n, what):
    if not isinstance(obj, dict):
        return _as_matrix(obj, n, what)
    try:
        re = np.asarray(obj.get("re", np.zeros((n, n))), dtype=float)
        im = np.asarray(obj.get("im", np.zeros((n, n))), dtype=float)
    except (TypeError, ValueError):
        raise ModelConfigError(f"{what}: matrix entries must be numbers") from None
    if re.shape != (n, n) or im.shape != (n, n):
        raise ModelConfigError(f"{what}: matrix blocks must be {n}x{n}")
    return re + 1j * im


def load_model(source, params=None):
    """Load a projector family from a built-in name or a JSON description.

    ``source`` may be a built-in model name, a path to a JSON file, or an
    already-parsed configuration dictionary.  The JSON schema:

    .. code-block:: json

        {
          "dimension": 2, "orbitals": 2, "rank": 1,
          "hoppings": [{"R": [0, 0], "re": [[...]], "im": [[...]]}, ...],
          "theta": "conjugation",
          "tau": "identity",
          "gap_tolerance": 1e-8
        }

    ``theta`` may instead be ``{"unitary": {"re": ..., "im": ...}}`` and
    ``tau`` may be ``{"generators": [matrix, ...]}`` with one generator per
    dimension.  Every violated invariant is reported at once; a document of
    another shape raises :class:`ModelConfigError` at its first fault.
    """
    params = dict(params or {})
    if isinstance(source, str) and source in _BUILTINS:
        return builtin_model(source, **params)
    if isinstance(source, str):
        try:
            with open(source) as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise ModelConfigError(f"cannot read model file {source!r}: {exc}")
        except json.JSONDecodeError as exc:
            raise ModelConfigError(f"model file {source!r} is not valid JSON: {exc}")
    elif isinstance(source, dict):
        cfg = source
    else:
        raise ModelConfigError(f"unsupported model source {source!r}")
    if params:
        raise ModelConfigError("parameter overrides only apply to built-in models")
    if not isinstance(cfg, dict):
        raise ModelConfigError("model config must be a JSON object")

    label = source if isinstance(source, str) else "custom"
    try:
        d, n, m = (_checked_param(label, key, cfg[key])
                   for key in ("dimension", "orbitals", "rank"))
    except KeyError as exc:
        raise ModelConfigError(f"model config missing required key {exc}")
    items = cfg.get("hoppings", [])
    if not isinstance(items, list):
        raise ModelConfigError("hoppings must be a list of {'R': [...], 're': ..., 'im': ...}")
    hoppings = {}
    for item in items:
        raw = item.get("R") if isinstance(item, dict) else None
        if not isinstance(raw, list) or not all(
            isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)
            for x in raw
        ):
            raise ModelConfigError(
                f"hopping {item!r} needs a lattice vector 'R' of numbers"
            )
        r = tuple(_canon_coord(x) for x in raw)
        if r in hoppings:
            raise ModelConfigError(
                f"hopping R={item['R']} collides with an earlier entry: both round to {r}"
            )
        hoppings[r] = _matrix_from_json(item, n, f"hopping {r}")
    theta_cfg = cfg.get("theta", "conjugation")
    if theta_cfg == "conjugation":
        theta = None
    elif isinstance(theta_cfg, dict) and "unitary" in theta_cfg:
        theta = _matrix_from_json(theta_cfg["unitary"], n, "theta")
    else:
        raise ModelConfigError("theta must be 'conjugation' or {'unitary': matrix}")
    tau_cfg = cfg.get("tau", "identity")
    if tau_cfg == "identity":
        tau = None
    elif isinstance(tau_cfg, dict) and "generators" in tau_cfg:
        tau = [_matrix_from_json(g, n, f"tau generator {j + 1}")
               for j, g in enumerate(tau_cfg["generators"])]
    else:
        raise ModelConfigError("tau must be 'identity' or {'generators': [...]}")
    return ProjectorFamily(
        d=d, n=n, m=m, hoppings=hoppings, theta=theta, tau=tau,
        gap_tolerance=_checked_param(label, "gap_tolerance", cfg.get("gap_tolerance", 1e-8)),
        name=str(cfg.get("name", "custom")),
    )
