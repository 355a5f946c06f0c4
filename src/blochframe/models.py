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
Only the gap needs Bloch data.  A family samples the torus grid once
(:meth:`ProjectorFamily.torus_eigensystem` keeps the last grid's sample)
and keeps two things, its occupied eigenframes and the worst point of the
gap between bands ``m`` and ``m + 1``: the gap floor of
:func:`verify_assumptions` is that point, the gap gate of every read is a
comparison with it, and the eigenframes the input frame is transported on
and every projector a construction smooths and certifies with are read
from that one sample.
The two symmetries also halve it: :meth:`ProjectorFamily.eigensystem`
(closed form for two bands, ``eigh`` beyond) runs on the slab ``k_1 <=
1/2`` only, and every other point is the time-reversed image of its
partner ``-k`` (:meth:`ProjectorFamily.reflect`, the one reflection
gather).  Every symmetry applied to a stack of frames (torus, vertex
solves, face and cell fills, certificates) is one product of
:meth:`ProjectorFamily.act`, skipped where its matrix is the identity, and
the gauge that makes a frame exactly periodic is :meth:`ProjectorFamily.twist`.
The sample has one form, the occupied eigenframes ``v`` of
:meth:`ProjectorFamily.grid_frames`: ``P(k) c`` is ``v (v^H c)``, and no
``n x n`` projector is formed on the torus.

Every model enters through :func:`load_model`: a name of the one table of
built-in models, :data:`BUILTINS`, is built by :func:`builtin_model`, and
anything else is read as a JSON description, whose matrices
:meth:`ProjectorFamily.validate` checks together with every other field.
"""

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .cells import CellGeometry
from .errors import AssumptionsFailed, GapClosed, ModelConfigError, UsageError
from .linalg import hermitian_eigensystem, joint_eigenbasis

__all__ = [
    "ProjectorFamily",
    "AssumptionReport",
    "verify_assumptions",
    "load_model",
    "builtin_model",
    "BUILTINS",
]

TWO_PI_I = 2j * np.pi


def _dagger(a):
    """Conjugate transpose of the last two axes."""
    return np.swapaxes(a.conj(), -1, -2)


def _is_real(x):
    """Whether ``x`` is a real number; a ``bool`` is not."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _is_finite_real(x):
    """Whether ``x`` is a real number that is finite as a float."""
    try:
        return _is_real(x) and math.isfinite(x)
    except OverflowError:  # an int beyond the float range
        return False


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
        self._twist_basis = None
        self._torus_sample = None
        errors = self.validate()
        if errors:
            raise ModelConfigError(
                "invalid model configuration:\n  - " + "\n  - ".join(errors)
            )

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def validate(self):
        """Collect every violated structural invariant (empty list if valid).

        A field of the wrong type (a ``tau`` that is not a list, say) ends
        the collection, as do the matrices that are not ``n x n`` arrays of
        finite numbers: every later check would compare them, multiply
        mismatched shapes or compare NaN.  ``d``, ``n`` and ``m`` are whole
        numbers, stored as ``int``.
        """
        errors = []
        for key in ("d", "n", "m"):
            value = getattr(self, key)
            if _is_finite_real(value) and value == int(value):
                setattr(self, key, int(value))
            else:
                errors.append(f"{key}={value!r} is not a finite whole number")
        if not _is_real(self.gap_tolerance):
            errors.append(f"gap_tolerance={self.gap_tolerance!r} is not a real number")
        if self.tau is not None and not (isinstance(self.tau, (list, tuple)) or (
                isinstance(self.tau, np.ndarray) and self.tau.ndim)):
            errors.append(f"tau={self.tau!r} is not a list of matrices")
        if not isinstance(self.hoppings, dict):
            errors.append(f"hoppings={self.hoppings!r} is not a dict")
        else:
            errors += [
                f"hopping vector R={raw!r} has a coordinate that is not a finite real number"
                for raw in self.hoppings
                if not all(_is_finite_real(x) for x in np.atleast_1d(raw))
            ]
        if errors:
            return errors
        if self.d not in (1, 2, 3):
            errors.append(f"dimension must be 1, 2 or 3, got {self.d}")
        if not 1 <= self.m < self.n:
            errors.append(f"need 1 <= m < n, got m={self.m}, n={self.n}")
        if not (_is_finite_real(self.gap_tolerance) and self.gap_tolerance > 0):
            errors.append("gap_tolerance must be positive and finite")
        malformed = []

        def matrix(what, x):
            try:
                x = np.asarray(x, dtype=complex)
            except (TypeError, ValueError):
                malformed.append(f"{what}: matrix entries must be numbers")
                return None
            if x.shape != (self.n, self.n):
                malformed.append(f"{what} has shape {x.shape}, expected ({self.n}, {self.n})")
            elif not np.all(np.isfinite(x)):
                malformed.append(f"{what} has a non-finite entry")
            return x

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
            hop[r] = matrix(f"hopping H_{r}", mat)
        c = None if self.theta is None else matrix("theta unitary", self.theta)
        gens = None if self.tau is None else [
            matrix(f"tau generator {j + 1}", t) for j, t in enumerate(self.tau)]
        if malformed:
            return errors + malformed
        self.hoppings, self.theta = hop, c
        for r, mat in hop.items():
            mr = tuple(-x for x in r)
            partner = hop.get(mr)
            if partner is None:
                errors.append(f"hopping H_{r} lacks the Hermitian partner H_{mr}")
            elif np.linalg.norm(partner - mat.conj().T) > 1e-12 * max(1.0, np.linalg.norm(mat)):
                errors.append(f"H_{mr} != H_{r}^dagger (Hermiticity broken)")
        eye = np.eye(self.n)
        if c is not None:
            if np.linalg.norm(c @ c.conj().T - eye) > 1e-10:
                errors.append("theta matrix is not unitary")
            if np.linalg.norm(c @ c.conj() - eye) > 1e-10:
                errors.append("theta does not square to the identity (need C conj(C) = 1)")
        if gens is not None:
            if len(gens) != self.d:
                errors.append(f"need {self.d} lattice generators, got {len(gens)}")
            else:
                for j, t in enumerate(gens):
                    if np.linalg.norm(t @ t.conj().T - eye) > 1e-10:
                        errors.append(f"tau generator {j + 1} is not unitary")
                for i in range(len(gens)):
                    for j in range(i + 1, len(gens)):
                        if np.linalg.norm(gens[i] @ gens[j] - gens[j] @ gens[i]) > 1e-10:
                            errors.append(f"tau generators {i + 1} and {j + 1} do not commute")
                c = eye if c is None else c
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
        the leading axes of ``k``: one :func:`~blochframe.linalg.hermitian_eigensystem`
        call for the whole stack, in closed form for two bands and one
        ``eigh`` otherwise.  Nothing is gated here; the torus sample takes
        it, and its projectors at any ``k`` are ``v v^H`` of the lowest
        ``m`` eigenvectors ``v``."""
        h = self.hamiltonian(k)
        return hermitian_eigensystem(0.5 * (h + _dagger(h)))

    def torus_eigensystem(self, grid_n):
        """The occupied eigenframes ``(2 grid_n,) * d + (n, m)`` on the
        stored torus ``CellGeometry(d, grid_n).torus_k()`` and the sample's
        worst point, as ``(frames, edge)``.

        :meth:`eigensystem` runs once, on the slab ``g_1 <= grid_n``
        (``k_1 <= 1/2``).  Every point ``g`` with ``g_1 > grid_n`` is the
        time-reversed image of its partner ``(-g) mod N`` in the slab: its
        frame is ``tau^(-lam) C conj(v(partner))`` of :meth:`reflect`,
        which spans ``P(k)`` by ``theta P(k) theta^-1 = P(-k)`` and the
        lattice symmetry.

        ``edge`` is ``(k, below, above)``: the slab's smallest gap between
        bands ``m`` and ``m + 1``, or else its first NaN gap, row-major, and
        the two eigenvalues there.  The mirrored half repeats the slab's
        gaps when the symmetries hold, so that is the torus's worst point;
        when they hold only up to the residuals of
        :func:`verify_assumptions`, each eigenvalue of a mirrored point is
        within ``time_reversal + d * periodicity`` of its partner's (Weyl's
        inequality), so its gap within twice that.

        Sampled on the first call for a ``grid_n`` and kept until another
        ``grid_n`` is asked for, so one command samples the torus once.
        Nothing is gated here: :meth:`grid_frames` gates on ``edge`` at
        every read, and :func:`verify_assumptions` reports it.  A ``grid_n``
        that is not an even integer of at least 2 raises :class:`UsageError`.
        """
        if self._torus_sample is None or self._torus_sample[0] != grid_n:
            if not (_is_real(grid_n) and isinstance(grid_n, numbers.Integral)
                    and grid_n >= 2 and grid_n % 2 == 0):
                raise UsageError(f"grid_n must be an even integer >= 2, got {grid_n!r}")
            torus_k = CellGeometry(self.d, grid_n).torus_k()
            slab_k = torus_k[: grid_n + 1]
            evals, evecs = self.eigensystem(slab_k)
            below, above = evals[..., self.m - 1], evals[..., self.m]
            # argmin stops at the first NaN
            worst = np.unravel_index(np.argmin(above - below), below.shape)
            edge = (tuple(slab_k[worst].tolist()), float(below[worst]), float(above[worst]))
            frames = np.empty(torus_k.shape[:-1] + (self.n, self.m), dtype=complex)
            frames[: grid_n + 1] = evecs[..., : self.m]
            frames[grid_n + 1:] = self.reflect(frames, range(grid_n + 1, 2 * grid_n))
            self._torus_sample = (grid_n, frames, edge)
        return self._torus_sample[1:]

    def grid_frames(self, grid_n, g):
        """Occupied eigenframes ``(..., n, m)`` of the :meth:`torus_eigensystem`
        sample at the integer grid points ``g`` of shape ``(..., d)`` of
        ``CellGeometry(d, grid_n)``, as a fresh array.

        A point ``g = rep + N lam`` off the stored torus (``N = 2 grid_n``)
        gets ``tau_lam v(rep)``, which spans ``P(k)`` by the lattice
        symmetry ``P(k + e_j) = tau_j P(k) tau_j^-1``.  Where ``tau = 1``,
        or every point lies on the stored torus, that is ``v(rep)`` itself
        and the result is a plain gather; otherwise the points off the
        torus are acted on, one :meth:`act` per shift.  The projector
        ``P(k) c`` of a stack ``c`` is ``v (v^H c)``.

        Every call compares the sample's smallest gap with the current
        ``gap_tolerance`` and raises :class:`GapClosed` with that point's
        ``k``, ``below`` and ``above`` when the gap is below it or NaN,
        whichever points ``g`` asks for.
        """
        frame, (k, below, above) = self.torus_eigensystem(grid_n)
        if not above - below >= self.gap_tolerance:
            raise GapClosed(
                f"spectral gap {above - below:.3e} below tolerance {self.gap_tolerance:.3e}",
                k=k, below=below, above=above,
            )
        g = np.asarray(g)
        rep = np.ravel_multi_index(tuple(np.moveaxis(g, -1, 0)), frame.shape[: self.d],
                                   mode="wrap")
        out = np.take(frame.reshape((-1,) + frame.shape[-2:]), rep, axis=0)
        if self.tau is None:
            return out
        lam = g // (2 * grid_n)
        off = np.nonzero(np.any(lam, axis=-1))
        if not off[0].size:
            return out
        lam, moved = lam[off], out[off]
        # every combination of the shifts along each axis: a row-wise
        # np.unique of lam costs more than the whole gather
        for shift in product(*map(np.unique, lam.T)):
            at = np.all(lam == shift, axis=-1)
            moved[at] = self.act(shift, moved[at])
        out[off] = moved
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

    def act(self, lam, frames, anti=False):
        """``tau_lam`` of a stack of frames ``(..., n, m)``, or with ``anti``
        the antiunitary ``tau_lam theta``: ``A conj(frames)`` with ``A =
        tau_lam C``, the only place outside :func:`verify_assumptions` that
        forms a symmetry matrix.

        One BLAS product for the whole stack.  Where the matrix is the
        identity (``lam = 0`` or ``tau = 1``, and ``theta`` plain
        conjugation or not applied) nothing is multiplied: the result is
        ``frames`` itself, or its conjugate with ``anti``.
        """
        if anti:
            frames = np.conj(frames)
        if (self.tau is None or not any(lam)) and (self.theta is None or not anti):
            return frames
        mat = self.tau_power(lam) @ self.theta_matrix() if anti else self.tau_power(lam)
        # a stacked ``@`` of n x n by n x m matrices is several times slower
        return np.einsum("ab,...bm->...am", mat, frames, optimize=True)

    def reflect(self, frames, rows):
        """``tau^(-lam) theta Phi(partner(g))`` at the torus points ``g``
        with ``g_1`` in the ascending ``rows``, for a stack ``frames`` of
        shape ``(2 grid_n,) * d + (n, m)`` on the stored torus; the result
        has shape ``(len(rows),) + frames.shape[1:]``.

        With ``-g = partner + N lam`` the reflection property reads ``Phi(g)
        = tau^(-lam) theta Phi(partner)``.  ``partner = (-g) mod N`` is a
        flip and a roll by one along every axis, and ``lam_j`` is ``0`` on
        the slice ``g_j = 0`` and ``-1`` on ``g_j > 0``, so each of the
        ``2**d`` shifts covers one block of slices, applied by :meth:`act`.
        Only the partner rows ``(-g_1) mod N`` of ``frames`` are read: the
        half ``g_1 > grid_n`` of a symmetric field is ``reflect`` of its
        slab, and the self-paired slices ``g_1 = 0`` and ``g_1 = grid_n``
        are ``reflect`` of themselves.
        """
        big, axes = frames.shape[0], tuple(range(1, self.d))
        # the partners (-g) mod N along the other axes: a flip and a roll by one
        image = np.roll(np.flip(frames[[-g % big for g in rows]], axes), 1, axes)
        # lam_1 = 0 only on the row g_1 = 0, which comes first if present
        zero = int(rows[0] == 0)
        for lam in product((0, -1), repeat=self.d):
            block = (slice(zero, None) if lam[0] else slice(None, zero),) + tuple(
                slice(1, None) if x else slice(None, 1) for x in lam[1:])
            image[block] = self.act(tuple(-x for x in lam), image[block], anti=True)
        return image

    def twist(self, k, frames, inverse=False):
        """``D(k) frames``, or ``D(k)^-1 frames`` with ``inverse``, for ``k``
        of shape ``(..., d)``: the untwisting gauge ``D(k) = v diag(exp(2 pi
        i k . ell)) v^H``, with ``tau_j = v diag(exp(2 pi i ell_j)) v^H`` on
        the :func:`~blochframe.linalg.joint_eigenbasis` ``v`` (kept on the
        family) and ``ell_j`` in ``[0, 1)``.  So ``D(k + e_j) = tau_j
        D(k)``, and a frame with ``Phi(k + e_j) = tau_j Phi(k)`` is exactly
        periodic after ``D(k)^-1``.  Where ``tau = 1`` the result is
        ``frames`` itself."""
        if self.tau is None:
            return frames
        if self._twist_basis is None:
            v, diags = joint_eigenbasis(self.tau, 1e-10)
            self._twist_basis = v, np.mod(np.angle(np.asarray(diags)) / (2.0 * np.pi), 1.0)
        v, ells = self._twist_basis
        k = np.asarray(k, dtype=float)
        # summed axis by axis: ``k @ ells`` rounds differently
        phases = np.exp(TWO_PI_I * sum(k[..., j, None] * ells[j] for j in range(self.d)))
        if inverse:
            phases = np.conj(phases)
        return np.einsum("ab,...b,bc,...cm->...am", v, phases, v.conj().T, frames)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def content_sha256(self):
        """sha256 of the family's content: its shape, its hoppings in order
        of ``R``, then ``theta``, ``tau`` and ``gap_tolerance``.  It tells
        an edited JSON file from the one an artifact was built from."""
        digest = hashlib.sha256(repr((self.d, self.n, self.m)).encode())
        for r in sorted(self.hoppings):
            digest.update(repr(r).encode())
            digest.update(np.asarray(self.hoppings[r], dtype=complex).tobytes())
        for mat in [self.theta, *(self.tau or [None])]:
            digest.update(b"-" if mat is None else np.asarray(mat, dtype=complex).tobytes())
        digest.update(repr(float(self.gap_tolerance)).encode())
        return digest.hexdigest()

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
    ``||H(k) - H(k')||_2 / |k - k'|``.  The gap floor is the gap at the
    worst point the family's :meth:`~ProjectorFamily.torus_eigensystem`
    sample keeps (NaN if any gap is), the minimum over its slab ``k_1 <=
    1/2``: it is the torus minimum when the symmetries hold, and within
    ``2 (time_reversal + d * periodicity)`` of it otherwise (Weyl's
    inequality), when the report fails on those residuals anyway.
    Returns an :class:`AssumptionReport`; ``passed`` is False when any
    residual exceeds ``tol`` or the gap floor drops below the family's gap
    tolerance.  A closed gap is reported that way, never raised.
    """
    d = family.d
    _, (_, below, above) = family.torus_eigensystem(grid_n)
    gap_floor = above - below
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
    # one batched SVD for every spectral norm, summed in the dict's order
    total = sum(np.linalg.norm(np.array(list(hop.values())), 2, axis=(-2, -1)).tolist())
    scale = amplitude / total
    hoppings = {r: scale * mat.astype(complex) for r, mat in hop.items()}
    hoppings[(0,) * d] = hoppings.get((0,) * d, 0.0) + base
    return ProjectorFamily(
        d=d, n=n, m=m, hoppings=hoppings,
        name="random-trs",
        params={"n": n, "m": m, "d": d, "range": hop_range, "seed": seed,
                "amplitude": amplitude},
    )


# The one table of built-in models: name -> (builder, {public parameter ->
# builder keyword}).  The builders record the public names on the family.
BUILTINS = {
    "haldane": (_haldane, {"t1": "t1", "t2": "t2", "phi": "phi", "M": "mass"}),
    "ssh": (_ssh, {"v": "v", "w": "w"}),
    "random-trs": (_random_trs, {"n": "n", "m": "m", "d": "d", "range": "hop_range",
                                 "seed": "seed", "amplitude": "amplitude"}),
}

# Parameters that count something and so must be whole numbers: those of
# the built-in models and the sizes of a JSON model (``range``, ``seed`` and
# the JSON sizes also non-negative).
_INT_PARAMS = {"n", "m", "d", "range", "seed", "dimension", "orbitals", "rank"}
_NONNEGATIVE_PARAMS = {"range", "seed", "dimension", "orbitals", "rank"}


def _checked_param(model, key, value):
    """A model parameter as a finite real number, integers as ``int``."""
    if not _is_finite_real(value):
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
    """Instantiate the built-in model ``name`` from its :data:`BUILTINS` entry.

    Only its declared public parameters are accepted, each passed under its
    builder keyword.  Every parameter must be a finite real number, and
    ``n``, ``m``, ``d``, ``range`` and ``seed`` whole numbers (``range``
    and ``seed`` non-negative); anything else raises :class:`ModelConfigError`.
    """
    if name not in BUILTINS:
        raise ModelConfigError(
            f"unknown built-in model {name!r}; available: {sorted(BUILTINS)}"
        )
    builder, keywords = BUILTINS[name]
    bad = set(params) - set(keywords)
    if bad:
        raise ModelConfigError(
            f"unknown parameter(s) {sorted(bad)} for model {name!r}; allowed: {sorted(keywords)}"
        )
    return builder(**{keywords[key]: _checked_param(name, key, val) for key, val in params.items()})


def _matrix_from_json(obj, n, what):
    """A JSON matrix as a complex array: a nested list, or ``re`` and ``im``
    blocks of one shape, a missing block zero.  Only its entries are checked
    here; :meth:`ProjectorFamily.validate` checks its shape and finiteness."""
    try:
        if not isinstance(obj, dict):
            return np.asarray(obj, dtype=complex)
        re = np.asarray(obj.get("re", np.zeros((n, n))), dtype=float)
        im = np.asarray(obj.get("im", np.zeros(re.shape)), dtype=float)
    except (TypeError, ValueError):
        raise ModelConfigError(f"{what}: matrix entries must be numbers") from None
    if re.shape != im.shape:
        raise ModelConfigError(f"{what}: blocks re {re.shape} and im {im.shape} differ in shape")
    return re + 1j * im


def load_model(source, params=None):
    """Load a projector family, the one resolver of a model.

    ``source`` may be a name of :data:`BUILTINS` (built by
    :func:`builtin_model` with ``params``), a path to a JSON file, or an
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
    dimension.  Every violated invariant is reported at once, every
    malformed matrix among them; a document of another shape, or a
    non-numeric matrix entry, raises :class:`ModelConfigError` at its first
    fault.
    """
    params = dict(params or {})
    if isinstance(source, str) and source in BUILTINS:
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
        if not isinstance(raw, list) or not all(_is_finite_real(x) for x in raw):
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
        gens = tau_cfg["generators"]
        if not isinstance(gens, list):
            raise ModelConfigError(f"tau generators={gens!r} is not a list of matrices")
        tau = [_matrix_from_json(g, n, f"tau generator {j + 1}") for j, g in enumerate(gens)]
    else:
        raise ModelConfigError("tau must be 'identity' or {'generators': [...]}")
    return ProjectorFamily(
        d=d, n=n, m=m, hoppings=hoppings, theta=theta, tau=tau,
        gap_tolerance=_checked_param(label, "gap_tolerance", cfg.get("gap_tolerance", 1e-8)),
        name=str(cfg.get("name", "custom")),
    )
