"""Grid geometry of the periodicity cell and its symmetry-reduced half.

All quasimomenta are handled in adapted coordinates where the periodicity
lattice is the integer lattice.  Grid points are stored as integer tuples in
units of the grid step ``1 / n_side`` with ``n_side = 2 * grid_n``; a point
``g`` represents the quasimomentum ``k = g / n_side``.  Working in integers
keeps every reduction and identification exact.

The effective cell keeps the half with nonnegative first coordinate,

    0 <= k_1 <= 1/2,   -1/2 <= k_j <= 1/2  (j >= 2),

and every grid point of the torus reduces to it through

    g = (-1)**s * g' + 2 * grid_n * lam,

with ``s`` in {0, 1} and ``lam`` an integer lattice vector.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

__all__ = ["CellGeometry", "ReducedPoint"]


@dataclass(frozen=True)
class ReducedPoint:
    """Decomposition of a grid point into its effective-cell representative.

    Attributes
    ----------
    k_prime : tuple of int
        Representative inside the effective cell (grid units).
    lam : tuple of int
        Lattice translation providing the wrap (lattice units).
    s : int
        0 when only a translation is involved, 1 when the point is reached
        from the representative through inversion followed by translation.
    """

    k_prime: tuple
    lam: tuple
    s: int


@dataclass(frozen=True)
class CellGeometry:
    """Uniform symmetric grid on the periodicity cell, d in {1, 2, 3}.

    ``grid_n`` is half the number of subdivisions per unit length; it must be
    even so that the extension cone apex (1/4, 0, ...) lands on a grid point.
    """

    d: int
    grid_n: int

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.d}")
        if self.grid_n < 2 or self.grid_n % 2 != 0:
            raise ValueError(f"grid_n must be an even integer >= 2, got {self.grid_n}")

    # ------------------------------------------------------------------
    # basic measures
    # ------------------------------------------------------------------
    @property
    def n_side(self):
        """Number of grid steps per unit length of the torus."""
        return 2 * self.grid_n

    # ------------------------------------------------------------------
    # effective cell membership and indexing
    # ------------------------------------------------------------------
    def in_effective_cell(self, g):
        """Whether the grid points ``g`` of shape ``(..., d)`` lie in the
        effective cell."""
        g = np.asarray(g)
        n = self.grid_n
        return (0 <= g[..., 0]) & (g[..., 0] <= n) & np.all(np.abs(g[..., 1:]) <= n, axis=-1)

    @property
    def cell_shape(self):
        """Array shape covering the effective cell (closed, both boundaries)."""
        return (self.grid_n + 1,) + (self.n_side + 1,) * (self.d - 1)

    def cell_index(self, g):
        """Array index of the effective-cell grid points ``g`` of shape ``(..., d)``."""
        g = np.asarray(g)
        return (g[..., 0],) + tuple(g[..., j] + self.grid_n for j in range(1, self.d))

    def cell_points(self):
        """Effective-cell grid points, shape ``cell_shape + (d,)``."""
        offset = np.array([0] + [self.grid_n] * (self.d - 1))
        return np.moveaxis(np.indices(self.cell_shape), 0, -1) - offset

    def boundary_mask(self):
        """Mask over ``cell_shape`` of the grid points on the cell boundary."""
        g = self.cell_points()
        n = self.grid_n
        return (g[..., 0] % n == 0) | np.any(np.abs(g[..., 1:]) == n, axis=-1)

    # ------------------------------------------------------------------
    # torus indexing: stored fundamental domain is {0, ..., 2 grid_n - 1}^d
    # ------------------------------------------------------------------
    @property
    def torus_shape(self):
        return (self.n_side,) * self.d

    def torus_points(self):
        """Grid points of the stored torus, shape ``torus_shape + (d,)``."""
        return np.moveaxis(np.indices(self.torus_shape), 0, -1)

    def torus_k(self):
        """Quasimomenta of the stored torus grid, shape ``torus_shape + (d,)``."""
        return self.torus_points() / self.n_side

    def reflection_map(self):
        """Partner of every stored torus point under ``k -> -k``.

        Returns ``(partner, lam)``, both of shape ``torus_shape + (d,)``, with
        ``-g = partner + N lam``: ``partner = (-g) mod N`` and ``lam_j = -1``
        exactly where ``g_j > 0``.
        """
        g = self.torus_points()
        return (-g) % self.n_side, -(g > 0).astype(int)

    # ------------------------------------------------------------------
    # reduction to the effective cell
    # ------------------------------------------------------------------
    def reductions(self, g):
        """Every candidate reduction of the grid points ``g`` of shape ``(..., d)``.

        Returns the ``2 * 2**d`` candidates ``(s, lam, k_prime, valid)`` in
        canonical order, ``s`` first and then ``lam`` lexicographically;
        ``lam`` and ``k_prime = (-1)**s * (g - N lam)`` have the shape of
        ``g`` and ``valid`` marks the points whose ``k_prime`` lies in the
        effective cell.  No other candidate can be valid: every coordinate
        of ``k_prime`` has modulus at most ``N / 2``, which leaves
        ``lam_j`` in ``{floor(g_j / N), floor(g_j / N) + 1}``.
        """
        g = np.asarray(g)
        base = g // self.n_side
        out = []
        for s in (0, 1):
            for step in product((0, 1), repeat=self.d):
                lam = base + np.asarray(step)
                k_prime = (-1) ** s * (g - self.n_side * lam)
                out.append((s, lam, k_prime, self.in_effective_cell(k_prime)))
        return out

    def all_reductions(self, g):
        """Every valid decomposition of one grid point ``g``, in canonical
        order (used for consistency checks)."""
        return [
            ReducedPoint(tuple(k_prime[0].tolist()), tuple(lam[0].tolist()), s)
            for s, lam, k_prime, valid in self.reductions(np.reshape(g, (1, self.d)))
            if valid[0]
        ]

    # ------------------------------------------------------------------
    # high-symmetry points
    # ------------------------------------------------------------------
    def trims(self):
        """Time-reversal invariant momenta inside the effective cell.

        These are the half-integer points; there are ``2 * 3**(d-1)`` of them.
        """
        n = self.grid_n
        axes = [(0, n)] + [(-n, 0, n)] * (self.d - 1)
        return sorted(product(*axes))

    def is_trim(self, g):
        n = self.grid_n
        return all(gj % n == 0 for gj in g) and self.in_effective_cell(g)

    def trim_lambda(self, g):
        """Lattice vector ``lam = 2 k`` attached to a high-symmetry point."""
        if not self.is_trim(g):
            raise ValueError(f"{g} is not a high-symmetry grid point")
        return tuple(2 * gj // self.n_side for gj in g)
