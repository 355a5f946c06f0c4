"""Benchmark workloads: the inputs each one hands to the package.

Every workload turns the benchmark seed into a :class:`blochframe.RunConfig`
(and, for ``twisted-2d``, a JSON model file written next to the run's
artifacts).  The package only ever sees those generated inputs.
"""

import json
import os
from itertools import product

import numpy as np

GRID_N = {"haldane-2d": 32, "twisted-2d": 16, "trs-3d": 8}
EPSILON = 0.1

# twisted-2d: orbitals, occupied bands, hopping range and total hopping
# norm of the generated model.
TWISTED_ORBITALS = 4
TWISTED_RANK = 1
TWISTED_HOP_RANGE = 1
TWISTED_AMPLITUDE = 0.3

# trs-3d keeps one random-trs model.  How coarse a grid a random model
# constructs on depends on its seed (seed 2 is refused with GridTooCoarse
# at grid_n=8), and grid_n=8 keeps a solve short enough to repeat in a run.
TRS_3D_MODEL_SEED = 0

WORKLOADS = tuple(GRID_N)


def twisted_model(seed):
    """JSON description of a random real-hopping model with shifted orbitals.

    The hoppings follow the ``random-trs`` recipe (real ``H_R`` with
    ``H_{-R} = H_R^T``, rescaled to a total spectral norm
    ``TWISTED_AMPLITUDE`` around ``diag(-1 x m, +1 x (n - m))`` with
    ``n = TWISTED_ORBITALS`` and ``m = TWISTED_RANK``).  Orbital ``a`` then
    sits at a quarter-grid position ``r_a``, so entry ``(a, b)`` of ``H_R``
    hops along the fractional vector ``R + r_a - r_b`` and the lattice acts
    through
    ``tau_j = diag(exp(2 pi i r_{a,j}))``.  The positional phase is a
    k-dependent diagonal gauge, so the spectrum and the gap equal those of
    the unshifted model; time reversal stays plain conjugation.

    Positions are distinct quarter-grid points with orbital 0 at the origin,
    redrawn until every axis has an odd-quarter coordinate, so that
    ``tau_j**2 != 1`` on both axes.
    """
    d, n, m = 2, TWISTED_ORBITALS, TWISTED_RANK
    rng = np.random.default_rng(seed)
    grid = [p for p in product(range(4), repeat=d) if any(p)]
    while True:
        picks = rng.choice(len(grid), size=n - 1, replace=False)
        quarters = np.array([(0,) * d] + [grid[i] for i in picks])
        if all(np.any(quarters[:, j] % 2 == 1) for j in range(d)):
            break
    positions = quarters / 4.0

    vectors = list(product(range(-TWISTED_HOP_RANGE, TWISTED_HOP_RANGE + 1),
                           repeat=d))
    raw = {r: rng.standard_normal((n, n)) for r in vectors}
    hop = {r: 0.5 * (raw[r] + raw[tuple(-x for x in r)].T) for r in vectors}
    scale = TWISTED_AMPLITUDE / sum(np.linalg.norm(mat, 2) for mat in hop.values())
    hop = {r: scale * mat for r, mat in hop.items()}
    hop[(0,) * d] = hop[(0,) * d] + np.diag([-1.0] * m + [1.0] * (n - m))

    # Merge on the rounded fractional vector: load_model keeps only the last
    # of two entries whose R canonicalize to the same key.
    merged = {}
    for r, mat in hop.items():
        for a in range(n):
            for b in range(n):
                rho = tuple(round(float(r[j] + positions[a, j] - positions[b, j]), 9)
                            for j in range(d))
                merged.setdefault(rho, np.zeros((n, n)))[a, b] += mat[a, b]
    hoppings = [
        {"R": [int(x) if float(x).is_integer() else x for x in rho],
         "re": mat.tolist()}
        for rho, mat in sorted(merged.items())
        if np.any(mat)
    ]
    generators = []
    for j in range(d):
        phase = 2.0 * np.pi * positions[:, j]
        generators.append({"re": np.diag(np.cos(phase)).tolist(),
                           "im": np.diag(np.sin(phase)).tolist()})
    return {
        "name": "twisted-2d",
        "dimension": d,
        "orbitals": n,
        "rank": m,
        "hoppings": hoppings,
        "theta": "conjugation",
        "tau": {"generators": generators},
    }


def run_config(name, seed, workdir, grid_n=None):
    """RunConfig of one workload, writing any generated model into ``workdir``."""
    from blochframe import RunConfig

    grid_n = GRID_N[name] if grid_n is None else grid_n
    common = dict(grid_n=grid_n, epsilon=EPSILON, seed=seed, threads=1)
    if name == "haldane-2d":
        return RunConfig(model="haldane", params={"phi": 0.0}, **common)
    if name == "trs-3d":
        return RunConfig(model="random-trs",
                         params={"d": 3, "n": 4, "m": 2, "seed": TRS_3D_MODEL_SEED},
                         **common)
    if name == "twisted-2d":
        os.makedirs(workdir, exist_ok=True)
        path = os.path.join(workdir, "twisted-2d.json")
        with open(path, "w") as fh:
            json.dump(twisted_model(seed), fh)
        return RunConfig(model=path, **common)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
