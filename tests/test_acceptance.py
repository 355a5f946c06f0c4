"""Acceptance suite: one test per package-level guarantee.

Each test measures its headline quantities, prints a single
``criterion N: PASS/FAIL`` line (visible with ``pytest -s``) and then
asserts the stated tolerances.  The heavy pipeline runs are shared
module-scoped fixtures, so the whole file costs a few pipeline builds.
"""
import time

import numpy as np
import pytest

from blochframe.cells import CellGeometry
from blochframe.errors import AssumptionsFailed, BoundaryRelationViolated
from blochframe.extension import BoundaryDomain, extend_unitary_cone
from blochframe.linalg import lowdin
from blochframe.pipeline import RunConfig, run_construct, run_verify, run_wannierize
from blochframe.smoothing import symmetrize
from blochframe.vertex import symmetric_sqrt
from blochframe.certify import localization_report
from blochframe.wannier import extend_symmetric

from conftest import (
    copied,
    face_cell,
    geodesic_distance,
    loop_nodes,
    planted_loop,
    random_symmetric_unitary,
)

HALF_PI = float(np.pi / 2)


def _line(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")


def _unitarity(values):
    m = values.shape[-1]
    eye = np.eye(m)
    products = np.swapaxes(values, -1, -2).conj() @ values
    return float(np.max(np.linalg.norm(products - eye, axis=(-2, -1))))


def _walk_collect(node, key):
    found = []
    if isinstance(node, dict):
        for k, v in node.items():
            if k == key:
                found.append(v)
            else:
                found.extend(_walk_collect(v, key))
    return found


@pytest.fixture(scope="module")
def h32(tmp_path_factory):
    config = RunConfig(
        model="haldane", grid_n=32, out=str(tmp_path_factory.mktemp("h32"))
    )
    return config, run_construct(config)


@pytest.fixture(scope="module")
def r32(tmp_path_factory):
    config = RunConfig(
        model="random-trs",
        params={"n": 4, "m": 2},
        grid_n=32,
        out=str(tmp_path_factory.mktemp("r32")),
    )
    return config, run_construct(config)


@pytest.fixture(scope="module")
def wan_h32(h32):
    config, _ = h32
    return run_wannierize(config)


@pytest.fixture(scope="module")
def wan_r32(r32):
    config, _ = r32
    return run_wannierize(config)


@pytest.fixture(scope="module")
def d3_16():
    config = RunConfig(
        model="random-trs",
        params={"n": 4, "m": 2, "d": 3, "seed": 5},
        grid_n=16,
    )
    return config, run_construct(config)


def test_criterion_1_symmetric_square_roots():
    rng = np.random.default_rng(108)
    sizes = (1, 2, 4, 8)
    worst = 0.0
    t0 = time.perf_counter()
    for i in range(1000):
        v = random_symmetric_unitary(rng, sizes[i % 4])
        u, _ = symmetric_sqrt(v)
        worst = max(worst, float(np.linalg.norm(u @ u.T - v)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    _line(1, ok, f"1000 roots, worst defect {worst:.2e}, {elapsed:.2f} s")
    assert worst <= 1e-10
    assert elapsed < 5.0


def test_criterion_2_degree_oracle(h32, r32):
    rng = np.random.default_rng(207)
    dom = BoundaryDomain(CellGeometry(2, 4))
    coarse_len = len(dom.points)
    fine = np.arange(10 * coarse_len) / (10 * coarse_len)
    mismatches = 0
    for i in range(200):
        m = 1 + i % 3
        planted = int(rng.integers(-5, 6))
        loop_fine = planted_loop(fine, m, planted, rng, scale=0.3, order=2)
        _, info = dom.lift(np.linalg.det(loop_nodes(dom, loop_fine[::10])))
        got = info["degree"]
        # brute-force argument continuation at ten times the resolution
        dets = np.linalg.det(np.concatenate([loop_fine, loop_fine[:1]]))
        theta = np.unwrap(np.angle(dets))
        oracle = int(np.round((theta[-1] - theta[0]) / (2 * np.pi)))
        if not (got == oracle == planted):
            mismatches += 1
    degrees = []
    for _, result in (h32, r32):
        degrees += _walk_collect(
            result["manifest"]["construction"], "winding_after_correction"
        )
    ok = mismatches == 0 and degrees and all(d == 0 for d in degrees)
    _line(
        2,
        ok,
        f"200 loops, {mismatches} mismatches; "
        f"{len(degrees)} corrected faces all degree 0",
    )
    assert mismatches == 0
    assert degrees and all(d == 0 for d in degrees)


def _smooth_surface_map(rng, m, period):
    """Random smooth degree-zero unitary map over integer lattice points."""
    def haar(k):
        z = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
        q, r = np.linalg.qr(z)
        return q * (np.diag(r) / np.abs(np.diag(r)))

    q1, q2 = haar(m), haar(m)
    c1 = rng.uniform(-1.0, 1.0, m)
    c2 = rng.uniform(-1.0, 1.0, m)
    freq = rng.integers(1, 3, (2, 3))
    shift = rng.uniform(0.0, 2 * np.pi, 2)

    def f(g):
        g = np.atleast_2d(np.asarray(g, dtype=float))
        th1 = 0.5 * np.sin(2 * np.pi * (g @ freq[0]) / period + shift[0])
        th2 = 0.5 * np.cos(2 * np.pi * (g @ freq[1]) / period + shift[1])
        u1 = np.einsum(
            "ab,xb,cb->xac", q1, np.exp(1j * np.outer(th1, c1)), q1.conj()
        )
        u2 = np.einsum(
            "ab,xb,cb->xac", q2, np.exp(1j * np.outer(th2, c2)), q2.conj()
        )
        return u1 @ u2

    return f


def test_criterion_3_extension_fidelity():
    rng = np.random.default_rng(306)
    worst_boundary = 0.0
    worst_unitarity = 0.0

    # planar cells: the boundary of a grid-64 cell is one loop of 384 nodes
    geo2 = CellGeometry(2, 64)
    dom2 = BoundaryDomain(geo2)
    ts = np.arange(len(dom2.points)) / len(dom2.points)
    for i in range(50):
        m = 1 + i % 3
        nodes = loop_nodes(dom2, planted_loop(ts, m, 0, rng, scale=0.3, order=2))
        values, _ = extend_unitary_cone(nodes, dom2, seed=0)
        worst_boundary = max(
            worst_boundary,
            float(np.max(np.abs(values[dom2.mask.ravel()] - nodes))),
        )
        worst_unitarity = max(worst_unitarity, _unitarity(values))

    # solid cells at grid 16: boundary values live on the half-cube surface
    geo3 = CellGeometry(3, 16)
    dom3 = BoundaryDomain(geo3)
    for i in range(50):
        m = 1 + i % 3
        nodes = _smooth_surface_map(rng, m, geo3.n_side)(dom3.points)
        values, _ = extend_unitary_cone(nodes, dom3, seed=0)
        worst_boundary = max(
            worst_boundary,
            float(np.max(np.abs(values[dom3.mask.ravel()] - nodes))),
        )
        worst_unitarity = max(worst_unitarity, _unitarity(values))

    ok = worst_boundary <= 1e-6 and worst_unitarity <= 1e-10
    _line(
        3,
        ok,
        f"100 extensions, boundary {worst_boundary:.2e}, "
        f"unitarity {worst_unitarity:.2e}",
    )
    assert worst_boundary <= 1e-6
    assert worst_unitarity <= 1e-10


def test_criterion_4_planar_certificates(h32, r32):
    details = []
    ok = True
    for label, (_, result) in (("haldane", h32), ("random-trs", r32)):
        res = result["manifest"]["final_residuals"]
        elapsed = result["manifest"]["elapsed_seconds"]
        worst = max(res.values())
        details.append(f"{label} {worst:.2e} in {elapsed:.1f} s")
        ok = ok and worst <= 1e-8 and elapsed < 60.0
        assert all(v <= 1e-8 for v in res.values()), (label, res)
        assert elapsed < 60.0
    _line(4, ok, "; ".join(details))


def test_criterion_5_solid_certificate(d3_16):
    _, result = d3_16
    res = result["manifest"]["final_residuals"]
    elapsed = result["manifest"]["elapsed_seconds"]
    worst = max(res.values())
    ok = worst <= 1e-6 and elapsed < 600.0
    _line(5, ok, f"residuals {worst:.2e} in {elapsed:.1f} s")
    assert all(v <= 1e-6 for v in res.values()), res
    assert elapsed < 600.0


def test_criterion_6_reality_and_control(wan_h32, wan_r32):
    defect_h = wan_h32["report"]["reality"]["defect"]
    defect_r = wan_r32["report"]["reality"]["defect"]
    control = wan_h32["report"]["control_reality"]["defect"]
    ok = defect_h <= 1e-8 and defect_r <= 1e-8 and control >= 1e-2
    _line(
        6,
        ok,
        f"reality {defect_h:.2e} / {defect_r:.2e}, raw control {control:.2e}",
    )
    assert defect_h <= 1e-8
    assert defect_r <= 1e-8
    assert control >= 1e-2


def test_criterion_7_localization(wan_h32, wan_r32):
    runs = []
    details = []
    for label, wan in (("haldane", wan_h32), ("random-trs", wan_r32)):
        loc = wan["report"]["localization"]
        runs.append((loc["max_decreasing_run"], loc["r_squared"]))
        details.append(
            f"{label} run {loc['max_decreasing_run']} R2 {loc['r_squared']:.3f}"
        )
    # moment stability under grid refinement, on a window both grids resolve
    coarse = run_wannierize(RunConfig(model="haldane", grid_n=16))
    loc16 = localization_report(coarse["wannier"], moment_window=8)
    loc32 = localization_report(wan_h32["wannier"], moment_window=8)
    worst_change = 0.0
    for r in range(5):
        a = np.asarray(loc16["moments"][r])
        b = np.asarray(loc32["moments"][r])
        worst_change = max(worst_change, float(np.max(np.abs(b - a) / a)))
    details.append(f"moment drift {100 * worst_change:.2f}%")
    ok = (
        all(run >= 4 and r2 >= 0.9 for run, r2 in runs)
        and worst_change < 0.05
    )
    _line(7, ok, "; ".join(details))
    for run, r2 in runs:
        assert run >= 4
        assert r2 >= 0.9
    assert worst_change < 0.05


def test_criterion_8_smoothing_contract(h32, r32, d3_16):
    sups = []
    for _, result in (h32, r32, d3_16):
        sm = result["manifest"]["smoothing"]
        sups.append(sm["sup_distance_total"])
        assert result["manifest"]["config"]["epsilon"] == 0.1
    worst_sup = max(sups)

    _, result = h32
    _, rep = symmetrize(copied(result["phi_sm"]), result["family"])
    idem = rep["max_shift"]

    rng = np.random.default_rng(804)
    worst_mid = 0.0
    for _ in range(1000):
        z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q, r = np.linalg.qr(z)
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        phases = rng.uniform(-2.2, 2.2, 3)
        u = (q * np.exp(1j * phases)) @ q.conj().T
        # the polar factor of 1 + u, which frame_midpoint takes of a + a u
        mid = lowdin(np.eye(3) + u)
        conj_defect = np.linalg.norm(lowdin(np.eye(3) + u.conj()) - mid.conj())
        inv_defect = np.linalg.norm(
            lowdin(np.eye(3) + u.conj().T) - u.conj().T @ mid
        )
        dist_defect = abs(geodesic_distance(mid) - 0.5 * geodesic_distance(u))
        worst_mid = max(
            worst_mid, float(conj_defect), float(inv_defect), dist_defect
        )

    ok = worst_sup < 0.1 and idem <= 1e-10 and worst_mid <= 1e-10
    _line(
        8,
        ok,
        f"sup distance {worst_sup:.3f}, idempotency {idem:.2e}, "
        f"midpoint identities {worst_mid:.2e}",
    )
    assert worst_sup < 0.1
    assert idem <= 1e-10
    assert worst_mid <= 1e-10


def test_criterion_9_negative_controls(haldane):
    broken = RunConfig(model="haldane", params={"phi": HALF_PI}, grid_n=8)
    _, report = run_verify(broken)
    refused = False
    try:
        run_construct(broken)
    except AssumptionsFailed:
        refused = True

    geo = CellGeometry(2, 8)
    bad = face_cell(haldane, geo)
    bad.data[geo.cell_index((0, 8))] *= np.exp(0.3j)
    caught = None
    try:
        extend_symmetric(bad, haldane)
    except BoundaryRelationViolated as err:
        caught = err

    ok = (
        not report.passed
        and report.time_reversal > 0.1
        and refused
        and caught is not None
        and tuple(caught.details["point"]) == (0, 8)
    )
    _line(
        9,
        ok,
        f"verify time-reversal residual {report.time_reversal:.2f}, "
        f"pipeline refused: {refused}, corrupted vertex flagged at "
        f"{caught.details['point'] if caught else None}",
    )
    assert not report.passed
    assert report.time_reversal > 0.1
    assert refused
    assert caught is not None
    assert tuple(caught.details["point"]) == (0, 8)
