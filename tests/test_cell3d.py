"""Unit tests for the three-dimensional construction."""
import numpy as np
import pytest

from blochframe.cells import CellGeometry
from blochframe.cell3d import construct_3d
from blochframe.errors import BoundaryRelationViolated
from blochframe.extension import BoundaryDomain, boundary_domain
from blochframe.frames import input_frame
from blochframe.models import builtin_model
from blochframe.certify import reflection_defect

from conftest import lapack_projector, shifted_trs_3d


@pytest.fixture(scope="module")
def fam3():
    return builtin_model("random-trs", n=4, m=2, d=3, seed=5)


@pytest.fixture(scope="module")
def built3(fam3):
    geo = CellGeometry(3, 8)
    psi = input_frame(fam3, geo)
    torus, diag = construct_3d(psi, fam3)
    return geo, torus, diag


def test_two_constructs_share_one_boundary_domain(monkeypatch):
    """Two trs-3d constructs on one grid build the 3d cell's domain once,
    and the faces' 2d domain of the same ``grid_n`` once, apart from it."""
    built = []
    real = BoundaryDomain.__init__

    def spy(self, geo):
        built.append(geo)
        real(self, geo)

    boundary_domain.cache_clear()
    monkeypatch.setattr(BoundaryDomain, "__init__", spy)
    family = builtin_model("random-trs", n=4, m=2, d=3, seed=0)
    psi = input_frame(family, CellGeometry(3, 8))
    first, _ = construct_3d(psi, family)
    second, _ = construct_3d(psi, family)
    assert np.array_equal(first.data, second.data)
    assert built == [CellGeometry(2, 8), CellGeometry(3, 8)]
    flat, solid = boundary_domain(CellGeometry(2, 8)), boundary_domain(CellGeometry(3, 8))
    assert flat is not solid
    assert (flat.geo.d, solid.geo.d) == (2, 3)
    assert solid.mask.shape == CellGeometry(3, 8).cell_shape


def test_construct_3d_face_windings_corrected(built3):
    _, _, diag = built3
    for key in ("face_k1_0", "face_k2_plus", "face_k3_plus", "face_k1_plus"):
        face = diag[key]
        assert face["winding_after_correction"] == 0
    assert diag["corner_residual"] < 1e-10
    assert diag["assembly"]["glue_residual"] < 1e-6


def test_construct_3d_field_is_orthonormal_and_in_span(fam3, built3):
    geo, torus, _ = built3
    assert torus.region == "full-torus"
    assert torus.orthonormality_defect() < 1e-12
    p = lapack_projector(fam3, geo.torus_k())
    assert np.max(np.linalg.norm(p @ torus.data - torus.data, axis=(-2, -1))) < 1e-9


def test_construct_3d_reflection_symmetry(fam3, built3):
    geo, torus, _ = built3
    c = fam3.theta_matrix()
    partner, _ = geo.reflection_map()
    minus = torus.data[tuple(np.moveaxis(partner, -1, 0))]
    worst = np.max(np.linalg.norm(minus - c @ np.conj(torus.data), axis=(-2, -1)))
    assert worst < 1e-6


def test_construct_3d_rejects_wrong_dimension(haldane):
    psi = input_frame(haldane, CellGeometry(2, 4))
    with pytest.raises(ValueError):
        construct_3d(psi, haldane)


def test_construct_3d_refuses_disagreeing_faces(fam3, monkeypatch):
    """A face that disagrees with another on their shared edge is refused
    at the first such point, with its residual."""
    from blochframe import cell3d

    real = cell3d.macro2

    def broken(ctx, left, bottom, **kwargs):
        field, diag = real(ctx, left, bottom, **kwargs)
        if ctx.label == "face k3=+1/2":
            # local (0, 1) is the global point (0, 1, n) of the face k1 = 0
            field.data[field.geometry.cell_index((0, 1))] *= np.exp(0.3j)
        return field, diag

    monkeypatch.setattr(cell3d, "macro2", broken)
    geo = CellGeometry(3, 4)
    with pytest.raises(BoundaryRelationViolated) as err:
        construct_3d(input_frame(fam3, geo), fam3)
    assert err.value.details["point"] == (0, 1, geo.grid_n)
    assert err.value.details["residual"] > 0.1


@pytest.mark.parametrize("label, local, point", [
    ("face k3=+1/2", (0, 1), (0, 1, 8)),
    ("face k2=+1/2", (1, 8), (1, -8, 8)),
], ids=["later-face", "earlier-face"])
def test_construct_3d_refuses_a_nan_on_a_shared_edge(fam3, monkeypatch, label, local, point):
    """Negative control: a NaN frame where two faces meet is refused at the
    first shared point, whichever face holds it.  Local ``(0, 1)`` of the
    face k3 = +1/2 is ``(0, 1, n)``, written first by the face k1 = 0;
    local ``(1, n)`` of the face k2 = +1/2 is written at ``(1, n, n)`` and,
    translated, at ``(1, -n, n)``, which the face k3 = +1/2 writes later."""
    from blochframe import cell3d

    real = cell3d.macro2

    def broken(ctx, left, bottom, **kwargs):
        field, diag = real(ctx, left, bottom, **kwargs)
        if ctx.label == label:
            field.data[field.geometry.cell_index(local)] = np.nan
        return field, diag

    monkeypatch.setattr(cell3d, "macro2", broken)
    geo = CellGeometry(3, 8)
    with pytest.raises(BoundaryRelationViolated) as err:
        construct_3d(input_frame(fam3, geo), fam3)
    assert err.value.details["point"] == point
    assert np.isnan(err.value.details["residual"])


@pytest.fixture(scope="module")
def shifted3():
    return shifted_trs_3d()


def test_construct_3d_with_nontrivial_tau(shifted3):
    """Each face reads a different tau; the glued, extended frame still
    satisfies every boundary identification and time reversal."""
    geo = CellGeometry(3, 4)
    torus, diag = construct_3d(input_frame(shifted3, geo), shifted3)
    assert torus.meta["extension_mismatch"] < 1e-12
    assert diag["assembly"]["glue_residual"] < 1e-12
    assert torus.orthonormality_defect() < 1e-12
    assert reflection_defect(torus, shifted3) < 1e-12
    p = lapack_projector(shifted3, geo.torus_k())
    assert np.max(np.linalg.norm(p @ torus.data - torus.data, axis=(-2, -1))) < 1e-12


@pytest.mark.parametrize("target,axes,shift", [
    ("face k1=1/2 (mirrored)", ((0, 1, 0), (0, 0, 1)), (1, 1, 0)),
    ("face k1=1/2 (mirrored)", ((0, -1, 0), (0, 0, 1)), (1, 0, 0)),
    ("face k2=+1/2", ((1, 0, 0), (0, 0, 1)), (0, -1, 0)),
    ("face k3=+1/2", ((1, 0, 0), (0, -1, 0)), (0, 0, 1)),
])
def test_construct_3d_refuses_a_wrong_face_plane(shifted3, monkeypatch, target, axes, shift):
    """A face read along a wrong axis or with a wrong shift breaks a boundary
    relation once tau is nontrivial."""
    from blochframe import cell3d

    real = cell3d.FaceContext

    def planted(geometry, psi, family, face_axes, face_shift, label="cell"):
        if label == target:
            face_axes, face_shift = axes, shift
        return real(geometry, psi, family, face_axes, face_shift, label=label)

    monkeypatch.setattr(cell3d, "FaceContext", planted)
    with pytest.raises(BoundaryRelationViolated):
        construct_3d(input_frame(shifted3, CellGeometry(3, 4)), shifted3)
