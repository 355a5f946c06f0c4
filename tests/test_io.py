"""Unit tests for the binary containers and text artifacts."""
import csv
import json
import struct

import numpy as np
import pytest

from blochframe.cells import CellGeometry
from blochframe.errors import UsageError
from blochframe.frames import FrameField
from blochframe.io import (
    file_sha256,
    jsonable,
    load_frames,
    load_wannier,
    read_json,
    save_frames,
    save_wannier,
    write_json,
    write_wannier_csv,
)
from blochframe.wannier import WannierSet, wannier_transform


def _random_field(rng, region="full-torus", d=2, grid_n=4, n=3, m=2):
    geo = CellGeometry(d, grid_n)
    grid = geo.torus_shape if region == "full-torus" else geo.cell_shape
    raw = rng.standard_normal(grid + (n, m)) + 1j * rng.standard_normal(grid + (n, m))
    return FrameField(geo, region, np.linalg.qr(raw)[0])


def test_frames_roundtrip(tmp_path, rng):
    fld = _random_field(rng)
    path = tmp_path / "frames.blf"
    save_frames(path, fld)
    back = load_frames(path)
    assert back.region == fld.region
    assert back.geometry.d == 2 and back.geometry.grid_n == 4
    assert np.array_equal(back.data, fld.data)


def test_frames_roundtrip_cell_region_with_nans(tmp_path, rng):
    fld = _random_field(rng, region="effective-cell")
    # one NaN frame travels through the file unchanged
    g = fld.geometry.cell_points().reshape(-1, 2)[3]
    fld.data[fld.geometry.cell_index(g)] = np.nan
    path = tmp_path / "cell.blf"
    save_frames(path, fld)
    back = load_frames(path)
    assert np.array_equal(
        np.isnan(back.data), np.isnan(fld.data)
    )
    mask = ~np.isnan(fld.data)
    assert np.array_equal(back.data[mask], fld.data[mask])


def test_frames_writer_is_deterministic(tmp_path, rng):
    fld = _random_field(rng)
    p1, p2 = tmp_path / "a.blf", tmp_path / "b.blf"
    save_frames(p1, fld)
    save_frames(p2, fld)
    assert file_sha256(p1) == file_sha256(p2)
    # the BLF1 file is the writer's one output
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.blf", "b.blf"]


def test_frames_loader_rejects_other_files(tmp_path):
    bad = tmp_path / "bad.blf"
    bad.write_bytes(b"NOPE" + bytes(28))
    with pytest.raises(UsageError):
        load_frames(bad)


def test_frames_loader_rejects_truncated_payload(tmp_path, rng):
    fld = _random_field(rng)
    path = tmp_path / "frames.blf"
    save_frames(path, fld)
    raw = path.read_bytes()
    path.write_bytes(raw[:-16])
    with pytest.raises(UsageError):
        load_frames(path)


@pytest.mark.parametrize("kind", ["blf1", "wan1"])
@pytest.mark.parametrize("cut", ["10 bytes", "30 bytes", "8 bytes short"])
def test_loaders_reject_cut_files(tmp_path, rng, kind, cut):
    fld = _random_field(rng)
    path = tmp_path / f"cut.{kind}"
    if kind == "blf1":
        save_frames(path, fld)
        load = load_frames
    else:
        save_wannier(path, wannier_transform(fld))
        load = load_wannier
    raw = path.read_bytes()
    keep = {"10 bytes": 10, "30 bytes": 30, "8 bytes short": len(raw) - 8}[cut]
    path.write_bytes(raw[:keep])
    with pytest.raises(UsageError):
        load(path)


@pytest.mark.parametrize("kind", ["blf1", "wan1"])
@pytest.mark.parametrize("offset, value", [(8, 7), (12, 5)], ids=["d=7", "odd grid_n"])
def test_loaders_reject_headers_no_geometry_accepts(tmp_path, rng, kind, offset, value):
    fld = _random_field(rng)
    path = tmp_path / f"bad.{kind}"
    if kind == "blf1":
        save_frames(path, fld)
        load = load_frames
    else:
        save_wannier(path, wannier_transform(fld))
        load = load_wannier
    raw = bytearray(path.read_bytes())
    raw[offset : offset + 4] = struct.pack("<I", value)
    path.write_bytes(bytes(raw))
    with pytest.raises(UsageError, match="invalid header"):
        load(path)


@pytest.mark.parametrize("offset, value", [(12, 2), (24, 0)],
                         ids=["grid_n 4 as 2", "full-torus as effective-cell"])
def test_frames_loader_rejects_dims_the_header_does_not_name(tmp_path, rng, offset, value):
    path = tmp_path / "frames.blf1"
    save_frames(path, _random_field(rng))
    raw = bytearray(path.read_bytes())
    raw[offset : offset + 4] = struct.pack("<I", value)
    path.write_bytes(bytes(raw))
    with pytest.raises(UsageError, match="needs"):
        load_frames(path)


def test_frames_loader_rejects_an_unknown_region_code(tmp_path, rng):
    path = tmp_path / "frames.blf1"
    save_frames(path, _random_field(rng))
    raw = bytearray(path.read_bytes())
    raw[24:28] = struct.pack("<I", 1)
    path.write_bytes(bytes(raw))
    with pytest.raises(UsageError, match="unknown region code 1"):
        load_frames(path)


@pytest.mark.parametrize("offset, value", [(0, b"WAN2"), (4, struct.pack("<I", 2))],
                         ids=["magic", "version"])
def test_wannier_loader_rejects_other_files(tmp_path, rng, offset, value):
    path = tmp_path / "set.wan1"
    save_wannier(path, wannier_transform(_random_field(rng)))
    raw = bytearray(path.read_bytes())
    raw[offset : offset + 4] = value
    path.write_bytes(bytes(raw))
    with pytest.raises(UsageError, match="not a WAN1 version 1 file"):
        load_wannier(path)


def test_wannier_roundtrip(tmp_path, rng):
    fld = _random_field(rng)
    wset = wannier_transform(fld)
    path = tmp_path / "w.wan"
    save_wannier(path, wset)
    back = load_wannier(path)
    assert back.offset == wset.offset
    assert np.array_equal(back.data, wset.data)
    assert back.geometry.grid_n == wset.geometry.grid_n


def test_wannier_csv_layout(tmp_path, rng):
    geo = CellGeometry(1, 2)
    data = (rng.standard_normal((4, 2, 1)) + 1j * rng.standard_normal((4, 2, 1)))
    wset = WannierSet(geo, data, -2)
    path = tmp_path / "w.csv"
    write_wannier_csv(path, wset)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["gamma_1", "orbital", "band", "re", "im"]
    assert len(rows) == 1 + 4 * 2 * 1
    # first data row is site gamma = -2, orbital 0, band 0
    assert rows[1][0] == "-2"
    assert float(rows[1][3]) == data[0, 0, 0].real
    assert float(rows[1][4]) == data[0, 0, 0].imag


def test_wannier_csv_export_roundtrips_the_binary_set(tmp_path, rng):
    """``%.17g`` keeps every float64, so the on-demand CSV export of a
    loaded ``WAN1`` file parses back to the amplitudes bit for bit."""
    wset = wannier_transform(_random_field(rng))
    wan1, path = tmp_path / "w.wan1", tmp_path / "w.csv"
    save_wannier(wan1, wset)
    write_wannier_csv(path, load_wannier(wan1))
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    d = wset.geometry.d
    back = np.full(wset.data.shape, np.nan, dtype=complex)
    for row in rows:
        site = tuple(int(g) - wset.offset for g in row[:d])
        orb, band = int(row[d]), int(row[d + 1])
        back[site + (orb, band)] = complex(float(row[d + 2]), float(row[d + 3]))
    assert len(rows) == wset.data.size
    assert np.array_equal(back, wset.data)


def test_write_json_sorted_and_stable(tmp_path):
    path = tmp_path / "doc.json"
    write_json(path, {"b": np.float64(2.0), "a": np.arange(3)})
    text = path.read_text()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert read_json(path) == {"a": [0, 1, 2], "b": 2.0}


def test_file_sha256_known_vector(tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(b"abc")
    assert file_sha256(path) == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )


def test_jsonable_handles_numpy_and_complex():
    out = jsonable(
        {
            "arr": np.array([1.0, 2.0]),
            "int": np.int64(3),
            "flag": np.bool_(True),
            "z": 1 + 2j,
            ("t", 1): "tuple key",
        }
    )
    json.dumps(out)
    assert out["arr"] == [1.0, 2.0]
    assert out["int"] == 3
    assert out["flag"] is True
    assert out["z"] == {"re": 1.0, "im": 2.0}
    assert out["('t', 1)"] == "tuple key"
