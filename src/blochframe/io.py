"""Binary and text artifact formats.

Two small self-describing binary containers are defined:

``BLF1`` (frame fields)
    magic ``BLF1``; little-endian u32 fields version, d, grid_n, n, m,
    region code (0 effective-cell, 2 full-torus), ndim; then
    ``ndim`` u32 array dimensions; then the payload: for each grid point in
    row-major order, the n x m frame in column-major order, each entry as a
    float64 (re, im) pair.

``WAN1`` (Wannier amplitudes)
    magic ``WAN1``; little-endian u32 fields version, d, grid_n, n, m,
    then the window offset as an i32; payload as above over the lattice
    window, sites in row-major order.

Writers are deterministic (no timestamps, fixed key order in JSON), so
identical inputs produce byte-identical artifacts.

:func:`write_wannier_csv` is an export only: no pipeline stage writes it,
and ``WAN1`` is the one stored form of the amplitudes.  Call it on demand,
e.g. ``write_wannier_csv("w.csv", load_wannier("run/wannier.wan1"))``.
"""

import csv
import hashlib
import json
import struct

import numpy as np

from .cells import CellGeometry
from .errors import UsageError
from .frames import FrameField, _grid_shape
from .wannier import WannierSet

__all__ = [
    "save_frames",
    "load_frames",
    "save_wannier",
    "load_wannier",
    "write_wannier_csv",
    "write_json",
    "read_json",
    "file_sha256",
    "jsonable",
]

_REGION_CODES = {"effective-cell": 0, "full-torus": 2}
_REGION_NAMES = {v: k for k, v in _REGION_CODES.items()}


def jsonable(obj):
    """Recursively convert numpy containers and scalars to JSON-safe types."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    return obj


def write_json(path, obj):
    """Write a JSON document with sorted keys and a trailing newline."""
    text = json.dumps(jsonable(obj), indent=2, sort_keys=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def read_json(path):
    """The JSON object stored at ``path``; a document that does not parse,
    or is not an object, raises :class:`UsageError` naming the file."""
    remedy = "rerun construct (and wannierize) to rewrite it"
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise UsageError(f"{path} is not valid JSON ({exc}); {remedy}",
                             path=str(path)) from None
    if not isinstance(doc, dict):
        raise UsageError(f"{path} does not hold a JSON object; {remedy}",
                         path=str(path))
    return doc


def file_sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _payload_bytes(data):
    """Serialize grid + (n, m) complex data: frames column-major per point."""
    swapped = np.ascontiguousarray(np.swapaxes(data, -1, -2).astype(np.complex128))
    return swapped.tobytes()


def _payload_array(raw, shape):
    """Inverse of :func:`_payload_bytes` for a known logical shape."""
    swapped_shape = shape[:-2] + (shape[-1], shape[-2])
    if len(raw) != 16 * int(np.prod(swapped_shape)):
        raise UsageError("artifact payload size does not match its header")
    flat = np.frombuffer(raw, dtype="<c16")
    return np.ascontiguousarray(
        np.swapaxes(flat.reshape(swapped_shape), -1, -2)
    )


def _read_struct(fh, fmt, path):
    """Unpack ``fmt`` from the next bytes of ``fh``; a short read means the
    file was cut inside its header."""
    size = struct.calcsize(fmt)
    raw = fh.read(size)
    if len(raw) != size:
        raise UsageError(f"{path} is truncated inside its header")
    return struct.unpack(fmt, raw)


def _geometry(d, grid_n, path):
    """Grid geometry named by a file header; a header that no geometry
    accepts means the file is corrupt."""
    try:
        return CellGeometry(d, grid_n)
    except ValueError as exc:
        raise UsageError(f"{path} has an invalid header: {exc}") from None


def save_frames(path, field):
    """Write a frame field as a ``BLF1`` file."""
    data = np.asarray(field.data, dtype=complex)
    geometry = field.geometry
    header = struct.pack(
        "<4sIIIIII",
        b"BLF1",
        1,
        geometry.d,
        geometry.grid_n,
        field.n,
        field.m,
        _REGION_CODES[field.region],
    )
    dims = struct.pack("<I", data.ndim) + struct.pack(
        f"<{data.ndim}I", *data.shape
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(dims)
        fh.write(_payload_bytes(data))


def load_frames(path):
    """Read a ``BLF1`` file back into a frame field."""
    with open(path, "rb") as fh:
        magic, version, d, grid_n, n, m, region_code = _read_struct(
            fh, "<4sIIIIII", path
        )
        if magic != b"BLF1" or version != 1:
            raise UsageError(f"{path} is not a BLF1 version 1 file")
        (ndim,) = _read_struct(fh, "<I", path)
        shape = _read_struct(fh, f"<{ndim}I", path)
        raw = fh.read()
    geometry = _geometry(d, grid_n, path)
    region = _REGION_NAMES.get(region_code)
    if region is None:
        raise UsageError(f"unknown region code {region_code} in {path}")
    grid = _grid_shape(geometry, region)
    if tuple(shape) != grid + (n, m):
        raise UsageError(
            f"{path} holds an array of shape {tuple(shape)}; its header "
            f"(d={d}, grid_n={grid_n}, n={n}, m={m}, {region}) needs {grid + (n, m)}"
        )
    data = _payload_array(raw, tuple(shape))
    return FrameField(geometry, region, data, {})


def save_wannier(path, wset):
    """Write a Wannier set as a ``WAN1`` file."""
    data = np.asarray(wset.data, dtype=complex)
    geometry = wset.geometry
    header = struct.pack(
        "<4sIII",
        b"WAN1",
        1,
        geometry.d,
        geometry.grid_n,
    ) + struct.pack("<IIi", data.shape[-2], data.shape[-1], int(wset.offset))
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(_payload_bytes(data))


def load_wannier(path):
    with open(path, "rb") as fh:
        magic, version, d, grid_n = _read_struct(fh, "<4sIII", path)
        if magic != b"WAN1" or version != 1:
            raise UsageError(f"{path} is not a WAN1 version 1 file")
        n, m, offset = _read_struct(fh, "<IIi", path)
        raw = fh.read()
    geometry = _geometry(d, grid_n, path)
    shape = (geometry.n_side,) * d + (n, m)
    data = _payload_array(raw, shape)
    return WannierSet(geometry, data, offset, {})


def write_wannier_csv(path, wset):
    """Export amplitudes as CSV rows (gamma per axis, orbital, band, re, im).

    Values are written with ``%.17g``, so they parse back to the same
    float64 numbers.
    """
    d = wset.geometry.d
    gamma = wset.gamma_axis()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [f"gamma_{j + 1}" for j in range(d)] + ["orbital", "band", "re", "im"]
        )
        for site in np.ndindex(*wset.data.shape[:d]):
            block = wset.data[site]
            site_cols = [int(gamma[c]) for c in site]
            for orb in range(block.shape[0]):
                for band in range(block.shape[1]):
                    val = block[orb, band]
                    writer.writerow(
                        site_cols
                        + [orb, band, f"{val.real:.17g}", f"{val.imag:.17g}"]
                    )
