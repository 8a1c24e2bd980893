"""Deterministic file export: CSV samples, JSON reports, OBJ meshes.

Numbers are written with 17 significant digits so that identical inputs
produce byte-identical files and JSON reports round-trip bit-exactly.
:func:`format_float` defines the digits.  Files are written one block of
rows at a time: a line template of ``%.17g`` fields (``%d`` for OBJ faces)
repeated once per row and applied by a single ``%``, which gives the same
bytes as :func:`format_float` because both call the same double-to-string
conversion.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from .immersion import Sampler

__all__ = [
    "format_float", "trajectory_csv", "report_to_json", "report_from_json",
    "export", "validate_obj",
]

# fixed linear projection C^3 -> R^3 used for OBJ output: componentwise
# real part, which sends the tau -> 0 limit sphere to the round sphere.
_OBJ_PROJECTION = "Re z1, Re z2, Re z3"


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def _block(line: str, rows: np.ndarray) -> str:
    """``line % row`` for each row of a 2-d array, one line each, by one ``%``."""
    return "\n".join([line] * len(rows)) % tuple(rows.ravel().tolist())


def _write(path, *parts: str) -> Path:
    """Each non-empty part, then a newline."""
    path = Path(path)
    with path.open("w") as fh:
        for part in parts:
            if part:
                fh.write(part)
                fh.write("\n")
    return path


def trajectory_csv(traj, ts, path) -> Path:
    """Columns t, Re w1, Im w1, Re w2, Im w2 at the requested times."""
    ts = np.asarray(ts, dtype=float)
    w1, w2 = traj.w(ts)
    rows = np.column_stack([ts, w1.real, w1.imag, w2.real, w2.imag])
    return _write(path, "t,re_w1,im_w1,re_w2,im_w2", _block(",".join(["%.17g"] * 5), rows))


def _encode(value):
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return format_float(value)
    if isinstance(value, complex):
        return {"re": format_float(value.real), "im": format_float(value.imag)}
    if isinstance(value, np.ndarray):
        return [_encode(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _encode(v) for k, v in value.items()}
    if dataclasses.is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    return str(value)


def report_to_json(report, kind: str | None = None) -> str:
    """One top-level object per report; keys are the field names."""
    body = _encode(report)
    if kind is not None:
        body = {kind: body}
    return json.dumps(body, sort_keys=True, separators=(",", ": "), indent=1)


def report_from_json(text: str, cls, kind: str):
    """Rebuild a flat float-field dataclass from its JSON form, written with ``kind``."""
    data = json.loads(text)[kind]
    kwargs = {}
    for f in dataclasses.fields(cls):
        v = data[f.name]
        kwargs[f.name] = float(v) if isinstance(v, str) and f.type in ("float", float) else v
    return cls(**kwargs)


def _obj_mesh(sampler: Sampler, grid_spec):
    """Vertices and quad faces of a 2-parameter sampler grid, closed in the second angle."""
    nt, na = int(grid_spec[0]), int(grid_spec[1])
    (t_lo, t_hi), (a_lo, a_hi) = sampler.box[0], sampler.box[1]
    ts = np.linspace(t_lo, t_hi, nt)
    angs = a_lo + (a_hi - a_lo) * np.arange(na) / na
    grid = np.stack(np.meshgrid(ts, angs, indexing="ij"), axis=-1).reshape(-1, 2)
    verts = sampler(grid)[:, :3].real
    # 1-based corners (i, j), (i, j+1), (i+1, j+1), (i+1, j), j wrapping mod na
    here = np.arange(nt - 1)[:, None] * na + 1
    j, j_next = np.arange(na), (np.arange(na) + 1) % na
    faces = np.stack([here + j, here + j_next, here + na + j_next, here + na + j],
                     axis=-1).reshape(-1, 4)
    return verts, faces


def export(sampler: Sampler, grid_spec, fmt: str, path) -> Path:
    """Write a sampler grid, ``grid_spec`` points per chart axis, as csv or obj.

    OBJ output is limited to 2-parameter samplers in C^3 (surface images
    of the (1,2) family); the projection to R^3 is the fixed linear map
    taking componentwise real parts.
    """
    if fmt == "csv":
        counts = [int(c) for c in grid_spec]
        axes = [np.linspace(lo, hi, c)
                for (lo, hi), c in zip(sampler.box, counts)]
        mesh = np.meshgrid(*axes, indexing="ij")
        header = [f"u{i}" for i in range(sampler.dim)]
        header += [f"{part}_z{j + 1}" for j in range(sampler.m)
                   for part in ("re", "im")]
        u = np.stack(mesh, axis=-1).reshape(-1, sampler.dim)
        z = sampler(u)
        rows = np.concatenate([u, np.stack([z.real, z.imag], axis=-1).reshape(len(u), -1)],
                              axis=1)
        return _write(path, ",".join(header), _block(",".join(["%.17g"] * rows.shape[1]), rows))
    if fmt == "obj":
        if sampler.dim != 2 or sampler.m != 3:
            raise ValueError("obj export needs a 2-parameter sampler in C^3")
        verts, faces = _obj_mesh(sampler, grid_spec)
        return _write(path, f"# projection: {_OBJ_PROJECTION}",
                      _block("v %.17g %.17g %.17g", verts), _block("f %d %d %d %d", faces))
    raise ValueError(f"unsupported format {fmt!r}")


def validate_obj(path) -> tuple[int, int]:
    """Check an OBJ file: counts, index ranges, non-degenerate faces."""
    verts = 0
    faces = 0
    for line in Path(path).read_text().splitlines():
        if line.startswith("v "):
            parts = line.split()[1:]
            if len(parts) != 3 or not all(math.isfinite(float(x)) for x in parts):
                raise ValueError(f"bad vertex line: {line}")
            verts += 1
        elif line.startswith("f "):
            idx = [int(x) for x in line.split()[1:]]
            if len(set(idx)) != len(idx):
                raise ValueError(f"degenerate face: {line}")
            if any(i < 1 or i > verts for i in idx):
                raise ValueError(f"face index out of range: {line}")
            faces += 1
    return verts, faces
