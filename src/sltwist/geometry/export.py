"""Deterministic file export: CSV samples, JSON reports, OBJ meshes.

Numbers are written with 17 significant digits so that identical inputs
produce byte-identical files and JSON reports round-trip bit-exactly.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

import numpy as np

from ..twisted_curve import TwistParam
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


def trajectory_csv(param: TwistParam, traj, ts, path) -> Path:
    """Columns t, Re w1, Im w1, Re w2, Im w2 at the requested times."""
    path = Path(path)
    ts = np.asarray(ts, dtype=float)
    w1, w2 = traj.w(ts)
    lines = ["t,re_w1,im_w1,re_w2,im_w2"]
    for row in zip(ts, w1.real, w1.imag, w2.real, w2.imag):
        lines.append(",".join(format_float(v) for v in row))
    path.write_text("\n".join(lines) + "\n")
    return path


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


def report_from_json(text: str, cls, kind: str | None = None):
    """Rebuild a flat float-field dataclass from its JSON form."""
    data = json.loads(text)
    if kind is not None:
        data = data[kind]
    kwargs = {}
    for f in dataclasses.fields(cls):
        v = data[f.name]
        kwargs[f.name] = float(v) if isinstance(v, str) and f.type in ("float", float) else v
    return cls(**kwargs)


def _obj_mesh(sampler: Sampler, grid_spec, wrap_last: bool = True):
    """Vertices and quad faces of a 2-parameter sampler grid."""
    nt, na = int(grid_spec[0]), int(grid_spec[1])
    (t_lo, t_hi), (a_lo, a_hi) = sampler.box[0], sampler.box[1]
    ts = np.linspace(t_lo, t_hi, nt)
    if wrap_last:
        angs = a_lo + (a_hi - a_lo) * np.arange(na) / na
    else:
        angs = np.linspace(a_lo, a_hi, na)
    grid = np.stack(np.meshgrid(ts, angs, indexing="ij"), axis=-1).reshape(-1, 2)
    verts = sampler(grid)[:, :3].real
    faces = [(i * na + j + 1, i * na + (j + 1) % na + 1,
              (i + 1) * na + (j + 1) % na + 1, (i + 1) * na + j + 1)
             for i in range(nt - 1) for j in range(na) if wrap_last or j + 1 < na]
    return verts, faces


def export(sampler_or_report, grid_spec=None, fmt: str = "csv", path="out") -> Path:
    """Write a sampler grid or a report to csv / json / obj.

    OBJ output is limited to 2-parameter samplers in C^3 (surface images
    of the (1,2) family); the projection to R^3 is the fixed linear map
    taking componentwise real parts.
    """
    path = Path(path)
    if fmt == "json":
        path.write_text(report_to_json(sampler_or_report) + "\n")
        return path
    if not isinstance(sampler_or_report, Sampler):
        raise TypeError("csv/obj export expects a sampler")
    sampler = sampler_or_report
    if fmt == "csv":
        if grid_spec is None:
            raise ValueError("csv export needs a grid spec")
        counts = [int(c) for c in grid_spec]
        axes = [np.linspace(lo, hi, c)
                for (lo, hi), c in zip(sampler.box, counts)]
        mesh = np.meshgrid(*axes, indexing="ij")
        header = [f"u{i}" for i in range(sampler.dim)]
        header += [f"{part}_z{j + 1}" for j in range(sampler.m)
                   for part in ("re", "im")]
        lines = [",".join(header)]
        u = np.stack(mesh, axis=-1).reshape(-1, sampler.dim)
        z = sampler(u)
        rows = np.concatenate([u, np.stack([z.real, z.imag], axis=-1).reshape(len(u), -1)],
                              axis=1)
        lines += [",".join(format_float(v) for v in row) for row in rows]
        path.write_text("\n".join(lines) + "\n")
        return path
    if fmt == "obj":
        if sampler.dim != 2 or sampler.m != 3:
            raise ValueError("obj export needs a 2-parameter sampler in C^3")
        if grid_spec is None:
            raise ValueError("obj export needs a grid spec")
        verts, faces = _obj_mesh(sampler, grid_spec)
        lines = [f"# projection: {_OBJ_PROJECTION}"]
        for v in verts:
            lines.append("v " + " ".join(format_float(x) for x in v))
        for f in faces:
            lines.append("f " + " ".join(str(i) for i in f))
        path.write_text("\n".join(lines) + "\n")
        return path
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
