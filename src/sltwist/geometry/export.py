"""Deterministic file export: CSV samples, JSON reports, OBJ meshes.

Numbers are written with 17 significant digits so that identical inputs
produce byte-identical files and JSON reports round-trip bit-exactly.
:func:`format_float` defines the digits.  Files are made and written a
fixed block of rows at a time, so no file is held whole in memory: a line
template of ``%.17g`` fields (``%d`` for OBJ faces) repeated once per row
of the block and applied by a single ``%``, which gives the same bytes as
:func:`format_float` because both call the same double-to-string
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

_BLOCK_ROWS = 4096      # rows made, formatted and written at a time


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


def _write(path, header: str, *sections) -> Path:
    """The header line, then the rows of each section, one line each.

    A section is (line, count, rows): ``line`` is the ``%`` template of one
    row and ``rows(i, j)`` returns rows i..j-1 of the ``count`` as a 2-d
    array.  Rows are made, formatted and written _BLOCK_ROWS at a time.
    """
    path = Path(path)
    with path.open("w") as fh:
        fh.write(header + "\n")
        for line, count, rows in sections:
            for i in range(0, count, _BLOCK_ROWS):
                block = rows(i, min(i + _BLOCK_ROWS, count))
                fh.write("\n".join([line] * len(block)) % tuple(block.ravel().tolist()))
                fh.write("\n")
    return path


def trajectory_csv(traj, ts, path) -> Path:
    """Columns t, Re w1, Im w1, Re w2, Im w2 at the requested times."""
    ts = np.asarray(ts, dtype=float)

    def rows(i, j):
        w1, w2 = traj.w(ts[i:j])
        return np.column_stack([ts[i:j], w1.real, w1.imag, w2.real, w2.imag])

    return _write(path, "t,re_w1,im_w1,re_w2,im_w2", (",".join(["%.17g"] * 5), len(ts), rows))


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


def _grid(axes, i: int, j: int) -> np.ndarray:
    """Points i..j-1 of the grid of ``axes``, the last axis fastest, one per row."""
    index = np.unravel_index(np.arange(i, j), [len(ax) for ax in axes])
    return np.stack([ax[k] for ax, k in zip(axes, index)], axis=-1)


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
        header = [f"u{i}" for i in range(sampler.dim)]
        header += [f"{part}_z{j + 1}" for j in range(sampler.m)
                   for part in ("re", "im")]

        def rows(i, j):
            u = _grid(axes, i, j)
            z = sampler(u)
            return np.concatenate([u, np.stack([z.real, z.imag], axis=-1).reshape(len(u), -1)],
                                  axis=1)

        return _write(path, ",".join(header),
                      (",".join(["%.17g"] * len(header)), math.prod(counts), rows))
    if fmt == "obj":
        if sampler.dim != 2 or sampler.m != 3:
            raise ValueError("obj export needs a 2-parameter sampler in C^3")
        nt, na = int(grid_spec[0]), int(grid_spec[1])
        (t_lo, t_hi), (a_lo, a_hi) = sampler.box[0], sampler.box[1]
        ts = np.linspace(t_lo, t_hi, nt)
        angs = a_lo + (a_hi - a_lo) * np.arange(na) / na

        def verts(i, j):
            return sampler(_grid((ts, angs), i, j))[:, :3].real

        def faces(i, j):
            # face f = r na + c has the 1-based corners (r, c), (r, c+1), (r+1, c+1),
            # (r+1, c), c + 1 wrapping mod na
            f = np.arange(i, j)
            c = f % na
            here, c_next = f - c + 1, (c + 1) % na
            return np.stack([here + c, here + c_next, here + na + c_next, here + na + c],
                            axis=-1)

        return _write(path, f"# projection: {_OBJ_PROJECTION}",
                      ("v %.17g %.17g %.17g", nt * na, verts),
                      ("f %d %d %d %d", (nt - 1) * na, faces))
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
