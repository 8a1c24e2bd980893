"""Deterministic file export: CSV samples, JSON reports, OBJ meshes.

Numbers are written with 17 significant digits so that identical inputs
produce byte-identical files and JSON reports round-trip bit-exactly.
:func:`format_float` (``f"{x:.17g}"``) defines the digits, and JSON reports
call it for each number.  CSV rows, OBJ vertices and OBJ faces are made a
fixed block of rows at a time, so no file is held whole in memory, and each
block is formatted by one numpy kernel that writes exactly the bytes of
:func:`format_float` for floats and of ``%d`` for face indices.

The kernel gives each number a fixed-width field of NUL-padded bytes, lays
the fields of a row end to end with the line's literal text, and deletes
the NULs of the whole block at once.  For a float x its steps are:

1. k is the exponent of |x|'s leading decimal digit.  P = |x| 10^(16-k) is
   formed as a double-double: the product of |x| with the double nearest
   10^(16-k), split exactly by Dekker's algorithm (tab. J. Dekker, Numer.
   Math. 18 (1971) 224), plus |x| times the remainder of that double, both
   made once per exponent from Python ints.  For P < 10^17 the absolute
   error is below 1e-14: one rounding of the remainder (relative 2^-53 of
   an absolute 2^-53 P) and two of the low-order sum, each below 2^-53 of
   a number under 20.
2. k starts as floor(log10 |x|), which may be one off near a power of ten.
   The side of [10^16, 10^17) on which the unrounded P lies fixes it, and P
   is formed again at the corrected k.  Then D = round-half-even(P), read
   off P's high double (an even integer above 2^53) plus the rounded low
   part; a D equal to 10^17 is 10^16 at k + 1.
3. A number the kernel cannot certify goes to :func:`format_float`, whose
   bytes take its field: a P within 1e-6 of a half-integer (ties, which
   round half-even, among them), of 10^16 or of 10^17 (exact powers of ten
   among them); +-0, subnormals, inf and nan; and any |x| outside
   [1e-250, 1e250], where a product could overflow or underflow.  An error
   below 1e-14 cannot move a P that is 1e-6 from these points across one,
   so every other number's D and k are those of the exact decimal value.
4. %g's layout follows from k and the number of digits left after dropping
   trailing zeros: fixed notation for -4 <= k < 17, where integer digits
   are kept, trailing fraction zeros and a bare point dropped, and
   "0." and zeros lead a k < 0; otherwise d.ddd...e+-XX with at least two
   exponent digits.  A field has a NUL slot after each digit and the point
   is written into the slot after digit k, so one template serves every k.

Face indices are split into groups of four digits, with the leading
zeros of the number made NUL; a negative index would go to ``str``.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from .immersion import Sampler

# fixed linear projection C^3 -> R^3 used for OBJ output: componentwise
# real part, which sends the tau -> 0 limit sphere to the round sphere.
_OBJ_PROJECTION = "Re z1, Re z2, Re z3"

_BLOCK_ROWS = 4096      # rows made and written at a time
_CHUNK = 2048           # numbers formatted at a time: every temporary stays small
_KMIN, _KMAX = -252, 252    # decimal exponents with a row in the tables
_LO, _HI = 1e-250, 1e250    # |x| the kernel formats; no product leaves the normal range
_TIE = 0.5 - 1e-6           # a P closer than 1e-6 to a half-integer is not certified
_EDGE = 1e-6                # nor one closer than that to 10^16 or 10^17
_U8, _U4 = np.dtype("<u8"), np.dtype("<u4")
# a float field is 6 little-endian 8-byte words: word 0 the sign, "0." and
# zeros (k < 0), d0 and its slot; words 1-4 d1-d16, each with its slot;
# word 5 the exponent, then from bit _TAIL the field's tail
_FLOAT_WORDS = 6
_TAIL = 40              # bit of word 5 where a float field's trailing literal starts
_SPLIT = 134217729.0    # 2^27 + 1, Dekker's splitting constant


def format_float(x: float) -> str:
    return f"{float(x):.17g}"


@functools.lru_cache(maxsize=None)
def _tables() -> SimpleNamespace:
    """The kernel's lookup tables, built on first use.

    Per decimal exponent k (row k - _KMIN): the double nearest 10^(16-k),
    its Dekker halves and the double nearest its remainder; the form, k + 4
    for fixed notation and 4 (laid out as k = 0) for exponent notation; the
    exponent word.  Per form: the digits fixed notation keeps before the
    point.  Per form and count of digits kept: the masks of words 1-4 that
    keep those digits and the point after digit k if a digit follows it.
    Per sign, form and leading digit: word 0.  Per group of four digits:
    their word with slots, and (row q for group q) the count of digits up
    to the group's last nonzero one, d0 counted, or 1 for a zero group.
    """
    ks = range(_KMIN, _KMAX + 1)
    scale = []
    for k in ks:
        num, den = 10 ** max(16 - k, 0), 10 ** max(k - 16, 0)
        c = num / den                       # correctly rounded, as is int / int
        n, d = c.as_integer_ratio()
        t = c * _SPLIT
        hi = t - (t - c)
        scale.append((c, hi, c - hi, (num * d - n * den) / (den * d)))
    forms = range(-4, 17)                   # k of each form
    layout = []
    for k in forms:
        for keep in range(18):
            kept = [max(0, min(4, keep - 1 - 4 * q)) for q in range(4)]
            point = [0] * 5
            if k >= 0 and keep > k + 1:
                point[(2 * k + 7) // 8] = ord(".") << 8 * ((2 * k + 7) % 8)
            layout.append([(1 << 16 * j) - 1 for j in kept] + point)
    heads = [(sign + ("0." + "0" * (-k - 1) if k < 0 else "")).ljust(6, "\0") + str(d0)
             for sign in ("", "-") for k in forms for d0 in range(10)]
    g = np.arange(10000, dtype=np.int16)                # small types keep set-up memory small
    digits = (48 + g[:, None] // np.array([1000, 100, 10, 1], dtype=np.int16) % 10).astype(np.uint8)
    slotted = np.zeros((10000, 8), dtype=np.uint8)
    slotted[:, ::2] = digits
    trailing = sum((g % 10 ** t == 0).view(np.int8) for t in range(1, 4))
    width = sum((g >= 10 ** t).view(np.int8) for t in range(4))     # digits of g, 0 for 0
    lead = np.where(np.arange(4, dtype=np.int8) >= 4 - width[:, None], digits, np.uint8(0))
    alone = lead.copy()
    alone[0, 3] = ord("0")
    return SimpleNamespace(
        scale=np.array(scale).T.copy(),
        form=np.array([k + 4 if -4 <= k < 17 else 4 for k in ks]),
        expo=np.array([0 if -4 <= k < 17 else int.from_bytes(f"e{k:+03d}".encode(), "little")
                       for k in ks], dtype=_U8),
        intd=np.array([max(k + 1, 0) for k in forms]),
        layout=np.array(layout, dtype=_U8).T.copy(),
        head=np.array([int.from_bytes(h.encode(), "little") for h in heads], dtype=_U8),
        quads=slotted.view(_U8).reshape(-1),
        last=np.where(g > 0, np.arange(5, 18, 4, dtype=np.int8)[:, None] - trailing,
                      np.int8(1)).reshape(-1),
        group_rows=np.arange(0, 40000, 10000)[:, None],
        # ints[sel * 10000 + g]: g with its leading zeros NUL (sel 0, and 0 all NUL),
        # all four digits (sel 1), or as sel 0 but 0 written "0" (sel 2)
        ints=np.concatenate([lead, digits, alone]).view(_U4).reshape(-1),
    )


def _scaled(scale, a: np.ndarray, i: np.ndarray):
    """a 10^(16-k) as the unevaluated sum p + e, k = i + _KMIN."""
    c, c_hi, c_lo, rem = scale.take(i, axis=1)
    p = a * c
    t = a * _SPLIT
    a_hi = t - (t - a)
    a_lo = a - a_hi
    return p, ((a_hi * c_hi - p) + a_hi * c_lo + a_lo * c_hi) + a_lo * c_lo + a * rem


def _float_fields(block: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """The (rows, cols, _FLOAT_WORDS) fields of a float block, tails[j] closing column j."""
    tab = _tables()
    x = np.ascontiguousarray(block, dtype=float).reshape(-1)
    ax = np.abs(x)
    fast = (ax >= _LO) & (ax <= _HI)
    a = np.where(fast, ax, 1.0)
    i = (np.log10(a) - _KMIN).astype(np.intp)        # floor, as the sum is positive
    p, e = _scaled(tab.scale, a, i)
    below, above = (p - 1e16) + e, (p - 1e17) + e   # P - 10^16 and P - 10^17
    moved = np.flatnonzero((below < 0) | (above >= 0))
    if len(moved):
        i[moved] += np.where(below[moved] < 0, -1, 1)
        p[moved], e[moved] = _scaled(tab.scale, a[moved], i[moved])
        below[moved], above[moved] = (p[moved] - 1e16) + e[moved], (p[moved] - 1e17) + e[moved]
    r = np.rint(e)
    fast &= np.abs(e - r) <= _TIE
    fast &= below >= _EDGE
    fast &= above <= -_EDGE
    d = p.astype(np.int64)
    d += r.astype(np.int64)
    if (above > -1).any():
        top = np.flatnonzero(d == 10 ** 17)
        d[top] = 10 ** 16
        i[top] += 1
    hi = d // 10 ** 8
    lo = d - hi * 10 ** 8
    d0 = hi // 10 ** 8
    hi -= d0 * 10 ** 8
    g = np.empty((4, len(x)), dtype=np.intp)        # d1-d4, d5-d8, d9-d12, d13-d16
    np.floor_divide(hi, 10 ** 4, out=g[0])
    np.subtract(hi, g[0] * 10 ** 4, out=g[1])
    np.floor_divide(lo, 10 ** 4, out=g[2])
    np.subtract(lo, g[2] * 10 ** 4, out=g[3])
    keep = np.maximum.reduce(tab.last.take(g + tab.group_rows), axis=0)
    form = tab.form.take(i)
    np.maximum(keep, tab.intd.take(form), out=keep)
    layout = tab.layout.take(form * 18 + keep, axis=1)      # 18 counts 0..17 a form
    cols = np.empty((_FLOAT_WORDS, len(x)), dtype=_U8)
    cols[0] = tab.head.take(d0 + 10 * form + 210 * (x < 0))  # 21 forms of 10 digits a sign
    np.bitwise_and(tab.quads.take(g), layout[:4], out=cols[1:5])
    cols[:5] |= layout[4:]
    np.bitwise_or(tab.expo.take(i).reshape(block.shape), tails, out=cols[5].reshape(block.shape))
    words = np.ascontiguousarray(cols.T)
    slow = np.flatnonzero(~fast)
    if len(slow):
        text = b"".join(format_float(v).encode().ljust(40, b"\0") for v in x[slow].tolist())
        words[slow, :5] = np.frombuffer(text, dtype=_U8).reshape(-1, 5)
        words[slow, 5] &= ~np.uint64((1 << _TAIL) - 1)
    return words.reshape(block.shape + (_FLOAT_WORDS,))


def _int_fields(block: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """The (rows, cols, groups + 1) fields of an integer block: four digits a
    word, then the word of tails[j] closing column j."""
    tab = _tables()
    v = np.ascontiguousarray(block, dtype=np.int64)
    groups = -(-max(len(str(v.max())), len(str(v.min()))) // 4)
    out = np.empty(v.shape + (groups + 1,), dtype=_U4)
    v = v.reshape(-1)
    words = out.reshape(len(v), groups + 1)
    rest = np.maximum(v, 0)
    for col in range(groups - 1, -1, -1):
        above = rest // 10 ** 4
        sel = np.where(above > 0, 1, 2) if col == groups - 1 else above > 0
        words[:, col] = tab.ints.take(rest - above * 10 ** 4 + 10 ** 4 * sel)
        rest = above
    out[..., groups] = tails
    for at in np.flatnonzero(v < 0).tolist():
        words[at, :groups] = np.frombuffer(str(v[at]).encode().ljust(4 * groups, b"\0"), dtype=_U4)
    return out


def _write(path, header: str, *sections) -> Path:
    """The header line, then the rows of each section, one line each.

    A section is (line, count, rows): ``line`` is the ``%`` template of one
    row, with ``%.17g`` or ``%d`` fields, and ``rows(i, j)`` returns rows
    i..j-1 of the ``count`` as a 2-d array.  Rows are made _BLOCK_ROWS at a
    time and formatted about _CHUNK numbers at a time.  The literal after
    each field ends its field, and the one after a row's last field is the
    rest of the line, the newline and the next line's leading literal,
    which the section's first line is given before it and its last line
    loses at the end.
    """
    path = Path(path)
    with path.open("wb") as fh:
        fh.write(header.encode() + b"\n")
        for line, count, rows in sections:
            floats = "%d" not in line
            lead, *seps, end = line.split("%.17g" if floats else "%d")
            lead = lead.encode()
            literals = [t.encode() for t in seps] + [end.encode() + b"\n" + lead]
            if max(map(len, literals)) > 3:
                raise ValueError(f"a literal of {line!r} is longer than its field's tail")
            fields = _float_fields if floats else _int_fields
            shift = _TAIL if floats else 0
            tails = np.array([int.from_bytes(t, "little") << shift for t in literals],
                             dtype=_U8 if floats else _U4)
            step = max(1, _CHUNK // len(tails))
            if count:
                fh.write(lead)
            for i in range(0, count, _BLOCK_ROWS):
                block = rows(i, min(i + _BLOCK_ROWS, count))
                for r in range(0, len(block), step):
                    text = fields(block[r:r + step], tails).tobytes().translate(None, b"\0")
                    if i + min(r + step, len(block)) == count:
                        text = text[:len(text) - len(lead)]
                    fh.write(text)
    return path


def trajectory_csv(traj, half_window, samples, path) -> Path:
    """Columns t, Re w1, Im w1, Re w2, Im w2 at the times of np.linspace(-half_window,
    half_window, samples), bit for bit: each block makes its own by linspace's steps."""
    span, div = 2.0 * half_window, max(samples - 1, 1)
    step = span / div       # linspace divides first where the step underflows to 0

    def rows(i, j):
        ts = (np.arange(i, j) * step if step else np.arange(i, j) / div * span) - half_window
        if j == samples > 1:
            ts[-1] = half_window
        w1, w2 = traj.w(ts)
        return np.column_stack([ts, w1.real, w1.imag, w2.real, w2.imag])

    return _write(path, "t,re_w1,im_w1,re_w2,im_w2", (",".join(["%.17g"] * 5), samples, rows))


def _encode(value):
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        return format_float(value)
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


def export(sampler: Sampler, grid_spec, path) -> Path:
    """Write a sampler grid, ``grid_spec`` points per chart axis, as an OBJ mesh.

    OBJ output is limited to 2-parameter samplers in C^3 (surface images
    of the (1,2) family); the projection to R^3 is the fixed linear map
    taking componentwise real parts.  The angular axis is periodic, so it
    needs at least 3 points: with 2, each quad would wrap onto itself and
    be written twice.
    """
    if sampler.dim != 2 or sampler.m != 3:
        raise ValueError("obj export needs a 2-parameter sampler in C^3")
    nt, na = int(grid_spec[0]), int(grid_spec[1])
    if na < 3:
        raise ValueError(f"obj export needs at least 3 angular points, got {na}")
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
        return np.stack([here + c, here + c_next, here + na + c_next, here + na + c], axis=-1)

    return _write(path, f"# projection: {_OBJ_PROJECTION}",
                  ("v %.17g %.17g %.17g", nt * na, verts),
                  ("f %d %d %d %d", (nt - 1) * na, faces))


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
