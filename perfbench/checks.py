"""Judge each operation's output against limits the library already states.

Every limit below is quoted from ``sltwist verify``, the CLI tests or the
acceptance criteria; none is invented here:

* ``verify``: the (value, limit) pairs of its own ``--json`` checks;
* ``periods``: period and pthat route gaps <= 1e-8 (``verify``'s limits);
* ``closure``/``necklace``: |pthat - target| <= 1e-10, closure residual
  <= 1e-7, rotation residual <= 1e-8 (acceptance criterion 9);
* ``torque``: t-generator error <= 1e-8, off-diagonal flux <= 1e-10
  (``verify``'s limits);
* ``neck``: max_error < 0.1 (the CLI test of ``neck``);
* files: OBJ passes ``validate_obj``, CSV has the requested rows and
  finite values, JSON round-trips through ``report_from_json``.

An operation *fails* when it exits nonzero or breaks one of these.  Its
output is *broken* when it cannot be read or contradicts itself (for
example ``verify`` calling a value over its limit a pass); a broken
output makes the whole run incorrect.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

MARGIN_CAP = 16.0  # decades credited to a value of exactly 0


@dataclass
class Verdict:
    """Checked quantities, broken limits and broken output of one operation."""

    quantities: list = field(default_factory=list)   # (name, value, limit)
    violations: list = field(default_factory=list)   # limit or exit-code failures
    broken: list = field(default_factory=list)       # unreadable/inconsistent output

    @property
    def failed(self) -> bool:
        return bool(self.violations or self.broken)

    def limit(self, name: str, value: float, limit: float, strict: bool = False) -> None:
        self.quantities.append((name, value, limit))
        ok = value < limit if strict else value <= limit
        if not ok:
            self.violations.append(f"{name} {value:.3e} over limit {limit:.0e}")


def margin_decades(value: float, limit: float) -> float:
    """log10(limit / value), capped at MARGIN_CAP; NaN counts as -MARGIN_CAP."""
    if math.isnan(value):
        return -MARGIN_CAP
    if value <= 0.0:
        return MARGIN_CAP
    return max(min(math.log10(limit / value), MARGIN_CAP), -MARGIN_CAP)


def _verify(v: Verdict, rc: int, out: dict) -> None:
    checks, failures = out["checks"], out["failures"]
    flagged = []
    for name, c in checks.items():
        value, limit = float(c["value"]), float(c["limit"])
        v.limit(name, value, limit)
        passed = c["pass"] in (True, "True")   # numpy bools are written as strings
        if passed != (value <= limit):
            v.broken.append(f"verify marks {name} pass={c['pass']} at {value:.3e} vs {limit:.0e}")
        if not passed:
            flagged.append(name)
    if sorted(flagged) != sorted(failures):
        v.broken.append("verify failure list disagrees with its checks")
    if (rc == 1) != bool(failures):
        v.broken.append(f"verify exit code {rc} disagrees with {len(failures)} failures")


def _periods(v: Verdict, out: dict) -> None:
    v.limit("period route gap", abs(float(out["route_gap_p_tau"])), 1e-8)
    v.limit("pthat route gap", abs(float(out["pthat_quadrature"]) - float(out["pthat"])), 1e-8)


def _closure(v: Verdict, op, out: dict) -> None:
    a, b = (int(x) for x in op.target.split("/"))
    target = a * math.pi / b
    if "pthat_error" in out:
        gap = float(out["pthat_error"])
    else:
        gap = abs(float(out["pthat"]) - target)
    v.limit("pthat - target", gap, 1e-10)
    v.limit("closure residual", float(out["closure_residual"]), 1e-7)
    if "rotation_residual" in out:
        v.limit("rotation residual", float(out["rotation_residual"]), 1e-8)


def _torque(v: Verdict, out: dict) -> None:
    reports = out["reports"]
    for k in (0, 1):
        v.limit(f"torque t-generator {k}", float(reports[k]["abs_error"]), 1e-8)
    v.limit("torque off-diagonal", abs(float(reports[2]["numeric"])), 1e-10)


def _asymptotics(v: Verdict, out: dict) -> None:
    reports = out["reports"]
    if not reports or not all(math.isfinite(float(r["ratio"])) for r in reports):
        v.broken.append("asymptotics reports missing or not finite")


def _obj(v: Verdict, op, path: Path) -> None:
    from sltwist.geometry.export import validate_obj

    try:
        verts, faces = validate_obj(path)
    except ValueError as exc:
        v.violations.append(f"OBJ invalid: {exc}")
        return
    n = op.samples
    if (verts, faces) != (n * n, (n - 1) * n):
        v.violations.append(f"OBJ has {verts} vertices, {faces} faces for a {n}x{n} grid")


def _csv(v: Verdict, op, path: Path) -> None:
    lines = path.read_text().splitlines()
    rows = lines[1:]
    if len(rows) != op.samples:
        v.violations.append(f"CSV has {len(rows)} rows, {op.samples} requested")
    width = len(lines[0].split(","))
    for row in rows:
        cells = row.split(",")
        if len(cells) != width or not all(math.isfinite(float(c)) for c in cells):
            v.violations.append(f"CSV row not {width} finite values: {row}")
            return


def _json_file(v: Verdict, path: Path) -> None:
    from sltwist.geometry.export import report_from_json, report_to_json
    from sltwist.periods import PeriodData

    text = path.read_text()
    try:
        data = report_from_json(text, PeriodData, kind="PeriodData")
    except (KeyError, TypeError, ValueError) as exc:
        v.violations.append(f"JSON does not load: {exc!r}")
        return
    if report_to_json(data, kind="PeriodData") != text.rstrip("\n"):
        v.violations.append("JSON does not round-trip through report_from_json")


def check(op, rc: int, stdout: str, outdir: Path | None = None) -> Verdict:
    """The verdict on one operation from its exit code, stdout and file."""
    v = Verdict()
    command = op.command
    if rc not in (0, 1) or (rc == 1 and command != "verify"):
        v.violations.append(f"exit code {rc}")
        return v
    try:
        if op.out is not None:
            path = Path(outdir) / op.out
            if not path.is_file():
                v.broken.append(f"{op.out} not written")
            elif op.out.endswith(".obj"):
                _obj(v, op, path)
            elif op.out.endswith(".csv"):
                _csv(v, op, path)
            else:
                _json_file(v, path)
            return v
        out = json.loads(stdout)
        if command == "verify":
            _verify(v, rc, out)
        elif command == "periods":
            _periods(v, out)
        elif command in ("closure", "necklace"):
            _closure(v, op, out)
        elif command == "torque":
            _torque(v, out)
        elif command == "neck":
            v.limit("neck max_error", float(out["max_error"]), 0.1, strict=True)
        elif command == "asymptotics":
            _asymptotics(v, out)
        else:
            v.broken.append(f"no checker for {command}")
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        v.broken.append(f"unreadable output: {exc!r}")
    return v
