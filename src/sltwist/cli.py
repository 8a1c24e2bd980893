"""Command-line front end: every operation as a subcommand.

Exit codes: 0 success, 1 invariant-suite violation, 2 argument errors,
3 numerical failure (integration, bracketing, lifetime), 141 a pipe
written to (stdout or an --out FIFO) closed by its reader before the
output was written (128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import re
import sys

import numpy as np

from . import geometry as geo
from .catenoid import verify_catenoid_symmetry
from .closure import (K0_CAP, RationalTarget, find_tau_for_angular_period,
                      half_period_classification, k0_from_target, necklace, verify_closed)
from .curve import Curve
from .geometry.export import report_to_json
from .ode_engine import EventError, IntegrationError, Tolerances
from .periods import (partial_periods_quadrature, period_ode, pthat_quadrature,
                      pthat_quadrature_psi2)
from .twisted_curve import AdmissiblePair, TwistParam, f_poly
from .variation import check_asymptotics, dpthat_dtau_cross_check

TOL_PRESETS = {
    "fast": Tolerances(1e-9),
    "standard": Tolerances(1e-12),
    "strict": Tolerances(5e-13),
}


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    body = report_to_json(payload) if args.json else "\n".join(text_lines)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(body + "\n")
    else:
        print(body)


def _param(args) -> TwistParam:
    return TwistParam(AdmissiblePair(args.p, args.q), args.tau)


def _parse_target(text: str) -> RationalTarget:
    try:
        a, b = text.split("/")
        return RationalTarget(int(a), int(b))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a/b in lowest terms: {exc}")


def _bounded(kind, ok, what: str):
    """An argparse type: ``kind(text)``, refused unless it is ``what``."""
    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text} is not {what}")
        return value
    parse.__name__ = kind.__name__      # argparse names it in "invalid int value"
    return parse


# -- subcommands ---------------------------------------------------------------


def cmd_solve(args) -> int:
    curve = Curve(_param(args), TOL_PRESETS[args.tol])
    half_window = args.window or (2.0 * curve.period.p_tau if args.tau != 0.0 else 5.0)
    traj = curve.traj(-half_window, half_window)
    if args.out:
        ts = np.linspace(-half_window, half_window, args.samples)
        geo.trajectory_csv(traj, ts, args.out)
        print(f"wrote {args.out}")
        return 0
    payload = {"p": args.p, "q": args.q, "tau": args.tau,
               "window": half_window, "drift": traj.drift}
    _emit(args, payload, [f"drift over [-{half_window}, {half_window}]: "
                          + ", ".join(f"{k}={v:.3e}" for k, v in traj.drift.items())])
    return 0


def cmd_periods(args) -> int:
    param = _param(args)
    tol = TOL_PRESETS[args.tol]
    data = period_ode(param, tol)
    qp, qm = partial_periods_quadrature(param)
    gap = abs(qp + qm - data.p_tau)
    payload = dataclasses.asdict(data)
    payload.update({
        "p_plus_quadrature": qp, "p_minus_quadrature": qm,
        "pthat_quadrature": pthat_quadrature(param),
        "route_gap_p_tau": gap,
    })
    _emit(args, payload, [
        f"p_tau   = {data.p_tau!r}   (quadrature gap {gap:.2e})",
        f"p_plus  = {data.p_plus!r}",
        f"p_minus = {data.p_minus!r}",
        f"pthat   = {data.pthat!r}",
    ])
    return 0


def cmd_closure(args) -> int:
    pair, target = AdmissiblePair(args.p, args.q), args.target
    tol = TOL_PRESETS[args.tol]
    report = half_period_classification(pair, target)
    if report.k0 is None:       # integer arithmetic: refuse before the tau search
        raise ValueError(f"rotational order k0 = {k0_from_target(pair, target)} is above "
                         f"the cap {K0_CAP}: closure cannot be verified")
    curve = find_tau_for_angular_period(pair, target, tol=tol)
    tau, data = curve.param.tau, curve.period
    check = verify_closed(curve, report.k0, samples=args.samples)
    error = abs(data.pthat - target.angle)
    payload = {"tau": tau, "pthat_error": error,
               "report": dataclasses.asdict(report),
               "closure_residual": check.closure_residual,
               "rotation_residual": check.rotation_residual}
    _emit(args, payload, [
        f"tau = {tau!r}  (pthat error {error:.2e})",
        f"k0 = {report.k0}, topology {report.topology}",
        f"generator {report.per_generator}, half-period type {report.half_period_type}",
        f"closure residual {check.closure_residual:.2e}, "
        f"rotation residual {check.rotation_residual:.2e}",
    ])
    return 0


def cmd_necklace(args) -> int:
    pair = AdmissiblePair(args.p, args.q)
    tol = TOL_PRESETS[args.tol]
    curve, k0 = necklace(pair, args.m, tol)
    tau, data = curve.param.tau, curve.period
    check = verify_closed(curve, k0, samples=args.samples)
    payload = {"tau": tau, "k0": k0, "p_tau": data.p_tau, "pthat": data.pthat,
               "closure_residual": check.closure_residual}
    _emit(args, payload, [
        f"tau = {tau!r}",
        f"k0 = {k0}  (closes after {2 * k0} half-periods, "
        f"t-period {2 * k0 * data.p_tau!r})",
        f"closure residual {check.closure_residual:.2e}",
    ])
    return 0


def cmd_torque(args) -> int:
    curve = Curve(_param(args), TOL_PRESETS[args.tol])
    pair = curve.param.pair
    tgen = geo.t_generator(pair)
    reports = [geo.torque(curve, tgen, meridian_t=t0) for t0 in (0.3, 1.1)]
    reports.append(geo.torque(curve, geo.rotation_generator(pair.n, 0, pair.n - 1),
                              meridian_t=0.3))
    gap = abs(reports[0].numeric - reports[1].numeric)
    payload = {"reports": [dataclasses.asdict(r) for r in reports], "meridian_gap": gap}
    _emit(args, payload, [
        f"t-generator flux {reports[0].numeric!r} vs closed form "
        f"{reports[0].closed_form!r} (abs err {reports[0].abs_error:.2e})",
        f"meridian independence gap {gap:.2e}",
        f"off-diagonal flux {reports[2].numeric:.2e}",
    ])
    return 0


def cmd_asymptotics(args) -> int:
    pair = AdmissiblePair(args.p, args.q)
    taus = [float(t) for t in args.tau_list.split(",")]
    reports = check_asymptotics(pair, taus)
    payload = {"reports": [dataclasses.asdict(r) for r in reports]}
    lines = [f"{r.law_id:12s} tau={r.tau:<8g} measured={r.measured:<12.6g} "
             f"predicted={r.predicted:<12.6g} ratio={r.ratio:.4f}" for r in reports]
    _emit(args, payload, lines)
    return 0


def cmd_neck(args) -> int:
    curve = Curve(_param(args), TOL_PRESETS[args.tol])
    comp = geo.neck_rescale(curve, args.waist, args.window)
    b = comp.window
    symmetry = verify_catenoid_symmetry(comp.catenoid_degree)
    payload = {"beta": comp.beta, "max_error": comp.max_error,
               "window": comp.window, "waist_index": comp.waist_index,
               "waist_kind": comp.waist_kind, "catenoid_degree": comp.catenoid_degree,
               "profile_symmetry": symmetry}
    _emit(args, payload, [
        f"waist {comp.waist_index} (kind {comp.waist_kind}), "
        f"degree-{comp.catenoid_degree} catenoid, beta = {comp.beta!r}",
        f"max |profile - catenoid| over [-{b}, {b}] = {comp.max_error!r}",
        f"unit profile reflection residual {symmetry:.2e}",
    ])
    return 0


def cmd_export(args) -> int:
    curve = Curve(_param(args), TOL_PRESETS[args.tol])
    if args.format == "json":
        with open(args.out, "w") as fh:
            fh.write(report_to_json(curve.period, kind="PeriodData") + "\n")
    elif args.format == "csv":
        w = args.window or 5.0
        ts = np.linspace(-w, w, args.samples)
        geo.trajectory_csv(curve.traj(-w, w), ts, args.out)
    else:
        if (args.p, args.q) != (1, 2):
            raise ValueError("obj export supports the (1,2) surface case only")
        w = args.window or 3.0
        sampler = geo.immersion_sampler(curve, (-w, w))
        geo.export(sampler, (args.samples, args.samples), "obj", args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_verify(args) -> int:
    param = _param(args)
    pair = param.pair
    curve = Curve(param, TOL_PRESETS[args.tol])
    failures = []
    checks: list[tuple[str, float, float]] = []

    qp, qm = partial_periods_quadrature(param)
    reach = 10.0 * (qp + qm) * (1.0 + 1e-6)
    curve.traj(-reach, reach)           # sized once for every check below
    data = curve.period
    traj = curve.traj(-10.0 * data.p_tau, 10.0 * data.p_tau)
    checks.append(("I1 drift", traj.drift["I1"], 1e-9))
    checks.append(("I2 drift", traj.drift["I2"], 1e-9))

    ts = np.linspace(-10.0 * data.p_tau, 10.0 * data.p_tau, 400)
    energy = np.max(np.abs(traj.ydot(ts) ** 2 - 4.0 * f_poly(pair, traj.y(ts))
                           + 16.0 * param.tau**2))
    checks.append(("energy residual", float(energy), 1e-8))

    checks.append(("period route gap", abs(qp + qm - data.p_tau), 1e-8))
    checks.append(("pthat route gap", abs(pthat_quadrature(param) - data.pthat), 1e-8))
    checks.append(("Psi(2p) residual",
                   abs(pair.p * data.psi1_2p + pair.q * data.psi2_2p), 1e-9))
    checks.append(("pthat psi2 route gap",
                   abs(-0.5 * pair.q * data.psi2_2p - pthat_quadrature_psi2(param)), 1e-8))

    checks.append(("Wronskian drift", curve.Q.wronskian_drift, 1e-8))
    cross = dpthat_dtau_cross_check(curve)
    checks.append(("dpthat/dtau rel gap", cross["rel_err"], 1e-6))

    sym = geo.symmetry_residuals(curve)
    for key, val in sym.items():
        checks.append((f"symmetry {key}", val, 1e-8))

    tq = geo.torque(curve, geo.t_generator(pair))
    checks.append(("torque t-generator", tq.abs_error, 1e-8))
    off = geo.torque(curve, geo.rotation_generator(pair.n, 0, pair.n - 1))
    checks.append(("torque off-diagonal", abs(off.numeric), 1e-10))

    sampler = geo.immersion_sampler(curve, (-0.8 * data.p_tau, 0.8 * data.p_tau))
    checks.append(("legendrian residual", geo.legendrian_residual(sampler, 100), 1e-6))

    lines, payload = [], {}
    for name, value, bound in checks:
        ok = bool(value <= bound)
        if not ok:
            failures.append(name)
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name:24s} {value:.3e} (limit {bound:.0e})")
        payload[name] = {"value": value, "limit": bound, "pass": ok}
    _emit(args, {"checks": payload, "failures": failures}, lines)
    return 1 if failures else 0


# -- parser --------------------------------------------------------------------

# argparse reads a negative number as a value only as -1 or -.5, and this as a flag
_NEGATIVE_EXPONENT = re.compile(r"-[\d.]+e[-+]?\d+", re.IGNORECASE)

# every option a subcommand may take; --p and --q are taken by all
_OPTIONS = {
    "tau": dict(type=float, required=True),
    "target": dict(type=_parse_target, required=True,
                   help="rational angular-period target a/b (times pi)"),
    "m": dict(type=int, required=True),
    "tau-list": dict(default="1e-2,1e-3,1e-4"),
    "tol": dict(choices=sorted(TOL_PRESETS), default="standard"),
    "json": dict(action="store_true"),
    "out": dict(),
    "format": dict(choices=("csv", "json", "obj"), default="csv"),
    "samples": dict(type=_bounded(int, lambda n: n >= 2, "an integer >= 2")),
    "window": dict(type=_bounded(float, lambda w: 0.0 < w < float("inf"), "a finite number > 0")),
    "waist": dict(type=int, default=1),
}

# the options of each subcommand, with the settings that differ from _OPTIONS
_REPORT = {"json": {}, "out": {}}
_COMMANDS = {
    "solve": {"tau": {}, "tol": {}, **_REPORT, "samples": {"default": 201}, "window": {}},
    "periods": {"tau": {}, "tol": {}, **_REPORT},
    "closure": {"target": {}, "tol": {}, **_REPORT, "samples": {"default": 20}},
    "necklace": {"m": {}, "tol": {}, **_REPORT, "samples": {"default": 20}},
    "torque": {"tau": {}, "tol": {}, **_REPORT},
    "asymptotics": {"tau-list": {}, **_REPORT},
    "neck": {"tau": {}, "tol": {}, **_REPORT, "window": {}, "waist": {}},
    "export": {"tau": {}, "tol": {}, "out": {"required": True}, "format": {},
               "samples": {"default": 64}, "window": {}},
    # verify's limits are fixed; the fast preset fails them at every pair
    "verify": {"tau": {}, "tol": {"choices": ("standard", "strict")}, **_REPORT},
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sltwist",
        description="twisted special Legendrian curve laboratory")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, options in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--p", type=int, required=True)
        p.add_argument("--q", type=int, required=True)
        for flag, settings in options.items():
            p.add_argument(f"--{flag}", **{**_OPTIONS[flag], **settings})
        p.set_defaults(fn=globals()[f"cmd_{name}"])
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    for i in range(len(argv) - 1, 0, -1):       # "--tau -9.3e-05" -> "--tau=-9.3e-05"
        if argv[i - 1].startswith("--") and _NEGATIVE_EXPONENT.fullmatch(argv[i]):
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()          # a reader gone early shows here, not at exit
        return code
    except BrokenPipeError:
        # a pipe written to (stdout or an --out FIFO) lost its reader, as SIGPIPE
        # ends a C tool.  Only a process's own stdout still holding unwritten bytes
        # goes to devnull (the Python docs' recipe), so its flush at exit prints
        # no traceback; a caller's redirected or working stdout is left alone
        if sys.stdout is sys.__stdout__:
            try:
                sys.stdout.flush()
            except BrokenPipeError:
                devnull = os.open(os.devnull, os.O_WRONLY)
                os.dup2(devnull, sys.stdout.fileno())
                os.close(devnull)
        return 141
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IntegrationError, EventError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
