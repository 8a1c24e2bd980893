"""Command-line front end: every operation as a subcommand.

Exit codes: 0 success, 1 invariant-suite violation, 2 argument errors
(an --out path that cannot be written among them), 3 numerical failure
(integration, bracketing, lifetime), 141 a pipe written to (stdout or an
--out FIFO) closed by its reader before the output was written
(128 + SIGPIPE).
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from . import geometry as geo
from .closure import (RationalTarget, find_tau_for_angular_period, half_period_classification,
                      necklace_target, verify_closed)
from .geometry.export import report_to_json
from .ode_engine import EventError, IntegrationError, Tolerances
from .periods import (partial_periods_quadrature, period_ode, pthat_quadrature,
                      pthat_quadrature_psi2)
from .twisted_curve import AdmissiblePair, TwistParam, TwistTrajectory, _y, _ydot, f_poly
from .variation import check_asymptotics, dpthat_dtau_cross_check, wronskian_drift

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
        a, b = map(int, text.split("/"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a/b in lowest terms, got {text!r}")
    try:
        return RationalTarget(a, b)
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
    curve = TwistTrajectory(_param(args), TOL_PRESETS[args.tol])
    by_period = not args.window and args.tau != 0.0     # the window is 2 p_tau both ways
    half_window = 2.0 * curve.period.p_tau if by_period else args.window or 5.0
    if args.out:
        geo.trajectory_csv(curve, half_window, args.samples, args.out)
        print(f"wrote {args.out}")
        return 0
    drift = curve.drift(half_window)
    payload = {"p": args.p, "q": args.q, "tau": args.tau, "window": half_window, "drift": drift}
    _emit(args, payload, [f"drift over [-{half_window}, {half_window}]: "
                          + ", ".join(f"{k}={v:.3e}" for k, v in drift.items())])
    return 0


def cmd_periods(args) -> int:
    param = _param(args)
    data = period_ode(TwistTrajectory(param, TOL_PRESETS[args.tol]))
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


def _closed_curve(args, pair: AdmissiblePair, target: RationalTarget) -> int:
    """Find, classify and check the curve whose angular period is ``target``."""
    report = half_period_classification(pair, target)
    curve = find_tau_for_angular_period(pair, target, TOL_PRESETS[args.tol])  # refuses k0 > K0_CAP
    tau, data, k0 = curve.param.tau, curve.period, report.k0
    check = verify_closed(curve, k0, samples=args.samples)
    error = abs(data.pthat - target.angle)
    payload = {"tau": tau, "k0": k0, "p_tau": data.p_tau, "pthat": data.pthat,
               "pthat_error": error, "report": dataclasses.asdict(report),
               **dataclasses.asdict(check)}      # closure_residual, rotation_residual
    _emit(args, payload, [
        f"tau = {tau!r}  (pthat error {error:.2e})",
        f"k0 = {k0}  (closes after {2 * k0} half-periods, "
        f"t-period {2 * k0 * data.p_tau!r}), topology {report.topology}",
        f"generator {report.per_generator}, half-period type {report.half_period_type}",
        f"closure residual {check.closure_residual:.2e}, "
        f"rotation residual {check.rotation_residual:.2e}",
    ])
    return 0


def cmd_closure(args) -> int:
    return _closed_curve(args, AdmissiblePair(args.p, args.q), args.target)


def cmd_necklace(args) -> int:
    pair = AdmissiblePair(args.p, args.q)
    return _closed_curve(args, pair, necklace_target(pair, args.m))


def cmd_torque(args) -> int:
    meridians = (0.3, 1.1)
    curve = TwistTrajectory(_param(args), TOL_PRESETS[args.tol])
    pair = curve.param.pair
    tgen = geo.t_generator(pair)
    # the t-generator and R_{0,n-1} over one meridian at 0.3, the t-generator at 1.1
    first, off = geo.torque(curve, [tgen, geo.rotation_generator(pair.n, 0, pair.n - 1)],
                            meridian_t=meridians[0])
    reports = [first, *geo.torque(curve, [tgen], meridian_t=meridians[1]), off]
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
    curve = TwistTrajectory(_param(args), TOL_PRESETS[args.tol])
    comp = geo.neck_rescale(curve, args.waist, args.window)
    b = comp.window
    payload = {"beta": comp.beta, "max_error": comp.max_error,
               "window": comp.window, "waist_index": comp.waist_index,
               "waist_kind": comp.waist_kind, "catenoid_degree": comp.catenoid_degree}
    _emit(args, payload, [
        f"waist {comp.waist_index} (kind {comp.waist_kind}), "
        f"degree-{comp.catenoid_degree} catenoid, beta = {comp.beta!r}",
        f"max |profile - catenoid| over [-{b}, {b}] = {comp.max_error!r}",
    ])
    return 0


def cmd_export(args) -> int:
    curve = TwistTrajectory(_param(args), TOL_PRESETS[args.tol])
    if args.format == "json":
        with open(args.out, "w") as fh:
            fh.write(report_to_json(period_ode(curve), kind="PeriodData") + "\n")
    elif args.format == "csv":
        geo.trajectory_csv(curve, args.window or 5.0, args.samples, args.out)
    else:
        if (args.p, args.q) != (1, 2):
            raise ValueError("obj export supports the (1,2) surface case only")
        w = args.window or 3.0
        sampler = geo.immersion_sampler(curve, (-w, w))
        geo.export(sampler, (args.samples, args.samples), args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_verify(args) -> int:
    param = _param(args)
    pair = param.pair
    failures = []
    checks: list[tuple[str, float, float]] = []

    qp, qm = partial_periods_quadrature(param)
    curve = TwistTrajectory(param, TOL_PRESETS[args.tol])
    data = curve.period
    checks += [(f"{k} drift", v, 1e-9) for k, v in curve.drift(10.0 * data.p_tau).items()]

    states = curve.state(np.linspace(-10.0 * data.p_tau, 10.0 * data.p_tau, 400))
    energy = np.max(np.abs(_ydot(pair, states) ** 2 - 4.0 * f_poly(pair, _y(states))
                           + 16.0 * param.tau**2))
    checks.append(("energy residual", float(energy), 1e-8))

    checks.append(("period route gap", abs(qp + qm - data.p_tau), 1e-8))
    checks.append(("pthat route gap", abs(pthat_quadrature(param) - data.pthat), 1e-8))
    checks.append(("Psi(2p) residual",
                   abs(pair.p * data.psi1_2p + pair.q * data.psi2_2p), 1e-9))
    checks.append(("pthat psi2 route gap",
                   abs(-0.5 * pair.q * data.psi2_2p - pthat_quadrature_psi2(param)), 1e-8))

    checks.append(("Wronskian drift", wronskian_drift(curve), 1e-8))
    cross = dpthat_dtau_cross_check(curve)
    checks.append(("dpthat/dtau rel gap", cross["rel_err"], 1e-6))

    sym = geo.symmetry_residuals(curve)
    for key, val in sym.items():
        checks.append((f"symmetry {key}", val, 1e-8))

    tq, off = geo.torque(curve, [geo.t_generator(pair),
                                 geo.rotation_generator(pair.n, 0, pair.n - 1)])
    checks.append(("torque t-generator", tq.abs_error, 1e-8))
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


def build_parser(names) -> argparse.ArgumentParser:
    """The parser with the subcommands ``names`` (keys of ``_COMMANDS``) only.

    A parser of fewer subcommands still lists them all in its usage line, as
    its "unrecognized arguments" error prints it.  The full parser takes no
    metavar, which would rename the argument of its "invalid choice" error.
    """
    ap = argparse.ArgumentParser(
        prog="sltwist",
        description="twisted special Legendrian curve laboratory")
    listed = "{" + ",".join(_COMMANDS) + "}"
    sub = ap.add_subparsers(dest="command", required=True,
                            metavar=None if list(names) == list(_COMMANDS) else listed)
    for name in names:
        p = sub.add_parser(name)
        p.add_argument("--p", type=int, required=True)
        p.add_argument("--q", type=int, required=True)
        for flag, settings in _COMMANDS[name].items():
            p.add_argument(f"--{flag}", **{**_OPTIONS[flag], **settings})
        p.set_defaults(fn=globals()[f"cmd_{name}"])
    return ap


# each option name with whether it takes a value; --p and --q are taken by all
_TAKES_VALUE = {"--p": True, "--q": True, "--help": False,
                **{f"--{name}": "action" not in spec for name, spec in _OPTIONS.items()}}


def _joined(argv: list[str]) -> list[str]:
    """argv with each value that starts with "-" joined to the option before it,
    "--tau -inf" -> "--tau=-inf", where that option, in full or abbreviated, names
    only options that take a value, and the value is no option name itself ("-h"
    or one starting with "--").  argparse alone reads a negative value as a value
    only as -1 or -.5, and one such as -9.3e-05, -inf or -3/5 as a flag, refused
    with "expected one argument"; joined, it reaches the option's own check."""
    for i in range(len(argv) - 1, 0, -1):
        flag, value = argv[i - 1], argv[i]
        takes = [v for name, v in _TAKES_VALUE.items() if name.startswith(flag)]
        if (flag.startswith("--") and takes and all(takes) and value.startswith("-")
                and value != "-h" and not value.startswith("--")):
            argv[i - 1:i + 1] = [f"{flag}={value}"]
    return argv


def main(argv=None) -> int:
    argv = _joined(sys.argv[1:] if argv is None else list(argv))
    # a call naming its subcommand first builds that one parser alone
    names = argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS
    args = build_parser(names).parse_args(argv)
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
    except (ValueError, TypeError, OSError) as exc:      # OSError: an --out path
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IntegrationError, EventError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
