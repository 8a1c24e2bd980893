import argparse
import contextlib
import io
import json
import os
import runpy
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from sltwist import cli
from sltwist import periods
from sltwist import twisted_curve
from sltwist import variation
from sltwist.geometry import symmetry
from sltwist.cli import main


def run_cli(*args):
    """A CLI call in a new interpreter, for what only a process shows."""
    proc = subprocess.run([sys.executable, "-m", "sltwist.cli", *args],
                          capture_output=True, text=True)
    return proc


def run(capsys, *argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    try:
        code = main(list(argv))
    except SystemExit as exc:           # argparse refuses the arguments
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_periods_json_output(capsys):
    code, out, _ = run(capsys, "periods", "--p", "1", "--q", "2", "--tau", "0.1", "--json")
    assert code == 0
    data = json.loads(out)
    assert abs(float(data["p_tau"]) - 1.8677652614711293) < 1e-10
    assert "pthat_quadrature" in data and "p_plus_quadrature" in data


def test_identical_invocations_bit_identical():
    a = run_cli("periods", "--p", "2", "--q", "3", "--tau", "0.05", "--json")
    b = run_cli("periods", "--p", "2", "--q", "3", "--tau", "0.05", "--json")
    assert a.stdout == b.stdout


def test_necklace_output(capsys):
    code, out, _ = run(capsys, "necklace", "--p", "1", "--q", "2", "--m", "2", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["k0"] == 7
    assert 0.15 < float(data["tau"]) < 0.17


@pytest.mark.parametrize("p,q,m", [(1, 2, 2), (1, 3, 1), (2, 2, 2), (3, 3, 1)])
def test_necklace_prints_the_closure_report_at_its_target(p, q, m, capsys):
    # one curve, one report: necklace is closure at km/(2km - 1), in text and JSON
    from sltwist import AdmissiblePair, necklace_target

    target = necklace_target(AdmissiblePair(p, q), m)
    pair = ("--p", str(p), "--q", str(q))
    for json_flag in ([], ["--json"]):
        necklace = run(capsys, "necklace", *pair, "--m", str(m), *json_flag)
        closure = run(capsys, "closure", *pair,
                      "--target", f"{target.numerator}/{target.denominator}", *json_flag)
        assert necklace == closure and necklace[0] == 0
    data = json.loads(necklace[1])
    assert set(data) == {"tau", "k0", "p_tau", "pthat", "pthat_error", "report",
                         "closure_residual", "rotation_residual"}
    assert data["k0"] == data["report"]["k0"] == target.denominator
    assert float(data["pthat_error"]) == abs(float(data["pthat"]) - target.angle)


def test_closure_subcommand(capsys):
    code, out, _ = run(capsys, "closure", "--p", "1", "--q", "2", "--target", "4/7", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["report"]["k0"] == 7
    assert float(data["pthat_error"]) <= 1e-10
    assert float(data["closure_residual"]) <= 1e-7


def test_verify_passes_for_symmetric_pair():
    assert main(["verify", "--p", "2", "--q", "2", "--tau", "0.06"]) == 0


@pytest.mark.parametrize("p,q,tau", [(1, 2, -0.1), (2, 3, -0.05), (2, 2, -0.06),
                                     (3, 4, -0.01)])
def test_verify_passes_at_negative_twist(p, q, tau, capsys):
    assert main(["verify", "--p", str(p), "--q", str(q), "--tau", str(tau)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == (18 if p == q else 17)     # the p = q exchange check
    assert all(line.startswith("PASS") for line in lines)


@pytest.mark.parametrize("p,q", [(3, 3), (4, 4)])
def test_verify_passes_next_to_y_max_at_small_twist(p, q, capsys):
    # 1 - y_max is 2e-4 and 2e-3: the quadrature's half next to 1 keeps its digits
    assert main(["verify", "--p", str(p), "--q", str(q), "--tau", "1e-6"]) == 0
    assert all(line.startswith("PASS") for line in capsys.readouterr().out.splitlines())


def test_asymptotics_resolves_the_gap_next_to_one(capsys):
    # 1 - y_max = 1.4e-12 is held as itself, never as a difference from 1
    code, out, err = run(capsys, "asymptotics", "--p", "4", "--q", "4", "--tau-list", "1e-24")
    assert (code, err) == (0, "")
    assert "ratio=1.0000" in next(line for line in out.splitlines() if line.startswith("ymax_gap"))


def test_argument_errors_exit_two(capsys):
    assert run(capsys, "closure", "--p", "1", "--q", "2")[0] == 2
    assert run(capsys, "closure", "--p", "1", "--q", "2", "--target", "4:7")[0] == 2
    assert run(capsys, "periods", "--p", "2", "--q", "1", "--tau", "0.1")[0] == 2
    assert run(capsys, "periods", "--p", "1", "--q", "2", "--tau", "0.9")[0] == 2


def test_negative_exponent_tau_is_a_value(capsys):
    # argparse alone reads -9.3e-05 as a flag: "expected one argument"
    tau = "-9.295160030897801e-05"
    code, out, err = run(capsys, "periods", "--p", "2", "--q", "3", "--tau", tau)
    assert code == 0 and err == ""
    assert run(capsys, "periods", "--p", "2", "--q", "3", f"--tau={tau}") == (0, out, "")


@pytest.mark.parametrize("flag", ["--tau", "--ta"])             # in full and abbreviated
def test_negative_decimal_tau_is_a_value(flag, capsys):
    code, out, err = run(capsys, "periods", "--p", "1", "--q", "2", flag, "-0.1")
    assert code == 0 and err == ""
    assert run(capsys, "periods", "--p", "1", "--q", "2", "--tau=-0.1") == (0, out, "")


@pytest.mark.parametrize("argv,message", [
    (["periods", "--p", "2", "--q", "3", "--tau", "-inf"],
     "error: |tau|=inf exceeds tau_max=0.092951600308978\n"),
    (["closure", "--p", "1", "--q", "2", "--target", "-3/5"],
     "argument --target: expected a/b in lowest terms: numerator and denominator must be "
     "positive\n"),
])
def test_a_negative_value_reaches_its_options_check(argv, message, capsys):
    # argparse alone refuses -inf and -3/5 with an untrue "expected one argument"
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "") and err.endswith(message)
    joined = [*argv[:-2], f"{argv[-2]}={argv[-1]}"]
    assert run(capsys, *joined) == (code, out, err)


@pytest.mark.parametrize("value", ["--json", "-h"])
def test_an_option_name_is_not_joined_as_a_value(value, capsys):
    code, out, err = run(capsys, "periods", "--p", "1", "--q", "2", "--tau", value)
    assert (code, out) == (2, "") and err.endswith("argument --tau: expected one argument\n")


@pytest.mark.parametrize("text,message", [
    ("x", "expected a/b in lowest terms, got 'x'"),
    ("1/2/3", "expected a/b in lowest terms, got '1/2/3'"),
    ("1.5/2", "expected a/b in lowest terms, got '1.5/2'"),
    ("3/0", "expected a/b in lowest terms: numerator and denominator must be positive"),
    ("4/6", "expected a/b in lowest terms: target fraction must be in lowest terms"),
])
def test_target_parse_messages_are_true(text, message, capsys):
    code, out, err = run(capsys, "closure", "--p", "1", "--q", "2", "--target", text)
    assert (code, out) == (2, "") and err.endswith(f"argument --target: {message}\n")


# a window must be positive and finite, a sample count at least 2
@pytest.mark.parametrize("argv,flag", [
    (["neck", "--p", "1", "--q", "2", "--tau", "0.001", "--window", "-1"], "--window"),
    (["solve", "--p", "1", "--q", "2", "--tau", "0.1", "--window", "0"], "--window"),
    (["solve", "--p", "1", "--q", "2", "--tau", "0.1", "--window", "-1"], "--window"),
    (["solve", "--p", "1", "--q", "2", "--tau", "0.1", "--window", "inf"], "--window"),
    (["closure", "--p", "1", "--q", "2", "--target", "4/7", "--samples", "0"], "--samples"),
    (["export", "--p", "1", "--q", "2", "--tau", "0.1", "--format", "obj",
      "--samples", "1", "--out", "never-written.obj"], "--samples"),
])
def test_window_and_samples_out_of_range_exit_two(argv, flag, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"argument {flag}: " in err


# NaN passes every range test; TwistParam refuses it for every p
@pytest.mark.parametrize("argv", [
    ["solve", "--p", "2", "--q", "3", "--tau", "nan", "--window", "1"],
    ["torque", "--p", "2", "--q", "3", "--tau", "nan", "--json"],
    ["export", "--p", "2", "--q", "3", "--tau", "nan", "--format", "csv",
     "--samples", "5", "--out", "nan.csv"],
    ["solve", "--p", "1", "--q", "2", "--tau", "nan", "--window", "1"],
])
def test_nan_tau_exits_two(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == "error: tau is NaN\n"
    assert list(tmp_path.iterdir()) == []


# below what doubles resolve: the Newton start of the extrema is below the
# normal range, a p = 1 curve would start at a y_max that rounds to 1, or the
# angular-period excess is below 1e-12, not positive, or not confirmed by its
# psi2 side
@pytest.mark.parametrize("argv,expected", [
    (["periods", "--p", "2", "--q", "3", "--tau", "1e-200"], 2),
    (["asymptotics", "--p", "2", "--q", "3", "--tau-list", "1e-200"], 2),
    (["periods", "--p", "1", "--q", "2", "--tau", "1e-9"], 2),
    (["asymptotics", "--p", "4", "--q", "4", "--tau-list", "1e-30"], 3),
    (["asymptotics", "--p", "2", "--q", "7", "--tau-list", "3e-162"], 2),
    (["periods", "--p", "2", "--q", "3", "--tau", "1e-160"], 2),
    (["asymptotics", "--p", "1", "--q", "2", "--tau-list", "1e-26"], 3),
    (["asymptotics", "--p", "1", "--q", "2", "--tau-list", "1e-40"], 3),
    (["asymptotics", "--p", "2", "--q", "7", "--tau-list", "1e-40"], 3),
    (["asymptotics", "--p", "4", "--q", "4", "--tau-list", "1e-40"], 3),
])
def test_unresolved_tiny_tau_is_refused_at_once(argv, expected, capsys):
    def hung(signum, frame):
        raise TimeoutError(f"{argv} still runs after 20 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(20)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, *argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert (code, out, caught) == (expected, "", [])
    prefix = {2: "error: ", 3: "numerical failure: "}[expected]
    assert err.startswith(prefix) and err.count("\n") == 1 and err.endswith("\n")
    assert f"|tau|={float(argv[-1])} " in err
    assert expected == 2 or " (psi2 side " in err       # an excess names both sides


def test_p_one_reads_every_law_where_y_max_rounds_to_one(capsys):
    # 1 - y_max = 4e-18 (4e-24 at 1e-12) is held as a distance from 1; only an
    # integrated curve needs y_max
    code, out, err = run(capsys, "asymptotics", "--p", "1", "--q", "2", "--tau-list",
                         "1e-9,1e-12", "--json")
    assert (code, err) == (0, "")
    ratios = {(float(r["tau"]), r["law_id"]): float(r["ratio"])
              for r in json.loads(out)["reports"]}
    for tau in (1e-9, 1e-12):
        assert abs(ratios[tau, "ymin"] - 1.0) <= 1e-8
        assert abs(ratios[tau, "ymax_gap"] - 1.0) <= 1e-8


def test_failed_cross_check_prints_only_its_verify_line(capsys, monkeypatch):
    # the exact formula off by a relative 1e-5 fails the derivative row, and only it
    formula = variation.dpthat_dtau
    monkeypatch.setattr(variation, "dpthat_dtau", lambda curve: (1.0 + 1e-5) * formula(curve))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "verify", "--p", "2", "--q", "2", "--tau", "1e-5")
    assert code == 1
    assert [line.split()[:2] for line in out.splitlines()
            if not line.startswith("PASS")] == [["FAIL", "dpthat/dtau"]]
    assert err == "" and caught == []


def _scale_initial_state(m, factor):
    state = twisted_curve.initial_state
    m.setattr(twisted_curve, "initial_state", lambda param: factor * state(param))


def _scale_quadrature_weights(m, factor):
    m.setattr(periods, "_WEIGHTS", factor * periods._WEIGHTS)


def _scale_linearised_second_derivative(m, factor):
    field = variation._field

    def scaled(p, q, linearised=False):
        rhs = field(p, q, linearised)

        def perturbed(s):
            *head, ddq = rhs(s)
            return (*head, factor * ddq)
        return perturbed

    m.setattr(variation, "_field", scaled)


def _scale_f(m, factor):
    f_poly = cli.f_poly
    m.setattr(cli, "f_poly", lambda pair, y: factor * f_poly(pair, y))


def _turn_rotation_phases(m, factor):
    # the phases of the diagonal rotation turned by (factor - 1) radians
    rotation = symmetry.mhat
    m.setattr(symmetry, "mhat", lambda pair, x: np.exp(1j * (factor - 1.0)) * rotation(pair, x))


# each perturbation by a relative 1e-6, with the verify rows it must fail
_VERIFY_MUTATIONS = [
    (_scale_initial_state, ("I1 drift", "I2 drift", "energy residual")),
    (_scale_quadrature_weights, ("period route gap", "pthat route gap", "pthat psi2 route gap")),
    (_scale_linearised_second_derivative, ("Wronskian drift",)),
    (_scale_f, ("energy residual",)),
    (_turn_rotation_phases, ("symmetry translation", "symmetry det_rotation")),
]


@pytest.mark.parametrize("p,q", [(2, 3), (1, 3)])
def test_verify_rows_fail_under_their_perturbation(p, q, capsys, monkeypatch):
    # every row passes as it is and fails with its input off by 1e-6; no limit moves.
    # branch_integral's memo is cleared around each run, so no route integral of
    # the scaled weights outlives it, nor one of the true weights serves it
    def verdicts():
        periods.branch_integral.cache_clear()
        try:
            code, out, err = run(capsys, "verify", "--p", str(p), "--q", str(q),
                                 "--tau", "0.05", "--json")
        finally:
            periods.branch_integral.cache_clear()
        assert code in (0, 1) and err == ""
        return {name: row["pass"] for name, row in json.loads(out)["checks"].items()}

    rows = [name for _, names in _VERIFY_MUTATIONS for name in names]
    assert all(verdicts()[name] for name in rows)
    for perturb, names in _VERIFY_MUTATIONS:
        with monkeypatch.context() as m:
            perturb(m, 1.0 + 1e-6)
            passed = verdicts()
        assert not any(passed[name] for name in names), (perturb.__name__, passed)


def test_verify_json_pass_flags_are_booleans(capsys):
    # a numpy bool, which a numpy float64 value gives, is encoded as the string "True"
    code, out, _ = run(capsys, "verify", "--p", "2", "--q", "5", "--tau", "0.01", "--json")
    checks = json.loads(out)["checks"]
    assert {"symmetry det_rotation", "symmetry omega_reflection"} <= set(checks)
    assert {type(c["pass"]) for c in checks.values()} == {bool}
    assert code == (0 if all(c["pass"] for c in checks.values()) else 1)


# the byte audit, and the argv that argparse answers alone, which it also runs
BYTE_AUDIT = runpy.run_path(str(Path(__file__).resolve().parents[1] / "tools" / "byte_audit.py"))
PARSER_ARGVS = BYTE_AUDIT["PARSER_ARGVS"]


def test_byte_audit_compare_lists_the_calls_that_differ(tmp_path, capsys):
    # four calls: the first the same, the second another digest, the third
    # another digest and exit code, the fourth another digest and one of its
    # checks moved, which is named under it; it exits 0 whatever differs
    def record(index, rc, sha256, **extra):
        return {"workload": "verify_mix", "seed": 1, "index": index,
                "argv": ["periods", "--p", "1", "--q", str(index + 2)], "rc": rc, "sha256": sha256,
                **extra}

    rows = {"I1 drift": "1.2e-13", "energy residual": "2.1921908732736028e-12"}
    base, head = tmp_path / "base.jsonl", tmp_path / "head.jsonl"
    base.write_text("".join(json.dumps(r) + "\n" for r in (
        *(record(i, 0, "a" * 64) for i in range(3)), record(3, 0, "a" * 64, checks=rows))))
    head.write_text("".join(json.dumps(r) + "\n" for r in (
        record(0, 0, "a" * 64), record(1, 0, "b" * 64), record(2, 1, "c" * 64),
        record(3, 0, "d" * 64, checks={**rows, "energy residual": "2.1922186288492185e-12"}))))
    assert BYTE_AUDIT["main"](["--compare", str(base), str(head)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "verify_mix 1#1: periods --p 1 --q 3",
        "verify_mix 1#2: periods --p 1 --q 4",
        "verify_mix 1#3: periods --p 1 --q 5",
        "    energy residual: 2.1921908732736028e-12 -> 2.1922186288492185e-12",
        "3 of 4 calls differ (1 exit codes changed)"]


def test_byte_audit_keeps_the_checks_of_a_verify_json_call(capsys):
    argv = ["verify", "--p", "2", "--q", "3", "--tau", "0.05", "--json"]
    record = BYTE_AUDIT["_audited"](cli, argv)
    code, out, _ = run(capsys, *argv)
    rows = json.loads(out)["checks"].items()
    assert record["rc"] == code and record["checks"] == {k: row["value"] for k, row in rows}
    others = (argv[:-1], ["periods", *argv[1:]], [])         # text, another command, no call
    assert all("checks" not in BYTE_AUDIT["_audited"](cli, other) for other in others)


def test_parser_table_holds_every_subcommands_help():
    assert [argv[0] for argv in PARSER_ARGVS if argv[1:] == ["-h"]] == list(cli._COMMANDS)


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=lambda argv: " ".join(argv) or "(none)")
def test_parser_messages_are_the_full_parsers(argv, capsys, monkeypatch):
    # a parser built for the named subcommand alone prints what all nine print
    narrowed = run(capsys, *argv)
    assert narrowed[0] in (0, 2) and (narrowed[1] or narrowed[2])
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda names: build(cli._COMMANDS))
    assert run(capsys, *argv) == narrowed


def test_a_call_naming_its_subcommand_builds_its_parser_alone(monkeypatch, capsys):
    built = []
    add_parser = argparse._SubParsersAction.add_parser

    def counted(self, name, *args, **kwargs):
        built.append(name)
        return add_parser(self, name, *args, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counted)
    assert run(capsys, "periods", "--p", "1", "--q", "2", "--tau", "0.1")[0] == 0
    assert built == ["periods"]
    built.clear()
    code, _, err = run(capsys, "--p", "1", "verify")        # no subcommand first: all nine
    assert built == list(cli._COMMANDS)
    assert code == 2 and "error: argument command: invalid choice: '1' (choose from" in err


# one argv of each shape the perfbench workloads send
@pytest.mark.parametrize("argv", [
    ["verify", "--p", "2", "--q", "3", "--tau", "0.05", "--json"],
    ["periods", "--p", "1", "--q", "2", "--tau", "1e-05", "--json"],
    ["neck", "--p", "1", "--q", "2", "--tau", "0.0005", "--window", "2.0", "--json"],
    ["asymptotics", "--p", "2", "--q", "2", "--tau-list", "0.001,0.0001", "--json"],
    ["export", "--p", "1", "--q", "3", "--tau", "-0.05", "--format", "csv",
     "--samples", "12000", "--out", "r-export.csv"],
    ["solve", "--p", "2", "--q", "3", "--tau", "0.03", "--samples", "15000",
     "--out", "r-solve.csv"],
    ["closure", "--p", "1", "--q", "2", "--target", "4/7", "--json"],
    ["necklace", "--p", "2", "--q", "2", "--m", "3", "--json"],
    ["torque", "--p", "3", "--q", "4", "--tau", "-0.01", "--json"],
])
def test_benchmark_argv_shapes_parse(argv, monkeypatch):
    # main's own parser hands its subcommand, looked up when parsing, what the full
    # parser reads
    parsed = []
    monkeypatch.setattr(cli, f"cmd_{argv[0]}", lambda args: parsed.append(args) or 0)
    assert main(argv) == 0
    args = cli.build_parser(cli._COMMANDS).parse_args(argv)
    assert parsed == [args]
    assert args.fn is getattr(cli, f"cmd_{argv[0]}")
    assert (args.p, args.q) == (int(argv[2]), int(argv[4]))
    for flag, text in zip(argv[5:], argv[6:]):
        if not flag.startswith("--") or text.startswith("--"):
            continue                            # --json, or a value
        value = getattr(args, flag[2:].replace("-", "_"))
        if flag == "--target":
            assert f"{value.numerator}/{value.denominator}" == text
        else:
            assert value == type(value)(text)


@pytest.mark.parametrize("argv", [
    ["periods", "--p", "1", "--q", "2", "--tau", "0.1", "--m", "3"],
    ["verify", "--p", "1", "--q", "2", "--tau", "0.1", "--tol", "fast"],
])
def test_foreign_or_unchecked_options_exit_two(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_unattainable_target_exits_three():
    proc = run_cli("closure", "--p", "1", "--q", "2", "--target", "1/2")
    assert proc.returncode == 3         # through `python -m sltwist.cli`


def test_closure_refuses_order_above_cap_before_search(monkeypatch, capsys):
    import sltwist.closure as closure

    calls = []
    monkeypatch.setattr(closure, "scan_brackets", lambda *args, **kwargs: calls.append(args))
    assert main(["closure", "--p", "1", "--q", "2", "--target", "550001/1000000"]) == 2
    err = capsys.readouterr().err
    assert "k0 = 2000000" in err and "cap 1000000" in err
    assert calls == []


@pytest.mark.parametrize("argv", [
    ("closure", "--p", "2", "--q", "3", "--target", "3/5"),
    ("necklace", "--p", "1", "--q", "2", "--m", "8"),
])
def test_closure_search_hands_back_the_curve_it_checked(monkeypatch, capsys, argv):
    # the found tau is integrated once, inside the search, and grows to the closing
    # span as its closure check reads it: it is not integrated again, nor for a new
    # curve object
    taus = []
    solve_w = twisted_curve.solve_w

    def counted(param, tol):
        taus.append(param.tau)
        return solve_w(param, tol)

    monkeypatch.setattr(twisted_curve, "solve_w", counted)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    tau = float(out.split()[2])             # "tau = <repr>"
    assert taus.count(tau) == 1


def test_solve_csv(tmp_path):
    out = tmp_path / "w.csv"
    code = main(["solve", "--p", "1", "--q", "2", "--tau", "0.1",
                 "--out", str(out), "--samples", "11", "--window", "1.0"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,re_w1,im_w1,re_w2,im_w2"
    assert len(lines) == 12


def test_torque_subcommand(capsys):
    code, out, _ = run(capsys, "torque", "--p", "1", "--q", "2", "--tau", "0.1", "--json")
    assert code == 0
    data = json.loads(out)
    assert float(data["meridian_gap"]) < 1e-8


def test_torque_json_reports_carry_no_basis_and_no_negative_zero(capsys):
    code, out, _ = run(capsys, "torque", "--p", "2", "--q", "3", "--tau", "-0.05", "--json")
    assert code == 0
    reports = json.loads(out)["reports"]
    assert reports[2]["closed_form"] == "0"          # the off-diagonal direction
    assert all("basis" not in r for r in reports)


def test_asymptotics_subcommand(capsys):
    code, out, _ = run(capsys, "asymptotics", "--p", "2", "--q", "2",
                       "--tau-list", "1e-2,1e-3", "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["reports"]) > 0


def test_neck_subcommand(capsys):
    code, out, _ = run(capsys, "neck", "--p", "1", "--q", "2", "--tau", "1e-3",
                       "--window", "1.5", "--json")
    assert code == 0
    data = json.loads(out)
    assert float(data["max_error"]) < 0.1


@pytest.mark.parametrize("p,q,waist,degree", [(2, 3, 0, 2), (2, 3, 1, 3), (1, 4, 1, 4)])
def test_neck_reports_the_profile_symmetry(p, q, waist, degree, capsys):
    # the reflection residual of the unit profile is a number of the degree alone,
    # not of the curve: neck reports the degree, and no longer that residual
    code, out, err = run(capsys, "neck", "--p", str(p), "--q", str(q), "--tau", "0.001",
                         "--waist", str(waist), "--json")
    assert code == 0, err
    data = json.loads(out)
    assert data["catenoid_degree"] == degree
    assert "profile_symmetry" not in data


@pytest.mark.parametrize("p,q", [(1, 3), (2, 3)])
def test_neck_default_window_is_half_the_degree_three_lifetime(p, q, capsys):
    from sltwist.catenoid import catenoid_lifetime

    code, out, err = run(capsys, "neck", "--p", str(p), "--q", str(q), "--tau", "0.001",
                         "--json")
    assert code == 0, err
    data = json.loads(out)
    assert data["catenoid_degree"] == 3
    assert float(data["window"]) == 0.5 * catenoid_lifetime(3)


def test_neck_explicit_window_past_lifetime_exits_two(capsys):
    code, _, err = run(capsys, "neck", "--p", "1", "--q", "3", "--tau", "0.001",
                       "--window", "2.0")
    assert code == 2
    assert "window 2.0 exceeds the degree-3 catenoid lifetime" in err


@pytest.mark.parametrize("window", ["710", "1e300"])
def test_neck_degree_two_window_past_the_overflow_exits_two(window, capsys, monkeypatch):
    # the degree-2 profile's e^b overflows past log(DBL_MAX) ~ 709.78, where the
    # error printed nan (710) or the curve was integrated out to b (1e300); the
    # window is refused before the curve is read
    def refusing(self, t):
        raise AssertionError("the curve was read")

    monkeypatch.setattr(twisted_curve.TwistTrajectory, "w", refusing)
    code, out, err = run(capsys, "neck", "--p", "2", "--q", "2", "--tau", "0.06",
                         "--window", window)
    assert code == 2 and out == ""
    assert f"window {float(window)} exceeds 709.78" in err


def test_obj_export_refuses_a_pair_other_than_1_2(capsys, tmp_path):
    out = tmp_path / "x.obj"
    code, text, err = run(capsys, "export", "--p", "2", "--q", "3", "--tau", "0.05",
                          "--format", "obj", "--out", str(out))
    assert (code, text) == (2, "")
    assert err == "error: obj export supports the (1,2) surface case only\n"
    assert not out.exists()


def test_obj_export_refuses_fewer_than_3_angular_points(capsys, tmp_path):
    # the angular axis is periodic: with 2 points every quad wraps onto itself
    out = tmp_path / "x.obj"
    code, text, err = run(capsys, "export", "--p", "1", "--q", "2", "--tau", "0.1",
                          "--format", "obj", "--samples", "2", "--out", str(out))
    assert (code, text) == (2, "")
    assert err == "error: obj export needs at least 3 angular points, got 2\n"
    assert not out.exists()


def test_export_obj(tmp_path):
    out = tmp_path / "x.obj"
    code = main(["export", "--p", "1", "--q", "2", "--tau", "0.1",
                 "--format", "obj", "--out", str(out), "--samples", "12"])
    assert code == 0
    from sltwist.geometry import validate_obj

    verts, faces = validate_obj(out)
    assert verts == 144


@pytest.mark.parametrize("k", range(-8, 9))
def test_neck_finds_every_waist_at_p_one(k, capsys):
    # waist k of a p = 1 curve sits at (2k - 1) p_tau; k = 6, 7, -5 and -6 once exited 2
    code, out, err = run(capsys, "neck", "--p", "1", "--q", "2", "--tau", "0.05",
                         "--waist", str(k), "--json")
    assert code == 0, err
    assert json.loads(out)["waist_index"] == k


def _curve(p, q, tau):
    """The curve a subcommand builds."""
    from sltwist.twisted_curve import AdmissiblePair, TwistParam, TwistTrajectory

    return TwistTrajectory(TwistParam(AdmissiblePair(p, q), tau), cli.TOL_PRESETS["standard"])


def test_export_json_round_trips_the_period_data(tmp_path, capsys):
    from sltwist.geometry import report_from_json
    from sltwist.periods import PeriodData

    out = tmp_path / "p.json"
    code, stdout, _ = run(capsys, "export", "--p", "1", "--q", "2", "--tau", "0.1",
                          "--format", "json", "--out", str(out))
    assert (code, stdout) == (0, f"wrote {out}\n")
    back = report_from_json(out.read_text(), PeriodData, "PeriodData")
    assert back == _curve(1, 2, 0.1).period


def test_export_csv_rows_are_the_curve(tmp_path, capsys):
    from sltwist.geometry import format_float

    out = tmp_path / "w.csv"
    code, _, _ = run(capsys, "export", "--p", "2", "--q", "3", "--tau", "0.05",
                     "--samples", "9", "--out", str(out))
    assert code == 0
    ts = np.linspace(-5.0, 5.0, 9)             # the default csv window is 5.0
    w1, w2 = _curve(2, 3, 0.05).w(ts)
    rows = [",".join(format_float(v) for v in (t, a.real, a.imag, b.real, b.imag))
            for t, a, b in zip(ts, w1, w2)]
    assert out.read_text() == "\n".join(["t,re_w1,im_w1,re_w2,im_w2", *rows]) + "\n"


def test_solve_without_out_reports_the_drift(capsys):
    code, out, _ = run(capsys, "solve", "--p", "1", "--q", "2", "--tau", "0.1", "--json")
    assert code == 0
    data = json.loads(out)
    curve = _curve(1, 2, 0.1)
    window = 2.0 * curve.period.p_tau          # the default half window
    assert float(data["window"]) == window
    assert {k: float(v) for k, v in data["drift"].items()} == curve.drift(window)
    code, out, _ = run(capsys, "solve", "--p", "1", "--q", "2", "--tau", "0.1",
                       "--window", "1.5")
    assert code == 0
    assert out.startswith("drift over [-1.5, 1.5]: I1=")


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_report_out_writes_what_stdout_would_show(json_flag, tmp_path, capsys):
    argv = ["periods", "--p", "2", "--q", "3", "--tau", "0.05", *json_flag]
    _, shown, _ = run(capsys, *argv)
    out = tmp_path / "report.txt"
    code, stdout, _ = run(capsys, *argv, "--out", str(out))
    assert (code, stdout) == (0, "")
    assert out.read_text() == shown


def test_strict_preset_never_looser():
    from sltwist.cli import TOL_PRESETS

    std, strict = TOL_PRESETS["standard"], TOL_PRESETS["strict"]
    assert strict.tol <= std.tol
    assert strict.event_tol <= std.event_tol


_TORQUE = ("torque", "--p", "3", "--q", "4", "--tau", "-0.01", "--json")


def test_broken_pipe_in_process_exits_141_and_leaves_stdout_alone(monkeypatch):
    # an in-process caller's redirected stdout has no file descriptor to point at devnull
    def closed_reader(args):
        raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(cli, "cmd_torque", closed_reader)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(list(_TORQUE)) == 141
        print("still open")
    assert buf.getvalue() == "still open\n"


@pytest.mark.parametrize("argv", [
    _TORQUE,
    ("export", "--p", "1", "--q", "2", "--tau", "0.1", "--format", "csv",
     "--samples", "20000", "--out", "/dev/stdout"),
])
def test_reader_closing_stdout_early_exits_141_without_traceback(argv):
    # the read end is closed before the child writes, as `| head -c 0` closes it;
    # stdout is block-buffered, as in a shell, so unwritten bytes outlive the error
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen([sys.executable, "-m", "sltwist.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 141
    assert err == b""


def test_out_fifo_closed_early_exits_141_without_traceback(tmp_path):
    # the broken pipe is the --out file, not stdout
    fifo = tmp_path / "out.csv"
    os.mkfifo(fifo)
    proc = subprocess.Popen([sys.executable, "-m", "sltwist.cli", "export", "--p", "1",
                             "--q", "2", "--tau", "0.1", "--format", "csv",
                             "--samples", "2000", "--out", str(fifo)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    os.close(os.open(fifo, os.O_RDONLY))      # waits for the writer, then leaves
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 141
    assert err == b""


@pytest.mark.parametrize("argv", [
    ("solve", "--p", "2", "--q", "3", "--tau", "0.05", "--samples", "20"),
    ("export", "--p", "2", "--q", "3", "--tau", "0.05", "--format", "csv", "--samples", "20"),
    ("periods", "--p", "2", "--q", "3", "--tau", "0.05", "--json"),
])
@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_out_path_that_cannot_be_written_is_an_argument_error(argv, where, tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv" if where == "missing directory" else tmp_path
    code, stdout, err = run(capsys, *argv, "--out", str(out))
    assert code == 2
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert str(out) in err
