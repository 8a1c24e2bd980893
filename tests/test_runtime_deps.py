"""The runtime needs numpy and the standard library only: scipy is a test reference."""

import json
import subprocess
import sys
import textwrap


def _python(code: str) -> subprocess.CompletedProcess:
    """A child Python running code; one that hangs fails the test after 120 s."""
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True, timeout=120)


def test_cli_import_loads_no_scipy():
    proc = _python("""
        import sys
        import sltwist.cli
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _max_error(out):
    return float(json.loads(out)["max_error"]) < 0.1


def _every_row_passes(out):
    checks = json.loads(out)["checks"]
    return bool(checks) and all(row["pass"] is True for row in checks.values())


def _closes(out):
    return float(json.loads(out)["closure_residual"]) < 1e-7


def _excess_ratio(out):
    ratios = [float(r["ratio"]) for r in json.loads(out)["reports"]
              if r["law_id"] == "pthat_excess"]
    return len(ratios) == 1 and 0.9 < ratios[0] < 1.0


# argv, exit code, check of its stdout (None: none); the files written are checked
# after the runs
RUNS = [
    ("verify --p 2 --q 2 --tau 0.06", 0, None),
    ("verify --p 2 --q 3 --tau 1e-6", 0, None),
    ("verify --p 2 --q 2 --tau -1e-5", 0, None),
    ("verify --p 3 --q 3 --tau 1e-6", 0, None),
    ("verify --p 4 --q 4 --tau 1e-6", 0, None),
    ("verify --p 1 --q 3 --tau 1e-4", 0, None),
    ("verify --p 1 --q 2 --tau -0.05", 0, None),
    # 28 finite-difference offsets share one sampler call
    ("verify --p 3 --q 5 --tau 0.01 --json", 0, _every_row_passes),
    ("verify --p 1 --q 7 --tau 0.01 --json", 0, _every_row_passes),
    ("periods --p 1 --q 2 --tau 0.1", 0, None),
    ("periods --p 1 --q 6 --tau 1e-6", 0, None),
    ("periods --p 3 --q 5 --tau 1e-5", 0, None),
    ("periods --p 4 --q 4 --tau 0.03124996875", 0, None),
    ("periods --p 3 --q 3 --tau 0.0624999375", 0, None),
    ("periods --p 2 --q 3 --tau 0.05 --json", 0, None),
    ("closure --p 2 --q 2 --target 3/5", 0, None),
    ("necklace --p 1 --q 2 --m 2", 0, None),
    ("necklace --p 1 --q 2 --m 8", 0, None),
    ("necklace --p 1 --q 3 --m 8 --json", 0, _closes),     # a closure leg of 3,224 steps
    ("torque --p 2 --q 3 --tau 0.05", 0, None),
    ("torque --p 4 --q 4 --tau 0.01 --json", 0, None),
    ("neck --p 2 --q 3 --tau 0.001", 0, None),
    ("neck --p 3 --q 3 --tau 0.001 --waist 0 --json", 0, _max_error),
    ("neck --p 2 --q 2 --tau 0.001 --waist 3", 0, None),
    ("neck --p 2 --q 2 --tau 0.06 --window 1e300", 2, None),
    ("export --p 1 --q 2 --tau 0.1 --format csv --samples 50 --out curve.csv", 0, None),
    ("export --p 1 --q 2 --tau 0.1 --format json --out p.json", 0, None),
    ("export --p 1 --q 2 --tau 0.1 --format obj --out s.obj", 0, None),
    ("export --p 2 --q 3 --tau 0.05 --format csv --samples 1000 --out c.csv", 0, None),
    ("export --p 2 --q 3 --tau 0.05 --format json --out export.json", 0, None),
    ("asymptotics --p 2 --q 2 --tau-list 0.001,0.0001", 0, None),
    ("asymptotics --p 2 --q 2 --tau-list 1e-12 --json", 0, _excess_ratio),
    ("solve --p 2 --q 3 --tau 0.05", 0, None),
    ("solve --p 2 --q 3 --tau 0.05 --samples 500 --out w.csv", 0, None),
    ("solve --p 2 --q 3 --tau nan --window 1", 2, None),
]


def test_every_subcommand_runs_with_scipy_blocked(tmp_path):
    argvs = [argv for argv, _, _ in RUNS]
    proc = _python(f"""
        import contextlib, io, json, os, sys
        sys.modules["scipy"] = None         # any scipy import now raises ImportError
        from sltwist.cli import main
        os.chdir({str(tmp_path)!r})         # --out files are written there
        runs = []
        for argv in {argvs!r}:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(argv.split())
            runs.append((code, out.getvalue()))
        print(json.dumps(runs))
    """)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    runs = json.loads(proc.stdout)
    for (argv, code, check), (got, out) in zip(RUNS, runs, strict=True):
        assert got == code, (argv, got, out[-2000:])
        assert check is None or check(out), (argv, out[-2000:])
    assert (tmp_path / "w.csv").read_text().count("\n") == 501
    assert (tmp_path / "c.csv").read_text().count("\n") == 1001
    # periods and export --format json read one curve the same way
    periods = json.loads(runs[argvs.index("periods --p 2 --q 3 --tau 0.05 --json")][1])
    export = json.loads((tmp_path / "export.json").read_text())["PeriodData"]
    assert float(periods["route_gap_p_tau"]) <= 1e-8, periods
    for key in ("p_tau", "pthat", "psi1_2p", "psi2_2p"):
        assert periods[key] == export[key], (key, periods[key], export[key])
