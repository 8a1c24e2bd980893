"""The runtime needs numpy and the standard library only: scipy is a test reference."""

import subprocess
import sys
import textwrap


def _python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          capture_output=True, text=True)


def test_cli_import_loads_no_scipy():
    proc = _python("""
        import sys
        import sltwist.cli
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_every_subcommand_runs_with_scipy_blocked(tmp_path):
    runs = ["verify --p 2 --q 2 --tau 0.06",
            "periods --p 1 --q 2 --tau 0.1",
            "closure --p 2 --q 2 --target 3/5",
            "necklace --p 1 --q 2 --m 2",
            "torque --p 2 --q 3 --tau 0.05",
            "neck --p 2 --q 3 --tau 0.001",
            "export --p 1 --q 2 --tau 0.1 --format csv --samples 50 --out curve.csv",
            "export --p 1 --q 2 --tau 0.1 --format json --out p.json",
            "export --p 1 --q 2 --tau 0.1 --format obj --out s.obj",
            "asymptotics --p 2 --q 2 --tau-list 0.001,0.0001",
            "solve --p 2 --q 3 --tau 0.05",
            "solve --p 2 --q 3 --tau 0.05 --samples 500 --out w.csv"]
    proc = _python(f"""
        import os, sys
        sys.modules["scipy"] = None         # any scipy import now raises ImportError
        from sltwist.cli import main
        os.chdir({str(tmp_path)!r})         # --out files are written there
        codes = [main(argv.split()) for argv in {runs!r}]
        print("codes", codes)
        sys.exit(any(codes))
    """)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert f"codes {[0] * len(runs)}" in proc.stdout
    assert (tmp_path / "w.csv").read_text().count("\n") == 501
