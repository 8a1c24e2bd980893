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
    proc = _python(f"""
        import sys
        sys.modules["scipy"] = None         # any scipy import now raises ImportError
        from sltwist.cli import main
        runs = [
            ["verify", "--p", "2", "--q", "2", "--tau", "0.06"],
            ["periods", "--p", "1", "--q", "2", "--tau", "0.1"],
            ["closure", "--p", "2", "--q", "2", "--target", "3/5"],
            ["necklace", "--p", "1", "--q", "2", "--m", "2"],
            ["torque", "--p", "2", "--q", "3", "--tau", "0.05"],
            ["neck", "--p", "2", "--q", "3", "--tau", "0.001"],
            ["export", "--p", "1", "--q", "2", "--tau", "0.1", "--format", "csv",
             "--samples", "50", "--out", {str(tmp_path / "curve.csv")!r}],
            ["asymptotics", "--p", "2", "--q", "2", "--tau-list", "0.001,0.0001"],
        ]
        codes = [main(argv) for argv in runs]
        print("codes", codes)
        sys.exit(any(codes))
    """)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "codes [0, 0, 0, 0, 0, 0, 0, 0]" in proc.stdout
