"""Run one workload's operation list in this process and write the results.

    python3 perfbench/worker.py --workload verify_mix --seed 1 --seconds 15 \
        --trace 0 --result out.json

Every operation is a call of ``sltwist.cli.main(argv)`` with stdout and
stderr captured.  The operations run back to back, with three passes of
the reference loop (``refspeed``) after each; outputs are checked only
after the last one.  ``wall_s`` and ``cpu_s`` sum the operations alone.
``run.py`` starts this script in a fresh interpreter with the BLAS/OpenMP
thread counts pinned to 1.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import refspeed  # noqa: E402
import workloads  # noqa: E402
from sltwist import cli  # noqa: E402


def _argv(op, outdir: Path) -> list[str]:
    argv = list(op.argv)
    if op.out is not None:
        argv[argv.index("--out") + 1] = str(outdir / op.out)
    return argv


def run_op(argv) -> tuple[int, float, float, str, str]:
    """(exit code, wall seconds, CPU seconds, stdout, stderr) of one CLI call.

    An exception that escapes ``main`` is what a shell user sees as a
    traceback and exit code 1; it is recorded as exit code -1 so that
    it can never pass for a ``verify`` violation.
    """
    out, err = io.StringIO(), io.StringIO()
    t0, c0 = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:          # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:                  # noqa: BLE001 - recorded below
            rc = -1
            err.write(traceback.format_exc())
    return (rc, time.perf_counter() - t0, time.process_time() - c0,
            out.getvalue(), err.getvalue())


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    oplist = workloads.build(workload, seed, seconds)
    tracer = None
    if trace:
        from layers import Tracer

        tracer = Tracer().install()
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    results, refs = [], []
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        outdir = Path(tmp)
        for op in oplist.ops:
            results.append(run_op(_argv(op, outdir)))
            refs += refspeed.samples(3)
        wall = sum(r[1] for r in results)
        cpu = sum(r[2] for r in results)
        if tracer is not None:
            tracer.uninstall()
        records = []
        for op, (rc, dt, dc, out, err) in zip(oplist.ops, results):
            v = checks.check(op, rc, out, outdir)
            records.append({"argv": list(op.argv), "rc": rc, "seconds": dt, "cpu_seconds": dc,
                            "quantities": v.quantities, "violations": v.violations,
                            "broken": v.broken, "failed": v.failed,
                            "stderr_tail": err[-400:] if rc not in (0, 1) else ""})
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "size": oplist.size, "ops_sha256": oplist.digest(),
        "wall_s": wall, "cpu_s": cpu, "ref_s": sum(refs) / len(refs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__},
        "nproc": os.cpu_count(),
        "ops": records,
        "layers": tracer.metrics(wall) if tracer is not None else None,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", required=True)
    args = ap.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
