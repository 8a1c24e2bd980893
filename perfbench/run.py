"""sltwist benchmark: seeded CLI workloads, timed and checked.

    python3 perfbench/run.py --workload verify_mix --seed 1 --seconds 15 --trace 0

Run from the repository root; the package is imported from ``src/``.
With ``--trace 0`` the last stdout line is the end-to-end result, with
``--trace 1`` the per-layer result of a traced run (and of an untraced
run of the same list, for the tracing overhead).  Lines before it give
a readable summary and the run record.  Times are reported at reference
speed (see refspeed.py).  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from checks import margin_decades  # noqa: E402
from layers import metric_names  # noqa: E402
from refspeed import REF_S  # noqa: E402

SETUP_REPEATS = 3
BUDGET_S = 170.0           # a run must end well within 180 s
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _env(pinned: bool) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    if pinned:
        env.update({k: "1" for k in PINNED_THREADS})
    return env


def _run(cmd, env, deadline: float) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget spent")
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"timed out: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc


_SETUP_PROBE = ("import sltwist.cli, sys; sys.path.insert(0, {here!r}); import refspeed; "
                "print(refspeed.samples(20))")


def measure_setup(deadline: float) -> tuple[float, float]:
    """(at reference speed, raw) median wall time of a fresh interpreter
    importing sltwist.cli.

    Each probe times the reference loop after its import; the loop's time
    is taken off the probe's wall time and sets its speed.  Runs after the
    workload, whose import has compiled the bytecode.
    """
    cmd = [sys.executable, "-c", _SETUP_PROBE.format(here=str(HERE))]
    env = _env(pinned=False)
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        refs = json.loads(_run(cmd, env, deadline).stdout)
        raw.append(time.perf_counter() - t0 - sum(refs))
        scaled.append(raw[-1] * REF_S * len(refs) / sum(refs))
    return statistics.median(scaled), statistics.median(raw)


def run_worker(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        result = Path(tmp) / "result.json"
        _run([sys.executable, str(HERE / "worker.py"), "--workload", workload,
              "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
              "--result", str(result)], _env(pinned=True), deadline)
        return json.loads(result.read_text())


def end_to_end(res: dict, setup: tuple[float, float] | None) -> dict:
    """The end-to-end metrics of one run, with the unbounded figures.

    Times are at reference speed (see refspeed.py); ``*_raw_s`` are as
    measured.
    """
    ops = res["ops"]
    speed = REF_S / res["ref_s"]
    margins = [margin_decades(value, limit)
               for op in ops for _, value, limit in op["quantities"]]
    out = {} if setup is None else {"setup_s": (setup[0], "s"), "setup_raw_s": (setup[1], "s")}
    return out | {
        "wall_s": (res["wall_s"] * speed, "s"),
        "wall_raw_s": (res["wall_s"], "s"),
        "cpu_raw_s": (res["cpu_s"], "s"),
        "ref_loop_ms": (res["ref_s"] * 1e3, "ms"),
        "op_p50_s": (statistics.median(op["seconds"] for op in ops) * speed, "s"),
        "fail_share": (sum(op["failed"] for op in ops) / len(ops), "share"),
        "worst_margin_decades": (min(margins) if margins else math.nan, "decades"),
        "mean_margin_decades": (statistics.fmean(margins) if margins else math.nan, "decades"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


# the subset of end_to_end() that BENCHMARK.json bounds (never 0, never negative)
REPORTED = ("setup_s", "wall_s", "mean_margin_decades", "peak_rss_mb")


def scaled_wall(res: dict) -> float:
    """The run's wall time at reference speed."""
    return res["wall_s"] * REF_S / res["ref_s"]


def summary_lines(res: dict, e2e: dict, traced: dict | None) -> list[str]:
    ops = res["ops"]
    failed = [op for op in ops if op["failed"]]
    lines = [f"# workload {res['workload']} seed {res['seed']}: {len(ops)} operations, "
             f"{len(failed)} failed, list size {res['size']}"]
    lines += [f"#   {name:22s} {value:.6g} {unit}" for name, (value, unit) in e2e.items()]
    for op in failed:
        why = op["violations"] + op["broken"]
        if op["stderr_tail"]:
            why.append(op["stderr_tail"].strip().splitlines()[-1])
        lines.append(f"#   FAILED {' '.join(op['argv'])}: {'; '.join(why)}")
    if traced is not None:
        lines.append(f"#   traced wall_s {scaled_wall(traced):.6g} s, "
                     f"overhead {scaled_wall(traced) - scaled_wall(res):.6g} s")
    record = {k: res[k] for k in ("workload", "seed", "seconds", "size", "ops_sha256",
                                  "versions", "nproc")}
    record["pinned_threads"] = {k: "1" for k in PINNED_THREADS}
    lines.append("# record " + json.dumps(record, sort_keys=True))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="sltwist benchmark")
    ap.add_argument("--workload", required=True,
                    help="verify_mix, small_twist, closure_scan or geometry_export")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S
    if not (SRC / "sltwist" / "cli.py").is_file():
        print(f"error: {SRC / 'sltwist'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    try:
        res = run_worker(args.workload, args.seed, args.seconds, False, deadline)
        traced = (run_worker(args.workload, args.seed, args.seconds, True, deadline)
                  if args.trace else None)
        setup = None if args.trace else measure_setup(deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    e2e = end_to_end(res, setup)
    for line in summary_lines(res, e2e, traced):
        print(line)
    runs = [res] if traced is None else [res, traced]
    correct = all(not op["broken"] for r in runs for op in r["ops"])
    if traced is None:
        metrics = {name: {"value": e2e[name][0], "unit": e2e[name][1]} for name in REPORTED}
    else:
        layers = dict(traced["layers"], **{
            "trace.wall_s": scaled_wall(traced),
            "trace.overhead_s": scaled_wall(traced) - scaled_wall(res)})
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in metric_names()}
        correct = correct and res["ops_sha256"] == traced["ops_sha256"]
    out = traced if traced is not None else res
    print(json.dumps({"correct": correct, "attempted": len(out["ops"]),
                      "failed": sum(op["failed"] for op in out["ops"]),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
