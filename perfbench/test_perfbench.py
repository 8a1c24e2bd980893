"""Self-tests of the benchmark: seeding, the checker and the tracer.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import pytest  # noqa: E402

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from worker import run_op  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_operation_list_follows_the_seed(workload):
    a = workloads.build(workload, 1, 15)
    b = workloads.build(workload, 1, 15)
    c = workloads.build(workload, 2, 15)
    assert a.ops == b.ops and a.digest() == b.digest()
    assert a.digest() != c.digest()
    assert len(a.ops) >= workloads.MIN_OPS


def test_pairs_are_every_admissible_pair_up_to_n7():
    assert set(workloads.PAIRS_N7) == {(p, q) for q in range(2, 7) for p in range(1, q + 1)
                                       if p + q <= 7}


def test_zero_counts_sixteen_decades():
    assert checks.margin_decades(0.0, 1e-8) == 16.0
    assert checks.margin_decades(1e-10, 1e-8) == pytest.approx(2.0)
    assert checks.margin_decades(1e-7, 1e-8) == pytest.approx(-1.0)


def test_checker_flags_a_verify_value_over_its_limit():
    op = workloads.Op(("verify", "--p", "2", "--q", "2", "--tau", "0.06", "--json"))
    rc, _, _, out, _ = run_op(list(op.argv))
    assert rc == 0 and not checks.check(op, rc, out).failed
    data = json.loads(out)
    data["checks"]["I1 drift"]["value"] = "2e-9"          # limit 1e-9, still marked pass
    verdict = checks.check(op, rc, json.dumps(data))
    assert verdict.failed
    assert any("I1 drift" in v for v in verdict.violations)
    assert verdict.broken                                  # pass flag contradicts the value


def test_checker_flags_an_obj_face_out_of_range(tmp_path):
    op = workloads.Op(("export", "--p", "1", "--q", "2", "--tau", "0.1", "--format", "obj",
                       "--samples", "8", "--out", str(tmp_path / "m.obj")),
                      out="m.obj", samples=8)
    rc, _, _, out, _ = run_op(list(op.argv))
    assert rc == 0 and not checks.check(op, rc, out, tmp_path).failed
    with open(tmp_path / "m.obj", "a") as fh:
        fh.write("f 1 2 3 65\n")
    verdict = checks.check(op, rc, out, tmp_path)
    assert verdict.failed
    assert any("out of range" in v for v in verdict.violations)


def test_checker_counts_a_nonzero_exit_as_failed():
    op = workloads.Op(("periods", "--p", "1", "--q", "2", "--tau", "0.5", "--json"))
    rc, _, _, out, _ = run_op(list(op.argv))                  # tau above tau_max
    assert rc == 2
    assert checks.check(op, rc, out).failed


_TRACED = """
import json, sys
sys.path[:0] = [{src!r}, {here!r}]
from layers import Tracer
from worker import run_op
tracer = Tracer().install()
for argv in {ops!r}:
    run_op(argv)
tracer.uninstall()
m = tracer.metrics(1.0)
print(json.dumps({{k: v for k, v in m.items() if not k.endswith(("_s", "_share"))}}))
"""

_SMALL_OPS = [["periods", "--p", "1", "--q", "2", "--tau", "0.1", "--json"],
              ["verify", "--p", "2", "--q", "2", "--tau", "0.06", "--json"],
              ["torque", "--p", "1", "--q", "3", "--tau", "-0.05", "--json"],
              ["neck", "--p", "1", "--q", "2", "--tau", "1e-3", "--json"]]


def _traced_counts() -> dict:
    code = _TRACED.format(src=str(ROOT / "src"), here=str(HERE), ops=_SMALL_OPS)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, timeout=300)
    return json.loads(proc.stdout.splitlines()[-1])


def test_traced_counts_repeat_exactly():
    a, b = _traced_counts(), _traced_counts()
    assert a == b
    assert a["cli.verify.calls"] == 1 and a["cli.periods.calls"] == 1
    assert a["ode_engine.integrate.steps"] > 0 and a["ode_engine.integrate.fevals"] > 0
    assert a["ode_engine.locate_event.g_evals"] > 0
    assert 0 < a["periods.period_ode.unique_ratio"] <= 1
    assert a["geometry.torque.sphere_quadrature.calls"] > 0
    assert a["geometry.neck.neck_rescale.calls"] == 1


def test_tracer_patches_every_binding_and_restores_them():
    import sltwist.cli
    import sltwist.closure
    import sltwist.periods
    import sltwist.variation

    original = sltwist.periods.period_ode
    tracer = layers.Tracer().install()
    try:
        for mod in (sltwist.cli, sltwist.closure, sltwist.periods, sltwist.variation):
            assert mod.period_ode is not original
    finally:
        tracer.uninstall()
    for mod in (sltwist.cli, sltwist.closure, sltwist.periods, sltwist.variation):
        assert mod.period_ode is original


def test_per_layer_names_are_unique_and_cover_every_module():
    names = [n for n, _ in layers.metric_names()]
    assert len(names) == len(set(names))
    for module in ("cli", "ode_engine", "twisted_curve", "periods", "variation", "closure",
                   "catenoid", "geometry.immersion", "geometry.symmetry", "geometry.torque",
                   "geometry.spheres", "geometry.neck", "geometry.export"):
        assert any(n.startswith(module + ".") for n in names), module


def test_benchmark_json_lists_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.REPORTED)
    assert ([(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.metric_names())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify_mix",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
