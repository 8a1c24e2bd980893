"""One sha256 over every output of the benchmark's operations, to compare two trees.

    python3 tools/byte_audit.py [--root PATH] [--out FILE]
    python3 tools/byte_audit.py --compare BASE HEAD

Builds the operation lists of ``perfbench/workloads.py`` for its four
workloads at seeds 1-3 and ``--seconds 15`` in the tree at ``--root``
(by default the tree holding this script), and runs each operation through
that tree's ``sltwist.cli.main`` in this process, with the tree's ``src/``
and ``perfbench/`` ahead of any installed copy.  Each operation runs in an
empty directory of its own, with ``--out`` rewritten to the bare file name,
so no path of the run's own reaches its output (``wrote <path>`` prints the
name as given).

Prints the sha256 over every exit code, stdout, stderr and written file (its
name and bytes), in operation order.  A second line gives the same digest over
the argv of ``PARSER_ARGVS``, which argparse answers alone (help, usage and
refusals), and a third over those of ``EDGE_ARGVS``, which write rows read at
t = 0, closure classifications, small-tau refusals, number layouts and necks
that the operations barely reach or never do; both sets run the same way at a
fixed width of 80 columns.  With ``--out``, writes one JSON line per call:
workload (``parser`` and ``edge`` for the two sets), seed, index, argv, exit
code and the call's own sha256, so that two trees' files can be compared
call by call; a ``verify --json`` call's line also keeps the value of each
check it printed, as ``checks``.

With ``--compare BASE HEAD``, reads two such files instead of running anything,
prints each call whose argv or sha256 differs, and under it each check whose
value changed, then ``N of M calls differ (K exit codes changed)``, and exits 0
whatever it finds.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import traceback
from pathlib import Path
from unittest import mock

SEEDS = (1, 2, 3)
SECONDS = 15.0

_CLOSURE = ["closure", "--p", "1", "--q", "2"]
_COMMANDS = ["solve", "periods", "closure", "necklace", "torque", "asymptotics", "neck",
             "export", "verify"]
# the top-level parser's help and refusals, each subcommand's help and missing
# flags, and the values and options a subcommand refuses (negative values after
# an option among them, refused by the option's own check)
PARSER_ARGVS = [
    [], ["-h"], ["--help"], ["nope"], ["verif"], ["--p", "1", "verify"],
    *([name, "-h"] for name in _COMMANDS),
    *([name] for name in _COMMANDS),
    _CLOSURE,
    ["periods", "--p", "1", "--q", "2", "--tau", "0.1", "--bogus"],
    ["verify", "--p", "1", "--q", "2", "--tau", "0.1", "periods"],
    [*_CLOSURE, "--target", "4/7", "--samples", "1"],
    [*_CLOSURE, "--target", "x"],
    ["solve", "--p", "1", "--q", "2", "--tau", "0.1", "--window", "inf"],
    ["verify", "--p", "1", "--q", "2", "--tau", "0.1", "--tol", "fast"],
    ["periods", "--p", "1", "--q", "2", "--tau", "0.1", "--m", "3"],
    ["periods", "--p", "2", "--q", "3", "--tau", "-9.3e-05", "--nope"],
    ["periods", "--p", "2", "--q", "3", "--tau", "-inf"],
    [*_CLOSURE, "--target", "-3/5"],
]
# rows with a time of 0: tau = 0 curves, two-sided p = 1 reads, odd sample counts;
# then the closure classifications no operation reaches: an even k0 with p > 1
# (a Z2-quotient of type (1, 0), a product of type (1, 1)) and with p = 1, n even;
# then the refusals of a tau too small for the extrema's doubles ((2,7) and (1,2)
# below 1e-153) and of an angular-period excess its psi2 side does not confirm;
# then number layouts no operation writes: exponent-form times next to
# fixed-form states, Im w1 near 2e-5, the smallest valid mesh, and the
# refusal of a mesh with 2 angular points; then necks that no operation reads,
# as every neck operation is (1,2) at a kind-2 waist of degree 2: kind-1 waists
# of degree 2 (at both signs of tau, and at waist 2) and 3, and a kind-2 waist
# of degree 3; then a solve without --out, which prints its drift, a pthat
# excess at p = q, which has no second route to be judged by, and necklace's
# two refusals, of m < 1 and of a pair in neither family
EDGE_ARGVS = [[*argv.split(), "--out", "edge.obj" if "obj" in argv else "edge.csv"]
              for argv in (
    "solve --p 1 --q 2 --tau 0 --window 1 --samples 5",
    "solve --p 2 --q 2 --tau 0 --window 1 --samples 5",
    "solve --p 3 --q 3 --tau 0 --window 2 --samples 9",
    "solve --p 1 --q 3 --tau 0.05 --samples 201",
    "solve --p 1 --q 2 --tau -0.1 --window 1 --samples 3",
    "export --p 2 --q 3 --tau 0.05 --format csv --window 1 --samples 3",
    "closure --p 2 --q 3 --target 3/5",
    "closure --p 2 --q 2 --target 3/5",
    "closure --p 1 --q 3 --target 7/12",
    "asymptotics --p 2 --q 7 --tau-list 3e-162",
    "asymptotics --p 1 --q 2 --tau-list 5.8e-162",
    "asymptotics --p 1 --q 2 --tau-list 1e-26",
    "export --p 2 --q 3 --tau 0.05 --format csv --window 1e-5 --samples 7",
    "solve --p 1 --q 2 --tau 1e-5 --window 1 --samples 9",
    "export --p 1 --q 2 --tau 0.1 --format obj --samples 3",
    "export --p 1 --q 2 --tau 0.1 --format obj --samples 2")] + [argv.split() for argv in (
    "neck --p 2 --q 3 --tau 0.001 --waist 0 --json",
    "neck --p 3 --q 3 --tau 0.001 --waist 0",
    "neck --p 1 --q 3 --tau 0.001",
    "neck --p 2 --q 2 --tau -0.001 --waist 0 --json",
    "neck --p 2 --q 5 --tau 1e-4 --waist 2",
    "solve --p 2 --q 3 --tau 0.05",
    "asymptotics --p 4 --q 4 --tau-list 1e-60",
    "necklace --p 1 --q 2 --m 0",
    "necklace --p 2 --q 3 --m 1")]
_SETS = {"parser": ("parser messages", PARSER_ARGVS), "edge": ("edge calls", EDGE_ARGVS)}


def _import_tree(root: Path):
    """``workloads`` and ``sltwist.cli`` of the tree at root, ahead of any installed copy."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from sltwist import cli

    for module in (workloads, cli):
        if root not in Path(module.__file__).resolve().parents:
            raise SystemExit(f"{module.__name__} was imported from {module.__file__}, "
                             f"not from {root}")
    return workloads, cli


def _run(cli, argv) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one CLI call; an exception that escapes ``main``
    is exit code -1, with its type and message on the call's stderr, and its
    traceback, whose paths differ between trees, on this process's own."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:          # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:           # noqa: BLE001 - recorded in the digest
            rc = -1
            err.write(f"{type(exc).__name__}: {exc}\n")
            traceback.print_exc(file=sys.__stderr__)
    return rc, out.getvalue(), err.getvalue()


def _audited(cli, argv) -> dict:
    """Exit code (``rc``), sha256 of the exit code, stdout, stderr and written files,
    and for ``verify --json`` the value of each check (``checks``), of one CLI call
    run in an empty directory of its own."""
    home = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            rc, stdout, stderr = _run(cli, argv)
        finally:
            os.chdir(home)
        h = hashlib.sha256()
        for part in (str(rc), stdout, stderr):
            h.update(part.encode() + b"\0")
        for path in sorted(Path(tmp).iterdir()):
            data = path.read_bytes()
            h.update(f"{path.name}\0{len(data)}\0".encode() + data)
    record = {"rc": rc, "sha256": h.hexdigest()}
    if argv[:1] == ["verify"] and "--json" in argv and rc in (0, 1):
        rows = json.loads(stdout)["checks"]
        record["checks"] = {name: row["value"] for name, row in rows.items()}
    return record


def audit(root: Path) -> list[dict]:
    """One record per operation of the tree at root, then one per argv of
    ``PARSER_ARGVS`` and of ``EDGE_ARGVS`` (workloads ``parser`` and ``edge``,
    seed None): workload, seed, index, argv, exit code, sha256 and any checks."""
    workloads, cli = _import_tree(root)
    records = []
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for i, op in enumerate(workloads.build(workload, seed, SECONDS).ops):
                argv = list(op.argv)
                if op.out is not None:
                    argv[argv.index("--out") + 1] = Path(op.out).name
                records.append({"workload": workload, "seed": seed, "index": i,
                                "argv": list(op.argv), **_audited(cli, argv)})
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):     # argparse wraps help to it
        for workload, (_, argvs) in _SETS.items():
            for i, argv in enumerate(argvs):
                records.append({"workload": workload, "seed": None, "index": i,
                                "argv": argv, **_audited(cli, argv)})
    return records


def compare(base: list[dict], head: list[dict]) -> list[str]:
    """One line per call whose argv or sha256 differs between two audits' records
    (with the head's argv where it differs), each followed by a line per check
    whose value changed, then the count of such calls and of their changed exit
    codes; first a line for unequal record counts."""
    lines = [] if len(base) == len(head) else [f"{len(base)} calls at the base, "
                                               f"{len(head)} at the head"]
    differ = codes = 0
    for b, h in zip(base, head):
        if b["argv"] != h["argv"] or b["sha256"] != h["sha256"]:
            differ += 1
            codes += b["rc"] != h["rc"]
            lines.append(f"{b['workload']} {b['seed']}#{b['index']}: {' '.join(b['argv'])}"
                         + ("" if b["argv"] == h["argv"] else f" | head: {' '.join(h['argv'])}"))
            old, new = b.get("checks", {}), h.get("checks", {})
            lines += [f"    {name}: {old.get(name)} -> {new.get(name)}"
                      for name in dict.fromkeys([*old, *new]) if old.get(name) != new.get(name)]
    lines.append(f"{differ} of {min(len(base), len(head))} calls differ "
                 f"({codes} exit codes changed)")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                    help="the tree to audit (default: the one holding this script)")
    ap.add_argument("--out", type=Path, help="write one JSON line per call here")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "HEAD"),
                    help="list the calls whose records differ between two --out files")
    args = ap.parse_args(argv)
    if args.compare is not None:
        base, head = ([json.loads(line) for line in path.read_text().splitlines()]
                      for path in args.compare)
        print("\n".join(compare(base, head)))
        return 0
    root = args.root.resolve()
    records = audit(root)
    if args.out is not None:
        args.out.write_text("".join(json.dumps(r) + "\n" for r in records))
    label = {workload: what for workload, (what, _) in _SETS.items()}
    for what in ("operations", *label.values()):
        part = [r for r in records if label.get(r["workload"], "operations") == what]
        total = hashlib.sha256(b"".join(bytes.fromhex(r["sha256"]) for r in part))
        print(f"sha256 {total.hexdigest()} over {len(part)} {what} of {root}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
