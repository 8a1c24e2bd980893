"""Seeded operation lists for the four benchmark workloads.

An operation is one ``sltwist`` CLI call: an argv list plus the facts the
checker needs to judge its output (the file it writes, the rational
target a closure must hit).  A list depends only on the workload name,
the seed and ``--seconds``, so two commits given the same arguments run
identical operations.

Parameters are stratified: when a run makes k operations of one
(subcommand, pair), their taus are one log-uniform draw from each of k
equal log-bins of the range.  Every run therefore covers every range the
same way, and the seed only moves points inside their bins.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import asdict, dataclass
from fractions import Fraction

from sltwist.twisted_curve import AdmissiblePair, TwistParam, tau_max

WORKLOADS = ("verify_mix", "small_twist", "closure_scan", "geometry_export")

# every admissible pair with n <= 7, in order of n
PAIRS_N7 = tuple((p, n - p) for n in range(3, 8)
                 for p in range(1, n // 2 + 1) if n - p >= 2)

# (pair, m) of the necklace ladder; the tau of each is fixed by (pair, m)
NECKLACES = tuple([((1, 2), m) for m in (2, 4, 8, 16)]
                  + [((1, 3), m) for m in (1, 2, 4, 8)]
                  + [((2, 2), m) for m in (1, 2, 3, 4)]
                  + [((3, 3), m) for m in (1, 2)]
                  + [((1, 4), m) for m in (1, 3)])
CLOSURE_PAIRS = ((1, 2), (1, 3), (2, 2), (3, 3), (1, 4))
MAX_DENOMINATOR = 12

# (seconds of one unit of size, fixed seconds of a run) on a 2-core
# x86-64 VM with Python 3.11, numpy 2.4 and scipy 1.17.  The unit is one
# operation for verify_mix and one round for the others.  These only
# turn --seconds into a list size; the list never depends on the machine.
SIZING = {"verify_mix": (1.6, 0.0), "small_twist": (7.5, 0.0),
          "closure_scan": (3.5, 20.0), "geometry_export": (3.0, 12.0)}
MIN_OPS = 20


@dataclass(frozen=True)
class Op:
    """One CLI call.  ``out`` is the file it writes, relative to the run's
    output directory; ``target`` is a closure target "a/b" (times pi)."""

    argv: tuple
    out: str | None = None
    target: str | None = None
    samples: int | None = None

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def pair(self) -> tuple[int, int]:
        argv = self.argv
        return int(argv[argv.index("--p") + 1]), int(argv[argv.index("--q") + 1])


@dataclass
class OpList:
    workload: str
    seed: int
    size: int          # operations for verify_mix, rounds for the others
    ops: list

    def digest(self) -> str:
        blob = json.dumps([asdict(op) for op in self.ops], sort_keys=True)
        return hashlib.sha256(blob.encode()).hexdigest()


def _tm(pq) -> float:
    return tau_max(AdmissiblePair(*pq))


def _strata(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    """k log-uniform draws in [lo, hi], one per equal log-bin, shuffled."""
    u = [(i + rng.random()) / k for i in range(k)]
    rng.shuffle(u)
    return [lo * (hi / lo) ** x for x in u]


def _ints(rng: random.Random, lo: int, hi: int, k: int) -> list[int]:
    """k integers in [lo, hi], one per equal bin, shuffled."""
    out = [lo + int((i + rng.random()) * (hi - lo + 1) / k) for i in range(k)]
    rng.shuffle(out)
    return out


def _pq(pq) -> list[str]:
    return ["--p", str(pq[0]), "--q", str(pq[1])]


def _tau(tau: float) -> list[str]:
    return ["--tau", repr(tau)]


def size_for(workload: str, seconds: float) -> int:
    """List size that fills about ``seconds`` on the reference machine."""
    unit, fixed = SIZING[workload]
    return max(1, round(max(seconds - fixed, 0.0) / unit))


def verify_mix(rng: random.Random, n_ops: int) -> list[Op]:
    """``verify`` cycling through every pair with n <= 7, tau in
    [0.05, 0.95] tau_max."""
    order = [PAIRS_N7[i % len(PAIRS_N7)] for i in range(n_ops)]
    taus = {pq: _strata(rng, 0.05 * _tm(pq), 0.95 * _tm(pq), order.count(pq))
            for pq in PAIRS_N7 if pq in order}
    return [Op(("verify", *_pq(pq), *_tau(taus[pq].pop()), "--json")) for pq in order]


_ST_PERIODS = ((1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (3, 3))
_ST_VERIFY = ((1, 2), (1, 3), (2, 2), (2, 3))


def _small_range(pq, command: str) -> tuple[float, float]:
    if command == "neck":
        return 2.5e-4, 1e-3
    if pq[0] > 1:
        return 1e-6, 1e-3
    return (5e-5, 1e-3) if command == "periods" else (1e-4, 1e-3)


def small_twist(rng: random.Random, rounds: int) -> list[Op]:
    """``periods``, ``verify`` and ``neck`` at small tau, plus one
    ``asymptotics`` call.

    Operations that share a tau range are stratified together: k of them
    take one draw from each of k log-bins, in a seeded order.  The cost of
    a p = 1 period grows steeply towards the bottom of its range, so this
    puts one operation, not one per pair, into the most expensive bin.
    """
    plan = ([("periods", pq) for pq in _ST_PERIODS]
            + [("verify", pq) for pq in _ST_VERIFY]
            + [("neck", (1, 2))] * 2) * rounds
    groups = [(command, _small_range(pq, command)) for command, pq in plan]
    draws = {g: _strata(rng, *g[1], groups.count(g)) for g in dict.fromkeys(groups)}
    ops = []
    for (command, pq), g in zip(plan, groups):
        extra = ["--window", "2.0"] if command == "neck" else []
        ops.append(Op((command, *_pq(pq), *_tau(draws[g].pop()), *extra, "--json")))
    taus = sorted(_strata(rng, 1e-5, 1e-2, 3), reverse=True)
    ops.append(Op(("asymptotics", "--p", "2", "--q", "2",
                   "--tau-list", ",".join(repr(t) for t in taus), "--json")))
    return ops


def necklace_target(pq, m: int) -> Fraction:
    """The rational angular period (times pi) a necklace closes on."""
    p, q = pq
    n = p + q
    return (Fraction((n - 1) * m, 2 * (n - 1) * m - 1) if p == 1
            else Fraction(p * m, 2 * p * m - 1))


def attainable_range(pq, points: int = 200) -> tuple[float, float]:
    """min and max of pthat/pi over the closure scan grid of the pair."""
    from sltwist.periods import pthat_quadrature

    pair = AdmissiblePair(*pq)
    tm = tau_max(pair)
    lo, hi = 1e-5 * tm, 0.999 * tm
    vals = [pthat_quadrature(TwistParam(pair, lo * (hi / lo) ** (i / (points - 1)))) / math.pi
            for i in range(points)]
    return min(vals), max(vals)


def closure_targets(pq, ranges) -> list[Fraction]:
    """Reduced a/b, b <= MAX_DENOMINATOR, strictly inside the pair's range."""
    lo, hi = ranges[pq]
    found = {Fraction(a, b) for b in range(1, MAX_DENOMINATOR + 1)
             for a in range(1, b + 1) if lo < a / b < hi}
    return sorted(found)


def closure_scan(rng: random.Random, rounds: int, ranges) -> list[Op]:
    """The necklace ladder, then seeded ``closure`` targets per pair."""
    ops = [Op(("necklace", *_pq(pq), "--m", str(m), "--json"),
              target=str(necklace_target(pq, m)))
           for pq, m in NECKLACES]
    picks = {}
    for pq in CLOSURE_PAIRS:
        pool = closure_targets(pq, ranges)
        picks[pq] = rng.sample(pool, min(rounds, len(pool)))
    for r in range(rounds):
        for pq in CLOSURE_PAIRS:
            if r < len(picks[pq]):
                t = picks[pq][r]
                ops.append(Op(("closure", *_pq(pq), "--target", f"{t.numerator}/{t.denominator}",
                               "--json"), target=f"{t.numerator}/{t.denominator}"))
    return ops


def geometry_export(rng: random.Random, rounds: int) -> list[Op]:
    """OBJ, CSV and JSON export, ``torque`` over every pair with n <= 7
    at both signs of tau, and ``neck``."""
    ops = []
    csv_pairs = PAIRS_N7[:6]
    obj_tau = _strata(rng, 0.05 * _tm((1, 2)), 0.95 * _tm((1, 2)), rounds)
    grid = _ints(rng, 64, 128, rounds)
    rows = _ints(rng, 10_000, 20_000, 2 * rounds)
    neck_tau = _strata(rng, 2.5e-4, 1e-3, rounds)
    for r in range(rounds):
        ops.append(Op(("export", *_pq((1, 2)), *_tau(obj_tau[r]), "--format", "obj",
                       "--samples", str(grid[r]), "--out", f"{r}.obj"),
                      out=f"{r}.obj", samples=grid[r]))
        for k, command in enumerate(("export", "solve")):
            pq = csv_pairs[(2 * r + k) % len(csv_pairs)]
            tau = _strata(rng, 0.05 * _tm(pq), 0.95 * _tm(pq), 1)[0]
            n = rows[2 * r + k]
            fmt = ["--format", "csv"] if command == "export" else []
            ops.append(Op((command, *_pq(pq), *_tau(tau), *fmt, "--samples", str(n),
                           "--out", f"{r}-{command}.csv"),
                          out=f"{r}-{command}.csv", samples=n))
        for k in range(2):
            pq = csv_pairs[(2 * r + k + 1) % len(csv_pairs)]
            tau = _strata(rng, 0.05 * _tm(pq), 0.95 * _tm(pq), 1)[0]
            ops.append(Op(("export", *_pq(pq), *_tau(tau), "--format", "json",
                           "--out", f"{r}-{k}.json"), out=f"{r}-{k}.json"))
        ops.append(Op(("neck", *_pq((1, 2)), *_tau(neck_tau[r]), "--window", "2.0", "--json")))
    # torque: every pair once, signs alternating from a seeded start
    sign = rng.choice((1.0, -1.0))
    for pq in PAIRS_N7:
        tau = sign * _strata(rng, 0.05 * _tm(pq), 0.95 * _tm(pq), 1)[0]
        ops.append(Op(("torque", *_pq(pq), *_tau(tau), "--json")))
        sign = -sign
    return ops


def build(workload: str, seed: int, seconds: float) -> OpList:
    """The operation list of one run of about ``seconds``.

    The closure pairs' attainable ranges are found here, before any
    operation is timed.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    make = {"verify_mix": verify_mix, "small_twist": small_twist,
            "geometry_export": geometry_export}.get(workload)
    if make is None:
        ranges = {pq: attainable_range(pq) for pq in CLOSURE_PAIRS}

        def make(rng, size):
            return closure_scan(rng, size, ranges)

    size = size_for(workload, seconds)
    ops = make(random.Random(f"{workload}:{seed}"), size)
    while len(ops) < MIN_OPS:
        size += 1
        ops = make(random.Random(f"{workload}:{seed}"), size)
    keys = [key(op) for op in ops]
    if len(set(keys)) != len(keys):
        raise AssertionError("two operations share (pair, tau, tol)")
    return OpList(workload, seed, size, ops)


def key(op: Op) -> tuple:
    """(pair, tau) of an operation, with the target, m or tau list standing
    in for tau where the program finds the tau.  Every operation uses the
    standard tolerance preset, so this is its (pair, tau, tol)."""
    argv = op.argv
    for flag in ("--tau", "--target", "--m", "--tau-list"):
        if flag in argv:
            return (op.pair, flag, argv[argv.index(flag) + 1])
    raise ValueError(f"operation without a parameter: {argv}")
