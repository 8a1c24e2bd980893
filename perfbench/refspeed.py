"""The VM's momentary speed, from a fixed reference loop.

On a shared VM the same operation list took from 7.4 s to 10.8 s in
consecutive runs, and the drift is the machine's, not the program's.
The worker times this loop between operations and the set-up probe
times it after importing ``sltwist.cli``; times are then reported at
reference speed, ``raw * REF_S / mean(loop times)``, which divides the
drift out.  The loop is pure-Python complex arithmetic, the kind of work
that dominates sltwist's field evaluations, and allocates nothing the
garbage collector tracks, so the program's heap does not slow it.
"""

from __future__ import annotations

from time import perf_counter

REF_S = 0.003  # the loop's time on a 2-core x86-64 VM in a calm period


def loop() -> float:
    """Seconds taken by one pass of the reference loop."""
    t0 = perf_counter()
    z, w, acc = complex(0.6, 0.1), complex(0.7, 0.2), 0.0
    for _ in range(4000):
        c1 = z.conjugate() * w.conjugate() ** 2
        c2 = -(z.conjugate() ** 2) * w.conjugate()
        z, w = z + 1e-4 * c1, w + 1e-4 * c2
        acc += c1.real * c2.imag
    return perf_counter() - t0


def samples(n: int) -> list[float]:
    return [loop() for _ in range(n)]
