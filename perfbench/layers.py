"""Per-layer tracing of sltwist from outside the package.

The tracer replaces each public function named in ``SPANS`` by a
wrapper, at every ``sltwist`` module that bound it (``from .periods
import period_ode`` gives ``cli``, ``closure``, ``variation`` and the
geometry modules their own reference, and each is patched).  Methods
are patched on their class.  A span stack gives self time: a span's
duration minus the time its child spans cover.

Counts made at the same boundaries:

* ``ode_engine.integrate.steps``: accepted steps, ``len(time_grid) - 1``;
* ``ode_engine.integrate.fevals``: calls of the ``field`` handed to it;
* ``ode_engine.locate_event.g_evals``: calls of the ``g`` handed to it;
* ``periods.period_ode.unique_ratio``: distinct (param, tol) per call;
* ``geometry.immersion.sampler.points``: sampler evaluations;
* ``geometry.export.*.bytes``: bytes of the files written.

Counts depend only on the operations run, so two traced runs of the
same list give identical counts.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

# (label, module, attribute or Class.method, count name)
SPANS = (
    ("cli.{cmd}", "sltwist.cli", "cmd_*", "calls"),
    ("ode_engine.integrate", "sltwist.ode_engine", "integrate", "calls"),
    ("ode_engine.locate_event", "sltwist.ode_engine", "locate_event", "calls"),
    ("ode_engine.Trajectory.eval", "sltwist.ode_engine", "Trajectory.__call__", "calls"),
    ("periods.period_ode", "sltwist.periods", "period_ode", "calls"),
    ("periods.quadrature", "sltwist.periods", "partial_periods_quadrature", "calls"),
    ("periods.quadrature", "sltwist.periods", "pthat_quadrature", "calls"),
    ("periods.quadrature", "sltwist.periods", "pthat_quadrature_psi2", "calls"),
    ("periods.quadrature", "sltwist.periods", "branch_integral", "calls"),
    ("twisted_curve.solve_w", "sltwist.twisted_curve", "solve_w", "calls"),
    *[("twisted_curve.TwistTrajectory.sample", "sltwist.twisted_curve",
       f"TwistTrajectory.{m}", "calls") for m in ("w", "state", "y", "ydot", "psi")],
    ("variation.solve_Q", "sltwist.variation", "solve_Q", "calls"),
    ("variation.dpthat_dtau_cross_check", "sltwist.variation", "dpthat_dtau_cross_check",
     "calls"),
    ("closure.scan_brackets", "sltwist.closure", "scan_brackets", "calls"),
    ("closure.find_tau_for_angular_period", "sltwist.closure", "find_tau_for_angular_period",
     "calls"),
    ("closure.verify_closed", "sltwist.closure", "verify_closed", "calls"),
    ("catenoid.unit_profile", "sltwist.catenoid", "unit_profile", "calls"),
    ("geometry.immersion.sampler", "sltwist.geometry.immersion", "immersion_sampler",
     "calls"),
    ("geometry.immersion.sampler", "sltwist.geometry.immersion", "Sampler.__call__",
     "points"),
    ("geometry.immersion.legendrian_residual", "sltwist.geometry.immersion",
     "legendrian_residual", "calls"),
    ("geometry.symmetry.symmetry_residuals", "sltwist.geometry.symmetry", "symmetry_residuals",
     "calls"),
    ("geometry.torque.sphere_quadrature", "sltwist.geometry.torque", "sphere_quadrature",
     "calls"),
    ("geometry.spheres.waists_and_bulges", "sltwist.geometry.spheres", "waists_and_bulges",
     "calls"),
    ("geometry.neck.neck_rescale", "sltwist.geometry.neck", "neck_rescale", "calls"),
    ("geometry.export.trajectory_csv", "sltwist.geometry.export", "trajectory_csv",
     "calls"),
    ("geometry.export.export", "sltwist.geometry.export", "export", "calls"),
)

CLI_COMMANDS = ("solve", "periods", "closure", "necklace", "torque", "asymptotics",
                "neck", "export", "verify")

EXTRA_COUNTS = {
    "ode_engine.integrate": ("steps", "fevals"),
    "ode_engine.locate_event": ("g_evals",),
    "periods.period_ode": ("unique_ratio",),
    "geometry.export.trajectory_csv": ("bytes",),
    "geometry.export.export": ("bytes",),
}

_UNITS = {"self_share": "share", "total_share": "share", "bytes": "bytes",
          "unique_ratio": "ratio", "wall_s": "s", "overhead_s": "s"}


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    names = ["trace.wall_s", "trace.overhead_s"]
    for cmd in CLI_COMMANDS:
        names += [f"cli.{cmd}.calls", f"cli.{cmd}.total_share"]
    for label, _, _, count in SPANS[1:]:
        for stat in (count, "self_share", *EXTRA_COUNTS.get(label, ())):
            if f"{label}.{stat}" not in names:
                names.append(f"{label}.{stat}")
    return [(n, _UNITS.get(n.rsplit(".", 1)[1], "count")) for n in names]


class Tracer:
    """Installs the span wrappers; ``stats`` accumulates by metric name.

    Times accumulate in seconds under ``<label>.self_s`` (``total_s`` for
    the inclusive ``cli`` spans) and are reported as shares of the traced
    wall time.
    """

    def __init__(self):
        self.stats = defaultdict(float)
        self._stack = [0.0]          # child time covered, per open span
        self._patches = []           # (owner, attribute, original)
        self._period_keys = set()

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, label, fn, count, before=None, after=None):
        stats, stack = self.stats, self._stack
        inclusive = label.startswith("cli.")
        time_key = f"{label}.total_s" if inclusive else f"{label}.self_s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                stack[-1] += dt
                stats[time_key] += dt if inclusive else dt - child
                stats[f"{label}.{count}"] += 1
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counting(self, name, fn):
        stats = self.stats

        def counted(*args):
            stats[name] += 1
            return fn(*args)

        return counted

    def _hooks(self, label):
        """(before, after) argument/result hooks that make the extra counts."""
        stats = self.stats
        if label == "ode_engine.integrate":
            def before(args, kwargs):
                if "field" in kwargs:
                    kwargs["field"] = self._counting(f"{label}.fevals", kwargs["field"])
                else:
                    args = (self._counting(f"{label}.fevals", args[0]), *args[1:])
                return args, kwargs

            def after(args, kwargs, traj):
                stats[f"{label}.steps"] += len(traj.time_grid) - 1

            return before, after
        if label == "ode_engine.locate_event":
            def before(args, kwargs):
                if "g" in kwargs:
                    kwargs["g"] = self._counting(f"{label}.g_evals", kwargs["g"])
                else:
                    args = (args[0], self._counting(f"{label}.g_evals", args[1]), *args[2:])
                return args, kwargs

            return before, None
        if label == "periods.period_ode":
            from sltwist.ode_engine import Tolerances

            def after(args, kwargs, _):
                param = args[0] if args else kwargs["param"]
                tol = args[1] if len(args) > 1 else kwargs.get("tol") or Tolerances()
                self._period_keys.add((param, tol))

            return None, after
        if label.startswith("geometry.export."):
            def after(args, kwargs, path):
                stats[f"{label}.bytes"] += path.stat().st_size

            return None, after
        return None, None

    # -- installation ---------------------------------------------------------

    def _rebind(self, original, wrapper) -> None:
        """Point every sltwist module-level reference to ``original`` at ``wrapper``."""
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("sltwist"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def install(self) -> "Tracer":
        for label, module, attr, count in SPANS:
            mod = sys.modules[module]
            if attr == "cmd_*":
                for cmd in CLI_COMMANDS:
                    fn = getattr(mod, f"cmd_{cmd}")
                    self._rebind(fn, self._wrap(f"cli.{cmd}", fn, count))
                continue
            before, after = self._hooks(label)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(label, original, count, before, after))
            else:
                original = getattr(mod, attr)
                self._rebind(original, self._wrap(label, original, count, before, after))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def metrics(self, wall_s: float) -> dict[str, float]:
        """The per-layer metrics of a traced run whose operations took
        ``wall_s``, but the ``trace.*`` ones, which the caller adds.

        Functions never called read 0.
        """
        calls = self.stats["periods.period_ode.calls"]
        out = {}
        for name, _ in metric_names():
            stem, stat = name.rsplit(".", 1)
            if stem == "trace":
                continue
            if stat.endswith("_share"):
                out[name] = self.stats[f"{stem}.{stat[:-6]}_s"] / wall_s
            elif stat == "unique_ratio":
                out[name] = len(self._period_keys) / calls if calls else 0.0
            else:
                out[name] = self.stats[name]
        return out
