"""Per-layer tracing for the benchmark, from outside the program.

The public functions of the squeezelink modules are wrapped at every
module binding. ``sweep``, ``oracle`` and ``closedform`` import model
functions by name, and ``selfcheck.ALL_CHECKS`` holds the checks in a
dict, so patching only the defining module would miss most calls.
Every binding is put back when tracing stops.

Each wrapped call records a span (name, start, end, parent span) in
compact in-memory arrays and adds to its layer's counters. Self time is
a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = ("cli", "config", "sweep", "model", "closedform", "oracle", "selfcheck")

# the variance-sum and threshold functions summed into the "closedform" layer
CLOSEDFORM_PREFIXES = ("duan_sum_", "field_sum_")
CLOSEDFORM_THRESHOLDS = ("threshold_cooperativity", "minimum_power", "diagnostic_minimum_power")

_STEADY = "model.mean_fields_from_effective_detuning"


def public_functions():
    """(layer name, function) for every public function the modules define."""
    found = []
    for short in MODULES:
        module = sys.modules[f"squeezelink.{short}"]
        for name, obj in vars(module).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                found.append((f"{short}.{name}", obj))
    return found


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "squeezelink" or name.startswith("squeezelink."))]


class Tracer:
    """Span store and per-layer counters; ``installed()`` wraps the program."""

    FIELDS = ("calls", "self_s", "total_s", "errors")

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self._stack: list[list] = []  # [span index, child seconds] per open span
        # per name id, so the hot path indexes lists instead of hashing names
        self._calls: list[int] = []
        self._self_s: list[float] = []
        self._total_s: list[float] = []
        self._errors: list[int] = []
        self.extra = defaultdict(float)
        self._seen_steady: set = set()
        self._patches: list = []

    # -- spans -------------------------------------------------------------

    def _name_index(self, name: str) -> int:
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
            for counter in (self._calls, self._self_s, self._total_s, self._errors):
                counter.append(0)
        return nid

    def _enter(self, nid: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(nid)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self._stack.append([idx, 0.0])
        return idx

    def _exit(self, nid: int, start: float, end: float):
        idx, child = self._stack.pop()
        duration = end - start
        self.span_start[idx] = start
        self.span_end[idx] = end
        self._calls[nid] += 1
        self._total_s[nid] += duration
        self._self_s[nid] += duration - child
        if self._stack:
            self._stack[-1][1] += duration

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around benchmark-level work, such as one CLI call."""
        nid = self._name_index(name)
        idx = self._enter(nid)
        start = perf_counter()
        try:
            yield idx
        finally:
            self._exit(nid, start, perf_counter())

    def _wrap(self, name: str, fn, pre=None, post=None):
        nid = self._name_index(name)
        enter, exit_, errors = self._enter, self._exit, self._errors

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if pre is not None:
                args, kwargs = pre(args, kwargs)
            enter(nid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                errors[nid] += 1
                raise
            finally:
                exit_(nid, start, perf_counter())
            if post is not None:
                post(args, kwargs, result)
            return result

        return wrapper

    # -- layer-specific counts ---------------------------------------------

    def _count_objective(self, args, kwargs):
        args = list(args)
        objective = kwargs.pop("objective", None) or args.pop(0)

        def counted(x):
            self.extra["sweep.minimize_scalar.objective_evals"] += 1
            return objective(x)

        return (counted, *args), kwargs

    def _count_rows(self, args, kwargs, rows):
        self.extra["sweep.run_sweep.points"] += len(rows)
        self.extra["sweep.run_sweep.error_rows"] += sum(r.error is not None for r in rows)

    def _count_repeat(self, args, kwargs):
        # the units are frozen dataclasses, so equal inputs hash equal; keeping
        # only the hash stops the set from holding every unit alive
        key = hash((args, tuple(sorted(kwargs.items()))))
        if key in self._seen_steady:
            self.extra[f"{_STEADY}.repeats"] += 1
        else:
            self._seen_steady.add(key)
        return args, kwargs

    def _count_lyapunov(self, args, kwargs):
        dd = args[0] if args else kwargs["dd"]
        n = np.asarray(dd.A).shape[0]
        self.extra["oracle.solve_lyapunov.unknowns"] += n * n
        self.extra["oracle.solve_lyapunov.lu_flops"] += 2.0 / 3.0 * n**6
        return args, kwargs

    # -- install / restore -------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        hooks = {
            "sweep.minimize_scalar": (self._count_objective, None),
            "sweep.run_sweep": (None, self._count_rows),
            _STEADY: (self._count_repeat, None),
            "oracle.solve_lyapunov": (self._count_lyapunov, None),
        }
        wrappers = {}
        for name, fn in public_functions():
            pre, post = hooks.get(name, (None, None))
            wrappers[id(fn)] = (fn, self._wrap(name, fn, pre, post))
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((vars(module), attr, value))
                    setattr(module, attr, hit[1])
        checks = sys.modules["squeezelink.selfcheck"].ALL_CHECKS
        for check, fn in list(checks.items()):
            self._patches.append((checks, check, fn))
            checks[check] = self._wrap(f"selfcheck.{check}", fn)

    def restore(self):
        for namespace, key, original in reversed(self._patches):
            namespace[key] = original
        self._patches.clear()

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.restore()

    # -- results -----------------------------------------------------------

    def counters(self) -> dict:
        """Per-layer counters by name, as plain dicts (JSON-ready)."""
        out = {field: dict(zip(self.names, getattr(self, f"_{field}")))
               for field in self.FIELDS}
        out["extra"] = dict(self.extra)
        return out

    def merge(self, other: dict):
        """Add the counters of a traced child process (see ``counters``)."""
        for field in self.FIELDS:
            mine = getattr(self, f"_{field}")
            for name, value in other[field].items():
                mine[self._name_index(name)] += value
        for key, value in other["extra"].items():
            self.extra[key] += value

    def layer_metrics(self, check_names) -> dict:
        """Per-layer values under the names BENCHMARK.json lists."""
        c = self.counters()
        calls, self_s, total_s, errors = (c[f] for f in self.FIELDS)
        out = {}

        for name in ("config.resolve_system", "sweep.set_param", "sweep.evaluate_quantity",
                     "sweep.minimize_scalar", "sweep.run_sweep", _STEADY,
                     "model.stability_check", "oracle.build_rwa_drift_diffusion",
                     "oracle.solve_lyapunov", "oracle.spectral_duan_sum"):
            out[f"{name}.calls"] = calls.get(name, 0)
            out[f"{name}.busy_s"] = self_s.get(name, 0.0)
            out[f"{name}.errors"] = errors.get(name, 0)
        for key in ("sweep.minimize_scalar.objective_evals", "sweep.run_sweep.points",
                    "sweep.run_sweep.error_rows", "oracle.solve_lyapunov.unknowns",
                    "oracle.solve_lyapunov.lu_flops"):
            out[key] = self.extra.get(key, 0)
        steady_calls = calls.get(_STEADY, 0)
        out[f"{_STEADY}.repeat_ratio"] = (
            self.extra.get(f"{_STEADY}.repeats", 0) / steady_calls if steady_calls else 0.0
        )

        closed = [name for name in calls
                  if name.startswith("closedform.")
                  and (name.split(".", 1)[1].startswith(CLOSEDFORM_PREFIXES)
                       or name.split(".", 1)[1] in CLOSEDFORM_THRESHOLDS)]
        out["closedform.calls"] = sum(calls[n] for n in closed)
        out["closedform.busy_s"] = sum(self_s[n] for n in closed)
        out["closedform.errors"] = sum(errors[n] for n in closed)

        for check in check_names:
            out[f"selfcheck.{check}.busy_s"] = self_s.get(f"selfcheck.{check}", 0.0)
            out[f"selfcheck.{check}.total_s"] = total_s.get(f"selfcheck.{check}", 0.0)
        out["cli.render_figure_csv.calls"] = calls.get("cli.render_figure_csv", 0)
        out["cli.render_figure_csv.self_s"] = self_s.get("cli.render_figure_csv", 0.0)
        return out

    def save(self, path):
        """Write every span (name table, start, end, parent) and the counters."""
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            counters=np.array(json.dumps(self.counters())),
        )

    def absorb(self, path, parent: int):
        """Take in a traced child process's file; its root spans hang under ``parent``.

        ``perf_counter`` is the system-wide monotonic clock on Linux, so
        child and parent times share one axis.
        """
        with np.load(path) as data:
            ids = np.array([self._name_index(str(n)) for n in data["names"]], dtype=np.int32)
            base = len(self.span_name)
            child_parent = data["parent"]
            self.span_name.extend(ids[data["name"]].tolist())
            self.span_start.extend(data["start"].tolist())
            self.span_end.extend(data["end"].tolist())
            self.span_parent.extend(
                np.where(child_parent < 0, parent, child_parent + base).tolist())
            self.merge(json.loads(str(data["counters"])))
