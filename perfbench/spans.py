"""Spans around calls into plate_echo's layers, recorded from outside the package.

The traced run replaces public functions in every plate_echo module namespace
that holds them (so `from .forward import load_farfield` in cli.py is caught
too), one method on ParametricCurve, the lu_factor/lu_solve names forward.py
looks up, and the scipy.special module reached as `forward.sp` and
`specfun.sp`. Spans stay in memory and are written out when the run ends.
Untraced runs never call `install`.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import tracemalloc
from contextlib import contextmanager
from time import perf_counter

import numpy as np

MB = 1e6


def _file_bytes(args, result):
    return os.path.getsize(args[1])


def _values(args, result):
    return np.size(result)


# (module, attribute path, span name, amount recorded per call, trace allocations)
TARGETS = (
    ("geometry", "ParametricCurve.diameter", "geometry.diameter", None, False),
    ("forward", "discretize", "forward.discretize", None, False),
    ("forward", "assemble_system", "forward.assemble_system", None, False),
    ("forward", "assemble_far_field_matrix", "forward.assemble_far_field_matrix", None, False),
    ("forward", "incident_trace", "forward.incident_trace", None, False),
    ("forward", "lu_factor", "forward.lu_factor", None, False),
    ("forward", "lu_solve", "forward.lu_solve", None, False),
    ("forward", "save_farfield", "forward.save_farfield", _file_bytes, False),
    ("forward", "load_farfield", "forward.load_farfield", None, False),
    ("imaging", "add_noise", "imaging.add_noise", None, False),
    ("imaging", "apply_mask", "imaging.apply_mask", None, False),
    ("imaging", "evaluate_grid", "imaging.evaluate_grid", None, True),
    ("imaging", "indicator_values", "imaging.indicator_values", None, True),
    ("imaging", "save_grid_csv", "imaging.save_grid_csv", _file_bytes, False),
    ("imaging", "save_grid_pgm", "imaging.save_grid_pgm", None, False),
    ("verify", "check_operator_identity", "verify.check_operator_identity", None, False),
    ("verify", "check_decay_slope", "verify.check_decay_slope", None, False),
    ("verify", "check_equivalence_chain", "verify.check_equivalence_chain", None, False),
    ("oracle", "disk_far_field_matrix", "oracle.disk_far_field_matrix", None, False),
    ("forward", "sp", "specfun.kernel", _values, False),
    ("specfun", "sp", "specfun.kernel", _values, False),
)

# metric name -> (unit, statistic, span names). 'time' sums span durations,
# 'self' subtracts the direct children, 'calls' counts spans, 'amount' sums
# the recorded amounts, 'peak' takes the largest traced allocation.
LAYER_METRICS = {
    "specfun.kernel_s": ("s", "time", ("specfun.kernel",)),
    "specfun.kernel_evals": ("count", "amount", ("specfun.kernel",)),
    "forward.assemble_s": ("s", "time", ("forward.assemble_system",)),
    "forward.assemble_calls": ("count", "calls", ("forward.assemble_system",)),
    "forward.discretize_s": ("s", "time", ("forward.discretize",)),
    "geometry.diameter_calls": ("count", "calls", ("geometry.diameter",)),
    "geometry.diameter_s": ("s", "time", ("geometry.diameter",)),
    "forward.lu_s": ("s", "time", ("forward.lu_factor",)),
    "forward.rhs_s": ("s", "time", ("forward.incident_trace",)),
    "forward.rhs_calls": ("count", "calls", ("forward.incident_trace",)),
    "forward.solve_s": ("s", "time", ("forward.lu_solve",)),
    "forward.ff_self_s": ("s", "self", ("forward.assemble_far_field_matrix",)),
    "forward.save_s": ("s", "time", ("forward.save_farfield",)),
    "forward.load_s": ("s", "time", ("forward.load_farfield",)),
    "forward.file_mb": ("MB", "amount", ("forward.save_farfield",)),
    "imaging.grid_s": ("s", "time", ("imaging.evaluate_grid",)),
    "imaging.noise_s": ("s", "time", ("imaging.add_noise",)),
    "imaging.mask_s": ("s", "time", ("imaging.apply_mask",)),
    "imaging.csv_s": ("s", "time", ("imaging.save_grid_csv",)),
    "imaging.csv_mb": ("MB", "amount", ("imaging.save_grid_csv",)),
    "imaging.pgm_s": ("s", "time", ("imaging.save_grid_pgm",)),
    "imaging.grid_peak_mb": ("MB", "peak", ("imaging.evaluate_grid", "imaging.indicator_values")),
    "verify.identity_s": ("s", "time", ("verify.check_operator_identity",)),
    "verify.decay_s": ("s", "time", ("verify.check_decay_slope",)),
    "verify.equivalence_s": ("s", "time", ("verify.check_equivalence_chain",)),
    "oracle.disk_s": ("s", "time", ("oracle.disk_far_field_matrix",)),
    "cli.forward_s": ("s", "time", ("cli.forward",)),
    "cli.image_s": ("s", "time", ("cli.image",)),
    "cli.oracle_s": ("s", "time", ("cli.oracle",)),
    "cli.verify_s": ("s", "time", ("cli.verify",)),
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "pass_no", "amount", "peak_bytes")

    def __init__(self, name, parent, pass_no):
        self.name, self.start, self.end, self.parent = name, 0.0, 0.0, parent
        self.pass_no, self.amount, self.peak_bytes = pass_no, 0, None


class _SpecialProxy:
    """Stands in for scipy.special inside one module; wraps each function once."""

    def __init__(self, module, tracer, name, amount):
        self._module, self._tracer, self._name, self._amount = module, tracer, name, amount
        self._wrapped = {}

    def __getattr__(self, attr):
        fn = getattr(self._module, attr)
        if not callable(fn):
            return fn
        if attr not in self._wrapped:
            self._wrapped[attr] = self._tracer.wrap(self._name, fn, self._amount)
        return self._wrapped[attr]


class Tracer:
    """In-memory span recorder; spans are kept only while `active` is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []
        self.active = False
        self.pass_no = 0
        self._stack: list[int] = []

    @contextmanager
    def span(self, name, memory=False):
        if not self.active:
            yield None
            return
        rec = Span(name, self._stack[-1] if self._stack else -1, self.pass_no)
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        # Only the outermost allocation-traced span starts tracemalloc.
        tracing = memory and not tracemalloc.is_tracing()
        if tracing:
            tracemalloc.start()
        rec.start = perf_counter()
        try:
            yield rec
        finally:
            rec.end = perf_counter()
            if tracing:
                rec.peak_bytes = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            self._stack.pop()

    def wrap(self, name, fn, amount=None, memory=False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name, memory) as rec:
                result = fn(*args, **kwargs)
                if rec is not None and amount is not None:
                    rec.amount = amount(args, result)
                return result
        return traced

    def install(self, package: str = "plate_echo") -> None:
        """Wrap every target; a target that no longer exists is listed in `missing`."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == package or n.startswith(package + ".")]
        for modname, path, name, amount, memory in TARGETS:
            owner = sys.modules.get(f"{package}.{modname}")
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{modname}.{path}")
            elif attr == "sp":
                setattr(owner, attr, _SpecialProxy(original, self, name, amount))
            elif parents:
                setattr(owner, attr, self.wrap(name, original, amount, memory))
            else:
                wrapped = self.wrap(name, original, amount, memory)
                for mod in modules:
                    for key in [k for k, v in vars(mod).items() if v is original]:
                        setattr(mod, key, wrapped)

    def layer_metrics(self, passes) -> dict:
        """Median over the given passes of each layer metric, per pass."""
        children = {}
        for rec in self.spans:
            if rec.parent >= 0:
                children[rec.parent] = children.get(rec.parent, 0.0) + rec.end - rec.start
        # A span name is dead when every target that feeds it is missing.
        feeds = {}
        for modname, path, name, _, _ in TARGETS:
            feeds.setdefault(name, []).append(f"{modname}.{path}")
        dead = {name for name, targets in feeds.items()
                if all(t in self.missing for t in targets)}
        out = {}
        for metric, (unit, stat, names) in LAYER_METRICS.items():
            if all(name in dead for name in names):
                out[metric] = {"value": None, "unit": unit, "missing": True}
                continue
            per_pass = []
            for p in passes:
                recs = [(i, r) for i, r in enumerate(self.spans)
                        if r.pass_no == p and r.name in names]
                if stat == "time":
                    v = sum(r.end - r.start for _, r in recs)
                elif stat == "self":
                    v = sum(r.end - r.start - children.get(i, 0.0) for i, r in recs)
                elif stat == "calls":
                    v = len(recs)
                elif stat == "amount":
                    v = sum(r.amount for _, r in recs) / (MB if unit == "MB" else 1)
                else:
                    v = max([r.peak_bytes for _, r in recs if r.peak_bytes is not None],
                            default=0) / MB
                per_pass.append(v)
            out[metric] = {"value": statistics.median(per_pass), "unit": unit}
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "missing": self.missing,
                "spans": [{s: getattr(r, s) for s in Span.__slots__} for r in self.spans],
            }, fh)
