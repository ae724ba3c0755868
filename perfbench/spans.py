"""Spans around the calls into each layer, recorded from outside the program.

``Tracer.install`` replaces each traced function where the program looks it
up: every ``transportlab`` module attribute bound to it (``from .x import f``
makes one per calling module, and the package namespace is one more) and,
for methods, the class attribute.  ``uninstall`` puts the originals back, so
untimed and untraced rounds run the unmodified program.

A span is (name, start, end, parent); spans live in flat arrays until the
run ends and ``dump`` writes them.  Self time is a span's duration minus the
durations of its direct children: calls nest on one thread, so children
never overlap.  Counts are taken by the same wrappers.
"""

from __future__ import annotations

import functools
import os
import sys
from array import array
from collections import defaultdict
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np


def _grid_nodes(grid) -> int:
    return (grid.nt + 1) * grid.nx


def _count_solve_field(counts, args, kwargs, result):
    counts["transport.solve_field_calls"] += 1
    counts["transport.nodes"] += _grid_nodes(result.grid)


def _count_upwind(counts, args, kwargs, result):
    counts["oracle.nodes"] += _grid_nodes(result.grid)


def _count_certify(counts, args, kwargs, result):
    # one certificate per (p, mu), one cell per grid time
    counts["bounds.cells"] += sum(len(cert.times) for cert in result)


def _count_closed_loop(counts, args, kwargs, result):
    counts["manufacturing.windows"] += len(result.windows)
    counts["manufacturing.fixed_point_iterations"] += sum(
        w.iterations for w in result.windows)


def _count_run_mode(counts, args, kwargs, result):
    files, _ = result
    counts["cli.artifact_bytes"] += sum(os.path.getsize(f) for f in files)


def _counter(key: str) -> Callable:
    def count(counts, args, kwargs, result):
        counts[key] += 1
    return count


# (module, attribute, span name, counter): functions, wrapped at every
# module attribute that holds them
FUNCTIONS = [
    ("transportlab.cli", "run_mode", "cli.run_mode", _count_run_mode),
    ("transportlab.scenarios", "load_scenario", "scenarios.load_scenario", None),
    ("transportlab.scenarios", "simulation", "scenarios.build", None),
    ("transportlab.scenarios", "trajectory_run", "scenarios.build", None),
    ("transportlab.scenarios", "transport_problem", "scenarios.build", None),
    ("transportlab.continuity", "solve_continuity", "continuity.solve", None),
    ("transportlab.continuity", "log_state_problem", "continuity.solve", None),
    ("transportlab.transport", "solve_field", "transport.solve_field",
     _count_solve_field),
    ("transportlab.transport", "solve_point", "transport.solve_point",
     _counter("transport.point_queries")),
    ("transportlab.oracle", "upwind_solve", "oracle.upwind", _count_upwind),
    ("transportlab.norms", "extremals", "norms.extremals", None),
    ("transportlab.norms", "fading_memory_max", "norms.fading_memory",
     _counter("norms.fading_memory_calls")),
    ("transportlab.norms", "lp_norm", "norms.lp_norm",
     _counter("norms.lp_norm_calls")),
    ("transportlab.norms", "lp_log_norm", "norms.lp_norm",
     _counter("norms.lp_norm_calls")),
    ("transportlab.bounds", "continuity_run", "bounds.trajectory_run", None),
    ("transportlab.bounds", "transport_run", "bounds.trajectory_run", None),
    ("transportlab.manufacturing", "manufacturing_run", "bounds.trajectory_run",
     None),
    ("transportlab.bounds", "certify", "bounds.certify", _count_certify),
    ("transportlab.manufacturing", "simulate_closed_loop",
     "manufacturing.closed_loop", _count_closed_loop),
    ("transportlab.manufacturing", "envelope_check", "manufacturing.envelope",
     None),
]

# (module, class, method, span name, counter): wrapped at the class attribute
METHODS = [
    ("transportlab.expr", "Expression", "__call__", "expr.eval",
     _counter("expr.eval_calls")),
    ("transportlab.characteristics", "CharacteristicEngine", "backtrace_x0",
     "characteristics.backtrace", _counter("characteristics.backtrace_calls")),
    ("transportlab.characteristics", "CharacteristicEngine", "backtrace_t0",
     "characteristics.backtrace", _counter("characteristics.backtrace_calls")),
    ("transportlab.characteristics", "CharacteristicEngine", "flow",
     "characteristics.flow", None),
]


class Tracer:
    """In-memory span recorder with install / uninstall of the wrappers."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Dict[str, float] = defaultdict(float)
        self._undo: List[Tuple[object, str, object]] = []

    def _wrap(self, span: str, fn: Callable, count: Optional[Callable]) -> Callable:
        nid = self._ids.setdefault(span, len(self._ids))
        if nid == len(self.names):
            self.names.append(span)
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack = self._stack
        counts = self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "transportlab" or name.startswith("transportlab.")]
        for mod_name, attr, span, count in FUNCTIONS:
            original = getattr(sys.modules[mod_name], attr)
            wrapped = self._wrap(span, original, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapped)
        for mod_name, cls_name, method, span, count in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name)
            original = cls.__dict__[method]
            self._undo.append((cls, method, original))
            setattr(cls, method, self._wrap(span, original, count))

    def uninstall(self):
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    # -- results -------------------------------------------------------------

    def totals(self) -> Dict[str, Tuple[float, float, int]]:
        """Per span name: (inclusive seconds, self seconds, span count).

        Inclusive time counts the outermost span of a name only, so a
        recursive or re-entrant layer is not counted twice.
        """
        names = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        outer = ~has_parent | (names[np.maximum(parent, 0)] != names)
        n = len(self.names)
        inclusive = np.bincount(names[outer], weights=dur[outer], minlength=n)
        selfs = np.bincount(names, weights=own, minlength=n)
        calls = np.bincount(names, minlength=n)
        return {name: (float(inclusive[i]), float(selfs[i]), int(calls[i]))
                for i, name in enumerate(self.names)}

    def dump(self, path: str, extra: Dict[str, float]):
        """Write the spans (npz) and a per-name summary next to it (txt)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=float),
                 end=np.frombuffer(self.end, dtype=float))
        lines = [f"{'span':32s} {'inclusive_s':>12s} {'self_s':>12s} {'spans':>9s}"]
        for name, (inc, own, calls) in sorted(self.totals().items()):
            lines.append(f"{name:32s} {inc:12.6f} {own:12.6f} {calls:9d}")
        lines.extend(f"{k} = {v!r}" for k, v in sorted(extra.items()))
        with open(os.path.splitext(path)[0] + ".txt", "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
