"""In-memory span recorder that instruments discordsim from outside.

A span is one call into a layer boundary: its name, start, end, the span
that was open when it started (its parent), the operation id it belongs to
and the time its children covered.  Spans stay in memory and are written
out once, at the end of a traced run.

Modules bind names at import (``from .linalg import jacobi_eigh``,
``from scipy.optimize import minimize``), so wrapping a function in its
defining module alone would miss most callers.  ``Tracer.instrument``
therefore rebinds every alias of a target in every ``discordsim`` module
namespace.  A target that no longer exists is skipped, and its metrics come
out as zero calls.
"""

import functools
import pathlib
import sys
import time

# (defining module, attribute, span name).  Spans sharing a name form one
# layer metric; nested spans of the same name count as one call.
TARGETS = (
    ("discordsim.reservoir", "evaluate_chi", "reservoir.chi"),
    ("discordsim.scenarios", "build_state", "scenarios.build_state"),
    ("discordsim.states", "two_qubit_evolve", "states.channel"),
    ("discordsim.states", "partial_trace", "states.partial_trace"),
    ("discordsim.linalg", "jacobi_eigh", "linalg.eigh"),
    ("discordsim.linalg", "jacobi_eigvalsh", "linalg.eigh"),
    ("discordsim.linalg", "hermitian_sqrt", "linalg.eigh"),
    ("discordsim.correlations", "concurrence", "correlations.concurrence"),
    ("discordsim.correlations", "mutual_information", "correlations.mutual_info"),
    ("discordsim.correlations", "classical_correlation", "correlations.classical"),
    ("scipy.optimize", "minimize", "correlations.classical.refine"),
    ("discordsim.sweep", "evolve_trajectory", "sweep.trajectory"),
    ("discordsim.sweep", "trajectory_from_state", "sweep.trajectory"),
    ("discordsim.sweep", "format_csv_rows", "sweep.csv.format"),
    ("discordsim.sweep", "detect_esd", "sweep.detect"),
    ("discordsim.sweep", "detect_discord_zeros", "sweep.detect"),
    ("discordsim.sweep", "revival_amplitude", "sweep.detect"),
)

# Span fields, stored as plain lists to keep the per-call cost low.
NAME, START, END, PARENT, OP, CHILD_S, INFO = range(7)


def _refine_info(args, kwargs, result):
    """(seed gain, refined gain, evaluations) of one Nelder-Mead start."""
    fun = kwargs.get("fun", args[0] if args else None)
    x0 = kwargs.get("x0", args[1] if len(args) > 1 else None)
    return (-float(fun(x0)), -float(result.fun), int(result.nfev))


def _write_info(args, kwargs, result):
    data = kwargs.get("data", args[1] if len(args) > 1 else "")
    return len(data.encode())


class Tracer:
    """Records spans around wrapped calls; one instance per traced run.

    ``clock`` times the spans; the worker passes one that stops while
    calibration bursts run, so that no burst lands in a span.
    """

    def __init__(self, clock):
        self.clock = clock
        self.spans = []
        self.op = -1
        self._stack = []
        self._restore = []

    def wrap(self, name, fn, info=None):
        spans, stack = self.spans, self._stack
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, self.op, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
                if parent >= 0:
                    spans[parent][CHILD_S] += rec[END] - rec[START]
            if info is not None:
                # Work done only for the trace (such as re-evaluating the
                # optimiser's start point) counts as covered by a child, so
                # it never inflates the parent's self time.
                t0 = clock()
                rec[INFO] = info(args, kwargs, result)
                if parent >= 0:
                    spans[parent][CHILD_S] += clock() - t0
            return result

        return wrapper

    def _rebind(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def instrument(self):
        """Wrap every target that exists; returns the span names wrapped."""
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "discordsim"]
        wrapped = set()
        for module_name, attr, span in TARGETS:
            orig = getattr(sys.modules.get(module_name), attr, None)
            if orig is None:
                continue
            wrapper = self.wrap(span, orig, _refine_info if attr == "minimize" else None)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is orig:
                        self._rebind(module, key, wrapper)
                        wrapped.add(span)
        states = sys.modules.get("discordsim.states")
        matrix = getattr(states, "DensityMatrix", None)
        if matrix is not None and "__post_init__" in vars(matrix):
            self._rebind(matrix, "__post_init__", self.wrap("states.validate", matrix.__post_init__))
            wrapped.add("states.validate")
        self._rebind(
            pathlib.Path, "write_text", self.wrap("sweep.csv.write", pathlib.Path.write_text, _write_info)
        )
        wrapped.add("sweep.csv.write")
        return wrapped

    def uninstrument(self):
        while self._restore:
            owner, attr, orig = self._restore.pop()
            setattr(owner, attr, orig)

    def write(self, path):
        """Write all spans as CSV: id, name, start, end, parent, op, self_s."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("id,name,start,end,parent,op,self_s\n")
            for i, s in enumerate(self.spans):
                self_s = s[END] - s[START] - s[CHILD_S]
                fh.write(f"{i},{s[NAME]},{s[START]:.9f},{s[END]:.9f},{s[PARENT]},{s[OP]},{self_s:.9f}\n")


def layer_stats(spans, op_limit=None):
    """Per span name: calls, self seconds, and the INFO payloads.

    A span nested directly in a span of the same name (``hermitian_sqrt``
    calling ``jacobi_eigh``) adds self time but not a call.  With
    ``op_limit`` only spans of operations below that id are counted.
    """
    stats = {}
    for s in spans:
        if op_limit is not None and s[OP] >= op_limit:
            continue
        st = stats.setdefault(s[NAME], {"calls": 0, "self_s": 0.0, "info": []})
        st["self_s"] += s[END] - s[START] - s[CHILD_S]
        parent = s[PARENT]
        if parent < 0 or spans[parent][NAME] != s[NAME]:
            st["calls"] += 1
        if s[INFO] is not None:
            st["info"].append((parent, s[INFO]))
    return stats


def refine_usefulness(infos, floor=1e-12):
    """(useful starts, starts) over Nelder-Mead starts grouped by caller.

    A start is useful when its refined gain beats the best seed-grid gain of
    the same ``classical_correlation`` call by more than ``floor`` bits, the
    optimiser's function tolerance.  The best seed is the best start point.
    """
    best_seed = {}
    for parent, (seed, _, _) in infos:
        best_seed[parent] = max(seed, best_seed.get(parent, -float("inf")))
    useful = sum(1 for parent, (_, refined, _) in infos if refined > best_seed[parent] + floor)
    return useful, len(infos)
