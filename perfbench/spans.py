"""In-memory spans, and the layer instrumentation of a traced pass.

A span is (name, start, end, parent).  Each thread keeps its own stack of
open spans; a span opened on a worker thread with an empty stack (the
solver's chunk pool) takes as parent the innermost open span of the main
thread, which is the call that handed it the work.

Instrumentation wraps each layer's functions at the module attribute its
caller looks up (``solver.interpolation_stencil``, ``storage.interpolate``,
...), so nothing under ``src/`` is edited; :meth:`Instrumentation.remove`
puts the originals back.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    end: float = 0.0
    failed: bool = False
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; safe to use from several threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._main_stack: list[Span] = []
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        outer = stack or self._main_stack
        parent = outer[-1].id if outer else None
        sp = Span(next(self._ids), name, time.perf_counter(), parent)
        stack.append(sp)
        try:
            yield sp
        except BaseException:
            sp.failed = True
            raise
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            self.spans.append(sp)


def covered_length(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover.

    Children on other threads may overlap one another; the union is
    subtracted, so self time never goes negative.
    """
    children = defaultdict(list)
    for sp in spans:
        if sp.parent is not None:
            children[sp.parent].append(sp)
    out = {}
    for sp in spans:
        clipped = [(max(c.start, sp.start), min(c.end, sp.end)) for c in children[sp.id]]
        out[sp.id] = sp.duration - covered_length([(a, b) for a, b in clipped if b > a])
    return out


def _file_bytes(path) -> int:
    path = Path(path)
    return path.stat().st_size if path.is_file() else 0


def _gridfn_bytes(path) -> int:
    path = Path(path)
    return _file_bytes(path) + _file_bytes(path.parent / (path.name + ".bin"))


class Instrumentation:
    """Wraps the layer functions of the imported program with spans."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, module, attr: str, name: str, after=None, optional: bool = False,
             **attrs) -> None:
        """Replace ``module.attr`` by a spanned version.

        ``attrs`` are set on every span it opens; ``after(span, args,
        kwargs, result)`` may add more once the call has returned.
        """
        if optional and not hasattr(module, attr):
            return
        fn = getattr(module, attr)
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name) as sp:
                sp.attrs.update(attrs)
                result = fn(*args, **kwargs)
            if after is not None:
                after(sp, args, kwargs, result)
            return result

        self._saved.append((module, attr, fn))
        setattr(module, attr, wrapper)

    def remove(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def install(self) -> None:
        from sdpkit import armodel, grids, solver, storage

        def points(sp, args, kwargs, result):
            sp.attrs["points"] = int(result[0].shape[0])

        def nkl(sp, args, kwargs, result):
            value, problem = args[0], args[1]
            k = problem.candidate_array(value.grid.all_nodes[:1]).shape[1]
            sp.attrs["nkl"] = value.grid.size * k * problem.noise.n

        def evaluation(sp, args, kwargs, result):
            config = args[2] if len(args) > 2 else kwargs.get("config") or solver.SolverConfig()
            tol = config.eval_tol * (abs(result.avg_cost) + 1.0)
            sp.attrs.update(sweeps=result.sweeps, capped=not result.converged,
                            span_ratio=result.residuals[-1] / tol)

        def operator(sp, args, kwargs, result):
            matrix = result[1]
            sp.attrs.update(nnz=int(matrix.nnz), rows=int(matrix.shape[0]),
                            index_bytes=int(matrix.indices.dtype.itemsize))

        def file_bytes(position, measure=_file_bytes):
            def after(sp, args, kwargs, result):
                sp.attrs["bytes"] = measure(args[position])
            return after

        def tag(kind):
            def after(sp, args, kwargs, result):
                result.perfbench_policy = kind
            return after

        def simulation(sp, args, kwargs, result):
            sp.attrs.update(steps=int(result.t.size),
                            kind=getattr(args[0], "perfbench_policy", "other"))

        def minimize(sp, args, kwargs, result):
            maxfev = (kwargs.get("options") or {}).get("maxfev")
            sp.attrs.update(nfev=int(result.nfev), capped=maxfev is not None and result.nfev >= maxfev)

        def callbacks(sp, args, kwargs, problem):
            for attr in ("dynamics", "stage_cost", "control_candidates", "control_candidates_batch"):
                if getattr(problem, attr, None) is not None:
                    self.wrap(problem, attr, "storage.callback")

        self.wrap(solver, "interpolation_stencil", "grids.stencil", points)
        self.wrap(storage, "interpolate", "grids.interpolate")
        self.wrap(grids, "interpolate", "grids.interpolate")
        self.wrap(solver, "save_grid_function", "grids.gridfn_write", file_bytes(1, _gridfn_bytes))
        self.wrap(grids, "load_grid_function", "grids.gridfn_read", file_bytes(0, _gridfn_bytes))
        self.wrap(solver, "policy_improvement", "solver.improve", nkl)
        self.wrap(solver, "policy_evaluation", "solver.eval", evaluation)
        self.wrap(solver, "_fixed_policy_operator", "solver.eval_build", operator, optional=True)
        self.wrap(storage, "build_problem", "storage.build_problem", callbacks)
        self.wrap(storage, "grid_policy_fn", "storage.policy_fn", tag("grid"))
        self.wrap(storage, "heuristic_policy_fn", "storage.policy_fn", tag("heuristic"))
        self.wrap(storage, "simulate_trajectory", "storage.sim", simulation)
        self.wrap(storage, "save_series", "storage.csv_write", file_bytes(0))
        self.wrap(storage, "save_trajectory", "storage.csv_write", file_bytes(1))
        self.wrap(storage, "load_series", "storage.csv_read", file_bytes(0))
        self.wrap(armodel, "simulate", "armodel.simulate",
                  lambda sp, a, k, r: sp.attrs.update(samples=int(r.size)))
        self.wrap(armodel, "sample_acf", "armodel.fit")
        self.wrap(armodel, "fit_multilag", "armodel.fit", fit=True)
        self.wrap(armodel, "fit_cls", "armodel.fit", fit=True)
        self.wrap(armodel, "innovation_std_from_acf", "armodel.fit")
        self.wrap(armodel, "minimize", "armodel.minimize", minimize, optional=True)
