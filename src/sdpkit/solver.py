"""Average-cost stochastic dynamic programming on rectangular grids.

Solves infinite-horizon, average-cost-per-stage control problems of the
form

    J + h(x) = min_u E_w [ cost(x, u, w) + h(f(x, u, w)) ]

on a `RectGrid`, with the differential value h represented as a
`GridFunction` (multilinear interpolation between nodes) and the scalar
noise expectation taken over a `DiscreteNoise` distribution.  A successor
outside the grid is clamped to its hull, a free reflecting wall: on a linear-quadratic
problem a grid of +-5 closed-loop stationary stds per axis reads J about 30% below the optimum.

All iteration is relative value iteration: after each sweep the value at
node 0 is subtracted from the whole table, so the table stays anchored at
zero there, and the subtracted increment estimates the average cost per
stage.  Convergence is measured in the span seminorm (max - min) of the
sweep increment, which is invariant under the anchoring shift.

Both the improvement and the evaluation sweep go through one lookahead,
built once per solve.  It fixes one row order for every sweep, y-major
(plane node, then controlled node), and holds the row spans (chunks)
that every sweep runs.  It first maps the value table h to a table G of
expected values, then reads each (node, control) pair as its expected
stage cost plus the noise-weighted sum of successor stencils into G,
each clipped to its corner values.  Policy evaluation exploits that the
stage costs and stencils are fixed while the policy is fixed: they are
assembled once into a sparse row-stochastic matrix M, and each sweep is
h -> cost + M G(h).  Grid order appears only where a GridFunction comes
in or goes out.  The lookahead takes one of two shapes:

- Generic (``controlled_dims == 0``): a one-node plane whose operator is
  the 1x1 identity, so G = h, and the stencils of every noise node's
  successor are taken on the whole grid.
- Post-decision (``controlled_dims == c > 0``): the first c state
  components (the controlled sub-grid z) move deterministically, and the
  noise moves only the remaining exogenous components y, independently
  of the control and of z.  The noise expectation then factors through
  the plane operator P_x on the exogenous sub-grid (row y holds the
  noise-weighted stencils of y's successors, built once from one
  controlled-axis slice): G = P_x H, with H the value table shaped
  (y, z), gives E_w h(z', y'(y, w)) = interp_z(G[y], z').  So a
  single successor per (node, control), with its stencil on the
  controlled sub-grid, stands for all noise nodes.  The lookahead's
  build checks the declared split on every node (see :class:`ControlProblem`).

Mirror quotient (post-decision, detected, never declared): the mirror
(z, y, w) -> (z, -y, -w) maps plane node y to n_y - 1 - y.  The build
requires, to the bit: mirror-exact plane axes, mirrored noise weights,
the exogenous successor of (y, noise node l) equal to minus that of
(n_y - 1 - y, L - 1 - l), and, in the split check, the first and last
candidate, controlled successor and stage cost of every row equal to
its mirror row's.  A symmetric table then stays symmetric, so sweeps
visit only the rows of plane nodes y < ceil(n_y / 2), through the lumped
P(r, r') = P_x(r, r') + P_x(r, n_y - 1 - r') (an odd plane's centre
counted once): exact lumping (Kemeny & Snell, *Finite Markov Chains*,
6.3), an MDP homomorphism (Ravindran & Barto, 2003).  Output
GridFunctions copy each representative to its mirror.  An input table
that is not symmetric to the bit, or a problem that fails the check,
sweeps all n_y plane nodes with P = P_x, through the same code.

Determinism: identical inputs and configuration give bit-identical results regardless of the
`threads` setting.  Evaluation sweeps run on the calling thread (see :func:`_relative_iteration`).
Only the chunked phases use threads: the split check, the evaluation operator build and the
improvement sweep run chunks of a thread-independent size, each node's reduction in a fixed order.
The calling thread and up to threads - 1 more, one thread at most per chunk, take a phase's chunks
in row order under one lock.  After a chunk fails none is taken and the first failing chunk's error is
raised, so a check names the first failing node in row order.  Problem callbacks must be pure and
thread-safe; node computations may run concurrently.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable

import numpy as np

from .grids import (
    GridFunction,
    RectGrid,
    interpolation_stencil,
    node_coordinates,
    save_grid_function,
    stencil_blend,
    write_json,
)

__all__ = [
    "DiscreteNoise",
    "ControlProblem",
    "SolverConfig",
    "EvaluationResult",
    "SolveReport",
    "discretize_noise",
    "bellman_sweep",
    "policy_evaluation",
    "policy_improvement",
    "policy_iteration",
    "value_iteration",
    "save_report",
]

WEIGHT_SUM_TOL = 1e-12

# Improvement chunks hold about this many (node, candidate, noise node) points.  A point takes about 150 B of
# temporaries, so a chunk about 4.8 MB per thread that runs one.
CHUNK_POINTS = 32_768

# Policy iteration stops an evaluation at this fraction of its first sweep's span, unless it certifies.
STOP_FRACTION = 0.01


@dataclass(frozen=True)
class DiscreteNoise:
    """Finite scalar noise distribution: support nodes with probabilities."""

    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        nodes = np.ascontiguousarray(self.nodes, dtype=np.float64).reshape(-1)
        weights = np.ascontiguousarray(self.weights, dtype=np.float64).reshape(-1)
        if nodes.size < 1:
            raise ValueError("noise needs at least one node")
        if nodes.size != weights.size:
            raise ValueError(f"{nodes.size} nodes but {weights.size} weights")
        if not np.isfinite(nodes).all():
            raise ValueError("noise nodes must be finite")
        if not np.all(weights >= 0.0):  # NaN fails this comparison too
            raise ValueError("noise weights must be nonnegative and not NaN")
        if abs(math.fsum(weights.tolist()) - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"noise weights must sum to 1, got {math.fsum(weights.tolist())}")
        nodes.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    @property
    def n(self) -> int:
        return self.nodes.size


_SQRT_2PI = math.sqrt(2.0 * math.pi)


def discretize_noise(std: float, n_nodes: int) -> DiscreteNoise:
    """Equal-probability discretization of a centred normal distribution.

    Splits N(0, std^2) into ``n_nodes`` strata of probability 1/n and
    places one node at each stratum's conditional mean,
    node_k = n * std * (pdf(a_k) - pdf(b_k)) for stratum (a_k, b_k) of
    the standard normal.  Node positions are mirrored around zero so the
    discrete mean vanishes exactly.
    """
    if not (math.isfinite(std) and std >= 0.0):
        raise ValueError(f"std must be finite and >= 0, got {std}")
    if n_nodes < 1:
        raise ValueError(f"need at least one node, got {n_nodes}")
    if std == 0.0 or n_nodes == 1:
        return DiscreteNoise(np.zeros(n_nodes), np.full(n_nodes, 1.0 / n_nodes))
    from statistics import NormalDist  # imported here, so that commands which never solve start faster

    inner = [NormalDist().inv_cdf(k / n_nodes) for k in range(1, n_nodes)]
    edges = np.array([-math.inf, *inner, math.inf])
    pdf = np.exp(-0.5 * np.square(edges)) / _SQRT_2PI  # exp(-inf) -> 0 at the tails
    nodes = std * n_nodes * (pdf[:-1] - pdf[1:])
    half = n_nodes // 2
    nodes[n_nodes - 1 - np.arange(half)] = -nodes[:half]
    if n_nodes % 2 == 1:
        nodes[half] = 0.0
    return DiscreteNoise(nodes, np.full(n_nodes, 1.0 / n_nodes))


@dataclass
class ControlProblem:
    """A stationary control problem on a continuous state space.

    The callbacks are batch-oriented: for ``m`` evaluation points on a
    grid of dimension n, ``dynamics(x, u, w)`` and ``stage_cost(x, u, w)``
    receive ``x (m, n)``, ``u (m, d)`` and ``w (m,)`` arrays, d being the
    candidates' width, and return ``(m, n)`` next states / ``(m,)`` costs.
    They must be pure and thread-safe.

    ``control_candidates(states)`` maps ``m`` state points ``(m, n)`` to
    their admissible controls ``(m, K, d)``, in preference order.  The
    candidate count K >= 1 and the width d >= 1 are state-independent;
    where fewer distinct controls are admissible, repeat one of them.
    Repeated candidates are harmless: ties in the minimisation always
    resolve to the first candidate.

    ``controlled_dims = c > 0`` (0 < c < n) declares a
    post-decision split, which the solver exploits to take the noise
    expectation once per exogenous node instead of once per (node,
    candidate).  It carries three obligations, checked before each solve
    on every grid node with the first and last candidate and the first
    and last noise node:

    1. the first c components of ``dynamics`` ignore the noise;
    2. the remaining (exogenous) components ignore both the control and
       the first c state components;
    3. ``stage_cost`` ignores the noise.

    With the default ``controlled_dims = 0`` nothing is assumed.
    """

    dynamics: Callable
    stage_cost: Callable
    control_candidates: Callable
    noise: DiscreteNoise
    controlled_dims: int = 0

    def __post_init__(self) -> None:
        if self.controlled_dims < 0:
            raise ValueError(f"controlled_dims must be >= 0, got {self.controlled_dims}")

    def candidate_array(self, states: np.ndarray) -> np.ndarray:
        """Admissible controls at a batch of states, shape (m, K, d) with K, d >= 1."""
        out = np.asarray(self.control_candidates(states), dtype=np.float64)
        if out.ndim != 3 or out.shape[0] != states.shape[0] or 0 in out.shape[1:]:
            raise ValueError(f"control_candidates gave shape {out.shape}, expected (m, K, d) with K, d >= 1")
        return out


@dataclass(frozen=True)
class SolverConfig:
    """Tunables shared by the iteration drivers.

    ``eval_tol`` is relative: an iteration stops once the span of the
    sweep increment drops below ``eval_tol * (|J| + 1)`` for the current
    average-cost estimate J, and policy iteration once its bracket on J*
    is that narrow.  ``eval_max_sweeps`` is a safety cap on each
    evaluation, ``max_improvements`` caps policy iteration, and ``threads`` T the threads of the chunked
    phases (the split check, the evaluation operator build and the improvement sweep), which never changes
    a result bit: the calling thread and T - 1 more take each phase's chunks in turn.  Evaluation
    sweeps run on the calling thread.  Relative iteration anchors the value at node 0.
    """

    eval_tol: float = 1e-9
    eval_max_sweeps: int = 5000
    max_improvements: int = 10
    threads: int = 1

    def __post_init__(self) -> None:
        if not 0.0 < self.eval_tol < math.inf:  # NaN would never stop an iteration, inf stops every one at once
            raise ValueError("eval_tol must be finite and > 0")
        for name in ("eval_max_sweeps", "max_improvements", "threads"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass
class EvaluationResult:
    """Outcome of evaluating one fixed policy."""

    avg_cost: float
    value: GridFunction
    sweeps: int
    residuals: list[float]
    converged: bool
    span_ratio: float  # final span over the stop it used; <= 1 when converged


@dataclass
class SolveReport:
    """Outcome of a full policy-iteration or value-iteration run.

    ``converged`` says that the last bracket is at most
    ``eval_tol * (|avg_cost| + 1)`` wide, and nothing else (value
    iteration: the span test).  Per evaluation, ``evaluation_converged``
    says whether it met its own stop before the sweep cap and
    ``evaluation_span_ratio`` gives its final span over that stop (see
    :func:`policy_iteration`).  Per improvement sweep,
    ``bracket_history`` holds (min(Tv - v), max(Tv - v)), which brackets
    the optimal average cost J* of the gridded problem and the average
    cost of the policy greedy for v.  Every list holds one entry per
    improvement step, none per sweep (value iteration is one step with
    its final anchor and no policy change).
    ``plane_nodes_swept`` counts the plane nodes every sweep visits:
    ceil(n_y / 2) on the mirror quotient, else all n_y (1 when generic).
    ``lookahead_seconds`` is the wall time of the solve's one lookahead
    build, SciPy's import excluded.  Per improvement step,
    ``evaluation_seconds`` and ``improvement_seconds`` hold the wall times
    of both halves (value iteration: every sweep after the build, and 0).  Every
    field but ``value`` and ``policy`` goes into the JSON report, in
    declaration order.  Relative iteration anchors ``value`` at node 0.
    """

    avg_cost: float
    value: GridFunction
    policy: tuple[GridFunction, ...]
    improvement_steps: int
    sweeps_per_evaluation: list[int]
    converged: bool
    evaluation_converged: list[bool]
    evaluation_span_ratio: list[float]
    bracket_history: list[tuple[float, float]]
    avg_cost_history: list[float]
    policy_change_history: list[float]
    plane_nodes_swept: int
    lookahead_seconds: float
    evaluation_seconds: list[float]
    improvement_seconds: list[float]


def _run_chunks(spans, worker, threads: int) -> None:
    """``worker(a, b)`` on each span, taken in row order by the calling thread and min(threads, spans) - 1 more."""
    todo, lock, failed = list(range(len(spans)))[::-1], threading.Lock(), {}

    def run() -> None:
        while True:
            with lock:  # hands out each index once, lowest first, with or without a GIL
                if not todo:
                    return
                i = todo.pop()
            try:
                worker(*spans[i])
            except BaseException as err:
                with lock:
                    failed[i] = err
                    todo.clear()  # no thread takes a later span

    helpers = [threading.Thread(target=run) for _ in range(min(threads, len(spans)) - 1)]
    for helper in helpers:
        helper.start()
    run()
    for helper in helpers:
        helper.join()
    if failed:
        raise failed[min(failed)]


def _successors(problem: ControlProblem, grid: RectGrid, x, u, w, nodes: np.ndarray, k: int):
    """Next states (m, n) and stage costs (m,) at the m points x (m, n), u, w.

    Point i belongs to grid node ``nodes[i // k]``.  An output of
    the wrong shape, or the first non-finite one, raises ValueError.
    """
    m = x.shape[0]
    xn = np.asarray(problem.dynamics(x, u, w), dtype=np.float64)
    if xn.shape != x.shape:
        raise ValueError(f"dynamics returned shape {xn.shape}, expected {x.shape}")
    cost = np.asarray(problem.stage_cost(x, u, w), dtype=np.float64)
    if cost.shape != (m,):
        raise ValueError(f"stage_cost returned shape {cost.shape}, expected {(m,)}")
    for what, out in (("dynamics output", xn), ("stage cost", cost)):
        _require(np.isfinite(out).reshape(m // k, -1), grid, nodes, f"{what} is not finite")
    return xn, cost


def _require(ok: np.ndarray, grid: RectGrid, nodes: np.ndarray, what: str) -> None:
    """ValueError ``what`` at grid node ``nodes[i]``, i the first row of ``ok`` that is not all true."""
    if not ok.all():
        node = int(nodes[int(np.argmin(ok.reshape(ok.shape[0], -1).all(axis=1)))])
        raise ValueError(f"{what} at grid node {node} {node_coordinates(grid, node)}")


@dataclass(frozen=True)
class _Lookahead:
    """The one-stage lookahead of ``problem`` on ``grid``, generic or post-decision: a solve's derived state.

    Every sweep runs over the same rows, y-major: row y * inner.size + z
    holds plane node y at controlled node z, which is grid node
    ``order[row]``; ``at(a, b)`` gathers rows a .. b - 1's nodes.  Sweeps visit the first ``rows``
    rows, those of the ``reps`` representative plane nodes: all ``n_y``
    of them (1 when generic, so rows are grid nodes), or the first
    ceil(n_y / 2) on the mirror quotient.  Successor stencils live on
    ``inner`` (the whole grid, or the controlled sub-grid) and index the
    table G = ``expect(h)``, whose rows are the swept rows.  ``operator``
    is the plane operator on the representatives: P_x, lumped on the
    quotient (the 1x1 identity when generic).  ``noise`` holds the noise
    nodes whose successors are visited: all of them, or, post-decision,
    the first with weight 1, since the operator already took the
    expectation.  ``chunks`` holds the row spans every sweep runs, about
    ``CHUNK_POINTS`` (node, candidate, visited noise node) points each,
    and ``width`` the candidates' width d.
    """

    grid: RectGrid
    problem: ControlProblem
    inner: RectGrid
    n_y: int
    reps: int
    operator: sp.csr_matrix
    noise: DiscreteNoise
    chunks: list[tuple[int, int]]
    width: int
    order: np.ndarray

    @property
    def rows(self) -> int:
        return self.reps * self.inner.size

    def at(self, a: int, b: int) -> np.ndarray:
        return self.grid.nodes_at(self.order[a:b])

    def expect(self, h: np.ndarray) -> np.ndarray:
        """G = P H for the value table H (representative y, z), flat in row order."""
        return (self.operator @ h.reshape(self.reps, -1)).reshape(-1)

    def successors(self, x, u, first_row: int, k: int):
        """Expected stage cost (m,) and, per noise node, its stencil: (indices into G, weights).

        Point i belongs to row ``first_row + i // k``.
        """
        m = x.shape[0]
        offset = (first_row + np.arange(m // k)) // self.inner.size * self.inner.size  # each row's plane block
        cost = np.zeros(m)
        stencils = []
        for wval, wprob in zip(self.noise.nodes, self.noise.weights):
            xn, stage = _successors(self.problem, self.grid, x, u, np.full(m, wval), self.order[first_row:], k)
            cost += wprob * stage
            flat, wts = interpolation_stencil(self.inner, xn[:, : self.inner.dim])
            flat.reshape(m // k, k, -1)[:] += offset[:, None, None]  # in place, through a view of the rows
            stencils.append((flat, wts))
        return cost, stencils

    def grid_function(self, rows: np.ndarray) -> GridFunction:
        """The GridFunction holding ``rows[r]`` at grid node ``order[r]``, and at its mirror's on the quotient."""
        y = np.arange(self.n_y)
        values = np.empty(self.grid.size)
        values[self.order] = rows.reshape(self.reps, -1)[np.where(y < self.reps, y, self.n_y - 1 - y)].reshape(-1)
        return GridFunction(self.grid, values)


def _lookahead(grid: RectGrid, problem: ControlProblem, config: SolverConfig, tables=()) -> _Lookahead:
    """The lookahead of ``problem`` on ``grid``: post-decision if declared, after checking the split.

    It is taken on the mirror quotient when the plane axes, noise weights and exogenous successors (negated), the checked
    candidates and their successors and costs, and every grid-order table in ``tables`` are mirror-symmetric, to the bit.
    """
    import scipy.sparse as sp  # imported here, so that commands which never solve start without SciPy
    c = problem.controlled_dims
    if not 0 <= c < grid.dim:
        raise ValueError(f"controlled_dims must lie in [0, grid dimension {grid.dim}), got {c}")
    inner = RectGrid(grid.axes[:c]) if c else grid
    n_y = grid.size // inner.size
    order = np.arange(grid.size).reshape(inner.size, n_y).T.reshape(-1)
    slice0 = grid.nodes_at(order[:: inner.size])  # controlled node 0: grid nodes 0 .. n_y - 1 (node 0 when generic)
    cand0 = problem.candidate_array(slice0)
    k, width = cand0.shape[1:]
    noise = problem.noise
    visited = DiscreteNoise(noise.nodes[:1], [1.0]) if c else noise
    step = max(1, CHUNK_POINTS // (k * visited.n))
    chunks = [(a, min(a + step, grid.size)) for a in range(0, grid.size, step)]
    if c == 0:
        return _Lookahead(grid, problem, grid, 1, 1, sp.identity(1, format="csr"), noise, chunks, width, order)
    plane = RectGrid(grid.axes[c:])
    u0 = np.ascontiguousarray(cand0[:, 0])
    ncorner = 1 << plane.dim
    indices = np.empty((n_y, noise.n * ncorner), dtype=np.int64)
    data = np.empty((n_y, noise.n * ncorner))
    exogenous = []
    for l, (wval, wprob) in enumerate(zip(noise.nodes, noise.weights)):
        xn, _ = _successors(problem, grid, slice0, u0, np.full(n_y, wval), order[:: inner.size], 1)
        exogenous.append(xn[:, c:])
        flat, wts = interpolation_stencil(plane, xn[:, c:])
        indices[:, l * ncorner : (l + 1) * ncorner] = flat
        data[:, l * ncorner : (l + 1) * ncorner] = wprob * wts
    indptr = np.arange(n_y + 1, dtype=np.int64) * indices.shape[1]
    # the successor of (plane node y, noise node l) is minus that of (n_y - 1 - y, L - 1 - l)
    mirror = (all(_mirror_symmetric(ax.nodes, -1.0) for ax in plane.axes) and _mirror_symmetric(noise.weights)
              and _mirror_symmetric(np.stack(exogenous, axis=1).reshape(n_y * noise.n, -1), -1.0)
              and all(_mirror_symmetric(t.reshape(-1, n_y).T) for t in tables))
    ends = ((noise.nodes[0], exogenous[0]), (noise.nodes[-1], exogenous[-1]))
    declared = f"controlled_dims={c} declares otherwise"
    seen = np.empty((grid.size, 2, width + c + 1)) if mirror else None  # per row and checked candidate

    def check(a: int, b: int) -> None:
        xc, at = grid.nodes_at(order[a:b]), order[a:b]
        cand = problem.candidate_array(xc)
        y = np.arange(a, b) // inner.size
        for j in (0, -1):
            u = np.ascontiguousarray(cand[:, j])
            (x0, c0), (x1, c1) = (_successors(problem, grid, xc, u, np.full(b - a, w), at, 1) for w, _ in ends)
            _require(x0[:, :c] == x1[:, :c], grid, at,
                     f"dynamics: the controlled components depend on the noise ({declared})")
            _require(c0 == c1, grid, at, f"stage_cost depends on the noise ({declared})")
            for xn, (_, ref) in zip((x0, x1), ends):
                _require(xn[:, c:] == ref[y], grid, at,
                         "dynamics: the exogenous components depend on the control "
                         f"or the controlled state ({declared})")
            if seen is not None:
                seen[a:b, j] = np.column_stack([u, x0[:, :c], c0])

    # the check evaluates 2 candidates at 2 noise ends per row, so it runs longer spans than a sweep:
    # each span's (rows, K) candidate array holds 4 * CHUNK_POINTS values
    span = max(1, 4 * CHUNK_POINTS // k)
    _run_chunks([(a, min(a + span, grid.size)) for a in range(0, grid.size, span)], check, config.threads)
    reps = (n_y + 1) // 2 if mirror and _mirror_symmetric(seen.reshape(n_y, -1)) else n_y
    lumped = np.where(indices < reps, indices, n_y - 1 - indices)[:reps]  # a column adds into its representative's
    operator = sp.csr_matrix((data[:reps].reshape(-1), lumped.reshape(-1), indptr[: reps + 1]), shape=(reps, reps))
    operator.sum_duplicates()  # noise nodes often share stencil corners: about half the entries
    chunks = [(a, min(b, reps * inner.size)) for a, b in chunks if a < reps * inner.size]
    return _Lookahead(grid, problem, inner, n_y, reps, operator, visited, chunks, width, order)


def _mirror_symmetric(table: np.ndarray, sign: float = 1.0) -> bool:
    """Whether row i of ``table`` equals ``sign`` times its row n - 1 - i, to the bit."""
    return np.array_equal(table, table[::-1] if sign == 1.0 else sign * table[::-1])


def _min_sweep(look: _Lookahead, values: np.ndarray, threads: int):
    """One minimising sweep of the value table v over the swept rows, both in row order.

    Returns the un-anchored swept values Tv, the greedy policy (one GridFunction
    per control component) and the bracket (min(Tv - v), max(Tv - v)).
    """
    raw = np.empty(look.rows)
    controls = np.empty((look.width, look.rows))
    g = look.expect(values)

    def worker(a: int, b: int) -> None:
        xc = look.at(a, b)
        cand = look.problem.candidate_array(xc)
        mc, k, _ = cand.shape
        u_rep = cand.reshape(mc * k, -1)
        q, stencils = look.successors(np.repeat(xc, k, axis=0), u_rep, a, k)
        for wprob, (idx, wts) in zip(look.noise.weights, stencils):
            q += wprob * stencil_blend(wts, g[idx])
        q = q.reshape(mc, k)
        best = np.argmin(q, axis=1)
        rows = np.arange(mc)
        raw[a:b] = q[rows, best]
        controls[:, a:b] = cand[rows, best].T

    _run_chunks(look.chunks, worker, threads)
    gain = raw - values
    return raw, tuple(look.grid_function(u) for u in controls), (float(gain.min()), float(gain.max()))


def _stop(residuals: list[float], anchor: float, config: SolverConfig, fraction: float) -> float:
    """The span an iteration stops at: the tolerance, or ``fraction`` times its first span if that is looser."""
    return max(fraction * residuals[0], config.eval_tol * (abs(anchor) + 1.0))


def _relative_iteration(step, look: _Lookahead, config: SolverConfig, start: GridFunction | None = None, fraction=0.0):
    """The EvaluationResult of v <- raw - raw[0], raw = step(v), over the swept rows of ``look``, on the calling thread.

    Starts from ``start`` at the swept rows (default: zeros); ``step`` may thread its own work.  Stops once the span
    of raw - v drops to :func:`_stop`, or after ``eval_max_sweeps`` sweeps.
    """
    v = np.zeros(look.rows) if start is None else start.values[look.order[: look.rows]]  # a copy
    residuals = []
    for _ in range(config.eval_max_sweeps):  # at least one sweep
        raw = step(v)
        np.subtract(raw, v, out=v)  # the increment, in v's own buffer
        anchor = float(raw[0])
        residuals.append(float(v.max() - v.min()))
        np.subtract(raw, anchor, out=v)
        converged = residuals[-1] <= _stop(residuals, anchor, config, fraction)
        if converged:
            break
    return EvaluationResult(anchor, look.grid_function(v), len(residuals), residuals, converged,
                            residuals[-1] / _stop(residuals, anchor, config, fraction))


def bellman_sweep(
    value: GridFunction,
    problem: ControlProblem,
    config: SolverConfig | None = None,
) -> tuple[GridFunction, tuple[GridFunction, ...], float]:
    """One optimality sweep: minimise the one-stage lookahead at every node.

    Returns the updated differential value (anchored to zero at node 0),
    the greedy policy (one GridFunction per control component), and the
    subtracted anchor value, which estimates the average cost per stage.  Ties in the minimisation resolve to the
    first candidate in order.
    """
    config = config or SolverConfig()
    look = _lookahead(value.grid, problem, config, (value.values,))
    raw, policy, _ = _min_sweep(look, value.values[look.order[: look.rows]], config.threads)
    avg = float(raw[0])
    return look.grid_function(raw - avg), policy, avg


def _fixed_policy_operator(look: _Lookahead, policy, threads: int):
    """Stage costs (n,) and matrix M of the sweep h -> cost + M G, both in the row order of G.

    A node's control is the candidate nearest the stored policy; its row holds the noise-weighted
    stencils of its successors (it sums to 1).
    """
    import scipy.sparse as sp  # imported here: see _lookahead
    n = look.rows
    stored = np.stack([p.values for p in policy], axis=1)[look.order[:n]]  # (n, d)
    indices = np.empty((n, look.noise.n, 1 << look.inner.dim), dtype=np.int64)
    data = np.empty(indices.shape)
    cost = np.empty(n)

    def worker(a: int, b: int) -> None:
        xc = look.at(a, b)
        cand = look.problem.candidate_array(xc)
        u = cand[np.arange(b - a), np.argmin(((cand - stored[a:b, None, :]) ** 2).sum(axis=2), axis=1)]
        cost[a:b], stencils = look.successors(xc, u, a, 1)
        for l, (wprob, (idx, wts)) in enumerate(zip(look.noise.weights, stencils)):
            indices[a:b, l], data[a:b, l] = idx, wprob * wts

    step = 4 * (look.chunks[0][1] - look.chunks[0][0])  # one candidate per row: spans as long as the split check's
    _run_chunks([(a, min(a + step, n)) for a in range(0, n, step)], worker, threads)
    indptr = np.arange(n + 1, dtype=np.int64) * indices[0].size
    return cost, sp.csr_matrix((data.reshape(-1), indices.reshape(-1), indptr), shape=(n, n))


def _policy_lookahead(policy: tuple[GridFunction, ...], problem: ControlProblem, config: SolverConfig,
                      look: _Lookahead | None = None, start: GridFunction | None = None) -> _Lookahead:
    """``look``, or the lookahead of ``problem`` on the one grid of ``policy``, after checking the policy and ``start``."""
    if len(policy) < 1:
        raise ValueError("policy needs at least one control component")
    tables = (*policy, *(() if start is None else (start,)))
    if any(t.grid != policy[0].grid for t in tables[1:]):
        raise ValueError("policy components and the start value must share one grid")
    look = look or _lookahead(policy[0].grid, problem, config, [t.values for t in tables])
    if len(policy) != look.width:
        raise ValueError(f"{len(policy)} policy components != candidate width {look.width}")
    return look


def policy_evaluation(
    policy: tuple[GridFunction, ...],
    problem: ControlProblem,
    config: SolverConfig | None = None,
    look: _Lookahead | None = None,
    start: GridFunction | None = None,
    fraction: float = 0.0,
) -> EvaluationResult:
    """Average cost and differential value of a fixed policy.

    Iterates the fixed-policy sweep (no minimisation; the control at
    each node is the stored policy value projected to the nearest
    admissible candidate) with relative-value anchoring, from ``start`` (zero when omitted),
    until the span of the increment drops to the tolerance, or to ``fraction`` times the first
    sweep's span if that is looser, or the sweep cap is hit.  ``look``, the lookahead of ``problem``
    on the policy's grid, is built when omitted; a given one reads ``start`` at its swept rows only.
    """
    config = config or SolverConfig()
    look = _policy_lookahead(policy, problem, config, look, start)
    cost, matrix = _fixed_policy_operator(look, policy, config.threads)

    def step(v: np.ndarray) -> np.ndarray:
        raw = matrix @ look.expect(v)
        raw += cost
        return raw

    return _relative_iteration(step, look, config, start, fraction)


def policy_improvement(
    value: GridFunction,
    problem: ControlProblem,
    config: SolverConfig | None = None,
    look: _Lookahead | None = None,
) -> tuple[tuple[GridFunction, ...], tuple[float, float]]:
    """Greedy policy with respect to a differential value function v.

    Also returns the bracket (min(Tv - v), max(Tv - v)) of the sweep,
    which contains the optimal average cost J*.  ``look``: as in :func:`policy_evaluation`.
    """
    config = config or SolverConfig()
    look = look or _lookahead(value.grid, problem, config, (value.values,))
    _, policy, bracket = _min_sweep(look, value.values[look.order[: look.rows]], config.threads)
    return policy, bracket


def policy_iteration(
    problem: ControlProblem,
    initial_policy: tuple[GridFunction, ...],
    config: SolverConfig | None = None,
) -> SolveReport:
    """Modified policy iteration, stopped by its bracket on J* (Puterman & Shin, 1978).

    Each evaluation starts from the last one's value, unless that one hit the sweep cap (a periodic
    chain oscillates from any non-constant start); one that hits the cap from there is run again
    from zero in the same step, and both runs count.  It stops at ``STOP_FRACTION`` times its first
    sweep's span, from that value the last bracket's width, or at the tolerance if that is looser.
    After an improvement that changed no control, it runs to the tolerance.  Stops, converged, once a
    bracket is at most ``eval_tol * (|J| + 1)`` wide, or after ``max_improvements`` steps.  The bracket
    holds J* and the average cost of the returned policy, greedy for the returned value; J and the
    value are the last evaluation's.  One lookahead serves every step.
    """
    config = config or SolverConfig()
    current = tuple(initial_policy)
    import scipy.sparse  # noqa: F401  loaded before the clock starts: see SolveReport.lookahead_seconds
    start = time.perf_counter()
    look = _policy_lookahead(current, problem, config)
    built = time.perf_counter()
    steps = []  # one record per improvement step: see _report
    fraction = STOP_FRACTION
    for _ in range(config.max_improvements):
        began = time.perf_counter()
        seed = steps[-1][0].value if steps and steps[-1][0].converged else None
        attempts = [policy_evaluation(current, problem, config, look, seed, fraction)]
        if seed is not None and not attempts[0].converged:  # a periodic chain: retry from zero, once
            attempts.append(policy_evaluation(current, problem, config, look, None, fraction))
        evaluation = attempts[-1]
        evaluated = time.perf_counter()
        improved, bracket = policy_improvement(evaluation.value, problem, config, look)
        seconds = (evaluated - began, time.perf_counter() - evaluated)
        change = max(float(np.max(np.abs(n.values - o.values))) for n, o in zip(improved, current))
        steps.append((evaluation, sum(a.sweeps for a in attempts), bracket, change, *seconds))
        current = improved
        converged = bracket[1] - bracket[0] <= config.eval_tol * (abs(evaluation.avg_cost) + 1.0)
        if converged:
            break
        fraction = 0.0 if change == 0.0 else STOP_FRACTION
    return _report(look, built - start, current, converged, steps)


def value_iteration(
    problem: ControlProblem,
    grid: RectGrid,
    config: SolverConfig | None = None,
) -> SolveReport:
    """Relative value iteration from a zero differential value.

    Repeats the optimality sweep, anchored at node 0, until the
    increment's span converges (same tolerance semantics as policy
    evaluation), then returns the final greedy policy.
    """
    config = config or SolverConfig()
    import scipy.sparse  # noqa: F401  loaded before the clock starts: see SolveReport.lookahead_seconds
    start = time.perf_counter()
    look = _lookahead(grid, problem, config)
    built = time.perf_counter()
    policy = bracket = None

    def step(v: np.ndarray) -> np.ndarray:
        nonlocal policy, bracket
        raw, policy, bracket = _min_sweep(look, v, config.threads)
        return raw

    evaluation = _relative_iteration(step, look, config)
    return _report(look, built - start, policy, evaluation.converged,
                   [(evaluation, evaluation.sweeps, bracket, None, time.perf_counter() - built, 0.0)])


def _report(look: _Lookahead, lookahead_seconds: float, policy, converged: bool, steps) -> SolveReport:
    """One SolveReport from one record per step: (evaluation, sweeps of all its runs, bracket, policy change or None,
    evaluation seconds, improvement seconds).  J and the value are the last evaluation's."""
    evaluations, sweeps, brackets, changes, evaluation_seconds, improvement_seconds = map(list, zip(*steps))
    return SolveReport(
        avg_cost=evaluations[-1].avg_cost,
        value=evaluations[-1].value,
        policy=policy,
        improvement_steps=len(steps),
        sweeps_per_evaluation=sweeps,
        converged=converged,
        evaluation_converged=[e.converged for e in evaluations],
        evaluation_span_ratio=[e.span_ratio for e in evaluations],
        bracket_history=brackets,
        avg_cost_history=[e.avg_cost for e in evaluations],
        policy_change_history=[c for c in changes if c is not None],
        plane_nodes_swept=look.reps,
        lookahead_seconds=lookahead_seconds,
        evaluation_seconds=evaluation_seconds,
        improvement_seconds=improvement_seconds,
    )


def save_report(report: SolveReport, directory) -> dict:
    """Persist a solve: value/policy tables plus a structured text summary.

    Writes ``solution_value.gridfn`` (+ payload), one
    ``solution_policy_u<j>.gridfn`` per control component, and
    ``solution_report.json`` with every other report field, in that
    order; every file is replaced atomically, so an interrupted save
    leaves each file either old or new, never torn.  Returns the mapping of artifact
    names to paths.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    value_path = directory / "solution_value.gridfn"
    save_grid_function(report.value, value_path)
    paths["value"] = str(value_path)
    for j, component in enumerate(report.policy):
        policy_path = directory / f"solution_policy_u{j}.gridfn"
        save_grid_function(component, policy_path)
        paths[f"policy_u{j}"] = str(policy_path)
    summary = {f.name: getattr(report, f.name) for f in fields(report) if f.name not in ("value", "policy")}
    report_path = directory / "solution_report.json"
    write_json(report_path, summary)
    paths["report"] = str(report_path)
    return paths
