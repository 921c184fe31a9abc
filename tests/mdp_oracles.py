"""Finite-MDP fixtures with independently computed references.

The random family uses a shared-outcome construction: a step draws one
of ``n_outcomes`` events (fixed probabilities, the same draw for every
state-action pair), and a lookup table maps (state, action, event) to
the successor state.  Event 0 always restarts at state 0, which makes
every stationary policy's chain unichain and aperiodic, so the
average-cost evaluation equations are nonsingular and iterative methods
contract quickly.  The stage cost depends on (state, action) or, with
``noisy_cost``, on (state, action, event); the references use its
expectation over the event.

The same family is exactly representable on a 1-D grid with one node
per state (states at integer nodes, interpolation never blends), which lets the
grid solver run on it without discretization error.  The references
below never touch the solver: transition matrices come straight from
the table, policy values from a dense linear solve, and optima from
brute-force policy enumeration.

The linear-quadratic problem is a continuous one: state (z, y),
z' = z + (y - u) dt, y' = rho y + w, stage cost u^2 + lam z^2, with z
controlled and y exogenous (``controlled_dims = 1``).  Its optimal
average cost is sigma_d^2 S[1, 1], S solving the discrete algebraic
Riccati equation and sigma_d^2 the variance of the discrete noise
(Bertsekas, *Dynamic Programming and Optimal Control* I, 4.1), so it
measures how far the gridded problem is from the continuous one: the
grid, candidate and hull errors, not the noise's discretisation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from sdpkit import grids, solver


@dataclass(frozen=True)
class FiniteMDP:
    table: np.ndarray  # (n_states, n_actions, n_outcomes) successor indices
    outcome_probs: np.ndarray  # (n_outcomes,)
    cost: np.ndarray  # (n_states, n_actions) or (n_states, n_actions, n_outcomes)

    @property
    def n_states(self) -> int:
        return self.table.shape[0]

    @property
    def n_actions(self) -> int:
        return self.table.shape[1]


def random_mdp(rng: np.random.Generator, n_states: int, n_actions: int,
               n_outcomes: int = 6, restart_prob: float = 0.2,
               noisy_cost: bool = False) -> FiniteMDP:
    probs = np.full(n_outcomes, (1.0 - restart_prob) / (n_outcomes - 1))
    probs[0] = restart_prob
    table = rng.integers(0, n_states, size=(n_states, n_actions, n_outcomes))
    table[:, :, 0] = 0
    cost = rng.uniform(0.0, 1.0, size=table.shape if noisy_cost else (n_states, n_actions))
    return FiniteMDP(table, probs, cost)


def expected_cost(mdp: FiniteMDP) -> np.ndarray:
    """Stage cost c[s, a] averaged over the event when it depends on it."""
    if mdp.cost.ndim == 2:
        return mdp.cost
    return np.einsum("sar,r->sa", mdp.cost, mdp.outcome_probs)


def transition_matrices(mdp: FiniteMDP) -> np.ndarray:
    """P[s, a, s'] accumulated directly from the outcome table."""
    n, k, m = mdp.table.shape
    p = np.zeros((n, k, n))
    for s in range(n):
        for a in range(k):
            for r in range(m):
                p[s, a, mdp.table[s, a, r]] += mdp.outcome_probs[r]
    return p


def _anchored_system(p_pol: np.ndarray, c_pol: np.ndarray, ref: int):
    """(n+1)-dimensional linear system for (J, v) with v[ref] = 0."""
    n = c_pol.shape[-1]
    eye = np.eye(n)
    a = np.zeros(p_pol.shape[:-2] + (n + 1, n + 1))
    b = np.zeros(p_pol.shape[:-2] + (n + 1,))
    a[..., :n, 0] = 1.0
    a[..., :n, 1:] = eye - p_pol
    a[..., n, 1 + ref] = 1.0
    b[..., :n] = c_pol
    return a, b


def evaluate_policy_linear(mdp: FiniteMDP, policy: np.ndarray, ref: int = 0):
    """Average cost and anchored differential value of one policy, by direct solve."""
    p = transition_matrices(mdp)
    idx = np.arange(mdp.n_states)
    a, b = _anchored_system(p[idx, policy], expected_cost(mdp)[idx, policy], ref)
    z = np.linalg.solve(a, b)
    return float(z[0]), z[1:]

def enumerate_optimum(mdp: FiniteMDP, ref: int = 0):
    """Best average cost over every deterministic stationary policy."""
    p = transition_matrices(mdp)
    policies = np.array(list(itertools.product(range(mdp.n_actions), repeat=mdp.n_states)))
    idx = np.arange(mdp.n_states)
    a, b = _anchored_system(p[idx, policies], expected_cost(mdp)[idx, policies], ref)
    z = np.linalg.solve(a, b[..., None])[..., 0]
    best = int(np.argmin(z[:, 0]))
    return float(z[best, 0]), policies[best]


def as_control_problem(mdp: FiniteMDP) -> tuple[solver.ControlProblem, grids.RectGrid]:
    """Encode the MDP on an integer grid, one node per state, for the grid solver."""
    n = mdp.n_states
    grid = grids.build_grid([(0.0, float(n - 1), n)])
    actions = np.arange(mdp.n_actions, dtype=np.float64)[:, None]
    table = mdp.table
    cost = mdp.cost

    def dynamics(x, u, w):
        s = x[:, 0].astype(np.int64)
        a = u[:, 0].astype(np.int64)
        r = w.astype(np.int64)
        return table[s, a, r].astype(np.float64)[:, None]

    def stage_cost(x, u, w):
        s = x[:, 0].astype(np.int64)
        a = u[:, 0].astype(np.int64)
        return cost[s, a] if cost.ndim == 2 else cost[s, a, w.astype(np.int64)]

    problem = solver.ControlProblem(
        dynamics=dynamics,
        stage_cost=stage_cost,
        control_candidates=lambda xs: np.broadcast_to(actions, (xs.shape[0], mdp.n_actions, 1)),
        noise=solver.DiscreteNoise(np.arange(mdp.table.shape[2], dtype=np.float64),
                                   mdp.outcome_probs),
    )
    return problem, grid


def policy_as_grid_functions(policy: np.ndarray, grid: grids.RectGrid):
    return (grids.GridFunction(grid, policy.astype(np.float64)),)


LQ_DT, LQ_RHO, LQ_SIGMA, LQ_LAMBDA, LQ_CANDIDATES = 1.0, 0.9, 1.0, 0.1, 101


def lq_riccati(noise: solver.DiscreteNoise):
    """(J*, gain K with u = -K x, closed-loop stationary stds of z and y) of the LQ problem under ``noise``."""
    from scipy.linalg import solve_discrete_are, solve_discrete_lyapunov
    a = np.array([[1.0, LQ_DT], [0.0, LQ_RHO]])
    b = np.array([[-LQ_DT], [0.0]])
    r = np.eye(1)
    s = solve_discrete_are(a, b, np.diag([LQ_LAMBDA, 0.0]), r)
    gain = np.linalg.solve(r + b.T @ s @ b, b.T @ s @ a)
    var_w = float(noise.weights @ noise.nodes ** 2)
    cov = solve_discrete_lyapunov(a - b @ gain, np.diag([0.0, var_w]))
    return var_w * float(s[1, 1]), gain, np.sqrt(np.diag(cov))


def lq_problem(n_nodes: int, stds: float, controlled_dims: int = 1):
    """The LQ problem on an n x n grid spanning +-``stds`` closed-loop stationary stds per axis.

    Returns (problem, grid, J*, the Riccati policy as GridFunctions).  The
    candidates are uniform on +-max |K x| over the grid's corners.
    """
    noise = solver.discretize_noise(LQ_SIGMA, 5)
    j_star, gain, std = lq_riccati(noise)
    grid = grids.build_grid([(-stds * s, stds * s, n_nodes) for s in std])
    corners = np.array(list(itertools.product(*[(-stds * s, stds * s) for s in std])))
    u_max = float(np.abs(corners @ gain.T).max())
    controls = np.linspace(-u_max, u_max, LQ_CANDIDATES)[:, None]

    def dynamics(x, u, w):
        return np.column_stack([x[:, 0] + (x[:, 1] - u[:, 0]) * LQ_DT, LQ_RHO * x[:, 1] + w])

    def stage_cost(x, u, w):
        return u[:, 0] ** 2 + LQ_LAMBDA * x[:, 0] ** 2

    problem = solver.ControlProblem(
        dynamics=dynamics,
        stage_cost=stage_cost,
        control_candidates=lambda xs: np.broadcast_to(controls, (xs.shape[0], LQ_CANDIDATES, 1)),
        noise=noise,
        controlled_dims=controlled_dims,
    )
    riccati = grids.GridFunction(grid, -grid.all_nodes @ gain[0])
    return problem, grid, j_star, (riccati,)
