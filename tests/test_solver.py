"""Solver tests: quadrature references, hand-worked cases, dense linear-algebra checks."""

import dataclasses
import itertools
import json
import math
import re
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtri
from scipy.stats import norm

from sdpkit import grids, solver, storage
from sdpkit.solver import ControlProblem, DiscreteNoise, SolverConfig

from mdp_oracles import (
    as_control_problem,
    enumerate_optimum,
    evaluate_policy_linear,
    policy_as_grid_functions,
    random_mdp,
)


def oracle_strata_means(std, n):
    """Conditional means of N(0, std^2) over equal-probability strata, by quadrature."""
    edges = std * ndtri(np.linspace(0.0, 1.0, n + 1))
    out = np.empty(n)
    for k in range(n):
        lo = -50 * std if k == 0 else edges[k]
        hi = 50 * std if k == n - 1 else edges[k + 1]
        mass, _ = quad(lambda x: x * norm.pdf(x, scale=std), lo, hi)
        out[k] = n * mass
    return out


class TestDiscretizeNoise:
    def test_two_node_closed_form(self):
        noise = solver.discretize_noise(std=1.0, n_nodes=2)
        root = math.sqrt(2.0 / math.pi)
        assert noise.nodes[1] == pytest.approx(root, rel=1e-14)
        assert noise.nodes[0] == -noise.nodes[1]
        assert noise.nodes[1] == pytest.approx(0.7978845608028654, rel=1e-15)
        assert np.array_equal(noise.weights, [0.5, 0.5])

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 13])
    def test_matches_quadrature(self, n):
        std = 1.7
        noise = solver.discretize_noise(std, n)
        assert np.allclose(noise.nodes, oracle_strata_means(std, n), rtol=1e-9, atol=1e-12)
        assert np.allclose(noise.weights, np.full(n, 1.0 / n), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 6, 7, 50])
    def test_antisymmetric_to_the_bit(self, n):
        noise = solver.discretize_noise(2.31, n)
        assert math.fsum(noise.nodes) == 0.0
        assert np.array_equal(noise.nodes[::-1], -noise.nodes)
        if n % 2 == 1:
            assert noise.nodes[n // 2] == 0.0

    def test_variance_is_reduced(self):
        # stratum means always carry less spread than the density they summarise
        for n in (2, 5, 20):
            noise = solver.discretize_noise(3.0, n)
            discrete_var = float(np.dot(noise.weights, noise.nodes**2))
            assert discrete_var < 9.0
        assert discrete_var > 0.95 * 9.0  # n=20 recovers most of it

    def test_degenerate_cases(self):
        assert np.array_equal(solver.discretize_noise(0.0, 4).nodes, np.zeros(4))
        single = solver.discretize_noise(2.0, 1)
        assert np.array_equal(single.nodes, [0.0])
        assert np.array_equal(single.weights, [1.0])

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            solver.discretize_noise(-1.0, 3)
        with pytest.raises(ValueError):
            solver.discretize_noise(1.0, 0)

    def test_noise_container_validation(self):
        with pytest.raises(ValueError):
            DiscreteNoise(np.array([0.0, 1.0]), np.array([0.6, 0.6]))
        with pytest.raises(ValueError):
            DiscreteNoise(np.array([0.0, 1.0]), np.array([1.2, -0.2]))
        with pytest.raises(ValueError):
            DiscreteNoise(np.array([0.0]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError, match="not NaN"):  # NaN passes both a < 0 and a sum-to-1 test
            DiscreteNoise(np.array([0.0, 1.0]), np.array([math.nan, 1.0]))


def fixed_candidates(cands):
    """Candidate callback offering the same (K, d) candidates at every state."""
    return lambda xs: np.broadcast_to(cands, (xs.shape[0],) + cands.shape)


def make_tabular_problem(cost_table):
    """Deterministic two-state problem: the control is the next state."""
    cost_table = np.asarray(cost_table, dtype=np.float64)
    n = cost_table.shape[0]
    grid = grids.build_grid([(0.0, float(n - 1), n)])
    actions = np.arange(n, dtype=np.float64)[:, None]

    def dynamics(x, u, w):
        return u.copy()

    def stage_cost(x, u, w):
        return cost_table[x[:, 0].astype(int), u[:, 0].astype(int)]

    problem = ControlProblem(
        dynamics=dynamics,
        stage_cost=stage_cost,
        control_candidates=fixed_candidates(actions),
        noise=DiscreteNoise(np.array([0.0]), np.array([1.0])),
    )
    return problem, grid


class TestBellmanSweep:
    def test_zero_cost_stays_zero(self):
        problem, grid = make_tabular_problem([[0.0, 0.0], [0.0, 0.0]])
        value = grids.GridFunction(grid, np.zeros(grid.size))
        new_value, _, avg = solver.bellman_sweep(value, problem)
        assert avg == 0.0
        assert np.array_equal(new_value.values, np.zeros(grid.size))

    # the next three run on two nodes whose dynamics stay put: each node sees only its own value,
    # so both nodes must agree
    def test_stay_put_constant_cost(self):
        grid = grids.build_grid([(0.0, 1.0, 2)])
        problem = ControlProblem(
            dynamics=lambda x, u, w: x.copy(),
            stage_cost=lambda x, u, w: np.full(x.shape[0], 3.5),
            control_candidates=fixed_candidates(np.array([[0.0]])),
            noise=DiscreteNoise(np.array([0.0]), np.array([1.0])),
        )
        value = grids.GridFunction(grid, np.zeros(2))
        new_value, policy, avg = solver.bellman_sweep(value, problem)
        assert avg == 3.5
        assert new_value.values.tolist() == [0.0, 0.0]
        assert policy[0].values.tolist() == [0.0, 0.0]

    def test_quadratic_control_cost_picks_zero(self):
        grid = grids.build_grid([(0.0, 1.0, 2)])
        candidates = np.array([[-1.0], [-0.5], [0.0], [0.5], [1.0]])
        problem = ControlProblem(
            dynamics=lambda x, u, w: x.copy(),
            stage_cost=lambda x, u, w: u[:, 0] ** 2,
            control_candidates=fixed_candidates(candidates),
            noise=DiscreteNoise(np.array([0.0]), np.array([1.0])),
        )
        value = grids.GridFunction(grid, np.zeros(2))
        new_value, policy, avg = solver.bellman_sweep(value, problem)
        assert avg == 0.0
        assert new_value.values.tolist() == [0.0, 0.0]
        assert policy[0].values.tolist() == [0.0, 0.0]

    def test_tie_breaks_to_first_candidate(self):
        grid = grids.build_grid([(0.0, 1.0, 2)])
        candidates = np.array([[1.0], [-1.0]])  # same |u|, first must win
        problem = ControlProblem(
            dynamics=lambda x, u, w: x.copy(),
            stage_cost=lambda x, u, w: np.abs(u[:, 0]),
            control_candidates=fixed_candidates(candidates),
            noise=DiscreteNoise(np.array([0.0]), np.array([1.0])),
        )
        value = grids.GridFunction(grid, np.zeros(2))
        _, policy, avg = solver.bellman_sweep(value, problem)
        assert avg == 1.0
        assert policy[0].values.tolist() == [1.0, 1.0]

    def test_non_finite_dynamics_names_the_node(self):
        grid = grids.build_grid([(0.0, 1.0, 2)])

        def bad_dynamics(x, u, w):
            out = x.copy()
            out[x[:, 0] > 0.5] = np.nan
            return out

        problem = ControlProblem(
            dynamics=bad_dynamics,
            stage_cost=lambda x, u, w: np.zeros(x.shape[0]),
            control_candidates=fixed_candidates(np.array([[0.0]])),
            noise=DiscreteNoise(np.array([0.0]), np.array([1.0])),
        )
        value = grids.GridFunction(grid, np.zeros(2))
        with pytest.raises(ValueError, match="node 1"):
            solver.bellman_sweep(value, problem)

    @pytest.mark.parametrize("callback, bad", [
        ("dynamics", lambda x, u, w: x[:, 0]),  # (m,) instead of (m, 1)
        ("stage_cost", lambda x, u, w: np.zeros((x.shape[0], 2))),  # (m, 2) instead of (m,)
    ], ids=["dynamics", "stage_cost"])
    def test_wrong_output_shape_names_the_callback(self, callback, bad):
        grid = grids.build_grid([(0.0, 1.0, 3)])
        callbacks = {"dynamics": lambda x, u, w: x.copy(), "stage_cost": lambda x, u, w: np.zeros(x.shape[0])}
        callbacks[callback] = bad
        problem = ControlProblem(
            control_candidates=fixed_candidates(np.array([[0.0]])),
            noise=DiscreteNoise(np.array([0.0]), np.array([1.0])),
            **callbacks,
        )
        value = grids.GridFunction(grid, np.zeros(3))
        with pytest.raises(ValueError, match=f"{callback} returned shape"):
            solver.bellman_sweep(value, problem)
        policy = (grids.GridFunction(grid, np.zeros(3)),)
        with pytest.raises(ValueError, match=f"{callback} returned shape"):
            solver.policy_evaluation(policy, problem)

    @pytest.mark.parametrize("bad", [
        lambda xs: np.zeros((xs.shape[0], 2)),  # (m, K): no width axis
        lambda xs: np.zeros((xs.shape[0], 0, 1)),  # K = 0
        lambda xs: np.zeros((xs.shape[0], 1, 0)),  # d = 0
    ], ids=["two-dimensional", "no-candidates", "no-width"])
    def test_malformed_candidates_name_the_callback(self, bad):
        problem, grid = make_tabular_problem([[0.0, 0.0], [0.0, 0.0]])
        problem = dataclasses.replace(problem, control_candidates=bad)
        value = grids.GridFunction(grid, np.zeros(grid.size))
        with pytest.raises(ValueError, match="control.candidates"):
            solver.bellman_sweep(value, problem)

    @pytest.mark.parametrize("case, message", [
        ("empty", "at least one control component"),
        ("two-grids", "share one grid"),
        ("too-wide", "policy components != "),
    ])
    def test_malformed_policy_is_rejected(self, case, message):
        problem, grid = make_tabular_problem([[0.0, 0.0], [0.0, 0.0]])
        zeros = grids.GridFunction(grid, np.zeros(grid.size))
        elsewhere = grids.GridFunction(grids.build_grid([(0.0, 2.0, 2)]), np.zeros(2))
        policy = {"empty": (), "two-grids": (zeros, elsewhere), "too-wide": (zeros, zeros)}[case]
        with pytest.raises(ValueError, match=message):
            solver.policy_evaluation(policy, problem)
        with pytest.raises(ValueError, match=message):
            solver.policy_iteration(problem, policy)

    def test_dimension_mismatch_rejected(self):
        problem, _ = make_tabular_problem([[0.0, 0.0], [0.0, 0.0]])
        wrong = grids.build_grid([(0, 1, 2), (0, 1, 2)])
        value = grids.GridFunction(wrong, np.zeros(wrong.size))
        with pytest.raises(ValueError):
            solver.bellman_sweep(value, problem)


class TestTwoStateCycle:
    # staying anywhere costs at least 2 per stage; the 0 <-> 1 cycle costs 1
    COSTS = [[2.0, 1.0], [1.0, 3.0]]

    def test_value_iteration_finds_the_cycle(self):
        problem, grid = make_tabular_problem(self.COSTS)
        report = solver.value_iteration(problem, grid)
        assert report.converged
        assert report.avg_cost == pytest.approx(1.0, abs=1e-12)
        assert report.policy[0].values.tolist() == [1.0, 0.0]

    def test_policy_iteration_from_the_multichain_start(self):
        # "stay put" makes the chain disconnected; its evaluation cannot
        # converge, yet the improvement step still escapes toward the cycle
        problem, grid = make_tabular_problem(self.COSTS)
        stay = (grids.GridFunction(grid, np.array([0.0, 1.0])),)
        config = SolverConfig(eval_max_sweeps=50, max_improvements=8)
        report = solver.policy_iteration(problem, stay, config)
        assert report.converged
        assert report.avg_cost == pytest.approx(1.0, abs=1e-12)
        assert report.policy[0].values.tolist() == [1.0, 0.0]
        assert report.improvement_steps <= 4
        assert report.policy_change_history[-1] == 0.0

    @pytest.mark.parametrize("sweeps", [1, 2, 3, 4, 5, 6, 7, 8, 49, 50, 51])
    def test_a_warm_started_cycle_is_never_certified_at_a_wrong_cost(self, sweeps):
        # evaluated from the value of "go to 0", the cycle oscillates with period 2 and is cut off at
        # the cap, reading J = 0 or 2 by the parity of the cap; run again from zero, it reads J = 1
        problem, grid = make_tabular_problem(self.COSTS)
        stay = (grids.GridFunction(grid, np.array([0.0, 1.0])),)
        for cap in range(1, 9):
            report = solver.policy_iteration(problem, stay, SolverConfig(eval_max_sweeps=sweeps, max_improvements=cap))
            if cap >= 3:  # the third evaluation is the cycle's: cut off, then one sweep from zero certifies
                assert report.converged and report.improvement_steps == 3 and report.avg_cost_history[2] == 1.0
                warm = report.evaluation_converged[1]  # else the cycle starts from zero at once
                assert report.sweeps_per_evaluation[2] == (sweeps + 1 if warm else 1)
            assert all(lo <= 1.0 <= hi for lo, hi in report.bracket_history)
            lo, hi = report.bracket_history[-1]
            assert report.converged == (hi - lo <= 1e-9 * (abs(report.avg_cost) + 1.0))
            if report.converged:
                assert report.avg_cost == 1.0
                assert report.policy[0].values.tolist() == [1.0, 0.0]


class TestAgainstLinearSolve:
    def test_policy_evaluation_matches_direct_solve(self):
        rng = np.random.default_rng(101)
        config = SolverConfig(eval_tol=1e-13, eval_max_sweeps=5000)
        for noisy_cost in [False] * 10 + [True] * 5:
            n = int(rng.integers(3, 31))
            k = int(rng.integers(2, 5))
            mdp = random_mdp(rng, n, k, noisy_cost=noisy_cost)
            problem, grid = as_control_problem(mdp)
            policy_idx = rng.integers(0, k, size=n)
            expected_j, expected_v = evaluate_policy_linear(mdp, policy_idx)
            result = solver.policy_evaluation(
                policy_as_grid_functions(policy_idx, grid), problem, config
            )
            assert result.converged
            assert result.avg_cost == pytest.approx(expected_j, abs=1e-9)
            assert np.max(np.abs(result.value.values - expected_v)) < 1e-8

    def test_warm_start_and_fraction_stop(self):
        mdp = random_mdp(np.random.default_rng(102), 12, 3)
        problem, grid = as_control_problem(mdp)
        policy = policy_as_grid_functions(np.ones(12, dtype=int), grid)
        expected_j, expected_v = evaluate_policy_linear(mdp, np.ones(12, dtype=int))
        config = SolverConfig(eval_tol=1e-13, eval_max_sweeps=5000)
        # from the dense solve's value the first sweep's increment is J everywhere
        warm = solver.policy_evaluation(policy, problem, config, start=grids.GridFunction(grid, expected_v))
        assert warm.converged and warm.sweeps == 1
        assert warm.avg_cost == pytest.approx(expected_j, abs=1e-12)
        assert np.max(np.abs(warm.value.values - expected_v)) < 1e-12
        # a fraction stops at the first sweep whose span is at most that share of the first one's
        cold = solver.policy_evaluation(policy, problem, config)
        loose = solver.policy_evaluation(policy, problem, config, fraction=0.01)
        first = cold.residuals[0]
        assert loose.residuals == cold.residuals[: loose.sweeps] and loose.converged
        assert loose.residuals[-1] <= 0.01 * first < loose.residuals[-2]
        assert loose.span_ratio == loose.residuals[-1] / (0.01 * first)
        elsewhere = grids.GridFunction(grids.build_grid([(0.0, 1.0, 2)]), np.zeros(2))
        with pytest.raises(ValueError, match="share one grid"):
            solver.policy_evaluation(policy, problem, config, start=elsewhere)


@pytest.fixture(scope="module")
def small_mdps():
    rng = np.random.default_rng(202)
    out = []
    for noisy_cost in [False] * 12 + [True] * 6:
        n = int(rng.integers(4, 10))
        k = int(rng.integers(2, 4))
        mdp = random_mdp(rng, n, k, noisy_cost=noisy_cost)
        out.append((mdp, enumerate_optimum(mdp)))
    return out


class TestAgainstEnumeration:
    def _solve_config(self):
        return SolverConfig(eval_tol=1e-12, eval_max_sweeps=4000, max_improvements=60)

    def test_policy_iteration_reaches_the_enumerated_optimum(self, small_mdps):
        for mdp, (best_j, _) in small_mdps:
            problem, grid = as_control_problem(mdp)
            initial = policy_as_grid_functions(np.zeros(mdp.n_states, dtype=int), grid)
            report = solver.policy_iteration(problem, initial, self._solve_config())
            assert report.converged
            assert report.avg_cost == pytest.approx(best_j, abs=1e-9)
            # the returned policy itself must achieve that cost
            returned = report.policy[0].values.astype(int)
            check_j, _ = evaluate_policy_linear(mdp, returned)
            assert check_j == pytest.approx(best_j, abs=1e-9)

    def test_value_iteration_agrees(self, small_mdps):
        for mdp, (best_j, _) in small_mdps:
            problem, grid = as_control_problem(mdp)
            report = solver.value_iteration(problem, grid, self._solve_config())
            assert report.converged
            assert report.avg_cost == pytest.approx(best_j, abs=1e-8)

    def test_improvement_never_worsens_the_average_cost(self, small_mdps, monkeypatch):
        """Up to the span its evaluation stopped at: the exact costs come from the dense solve.

        Greedy for v, the improved policy costs at most max(Tv - v), the bracket's top.  After
        sweeps of policy p that ended with an increment d of span s, the top is at most
        max(P_p d) <= min(d) + s <= J(p) + s.
        """
        evaluations = record_calls(monkeypatch, "policy_evaluation")
        improvements = record_calls(monkeypatch, "policy_improvement")
        for mdp, (best_j, _) in small_mdps:
            evaluations.clear()
            improvements.clear()
            problem, grid = as_control_problem(mdp)
            initial = policy_as_grid_functions(np.zeros(mdp.n_states, dtype=int), grid)
            report = solver.policy_iteration(problem, initial, self._solve_config())
            policies = [initial] + [policy for _, (policy, _) in improvements]
            costs = [evaluate_policy_linear(mdp, p[0].values.astype(int))[0] for p in policies]
            # the final span of the evaluation whose value each improvement was greedy for
            spans = [next(e.residuals[-1] for _, e in evaluations if e.value is args[0]) for args, _ in improvements]
            assert sum(e.sweeps for _, e in evaluations) == sum(report.sweeps_per_evaluation)
            assert len(costs) == len(spans) + 1 == report.improvement_steps + 1
            for earlier, later, span, (lo, hi) in zip(costs, costs[1:], spans, report.bracket_history):
                assert lo - 1e-12 <= later <= hi + 1e-12
                assert hi <= earlier + span + 1e-12
            assert costs[-1] == pytest.approx(best_j, abs=1e-9)

    def test_converged_exactly_when_the_last_bracket_is_tight(self, small_mdps):
        config = self._solve_config()
        for mdp, (best_j, _) in small_mdps:
            problem, grid = as_control_problem(mdp)
            initial = policy_as_grid_functions(np.zeros(mdp.n_states, dtype=int), grid)
            for cap in (1, 2, 60):
                report = solver.policy_iteration(problem, initial, dataclasses.replace(config, max_improvements=cap))
                widths = [hi - lo for lo, hi in report.bracket_history]
                tol = config.eval_tol * (abs(report.avg_cost) + 1.0)
                assert report.converged == (widths[-1] <= tol)
                # no earlier bracket was within its evaluation's tolerance, or the run would have stopped there
                assert all(w > config.eval_tol * (abs(j) + 1.0) for w, j in zip(widths, report.avg_cost_history[:-1]))
                assert all(lo - 1e-12 <= best_j <= hi + 1e-12 for lo, hi in report.bracket_history)
            assert report.converged

    def test_greedy_sweep_of_the_fixed_point_returns_the_same_policy(self, small_mdps):
        mdp, _ = small_mdps[0]
        problem, grid = as_control_problem(mdp)
        initial = policy_as_grid_functions(np.zeros(mdp.n_states, dtype=int), grid)
        report = solver.policy_iteration(problem, initial, self._solve_config())
        _, greedy, _ = solver.bellman_sweep(report.value, problem)
        assert np.array_equal(greedy[0].values, report.policy[0].values)


def shrink_chunks(monkeypatch, problem, grid, nodes):
    """Set solver.CHUNK_POINTS so that each improvement chunk holds ``nodes`` nodes, and check there are several."""
    k = problem.candidate_array(grid.all_nodes[:1]).shape[1]
    noise_n = 1 if problem.controlled_dims else problem.noise.n
    monkeypatch.setattr(solver, "CHUNK_POINTS", nodes * k * noise_n)
    chunks = solver._lookahead(grid, problem, SolverConfig()).chunks
    assert chunks[0] == (0, nodes) and len(chunks) > 1


class TestDeterminism:
    def _run(self, monkeypatch, threads):
        rng = np.random.default_rng(303)
        mdp = random_mdp(rng, 40, 3)
        problem, grid = as_control_problem(mdp)
        shrink_chunks(monkeypatch, problem, grid, 7)
        config = SolverConfig(eval_tol=1e-11, eval_max_sweeps=3000, max_improvements=30, threads=threads)
        initial = policy_as_grid_functions(np.zeros(40, dtype=int), grid)
        evaluations = record_calls(monkeypatch, "policy_evaluation")
        report = solver.policy_iteration(problem, initial, config)
        return report, [e.residuals for _, e in evaluations]

    def test_bit_identical_across_repeats_and_thread_counts(self, monkeypatch):
        first, first_spans = self._run(monkeypatch, 1)
        for threads in (1, 3):
            other, spans = self._run(monkeypatch, threads)
            assert other.avg_cost == first.avg_cost
            assert np.array_equal(other.value.values, first.value.values)
            assert np.array_equal(other.policy[0].values, first.policy[0].values)
            assert spans == first_spans and len(spans) >= first.improvement_steps
            assert other.avg_cost_history == first.avg_cost_history


def count_calls(monkeypatch, name):
    """Wrap ``solver.<name>`` so that each call appends its positional arguments to the returned list."""
    calls, original = [], getattr(solver, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(solver, name, counted)
    return calls


def record_calls(monkeypatch, name):
    """Wrap ``solver.<name>`` so that each call appends (positional arguments, result) to the returned list."""
    calls, original = [], getattr(solver, name)

    def recorded(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, result))
        return result

    monkeypatch.setattr(solver, name, recorded)
    return calls


def random_mdp_case():
    problem, grid = as_control_problem(random_mdp(np.random.default_rng(404), 30, 4))
    return problem, grid, policy_as_grid_functions(np.zeros(30, dtype=int), grid)


class TestOneLookaheadPerSolve:
    """A solve builds the lookahead (P_x and the split check) once and shares it across its sweeps."""

    CASES = {"storage-5x6x6": lambda: storage_split_case(5, 6, 6), "random-mdp": random_mdp_case}
    CONFIG = SolverConfig(eval_max_sweeps=60, max_improvements=4, threads=2)

    def test_each_solve_builds_one_lookahead(self, monkeypatch):
        problem, grid, policy = storage_split_case(5, 6, 6)
        builds = count_calls(monkeypatch, "_lookahead")
        rows = []
        candidates = problem.control_candidates
        problem.control_candidates = lambda states: rows.append(len(states)) or candidates(states)
        report = solver.policy_iteration(problem, policy, self.CONFIG)
        assert report.improvement_steps >= 3 and len(builds) == 1
        assert rows[0] == 36 and 1 not in rows  # K and d come from the plane slice's candidates: no one-row probe
        solver.value_iteration(problem, grid, self.CONFIG)
        assert len(builds) == 2

    def test_standalone_calls_build_one_lookahead_each(self, monkeypatch):
        problem, grid, policy = storage_split_case(5, 6, 6)
        builds = count_calls(monkeypatch, "_lookahead")
        evaluation = solver.policy_evaluation(policy, problem, self.CONFIG)
        assert len(builds) == 1
        solver.policy_improvement(evaluation.value, problem, self.CONFIG)
        assert len(builds) == 2
        solver.bellman_sweep(evaluation.value, problem, self.CONFIG)
        assert len(builds) == 3

    @pytest.mark.parametrize("case", list(CASES))
    def test_policy_iteration_matches_standalone_steps(self, case, monkeypatch):
        """Modified policy iteration, spelled out with standalone calls that each build their own lookahead."""
        problem, grid, policy = self.CASES[case]()
        evaluations = record_calls(monkeypatch, "policy_evaluation")
        report = solver.policy_iteration(problem, policy, self.CONFIG)
        spans = [e.residuals for _, e in evaluations]
        current, evaluation, steps, converged, fraction = policy, None, [], False, solver.STOP_FRACTION
        for _ in range(self.CONFIG.max_improvements):
            start = evaluation.value if evaluation is not None and evaluation.converged else None
            evaluation = solver.policy_evaluation(current, problem, self.CONFIG, start=start, fraction=fraction)
            improved, bracket = solver.policy_improvement(evaluation.value, problem, self.CONFIG)
            change = max(float(np.max(np.abs(n.values - o.values))) for n, o in zip(improved, current))
            steps.append((evaluation.sweeps, evaluation.converged, evaluation.span_ratio, evaluation.avg_cost,
                          evaluation.residuals, bracket, change))
            current = improved
            if bracket[1] - bracket[0] <= self.CONFIG.eval_tol * (abs(evaluation.avg_cost) + 1.0):
                converged = True
                break
            fraction = 0.0 if change == 0.0 else solver.STOP_FRACTION
        assert report.improvement_steps == len(steps) >= 2 and report.converged == converged
        assert report.avg_cost == evaluation.avg_cost
        assert report.value.values.tobytes() == evaluation.value.values.tobytes()
        assert [p.values.tobytes() for p in report.policy] == [p.values.tobytes() for p in current]
        assert report.sweeps_per_evaluation == [s[0] for s in steps]
        assert report.evaluation_converged == [s[1] for s in steps]
        assert report.evaluation_span_ratio == [s[2] for s in steps]
        assert report.avg_cost_history == [s[3] for s in steps]
        assert spans == [s[4] for s in steps]
        assert report.bracket_history == [s[5] for s in steps]
        assert report.policy_change_history == [s[6] for s in steps]

    def test_each_step_calls_the_module_functions_with_config_third(self, monkeypatch):
        evaluations = record_calls(monkeypatch, "policy_evaluation")
        improvements = record_calls(monkeypatch, "policy_improvement")
        seeded = []
        for case in self.CASES.values():  # CONFIG's cap of 60 sweeps cuts off the storage case's evaluations only
            problem, grid, policy = case()
            evaluations.clear()
            improvements.clear()
            report = solver.policy_iteration(problem, policy, self.CONFIG)
            assert len(evaluations) == len(improvements) == report.improvement_steps >= 3
            assert all(args[1] is problem and args[2] is self.CONFIG for args, _ in evaluations + improvements)
            look = evaluations[0][0][3]
            assert all(args[3] is look for args, _ in evaluations + improvements)
            # each improvement sweeps the value its evaluation returned, and each evaluation starts from the
            # last one's value unless that was cut off at the cap; it runs to the tolerance after an
            # improvement that changed no control, else to STOP_FRACTION of its first sweep's span
            assert all(imp[0][0] is ev[1].value for ev, imp in zip(evaluations, improvements))
            assert evaluations[0][0][4:] == (None, solver.STOP_FRACTION)
            for (_, before), (args, _), change in zip(evaluations, evaluations[1:], report.policy_change_history):
                assert args[4] is (before.value if before.converged else None)
                assert args[5] == (0.0 if change == 0.0 else solver.STOP_FRACTION)
                seeded.append(args[4] is not None)
        assert True in seeded and False in seeded


class TestRowOrder:
    """Every sweep visits the swept rows in one order: plane node, then controlled node.

    On the mirror quotient the swept rows are those of the first ceil(n_y / 2) plane nodes, and every
    output table holds each of them at its mirror node too; a table that is not mirror-symmetric
    sweeps all n_y plane nodes.
    """

    def test_both_phases_visit_each_energy_column_whole_in_plane_order(self, monkeypatch):
        self.check(monkeypatch, (5, 6, 6), symmetric=True)

    @pytest.mark.parametrize("shape, symmetric", [((4, 5, 5), True), ((5, 6, 6), False)])
    def test_odd_plane_and_asymmetric_policy(self, monkeypatch, shape, symmetric):
        self.check(monkeypatch, shape, symmetric)

    @staticmethod
    def check(monkeypatch, shape, symmetric):
        problem, grid, policy = storage_split_case(*shape)
        if not symmetric:
            policy = (grids.GridFunction(grid, policy[0].values * (1.0 + 1e-9 * np.arange(grid.size))),)
        shrink_chunks(monkeypatch, problem, grid, 7)
        config = SolverConfig(eval_max_sweeps=5)
        look = solver._lookahead(grid, problem, config, [p.values for p in policy])
        n_e = grid.shape[0]
        n_y = grid.size // n_e
        swept = (n_y + 1) // 2 if symmetric else n_y
        assert look.reps == swept and look.rows == swept * n_e
        expected = grid.all_nodes.reshape(n_e, n_y, 3).swapaxes(0, 1)[:swept].reshape(-1, 3)
        seen, candidates = [], problem.control_candidates
        problem.control_candidates = lambda states: seen.append(states.copy()) or candidates(states)
        evaluation = solver.policy_evaluation(policy, problem, config, look)
        built, seen[:] = np.concatenate(seen), []
        improved, _ = solver.policy_improvement(evaluation.value, problem, config, look)
        assert np.array_equal(built, expected)
        assert np.array_equal(np.concatenate(seen), expected)
        value = evaluation.value.values.reshape(n_e, n_y)
        assert np.array_equal(value, value[:, ::-1]) == symmetric
        control = improved[0].values.reshape(n_e, n_y)
        assert np.array_equal(control, control[:, ::-1]) or not symmetric


class TestValueIterationSweeps:
    """Value iteration is the fold of :func:`solver.bellman_sweep` from a zero value."""

    CASES = {"storage-5x6x6": lambda: storage_split_case(5, 6, 6)[:2], "random-mdp": lambda: random_mdp_case()[:2]}

    @pytest.mark.parametrize("case", list(CASES))
    def test_value_iteration_is_the_fold_of_bellman_sweeps(self, case):
        problem, grid = self.CASES[case]()
        config = SolverConfig(eval_max_sweeps=400)
        report = solver.value_iteration(problem, grid, config)
        assert report.converged == (case == "random-mdp")  # the storage run stops at the cap
        value = grids.GridFunction(grid, np.zeros(grid.size))
        for _ in range(report.sweeps_per_evaluation[0]):
            value, policy, anchor = solver.bellman_sweep(value, problem, config)
        assert value.values.tobytes() == report.value.values.tobytes()
        assert [p.values.tobytes() for p in policy] == [p.values.tobytes() for p in report.policy]
        assert anchor == report.avg_cost

    @pytest.mark.parametrize("case", list(CASES))
    def test_thread_count_does_not_change_a_bit(self, case, monkeypatch):
        problem, grid = self.CASES[case]()
        shrink_chunks(monkeypatch, problem, grid, 7)
        sweep, spans = solver._min_sweep, []

        def spanned(look, values, threads):  # records each sweep's increment span, as the iteration computes it
            raw, policy, bracket = sweep(look, values, threads)
            spans.append(float((raw - values).max() - (raw - values).min()))
            return raw, policy, bracket

        monkeypatch.setattr(solver, "_min_sweep", spanned)
        runs = []
        for threads in (1, 3):
            spans.clear()
            report = solver.value_iteration(problem, grid, SolverConfig(eval_max_sweeps=60, threads=threads))
            assert len(spans) == report.sweeps_per_evaluation[0] and report.avg_cost_history == [report.avg_cost]
            runs.append((report.value.values.tobytes(), report.policy[0].values.tobytes(), report.avg_cost,
                         list(spans), report.bracket_history, report.evaluation_span_ratio, report.converged))
        assert runs[0] == runs[1]


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"eval_tol": 0.0},
        {"eval_max_sweeps": 0},
        {"max_improvements": 0},
        {"eval_tol": -0.1},
        {"threads": 0},
        {"threads": -5},
        {"eval_tol": math.nan},
        {"eval_tol": math.inf},
        {"eval_max_sweeps": 2.5},
        {"max_improvements": 2.0},
        {"threads": 1.5},
        {"max_improvements": True},
        {"threads": True},
    ])
    def test_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    @pytest.mark.parametrize("name", ["eval_max_sweeps", "max_improvements", "threads"])
    def test_numpy_integer_count_is_accepted(self, name):
        assert getattr(SolverConfig(**{name: np.int64(3)}), name) == 3


def split_problem(**overrides):
    """A 3-D problem with controlled_dims=2: (z1, z2) move deterministically, y is AR(1)."""
    grid = grids.build_grid([(0.0, 1.0, 4), (-1.0, 1.0, 5), (-2.0, 2.0, 7)])

    def dynamics(x, u, w):
        z1, z2, y = x[:, 0], x[:, 1], x[:, 2]
        z1_next = np.clip(0.8 * z1 + 0.3 * u[:, 0] + 0.1 * y, 0.0, 1.0)
        z2_next = 0.5 * z2 - 0.4 * z1 + 0.2 * u[:, 0]
        return np.stack([z1_next, z2_next, 0.7 * y + w], axis=1)

    def stage_cost(x, u, w):
        return (x[:, 0] - 0.5) ** 2 + x[:, 1] ** 2 + 0.1 * u[:, 0] ** 2 + 0.3 * x[:, 2] * u[:, 0]

    fields = dict(
        dynamics=dynamics,
        stage_cost=stage_cost,
        control_candidates=fixed_candidates(np.linspace(-0.5, 0.5, 5)[:, None]),
        noise=solver.discretize_noise(0.5, 4),
        controlled_dims=2,
    )
    fields.update(overrides)
    return ControlProblem(**fields), grid


def storage_split_case(n_e, n_omega, n_accel):
    params = storage.StorageParams()
    model = storage.bundled_speed_model()
    problem = storage.build_problem(model, params)
    grid = storage.default_state_grid(model, params, n_e=n_e, n_omega=n_omega, n_accel=n_accel)
    return problem, grid, storage.heuristic_policy_on_grid(grid, params)


def synthetic_split_case():
    problem, grid = split_problem()
    return problem, grid, (grids.GridFunction(grid, np.zeros(grid.size)),)


SPLIT_CASES = {
    "storage-5x6x6": lambda: storage_split_case(5, 6, 6),
    "storage-15x30x30": lambda: storage_split_case(15, 30, 30),
    "synthetic-c2": synthetic_split_case,
}


@pytest.fixture(scope="module", params=list(SPLIT_CASES))
def split_case(request):
    """(factored problem, generic twin, grid, initial policy, evaluation config)."""
    problem, grid, policy = SPLIT_CASES[request.param]()
    assert problem.controlled_dims > 0
    config = SolverConfig(eval_tol=1e-10, eval_max_sweeps=400)
    return problem, dataclasses.replace(problem, controlled_dims=0), grid, policy, config


def assert_close_rel(a, b, rel=1e-12):
    assert np.max(np.abs(a - b)) <= rel * np.max(np.abs(b))


class TestPostDecisionSplit:
    """The factored (controlled_dims > 0) operators against the generic ones."""

    def test_policy_evaluation_matches_the_generic_path(self, split_case):
        problem, generic, _, policy, config = split_case
        fast = solver.policy_evaluation(policy, problem, config)
        slow = solver.policy_evaluation(policy, generic, config)
        assert fast.sweeps == slow.sweeps
        assert fast.converged == slow.converged
        assert fast.avg_cost == pytest.approx(slow.avg_cost, rel=1e-12, abs=0.0)
        assert_close_rel(fast.value.values, slow.value.values)

    def test_bellman_sweep_matches_the_generic_path(self, split_case):
        problem, generic, _, policy, config = split_case
        value = solver.policy_evaluation(policy, generic, config).value
        fast_value, fast_policy, fast_avg = solver.bellman_sweep(value, problem, config)
        slow_value, slow_policy, slow_avg = solver.bellman_sweep(value, generic, config)
        assert fast_value.values[0] == slow_value.values[0] == 0.0
        assert np.array_equal(fast_policy[0].values, slow_policy[0].values)
        assert fast_avg == pytest.approx(slow_avg, rel=1e-12, abs=0.0)
        assert_close_rel(fast_value.values + fast_avg, slow_value.values + slow_avg)

    def test_thread_count_does_not_change_a_bit(self, split_case, monkeypatch):
        problem, _, grid, policy, config = split_case
        shrink_chunks(monkeypatch, problem, grid, 37)
        runs = []
        for threads in (1, 2):
            cfg = dataclasses.replace(config, threads=threads, eval_max_sweeps=50)
            evaluation = solver.policy_evaluation(policy, problem, cfg)
            swept, greedy, avg = solver.bellman_sweep(evaluation.value, problem, cfg)
            runs.append((evaluation.value.values.tobytes(), evaluation.residuals,
                         swept.values.tobytes(), greedy[0].values.tobytes(), avg))
        assert runs[0] == runs[1]

    def test_synthetic_evaluation_converges(self):
        problem, grid, policy = synthetic_split_case()
        config = SolverConfig(eval_tol=1e-10, eval_max_sweeps=400)
        assert solver.policy_evaluation(policy, problem, config).converged

    def test_value_iteration_matches_the_generic_path(self):
        problem, grid = split_problem()
        config = SolverConfig(eval_tol=1e-10, eval_max_sweeps=400)
        fast = solver.value_iteration(problem, grid, config)
        slow = solver.value_iteration(dataclasses.replace(problem, controlled_dims=0), grid, config)
        assert fast.converged and slow.converged
        assert fast.value.values[0] == slow.value.values[0] == 0.0
        assert fast.sweeps_per_evaluation == slow.sweeps_per_evaluation
        assert np.array_equal(fast.policy[0].values, slow.policy[0].values)
        assert fast.avg_cost == pytest.approx(slow.avg_cost, rel=1e-12, abs=0.0)
        assert_close_rel(fast.value.values, slow.value.values)

    @pytest.mark.parametrize("override, callback", [
        ("exogenous-on-control", "dynamics"),
        ("exogenous-on-controlled-state", "dynamics"),
        ("controlled-on-noise", "dynamics"),
        ("cost-on-noise", "stage_cost"),
    ])
    def test_broken_split_is_rejected_naming_the_callback(self, override, callback):
        base, grid = split_problem()

        def dynamics(x, u, w):
            out = base.dynamics(x, u, w)
            if override == "exogenous-on-control":
                out[:, 2] += 0.01 * u[:, 0]
            elif override == "exogenous-on-controlled-state":
                out[:, 2] += 0.01 * x[:, 1]
            elif override == "controlled-on-noise":
                out[:, 1] += 0.01 * w
            return out

        def stage_cost(x, u, w):
            extra = w if override == "cost-on-noise" else 0.0
            return base.stage_cost(x, u, w) + extra

        problem, _ = split_problem(dynamics=dynamics, stage_cost=stage_cost)
        value = grids.GridFunction(grid, np.zeros(grid.size))
        with pytest.raises(ValueError, match=f"^{callback}.*controlled_dims=2"):
            solver.bellman_sweep(value, problem)
        with pytest.raises(ValueError, match=f"^{callback}"):
            solver.policy_evaluation((value,), problem)
        # the generic path assumes nothing and accepts the same problem
        solver.bellman_sweep(value, dataclasses.replace(problem, controlled_dims=0))

    def test_violation_on_a_single_node_is_found(self):
        # slice 0 is clean, so only the all-node check can catch this; node 95 sits in y-major row 93
        base, grid = split_problem()
        for bad in (grid.size - 1, 95):
            at = grids.node_coordinates(grid, bad)

            def dynamics(x, u, w, at=at):
                out = base.dynamics(x, u, w)
                out[np.all(x == at, axis=1), 2] += u[0, 0] + 1.0
                return out

            problem, _ = split_problem(dynamics=dynamics)
            value = grids.GridFunction(grid, np.zeros(grid.size))
            with pytest.raises(ValueError, match=f"node {bad} "):
                solver.bellman_sweep(value, problem)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    @pytest.mark.parametrize("nodes, first", [((12, 134), 134), ((13, 109), 109), ((9, 70), 70)],
                             ids=["far apart", "both late", "both early"])
    def test_the_split_check_names_the_first_violation_in_row_order(self, monkeypatch, threads, nodes, first):
        """The check runs 18 spans of 8 rows here; grid node z * 7 + y sits in y-major row y * 20 + z.

        Node 134 (row 39) fails in span 4 and node 12 (row 101) in span 12; nodes 109 (row 95) and
        13 (row 121) fail in spans 11 and 15, and nodes 70 (row 10) and 9 (row 41) in spans 1 and 5.
        Each time, the first node in row order is not the first in grid order.
        """
        base, grid = split_problem()
        monkeypatch.setattr(solver, "CHUNK_POINTS", 2 * base.candidate_array(grid.all_nodes[:1]).shape[1])
        bad = np.array([grids.node_coordinates(grid, node) for node in nodes])

        def dynamics(x, u, w):
            out = base.dynamics(x, u, w)
            out[(x[:, None, :] == bad).all(axis=2).any(axis=1), 2] += 1.0
            return out

        problem, _ = split_problem(dynamics=dynamics)
        value = grids.GridFunction(grid, np.zeros(grid.size))
        with pytest.raises(ValueError, match=f"^dynamics: the exogenous components .* at grid node {first} "):
            solver.bellman_sweep(value, problem, SolverConfig(threads=threads))

    @pytest.mark.parametrize("controlled_dims", [-1, 3])
    def test_controlled_dims_must_leave_an_exogenous_axis(self, controlled_dims):
        # a negative count fails at construction, one that covers the grid at the first solver call
        with pytest.raises(ValueError, match="controlled_dims"):
            problem, grid = split_problem(controlled_dims=controlled_dims)
            solver.bellman_sweep(grids.GridFunction(grid, np.zeros(grid.size)), problem)


def record_lookaheads(monkeypatch):
    """Wrap ``solver._lookahead`` so that each lookahead it builds is appended to the returned list."""
    built, original = [], solver._lookahead
    monkeypatch.setattr(solver, "_lookahead", lambda *args: built.append(original(*args)) or built[-1])
    return built


QUOTIENT_SHAPES = {"storage-4x6x6": (4, 6, 6), "storage-4x5x5": (4, 5, 5)}  # even plane, odd plane


class TestMirrorQuotient:
    """The storage problem solved on the mirror quotient of its speed plane, against the generic path.

    The generic path (``controlled_dims=0``) sweeps every grid node with every noise node and takes no quotient.
    """

    CONFIG = SolverConfig(eval_tol=1e-11, eval_max_sweeps=3000, max_improvements=10)

    @pytest.fixture(scope="class", params=list(QUOTIENT_SHAPES))
    def case(self, request):
        problem, grid, policy = storage_split_case(*QUOTIENT_SHAPES[request.param])
        return problem, dataclasses.replace(problem, controlled_dims=0), grid, policy

    def test_policy_evaluation_matches_the_generic_path(self, case, monkeypatch):
        problem, generic, grid, policy = case
        looks = record_lookaheads(monkeypatch)
        fast = solver.policy_evaluation(policy, problem, self.CONFIG)
        slow = solver.policy_evaluation(policy, generic, self.CONFIG)
        n_y = grid.size // grid.shape[0]
        assert [look.reps for look in looks] == [(n_y + 1) // 2, 1]
        assert fast.converged and slow.converged
        assert fast.avg_cost == pytest.approx(slow.avg_cost, rel=1e-12, abs=0.0)
        assert_close_rel(fast.value.values, slow.value.values)

    def test_bellman_sweep_matches_the_generic_path(self, case, monkeypatch):
        problem, generic, grid, policy = case
        value = solver.policy_evaluation(policy, problem, self.CONFIG).value
        looks = record_lookaheads(monkeypatch)
        fast_value, fast_policy, fast_avg = solver.bellman_sweep(value, problem, self.CONFIG)
        slow_value, slow_policy, slow_avg = solver.bellman_sweep(value, generic, self.CONFIG)
        assert looks[0].reps == (grid.size // grid.shape[0] + 1) // 2
        assert np.array_equal(fast_policy[0].values, slow_policy[0].values)
        assert fast_avg == pytest.approx(slow_avg, rel=1e-12, abs=0.0)
        assert_close_rel(fast_value.values + fast_avg, slow_value.values + slow_avg)

    def test_policy_iteration_matches_the_generic_path(self, case):
        problem, generic, grid, policy = case
        fast = solver.policy_iteration(problem, policy, self.CONFIG)
        slow = solver.policy_iteration(generic, policy, self.CONFIG)
        assert fast.converged and slow.converged
        assert (fast.plane_nodes_swept, slow.plane_nodes_swept) == ((grid.size // grid.shape[0] + 1) // 2, 1)
        assert fast.improvement_steps == slow.improvement_steps
        assert np.array_equal(fast.policy[0].values, slow.policy[0].values)
        assert fast.avg_cost == pytest.approx(slow.avg_cost, rel=1e-12, abs=0.0)
        assert_close_rel(fast.value.values, slow.value.values)

    def test_an_asymmetric_value_sweeps_the_whole_plane(self, case, monkeypatch):
        problem, generic, grid, policy = case
        value = solver.policy_evaluation(policy, problem, self.CONFIG).value
        value = grids.GridFunction(grid, value.values + 1e-3 * np.ptp(value.values) * np.arange(grid.size) / grid.size)
        looks = record_lookaheads(monkeypatch)
        fast_value, fast_policy, fast_avg = solver.bellman_sweep(value, problem, self.CONFIG)
        slow_value, slow_policy, slow_avg = solver.bellman_sweep(value, generic, self.CONFIG)
        assert looks[0].reps == grid.size // grid.shape[0]
        assert np.array_equal(fast_policy[0].values, slow_policy[0].values)
        assert fast_avg == pytest.approx(slow_avg, rel=1e-12, abs=0.0)
        assert_close_rel(fast_value.values + fast_avg, slow_value.values + slow_avg)

    @pytest.mark.parametrize("broken", ["accel axis", "odd cost", "noise", "near-mirror speed"])
    def test_a_broken_mirror_falls_back_to_the_whole_plane(self, broken):
        params, model = storage.StorageParams(), storage.bundled_speed_model()
        problem, grid, policy = storage_split_case(4, 6, 6)
        if broken == "accel axis":  # lo != -hi
            lo, hi, n = grid.axes[2].lo, grid.axes[2].hi, grid.axes[2].n
            grid = grids.RectGrid(grid.axes[:2] + (grids.Axis(lo, 1.01 * hi, n),))
            policy = storage.heuristic_policy_on_grid(grid, params)
        elif broken == "odd cost":
            problem.stage_cost = lambda x, u, w, cost=problem.stage_cost: cost(x, u, w) + 1e10 * x[:, 1]
        elif broken == "noise":
            problem.noise = DiscreteNoise(problem.noise.nodes + 1e-4, problem.noise.weights)
        else:  # the exogenous successors mirror to rounding only, not to the bit
            problem.dynamics = lambda x, u, w, dynamics=problem.dynamics: dynamics(x, u, w) + [0.0, 1e-15, 0.0]
        n_y = grid.size // grid.shape[0]
        assert solver._lookahead(grid, problem, self.CONFIG).reps == n_y
        fast = solver.policy_iteration(problem, policy, self.CONFIG)
        slow = solver.policy_iteration(dataclasses.replace(problem, controlled_dims=0), policy, self.CONFIG)
        assert fast.plane_nodes_swept == n_y and fast.converged and slow.converged
        assert np.array_equal(fast.policy[0].values, slow.policy[0].values)
        assert fast.avg_cost == pytest.approx(slow.avg_cost, rel=1e-12, abs=0.0)
        assert_close_rel(fast.value.values, slow.value.values)

    @pytest.mark.parametrize("shape", [*QUOTIENT_SHAPES.values(), (4, 5, 7), (2, 30, 30)])
    def test_an_accepted_plane_operator_commutes_with_the_mirror(self, shape):
        """On every grid the quotient accepts, P_x built from ``interpolation_stencil`` alone satisfies R P_x R = P_x."""
        problem, grid, _ = storage_split_case(*shape)
        n_y = grid.size // grid.shape[0]
        assert solver._lookahead(grid, problem, self.CONFIG).reps == (n_y + 1) // 2
        plane, x = grids.RectGrid(grid.axes[1:]), grid.all_nodes[:n_y]  # the plane at the lowest energy node
        u = problem.candidate_array(x)[:, 0]
        p_x = np.zeros((n_y, n_y))
        for wval, wprob in zip(problem.noise.nodes, problem.noise.weights):
            flat, wts = grids.interpolation_stencil(plane, problem.dynamics(x, u, np.full(n_y, wval))[:, 1:])
            np.add.at(p_x, (np.arange(n_y)[:, None], flat), wprob * wts)
        assert np.allclose(p_x.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
        assert np.max(np.abs(p_x - p_x[::-1, ::-1])) <= 1e-12


BLOCK_CASES = {
    "synthetic-c2": synthetic_split_case,  # 7 plane nodes, no mirror: all 7 swept
    "storage-4x5x7": lambda: storage_split_case(4, 5, 7),  # 35 plane nodes, 18 swept on the quotient
}


class TestBlockParallelEvaluation:
    """Evaluation sweeps run on the calling thread; ``threads`` splits only the chunked phases."""

    @pytest.mark.parametrize("case", list(BLOCK_CASES))
    def test_thread_count_does_not_change_a_bit(self, case):
        problem, grid, policy = BLOCK_CASES[case]()
        swept = solver._lookahead(grid, problem, SolverConfig(), [p.values for p in policy]).reps
        assert swept % 3 != 0 or swept % 4 != 0  # thread counts that divide the swept plane nodes unevenly
        runs = []
        for threads in (1, 2, 3, 4, swept + 1):
            config = SolverConfig(eval_tol=1e-10, eval_max_sweeps=300, threads=threads)
            result = solver.policy_evaluation(policy, problem, config)
            assert result.value.values[0] == 0.0  # node 0 anchors
            runs.append((result.avg_cost, result.value.values.tobytes(), result.residuals, result.sweeps,
                         result.converged, result.span_ratio))
        assert all(run == runs[0] for run in runs[1:])

    def test_many_blocks_under_a_short_switch_interval(self, monkeypatch):
        # more threads than cores, switching every microsecond: a lost update changes a bit; 1-row
        # chunks give the operator build 18 spans of 4 rows, for the calling thread and a pool of 7
        problem, grid, policy = storage_split_case(4, 5, 7)
        shrink_chunks(monkeypatch, problem, grid, 1)
        config = SolverConfig(eval_tol=1e-10, eval_max_sweeps=200)
        expected = solver.policy_evaluation(policy, problem, config)
        results = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run = threading.Thread(target=lambda: results.append(
                solver.policy_evaluation(policy, problem, dataclasses.replace(config, threads=8))), daemon=True)
            run.start()
            run.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not run.is_alive() and len(results) == 1
        assert results[0].value.values.tobytes() == expected.value.values.tobytes()
        assert results[0].residuals == expected.residuals

    def test_policy_iteration_agrees_across_thread_counts_and_times_each_step(self, monkeypatch):
        problem, grid, policy = storage_split_case(4, 5, 7)
        evaluations = record_calls(monkeypatch, "policy_evaluation")
        runs = []
        for threads in (1, 3):
            evaluations.clear()
            config = SolverConfig(eval_max_sweeps=200, max_improvements=3, threads=threads)
            report = solver.policy_iteration(problem, policy, config)
            assert len(report.evaluation_seconds) == len(report.improvement_seconds) == report.improvement_steps
            assert all(s > 0.0 for s in report.evaluation_seconds + report.improvement_seconds)
            assert isinstance(report.lookahead_seconds, float) and report.lookahead_seconds > 0.0
            runs.append((report.value.values.tobytes(), report.policy[0].values.tobytes(),
                         [e.residuals for _, e in evaluations], report.avg_cost_history, report.bracket_history,
                         report.policy_change_history, report.evaluation_span_ratio))
        assert runs[0] == runs[1]

    def test_lookahead_build_is_timed_apart_from_the_first_evaluation(self, monkeypatch):
        problem, grid, policy = storage_split_case(4, 5, 7)
        build = solver._lookahead

        def slow_build(*args):
            time.sleep(0.2)
            return build(*args)

        monkeypatch.setattr(solver, "_lookahead", slow_build)
        config = SolverConfig(eval_max_sweeps=5, max_improvements=1)
        for report in (solver.policy_iteration(problem, policy, config), solver.value_iteration(problem, grid, config)):
            assert report.lookahead_seconds >= 0.2 > report.evaluation_seconds[0]

    @pytest.mark.parametrize("failing", ["one block", "every block"])
    def test_divergence_in_a_block_reaches_the_caller(self, failing, monkeypatch):
        """A sweep that raises ends the evaluation, its error reaches the caller, and no thread is left.

        Every sweep covers the swept rows as one block on the calling thread;
        the sweep fails once ("one block"), or at every call from sweep 5 on.
        """
        problem, grid, policy = storage_split_case(4, 5, 7)
        expect = solver._Lookahead.expect
        sweeps = itertools.count(1)

        def fail_at_sweep_5(look, h):
            sweep = next(sweeps)
            if sweep == 5 or (failing == "every block" and sweep > 5):
                raise RuntimeError("sweep 5 failed")
            return expect(look, h)

        monkeypatch.setattr(solver._Lookahead, "expect", fail_at_sweep_5)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="sweep 5 failed"):
            solver.policy_evaluation(policy, problem, SolverConfig(eval_tol=1e-300, threads=3))
        assert threading.active_count() == before

    def test_every_evaluation_sweep_runs_on_the_calling_thread(self, monkeypatch):
        problem, grid, policy = storage_split_case(4, 5, 7)
        expect = solver._Lookahead.expect
        callers = []

        def recording_expect(look, h):
            callers.append(threading.get_ident())
            return expect(look, h)

        monkeypatch.setattr(solver._Lookahead, "expect", recording_expect)
        result = solver.policy_evaluation(policy, problem, SolverConfig(eval_tol=1e-10, eval_max_sweeps=50, threads=3))
        assert result.sweeps > 1
        assert len(callers) == result.sweeps
        assert set(callers) == {threading.get_ident()}

    @pytest.mark.parametrize("threads", [2, 3])
    def test_the_improvement_runs_on_the_calling_thread_and_threads_minus_one_more(self, monkeypatch, threads):
        base, grid = split_problem()
        shrink_chunks(monkeypatch, base, grid, 11)
        callers = []

        def candidates(states):
            callers.append(threading.get_ident())
            time.sleep(0.005)  # so that no thread runs every span before the others take one
            return base.control_candidates(states)

        problem, _ = split_problem(control_candidates=candidates)
        config = SolverConfig(threads=threads)
        look = solver._lookahead(grid, problem, config)
        assert len(look.chunks) > 2 * threads
        callers.clear()
        before = threading.active_count()
        solver.policy_improvement(grids.GridFunction(grid, np.zeros(grid.size)), problem, config, look)
        assert threading.active_count() == before
        assert len(callers) == len(look.chunks)
        assert threading.get_ident() in callers and 2 <= len(set(callers)) <= threads

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_after_a_span_fails_no_thread_takes_another(self, threads):
        # span 2 fails late and span 5 at once: span 2's error is raised, and of the 60 spans the
        # threads run only those they took before the first failure and at most one more each
        calls = []

        def worker(a, b):
            calls.append(a)
            time.sleep(0.06 if a == 2 else 0.01)
            if a in (2, 5):
                raise ValueError(f"span {a}")

        before = threading.active_count()
        with pytest.raises(ValueError, match="^span 2$"):
            solver._run_chunks([(a, a + 1) for a in range(60)], worker, threads)
        assert threading.active_count() == before
        assert set(range(3)) <= set(calls) and len(calls) == len(set(calls)) <= 6 + 2 * threads

    def test_each_span_is_taken_once_under_a_short_switch_interval(self):
        # more threads than cores, switching every microsecond: a span handed out twice or never shows here,
        # where a bit check on an operator would miss a span that two threads both wrote
        calls = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run = threading.Thread(target=solver._run_chunks, daemon=True,
                                   args=([(a, a + 1) for a in range(2000)], lambda a, b: calls.append(a), 8))
            run.start()
            run.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not run.is_alive()
        assert sorted(calls) == list(range(2000))

    @pytest.mark.parametrize("spans", [1, 2, 5])
    def test_a_phase_starts_no_more_pool_threads_than_spans_after_the_first(self, spans):
        # each span sleeps, so every pool thread started by the submits is still alive when one ends
        before, alive = set(threading.enumerate()), []

        def worker(a, b):
            time.sleep(0.05)
            alive.append(len(set(threading.enumerate()) - before))

        solver._run_chunks([(a, a + 1) for a in range(spans)], worker, 16)
        assert len(alive) == spans and max(alive) <= spans - 1
        assert set(threading.enumerate()) <= before

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("sweep", ["policy_evaluation", "policy_improvement", "bellman_sweep"])
    def test_non_finite_successor_names_the_node_while_the_operator_is_built(self, monkeypatch, sweep, threads):
        """The evaluation's operator build and the improvement's minimisation name the grid node, not the row."""
        base, grid = split_problem()
        bad = 2 * 5 * 7 + 3 * 7 + 4  # z = (2, 3), y = 4: node 95 sits in y-major row 4 * 20 + 13 = 93

        def dynamics(x, u, w):
            out = base.dynamics(x, u, w)
            # the middle candidate only: the split check and P_x see the first and last
            out[np.all(x == grids.node_coordinates(grid, bad), axis=1) & (u[:, 0] == 0.0)] = np.nan
            return out

        problem, _ = split_problem(dynamics=dynamics)
        shrink_chunks(monkeypatch, problem, grid, 11)
        value = grids.GridFunction(grid, np.zeros(grid.size))
        coordinates = re.escape(str(grids.node_coordinates(grid, bad)))
        with pytest.raises(ValueError, match=f"^dynamics output is not finite at grid node {bad} {coordinates}"):
            getattr(solver, sweep)((value,) if sweep == "policy_evaluation" else value, problem,
                                   SolverConfig(threads=threads))

    def test_each_extra_thread_adds_at_most_one_chunk_of_traced_memory(self):
        # a chunk's temporaries take about 150 B per (node, candidate) point: about 4.8 MB at 32,768 points.
        # The calling thread and two more run at most three chunks at once, so three threads may peak at most
        # two chunks above one; 65,536-point chunks grew the peak by 14-16 MB on this grid
        allowance = 5e6  # bytes per extra thread
        problem, grid, policy = storage_split_case(10, 30, 30)
        look = solver._lookahead(grid, problem, SolverConfig(), [p.values for p in policy])
        value = solver.policy_evaluation(policy, problem, SolverConfig(eval_max_sweeps=20), look).value
        assert len(look.chunks) == 7  # 4,500 swept rows (450 of 900 plane nodes, 10 energy nodes) of 655
        peaks = {}
        for threads in (1, 3):
            tracemalloc.start()
            try:
                solver.policy_improvement(value, problem, SolverConfig(threads=threads), look)
                peaks[threads] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[3] - peaks[1] <= 2 * allowance, peaks


class TestBracket:
    def test_every_improvement_brackets_the_enumerated_optimum(self, small_mdps):
        config = SolverConfig(eval_tol=1e-12, eval_max_sweeps=4000, max_improvements=60)
        for mdp, (best_j, _) in small_mdps:
            problem, grid = as_control_problem(mdp)
            initial = policy_as_grid_functions(np.zeros(mdp.n_states, dtype=int), grid)
            report = solver.policy_iteration(problem, initial, config)
            assert len(report.bracket_history) == report.improvement_steps
            for lo, hi in report.bracket_history:
                assert lo - 1e-12 <= best_j <= hi + 1e-12
            lo, hi = report.bracket_history[-1]
            assert hi - lo < 1e-9
            assert all(report.evaluation_converged)
            assert all(r <= 1.0 for r in report.evaluation_span_ratio)

    def test_value_iteration_brackets_the_enumerated_optimum(self, small_mdps):
        mdp, (best_j, _) = small_mdps[0]
        problem, grid = as_control_problem(mdp)
        report = solver.value_iteration(problem, grid, SolverConfig(eval_tol=1e-12, eval_max_sweeps=4000))
        [(lo, hi)] = report.bracket_history
        assert lo - 1e-12 <= best_j <= hi + 1e-12

    def test_cut_off_evaluation_is_reported(self):
        problem, grid = make_tabular_problem(TestTwoStateCycle.COSTS)
        stay = (grids.GridFunction(grid, np.array([0.0, 1.0])),)
        config = SolverConfig(eval_max_sweeps=50, max_improvements=8)
        report = solver.policy_iteration(problem, stay, config)
        # "stay put" is multichain: its evaluation cannot converge
        assert report.converged
        assert report.evaluation_converged[0] is False
        assert report.evaluation_span_ratio[0] > 1.0
        assert report.evaluation_converged[-1] is True


class TestSaveReport:
    def test_roundtrip(self, tmp_path):
        problem, grid = make_tabular_problem(TestTwoStateCycle.COSTS)
        report = solver.value_iteration(problem, grid)
        paths = solver.save_report(report, tmp_path)
        assert set(paths) == {"value", "policy_u0", "report"}

        value_back = grids.load_grid_function(paths["value"])
        assert np.array_equal(value_back.values, report.value.values)
        policy_back = grids.load_grid_function(paths["policy_u0"])
        assert np.array_equal(policy_back.values, report.policy[0].values)

        doc = json.loads((tmp_path / "solution_report.json").read_text())
        assert list(doc) == [f.name for f in dataclasses.fields(solver.SolveReport)
                             if f.name not in ("value", "policy")]
        assert doc["avg_cost"] == report.avg_cost
        assert doc["converged"] is True
        assert doc["sweeps_per_evaluation"] == report.sweeps_per_evaluation

        assert doc["evaluation_converged"] == report.evaluation_converged
        assert doc["bracket_history"] == [list(b) for b in report.bracket_history]
        # value iteration times its lookahead build, then every sweep as one evaluation, with no separate improvement
        assert doc["lookahead_seconds"] == report.lookahead_seconds > 0.0
        assert doc["evaluation_seconds"] == report.evaluation_seconds and len(report.evaluation_seconds) == 1
        assert doc["improvement_seconds"] == report.improvement_seconds == [0.0]
        # one entry per improvement step, and value iteration is one step: no list grows with the sweeps
        assert doc["avg_cost_history"] == [report.avg_cost]
        assert all(len(v) <= doc["improvement_steps"] for v in doc.values() if isinstance(v, list))

    def test_a_two_component_control_gives_the_one_component_solve_and_saves_both(self, tmp_path):
        problem, grid, policy = storage_split_case(5, 6, 6)
        candidates = problem.control_candidates

        def widened(states):  # a second component, always zero, that the dynamics and cost never read
            cand = candidates(states)
            return np.concatenate([cand, np.zeros_like(cand)], axis=2)

        wide = dataclasses.replace(problem, control_candidates=widened)
        config = SolverConfig(eval_max_sweeps=200, max_improvements=3)
        narrow_report = solver.policy_iteration(problem, policy, config)
        report = solver.policy_iteration(wide, (*policy, grids.GridFunction(grid, np.zeros(grid.size))), config)
        assert report.avg_cost == narrow_report.avg_cost and report.improvement_steps >= 2
        assert report.policy[0].values.tobytes() == narrow_report.policy[0].values.tobytes()
        assert len(report.policy) == 2 and not report.policy[1].values.any()
        paths = solver.save_report(report, tmp_path)
        assert set(paths) == {"value", "policy_u0", "policy_u1", "report"}
        assert grids.load_grid_function(paths["policy_u1"]).values.tobytes() == report.policy[1].values.tobytes()

    def test_failed_report_write_keeps_the_previous_report(self, tmp_path, monkeypatch):
        problem, grid = make_tabular_problem(TestTwoStateCycle.COSTS)
        report = solver.value_iteration(problem, grid)
        solver.save_report(report, tmp_path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        real_fsync = grids.os.fsync
        calls = {"n": 0}

        def failing_fsync(fd):
            calls["n"] += 1
            if calls["n"] == 5:  # value pair, policy pair, then the report
                raise OSError("simulated crash mid-write")
            real_fsync(fd)

        monkeypatch.setattr(grids.os, "fsync", failing_fsync)
        changed = dataclasses.replace(report, avg_cost=report.avg_cost + 1.0)
        with pytest.raises(OSError, match="simulated"):
            solver.save_report(changed, tmp_path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
