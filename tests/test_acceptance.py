"""Acceptance suite: the nine shipping criteria, one PASS/FAIL line each.

The expensive artifacts (three 10 000-step speed series, the solved
default-grid policy, six closed-loop trajectories) are built once per
module through the command-line interface, exactly as a user would.
"""

import filecmp
import json
import time

import numpy as np
import pytest

from conftest import record_criterion
from mdp_oracles import (
    as_control_problem,
    enumerate_optimum,
    evaluate_policy_linear,
    policy_as_grid_functions,
    random_mdp,
)
from sdpkit import armodel, cli, grids, solver, storage

SEEDS = (1, 2, 3)
SERIES_STEPS = 10_000
SOLVE_FLAGS = ("--max-sweeps", "1500", "--threads", "1")


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def speed_series(workdir):
    paths = []
    for seed in SEEDS:
        path = workdir / f"speed_seed{seed}.csv"
        assert run_cli("generate", "--n", str(SERIES_STEPS), "--seed", str(seed),
                       "--out", str(path)) == 0
        paths.append(path)
    return paths


@pytest.fixture(scope="module")
def solved(workdir):
    out_dir = workdir / "solution"
    assert run_cli("solve", "--out-dir", str(out_dir), *SOLVE_FLAGS) == 0
    return out_dir


@pytest.fixture(scope="module")
def trajectories(workdir, speed_series, solved):
    policy_path = str(solved / "solution_policy_u0.gridfn")
    out = {}
    for which, policy in (("heuristic", "heuristic"), ("optimized", policy_path)):
        for seed, series in zip(SEEDS, speed_series):
            traj_path = workdir / f"traj_{which}_seed{seed}.csv"
            assert run_cli("simulate", "--policy", policy, "--series", str(series),
                           "--out", str(traj_path)) == 0
            out[(which, seed)] = traj_path
    return out


def test_criterion_1_policy_evaluation_matches_linear_solve():
    started = time.perf_counter()
    rng = np.random.default_rng(1001)
    config = solver.SolverConfig(eval_tol=1e-12, eval_max_sweeps=5000)
    worst_j = 0.0
    worst_v = 0.0
    for _ in range(20):
        n = int(rng.integers(3, 101))
        k = int(rng.integers(2, 6))
        mdp = random_mdp(rng, n, k)
        problem, grid = as_control_problem(mdp)
        policy_idx = rng.integers(0, k, size=n)
        expected_j, expected_v = evaluate_policy_linear(mdp, policy_idx)
        result = solver.policy_evaluation(
            policy_as_grid_functions(policy_idx, grid), problem, config
        )
        worst_j = max(worst_j, abs(result.avg_cost - expected_j))
        worst_v = max(worst_v, float(np.max(np.abs(result.value.values - expected_v))))
    elapsed = time.perf_counter() - started
    record_criterion(
        1, "policy evaluation matches the direct linear solve on 20 random MDPs",
        worst_j < 1e-8 and worst_v < 1e-8 and elapsed < 10.0,
        f"max |dJ|={worst_j:.2e}, max |dv|={worst_v:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_optimizers_match_policy_enumeration():
    started = time.perf_counter()
    rng = np.random.default_rng(1002)
    config = solver.SolverConfig(eval_tol=1e-12, eval_max_sweeps=4000, max_improvements=60)
    worst_pi = 0.0
    worst_vi = 0.0
    worst_gap = 0.0
    for _ in range(20):
        n = int(rng.integers(4, 10))
        k = int(rng.integers(2, 4))
        mdp = random_mdp(rng, n, k)
        best_j, _ = enumerate_optimum(mdp)
        problem, grid = as_control_problem(mdp)
        initial = policy_as_grid_functions(np.zeros(n, dtype=int), grid)
        pi = solver.policy_iteration(problem, initial, config)
        vi = solver.value_iteration(problem, grid, config)
        worst_pi = max(worst_pi, abs(pi.avg_cost - best_j))
        worst_vi = max(worst_vi, abs(vi.avg_cost - best_j))
        worst_gap = max(worst_gap, abs(pi.avg_cost - vi.avg_cost))
    elapsed = time.perf_counter() - started
    record_criterion(
        2, "policy/value iteration reach the enumerated optimum on 20 random MDPs",
        worst_pi < 1e-8 and worst_vi < 1e-8 and worst_gap < 1e-10 and elapsed < 30.0,
        f"max |dJ| pi={worst_pi:.2e} vi={worst_vi:.2e}, gap={worst_gap:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_iteration_counts_on_the_coarse_storage_grid():
    started = time.perf_counter()
    model = storage.bundled_speed_model()
    params = storage.StorageParams()
    problem = storage.build_problem(model, params)
    grid = storage.default_state_grid(model, params, n_e=15, n_omega=30, n_accel=30)
    config = solver.SolverConfig(eval_max_sweeps=1500, max_improvements=10)
    report = solver.policy_iteration(
        problem, storage.heuristic_policy_on_grid(grid, params), config
    )
    elapsed = time.perf_counter() - started
    lo, hi = report.bracket_history[-1]
    record_criterion(
        3, "coarse-grid storage solve is certified within 10 improvements x 1500 sweeps",
        report.converged
        and all(report.evaluation_converged)
        and hi - lo <= config.eval_tol * (abs(report.avg_cost) + 1.0)
        and report.improvement_steps <= 10
        and max(report.sweeps_per_evaluation) <= 1500
        and elapsed < 300.0,
        f"{report.improvement_steps} improvements, sweeps {report.sweeps_per_evaluation}, "
        f"J={report.avg_cost:.4e}, bracket width {(hi - lo) / abs(report.avg_cost):.2e} of J, {elapsed:.0f}s",
    )


def test_criterion_4_smoothing_beats_the_heuristic(workdir, speed_series, solved):
    cmp_path = workdir / "comparison.json"
    policy_path = str(solved / "solution_policy_u0.gridfn")
    code = run_cli("compare", "--policy", policy_path,
                   "--series", *[str(s) for s in speed_series],
                   "--out", str(cmp_path))
    assert code == 0
    doc = json.loads(cmp_path.read_text())
    reductions = [s["reduction_vs_heuristic_pct"] for s in doc["series"]]
    record_criterion(
        4, "optimized policy cuts injected-power std vs the proportional rule",
        all(r >= 10.0 for r in reductions) and doc["mean_reduction_pct"] >= 15.0,
        "per-series " + "/".join(f"{r:.1f}%" for r in reductions)
        + f", mean {doc['mean_reduction_pct']:.1f}%",
    )


def test_criterion_5_ar_fitting_self_consistency():
    started = time.perf_counter()
    target = (1.9799, -0.9879)
    acf = armodel.theoretical_acf(target, max_lag=150)
    fitted, criterion_value = armodel.fit_multilag(acf, p=2, lag_count=150)
    multilag_err = max(abs(a - b) for a, b in zip(fitted, target))

    model = armodel.ARModel(target, 0.00347, 0.1)
    sample = armodel.simulate(model, n=100_000, seed=4242)
    cls_fit = armodel.fit_cls(sample, p=2, dt=0.1)
    cls_err = max(abs(a - b) for a, b in zip(cls_fit.phi, target))
    elapsed = time.perf_counter() - started
    record_criterion(
        5, "acf matching recovers the bundled coefficients (exact and sampled)",
        multilag_err < 1e-6 and criterion_value < 1e-12 and cls_err < 0.02
        and elapsed < 30.0,
        f"multilag err={multilag_err:.1e} crit={criterion_value:.1e}, "
        f"cls err={cls_err:.1e}, {elapsed:.1f}s",
    )


def test_criterion_6_stationary_moments_match_simulation():
    started = time.perf_counter()
    model = storage.bundled_speed_model()
    std_x, std_diff = armodel.stationary_moments(model)
    x = armodel.simulate(model, n=1_000_000, seed=77)
    var_err = abs(np.var(x) / std_x**2 - 1.0)
    diff = np.diff(x) / model.dt
    diff_err = abs(np.var(diff) / std_diff**2 - 1.0)
    elapsed = time.perf_counter() - started
    record_criterion(
        6, "closed-form stationary variances match a one-million-sample run",
        var_err < 0.05 and diff_err < 0.05 and elapsed < 10.0,
        f"var err={var_err:.3f}, diff var err={diff_err:.3f}, {elapsed:.1f}s",
    )


def test_criterion_7_interpolation_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(1007)
    nodes_exact = True
    affine_worst = 0.0
    for dim in (1, 2, 3, 4):
        specs = [(rng.uniform(-5, 0), rng.uniform(1, 6), int(rng.integers(2, 7)))
                 for _ in range(dim)]
        grid = grids.build_grid(specs)
        values = rng.normal(size=grid.size)
        gf = grids.GridFunction(grid, values)
        nodes_exact &= bool(np.array_equal(grids.interpolate(gf, grid.all_nodes), values))

        coeffs = rng.uniform(-1, 1, size=dim)
        const = rng.uniform(-1, 1)
        affine = grids.GridFunction(grid, const + grid.all_nodes @ coeffs)
        lo, hi = np.array([ax.lo for ax in grid.axes]), np.array([ax.hi for ax in grid.axes])
        pts = rng.uniform(lo, hi, size=(1000, dim))
        err = np.abs(grids.interpolate(affine, pts) - (const + pts @ coeffs))
        affine_worst = max(affine_worst, float(err.max()))

    hull_grid = grids.build_grid([(-2.0, 3.0, 9), (0.0, 7.0, 8), (-1.0, 1.0, 7)])
    hull_fn = grids.GridFunction(hull_grid, rng.normal(size=hull_grid.size))
    lo, hi = np.array([ax.lo for ax in hull_grid.axes]), np.array([ax.hi for ax in hull_grid.axes])
    span = hi - lo
    pts = rng.uniform(lo - 0.2 * span, hi + 0.2 * span,
                      size=(100_000, 3))
    out = grids.interpolate(hull_fn, pts)
    flat, _ = grids.interpolation_stencil(hull_grid, pts)
    corners = hull_fn.values[flat]
    hull_ok = bool(np.all(out >= corners.min(axis=1)) and np.all(out <= corners.max(axis=1)))
    elapsed = time.perf_counter() - started
    record_criterion(
        7, "interpolation reproduces nodes exactly, planes to 1e-12, hull always",
        nodes_exact and affine_worst <= 1e-12 and hull_ok and elapsed < 10.0,
        f"affine max err={affine_worst:.1e}, hull violations=0, {elapsed:.1f}s",
    )


def test_criterion_8_trajectory_invariants(trajectories):
    params = storage.StorageParams()
    failures = []
    for key, path in trajectories.items():
        traj = storage.load_trajectory(path)
        energy = traj.energy_path()
        if not np.array_equal(traj.p_grid, traj.p_prod - traj.p_sto):
            failures.append(f"{key}: power balance broke")
        if not np.array_equal(energy[1:], traj.e_sto + traj.p_sto * traj.dt):
            failures.append(f"{key}: energy recursion broke")
        if energy.min() < 0.0 or energy.max() > params.e_rated:
            failures.append(f"{key}: capacity bound broke")
        m = storage.metrics(traj)
        moment_gap = abs(
            (m.std_p_grid**2 + m.mean_p_grid**2) / m.quadratic_cost - 1.0
        )
        if moment_gap > 1e-9:
            failures.append(f"{key}: moment identity off by {moment_gap:.1e}")
    record_criterion(
        8, "all acceptance trajectories keep the exact bookkeeping invariants",
        not failures,
        "; ".join(failures) if failures else f"{len(trajectories)} trajectories, all exact",
    )


def test_criterion_9_pipeline_determinism(workdir, speed_series, solved, trajectories):
    rerun = workdir / "rerun"
    rerun.mkdir()

    series_match = True
    for seed, original in zip(SEEDS, speed_series):
        again = rerun / f"speed_seed{seed}.csv"
        assert run_cli("generate", "--n", str(SERIES_STEPS), "--seed", str(seed),
                       "--out", str(again)) == 0
        series_match &= filecmp.cmp(original, again, shallow=False)

    solve_dir = rerun / "solution"
    flags = list(SOLVE_FLAGS)
    flags[flags.index("--threads") + 1] = "2"
    assert run_cli("solve", "--out-dir", str(solve_dir), *flags) == 0
    solve_match = all(
        filecmp.cmp(solved / name, solve_dir / name, shallow=False)
        for name in (
            "solution_policy_u0.gridfn", "solution_policy_u0.gridfn.bin",
            "solution_value.gridfn", "solution_value.gridfn.bin",
            "policy_slices.csv",
        )
    )

    traj_again = rerun / "traj_optimized_seed1.csv"
    assert run_cli("simulate", "--policy", str(solve_dir / "solution_policy_u0.gridfn"),
                   "--series", str(speed_series[0]), "--out", str(traj_again)) == 0
    traj_match = filecmp.cmp(trajectories[("optimized", 1)], traj_again, shallow=False)

    record_criterion(
        9, "identical seeds reproduce every artifact byte-for-byte across thread counts",
        series_match and solve_match and traj_match,
        f"series={series_match}, solve(threads=2)={solve_match}, trajectory={traj_match}",
    )
