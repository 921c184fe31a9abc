"""Storage-smoothing tests: closed forms, exact invariants, CSV round trips."""

import math
import threading
import warnings

import numpy as np
import pytest

from sdpkit import armodel, grids, solver, storage
from sdpkit.storage import StorageParams


PARAMS = StorageParams()


class TestParams:
    def test_defaults(self):
        assert PARAMS.e_rated == 10e6
        assert PARAMS.p_max == 1.1e6
        assert PARAMS.dt == 0.1
        assert PARAMS.beta == 4.4e6
        # production levels off at p_max from 0.5 rad/s, and not one ulp below
        assert storage.pto_power(0.5, PARAMS) == PARAMS.p_max > storage.pto_power(math.nextafter(0.5, 0.0), PARAMS)

    @pytest.mark.parametrize("kwargs", [
        {"e_rated": 0.0},
        {"p_max": -1.0},
        {"dt": 0.0},
        {"beta": math.nan},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            StorageParams(**kwargs)

    def test_bundled_model(self):
        model = storage.bundled_speed_model()
        assert model.phi == (1.9799, -0.9879)
        assert model.sigma_eps == 0.00347
        assert model.dt == 0.1
        assert armodel.is_stationary(model.phi)


class TestPtoPower:
    def test_torque_law_below_leveling(self):
        assert storage.pto_power(0.3, PARAMS) == 4.4e6 * 0.09
        assert storage.pto_power(0.0, PARAMS) == 0.0

    def test_levels_off_at_p_max(self):
        assert storage.pto_power(0.5, PARAMS) == PARAMS.p_max
        assert storage.pto_power(0.8, PARAMS) == PARAMS.p_max
        assert storage.pto_power(100.0, PARAMS) == PARAMS.p_max

    def test_even_in_speed(self):
        omega = np.linspace(-1.0, 1.0, 41)
        assert np.array_equal(storage.pto_power(omega, PARAMS),
                              storage.pto_power(-omega, PARAMS))

    def test_vectorised(self):
        out = storage.pto_power(np.array([0.0, 0.3, 0.7]), PARAMS)
        assert out.tolist() == [0.0, 4.4e6 * 0.09, 1.1e6]


class TestHeuristicPolicy:
    def test_endpoints_and_midpoint(self):
        assert storage.heuristic_policy(0.0, PARAMS) == 0.0
        assert storage.heuristic_policy(PARAMS.e_rated, PARAMS) == PARAMS.p_max
        assert storage.heuristic_policy(5e6, PARAMS) == pytest.approx(0.55e6, rel=1e-15)

    def test_always_feasible(self):
        rng = np.random.default_rng(1)
        e = rng.uniform(0.0, PARAMS.e_rated, 500)
        omega = rng.uniform(-1.0, 1.0, 500)
        u = storage.heuristic_policy(e, PARAMS)
        lo, hi = storage.feasible_interval(e, omega, PARAMS)
        assert np.all(u >= lo) and np.all(u <= hi)


class TestFeasibleInterval:
    def test_closed_form(self):
        lo, hi = storage.feasible_interval(2e6, 0.3, PARAMS)
        p = 4.4e6 * 0.09
        assert lo == p - 8e6 / 0.1
        assert hi == p + 2e6 / 0.1

    def test_empty_store_cannot_discharge(self):
        lo, hi = storage.feasible_interval(0.0, 0.3, PARAMS)
        assert hi == storage.pto_power(0.3, PARAMS)  # at most pass production through

    def test_full_store_cannot_charge(self):
        lo, hi = storage.feasible_interval(PARAMS.e_rated, 0.3, PARAMS)
        assert lo == storage.pto_power(0.3, PARAMS)


class TestDefaultGrid:
    def test_shape_and_bounds(self):
        model = storage.bundled_speed_model()
        grid = storage.default_state_grid(model, PARAMS)
        assert grid.shape == (30, 60, 60)
        assert grid.axes[0].lo == 0.0
        assert grid.axes[0].hi == PARAMS.e_rated
        std_omega, std_accel = armodel.stationary_moments(model)
        assert grid.axes[1].hi == pytest.approx(4 * std_omega, rel=1e-14)
        assert grid.axes[1].lo == -grid.axes[1].hi
        assert grid.axes[2].hi == pytest.approx(4 * std_accel, rel=1e-14)
        assert grid.axes[2].hi == pytest.approx(0.8958532885220539, rel=1e-13)

    def test_heuristic_seed_matches_rule(self):
        model = storage.bundled_speed_model()
        grid = storage.default_state_grid(model, PARAMS, 5, 4, 4)
        (seed,) = storage.heuristic_policy_on_grid(grid, PARAMS)
        expected = storage.heuristic_policy(grid.all_nodes[:, 0], PARAMS)
        assert np.array_equal(seed.values, expected)

    def test_a_default_solve_builds_no_whole_grid_node_table(self):
        # the seed, the lookahead and the sweeps read node coordinates per chunk: a (108,000, 3) table is 2.6 MB
        grid = storage.default_state_grid(storage.bundled_speed_model(), PARAMS)
        assert grid.shape == (30, 60, 60)
        seed = storage.heuristic_policy_on_grid(grid, PARAMS)
        problem = storage.build_problem(storage.bundled_speed_model(), PARAMS)
        report = solver.policy_iteration(problem, seed, solver.SolverConfig(eval_max_sweeps=3, max_improvements=1,
                                                                            threads=2))
        assert report.improvement_steps == 1 and report.plane_nodes_swept == 1800
        assert "all_nodes" not in grid.__dict__


class TestBuildProblem:
    def test_rejects_mismatched_inputs(self):
        with pytest.raises(ValueError):
            storage.build_problem(armodel.ARModel((0.5,), 1.0, 0.1), PARAMS)
        with pytest.raises(ValueError):
            storage.build_problem(armodel.ARModel((0.5, 0.2), 1.0, 0.2), PARAMS)
        with pytest.raises(ValueError):
            storage.build_problem(storage.bundled_speed_model(), PARAMS, n_controls=1)

    @pytest.mark.parametrize("rel, accepted", [(5e-10, True), (-5e-10, True), (2e-9, False), (-2e-9, False)])
    def test_model_timestep_tolerance(self, rel, accepted):
        model = armodel.ARModel((1.9799, -0.9879), 0.00347, PARAMS.dt * (1.0 + rel))
        if accepted:
            storage.build_problem(model, PARAMS)
        else:
            with pytest.raises(ValueError, match="model timestep .* != storage timestep 0.1"):
                storage.build_problem(model, PARAMS)

    def test_empty_store_at_standstill_has_one_candidate(self):
        problem = storage.build_problem(storage.bundled_speed_model(), PARAMS)
        cand = problem.control_candidates(np.array([[0.0, 0.0, 0.0]]))
        assert cand.shape == (1, 50, 1)
        assert np.all(cand == 0.0)

    def test_candidates_respect_feasibility(self):
        problem = storage.build_problem(storage.bundled_speed_model(), PARAMS)
        rng = np.random.default_rng(3)
        states = np.column_stack([
            rng.uniform(0, PARAMS.e_rated, 50),
            rng.uniform(-1, 1, 50),
            rng.normal(size=50),
        ])
        cands = problem.control_candidates(states)[:, :, 0]
        lo, hi = storage.feasible_interval(states[:, 0], states[:, 1], PARAMS)
        assert np.all(cands >= lo[:, None]) and np.all(cands <= hi[:, None])
        assert np.all(np.diff(cands, axis=1) >= 0)  # sorted

    def test_batch_candidates_agree_with_per_state(self):
        # independent expression: the uniform levels clipped to each state's interval
        problem = storage.build_problem(storage.bundled_speed_model(), PARAMS, n_controls=30)
        rng = np.random.default_rng(4)
        states = np.column_stack([
            # half the stores nearly empty, so the top levels get clipped
            np.concatenate([rng.uniform(0, PARAMS.e_rated, 10), rng.uniform(0, PARAMS.p_max * PARAMS.dt, 10)]),
            rng.uniform(-1, 1, 20),
            rng.normal(size=20),
        ])
        batch = problem.control_candidates(states)
        assert batch.shape == (20, 30, 1)
        assert np.any(batch[:, -1, 0] < PARAMS.p_max)
        levels = np.linspace(0.0, PARAMS.p_max, 30)
        for i in range(20):
            lo, hi = storage.feasible_interval(states[i, 0], states[i, 1], PARAMS)
            assert np.array_equal(batch[i, :, 0], np.clip(levels, lo, hi))

    def test_dynamics_keeps_energy_in_bounds(self):
        problem = storage.build_problem(storage.bundled_speed_model(), PARAMS)
        rng = np.random.default_rng(5)
        states = np.column_stack([
            rng.uniform(0, PARAMS.e_rated, 200),
            rng.uniform(-1, 1, 200),
            rng.normal(0, 0.5, 200),
        ])
        cands = problem.candidate_array(states)
        u = cands[np.arange(200), rng.integers(0, cands.shape[1], 200)]
        for w in problem.noise.nodes:
            nxt = problem.dynamics(states, u, np.full(200, w))
            assert np.all(nxt[:, 0] >= 0.0)
            assert np.all(nxt[:, 0] <= PARAMS.e_rated)

    def test_dynamics_matches_state_space_recursion(self):
        model = storage.bundled_speed_model()
        problem = storage.build_problem(model, PARAMS)
        t = armodel.to_state_space(model)
        g = (1.0, 1.0 / model.dt)
        state = np.array([[4e6, 0.2, -0.1]])
        u = np.array([[3e5]])
        w = np.array([0.001])
        nxt = problem.dynamics(state, u, w)
        om = t[0, 0] * 0.2 + t[0, 1] * -0.1 + g[0] * 0.001
        ac = t[1, 0] * 0.2 + t[1, 1] * -0.1 + g[1] * 0.001
        assert nxt[0, 1] == pytest.approx(om, rel=1e-15)
        assert nxt[0, 2] == pytest.approx(ac, rel=1e-15)
        expected_e = 4e6 + (storage.pto_power(0.2, PARAMS) - 3e5) * 0.1
        assert nxt[0, 0] == pytest.approx(expected_e, rel=1e-15)

    def test_stage_cost_is_quadratic_in_the_injection(self):
        problem = storage.build_problem(storage.bundled_speed_model(), PARAMS)
        x = np.zeros((3, 3))
        u = np.array([[0.0], [2.0], [-3.0]])
        assert problem.stage_cost(x, u, np.zeros(3)).tolist() == [0.0, 4.0, 9.0]

    def test_noise_matches_model_innovation(self):
        model = storage.bundled_speed_model()
        problem = storage.build_problem(model, PARAMS, n_noise=5)
        expected = solver.discretize_noise(model.sigma_eps, 5)
        assert np.array_equal(problem.noise.nodes, expected.nodes)


def speed_fixture(n=2000, seed=5):
    return armodel.simulate(storage.bundled_speed_model(), n=n, seed=seed)


def constant_policy(value):
    """A closed-loop policy that requests ``value`` at every step."""
    return lambda omega, accel: lambda k, e_sto: value


class TestSimulateTrajectory:
    def test_exact_bookkeeping_invariants(self):
        traj = storage.simulate_trajectory(
            storage.heuristic_policy_fn(PARAMS), speed_fixture(), PARAMS, e0=5e6
        )
        energy = traj.energy_path()
        assert energy.size == traj.t.size + 1
        # the three accounting identities hold to the bit, not to a tolerance
        assert np.array_equal(energy[1:], traj.e_sto + traj.p_sto * PARAMS.dt)
        assert np.array_equal(traj.p_grid, traj.p_prod - traj.p_sto)
        assert np.all(energy >= 0.0) and np.all(energy <= PARAMS.e_rated)
        assert traj.accel[0] == 0.0
        assert np.array_equal(traj.accel[1:], np.diff(traj.omega) / PARAMS.dt)
        assert np.array_equal(traj.p_prod, storage.pto_power(traj.omega, PARAMS))

    def test_greedy_drain_is_clamped_and_exact(self):
        traj = storage.simulate_trajectory(
            constant_policy(1e12), speed_fixture(300, 7), PARAMS, e0=8e6
        )
        energy = traj.energy_path()
        assert np.array_equal(energy[1:], traj.e_sto + traj.p_sto * PARAMS.dt)
        assert np.all(energy >= 0.0)
        assert energy[-1] < 1.0  # drained to (numerically) empty
        assert np.array_equal(traj.p_grid, traj.p_prod - traj.p_sto)

    def test_greedy_charge_pins_at_rated(self):
        traj = storage.simulate_trajectory(
            constant_policy(-1e12), speed_fixture(300, 8), PARAMS, e0=5e6
        )
        energy = traj.energy_path()
        assert np.all(energy <= PARAMS.e_rated)
        assert energy[-1] > PARAMS.e_rated - 1.0

    @pytest.mark.parametrize("e0", [7577288.453082914, 4069478.0063930615])
    def test_rounding_past_empty_is_undone_one_ulp_at_a_time(self, e0):
        # at zero speed a full drain requests p_sto = -e0/dt, which rounds the store below zero
        dt = PARAMS.dt
        assert e0 + (-e0 / dt) * dt < 0.0
        traj = storage.simulate_trajectory(constant_policy(math.inf), np.zeros(1), PARAMS, e0)
        assert traj.p_sto[0] == math.nextafter(-e0 / dt, 0.0)
        energy = traj.energy_path()
        assert np.all(energy >= 0.0) and np.all(energy <= PARAMS.e_rated)
        assert np.array_equal(energy[1:], traj.e_sto + traj.p_sto * dt)
        assert np.array_equal(traj.p_grid, traj.p_prod - traj.p_sto)

    def test_zero_speed_with_proportional_rule_drains_geometrically(self):
        traj = storage.simulate_trajectory(
            storage.heuristic_policy_fn(PARAMS), np.zeros(50), PARAMS, e0=1e6
        )
        # production is zero, so e' = e (1 - dt p_max / e_rated) each step
        factor = 1.0 - PARAMS.dt * PARAMS.p_max / PARAMS.e_rated
        expected = 1e6 * factor ** np.arange(51)
        assert np.allclose(traj.energy_path(), expected, rtol=1e-12, atol=0)
        assert np.all(traj.p_grid > 0.0)   # the store alone feeds the grid
        assert np.all(traj.p_sto < 0.0)    # so it is discharging throughout

    def test_grid_sampled_heuristic_matches_the_rule(self):
        model = storage.bundled_speed_model()
        grid = storage.default_state_grid(model, PARAMS, 12, 8, 8)
        (seed,) = storage.heuristic_policy_on_grid(grid, PARAMS)
        speed = speed_fixture(500, 9)
        a = storage.simulate_trajectory(storage.grid_policy_fn(seed), speed, PARAMS, 5e6)
        b = storage.simulate_trajectory(storage.heuristic_policy_fn(PARAMS), speed, PARAMS, 5e6)
        # the rule is linear in energy, so interpolating its node samples
        # reproduces it up to rounding in the weights
        assert np.allclose(a.p_grid, b.p_grid, rtol=0, atol=1e-3)
        assert np.allclose(a.energy_path(), b.energy_path(), rtol=0, atol=1.0)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            storage.simulate_trajectory(constant_policy(0.0), np.array([]), PARAMS, 5e6)
        with pytest.raises(ValueError):
            storage.simulate_trajectory(constant_policy(0.0), np.array([0.1, np.nan]), PARAMS, 5e6)
        with pytest.raises(ValueError):
            storage.simulate_trajectory(constant_policy(0.0), np.zeros(3), PARAMS, -1.0)
        with pytest.raises(ValueError):
            storage.simulate_trajectory(constant_policy(0.0), np.zeros(3), PARAMS, 2e7)

    @pytest.mark.parametrize("bad_step", [0, 2])
    def test_a_nan_request_is_an_error_naming_its_step(self, bad_step):
        law = lambda omega, accel: lambda k, e_sto: math.nan if k == bad_step else 0.0  # noqa: E731
        errors = []

        def run():
            try:
                storage.simulate_trajectory(law, np.zeros(3), PARAMS, 5e6)
            except ValueError as exc:
                errors.append(str(exc))

        # a nan that reached the ulp correction would spin there for good
        worker = threading.Thread(target=run, daemon=True)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
        assert errors == [f"the policy requested nan at step {bad_step}"]

    def test_grid_policy_fn_requires_three_axes(self):
        g = grids.build_grid([(0, 1, 2)])
        with pytest.raises(ValueError):
            storage.grid_policy_fn(grids.GridFunction(g, np.zeros(2)))


class TestMetrics:
    def test_moment_identities(self):
        traj = storage.simulate_trajectory(
            storage.heuristic_policy_fn(PARAMS), speed_fixture(800, 11), PARAMS, 5e6
        )
        m = storage.metrics(traj)
        assert m.quadratic_cost == pytest.approx(float(np.mean(traj.p_grid**2)), rel=1e-15)
        assert m.std_p_grid**2 + m.mean_p_grid**2 == pytest.approx(m.quadratic_cost, rel=1e-12)
        energy = traj.energy_path()
        assert m.e_sto_min == energy.min()
        assert m.e_sto_max == energy.max()

    def test_constant_injection_has_zero_std(self):
        # constant speed, empty store: everything passes straight through
        traj = storage.simulate_trajectory(
            constant_policy(1e12), np.full(40, 0.3), PARAMS, e0=0.0
        )
        m = storage.metrics(traj)
        assert m.std_p_grid == 0.0
        assert m.mean_p_grid == storage.pto_power(0.3, PARAMS)
        assert m.e_sto_min == 0.0 and m.e_sto_max == 0.0


class TestCsvRoundTrips:
    @pytest.mark.parametrize("shape", [(0, 3), (1, 1), (6, 7)])
    def test_write_csv_matches_savetxt_bytes(self, tmp_path, shape):
        rng = np.random.default_rng(23)
        block = rng.normal(0.0, 1e6, size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
        special = [np.nan, -0.0, np.inf, -np.inf, 5e-324, 0.1]
        block.flat[: len(special)] = special[: block.size]
        ours = tmp_path / "ours.csv"
        reference = tmp_path / "reference.csv"
        storage.write_csv(ours, block, "a,b")
        np.savetxt(reference, block, fmt="%.17g", delimiter=",", header="a,b", comments="")
        assert ours.read_bytes() == reference.read_bytes()

    def test_series_roundtrip_bit_exact(self, tmp_path):
        omega = speed_fixture(100, 13)
        t = np.arange(100) * PARAMS.dt
        path = tmp_path / "series.csv"
        storage.save_series(path, t, omega)
        legacy = tmp_path / "legacy.csv"  # as older versions wrote it, with a production column
        storage.write_csv(legacy, np.column_stack([t, omega, storage.pto_power(omega, PARAMS)]), "t,omega,p_prod")
        for saved in (path, legacy):
            t2, om2 = storage.load_series(saved)
            assert np.array_equal(t2, t)
            assert np.array_equal(om2, omega)

    def test_series_without_production_column(self, tmp_path):
        path = tmp_path / "series.csv"
        storage.save_series(path, [0.0, 0.1], [0.2, 0.3])
        assert path.read_text() == "t,omega\n0,0.20000000000000001\n0.10000000000000001,0.29999999999999999\n"
        _, omega = storage.load_series(path)
        assert omega.tolist() == [0.2, 0.3]

    def test_series_rejects_mismatched_lengths(self, tmp_path):
        with pytest.raises(ValueError):
            storage.save_series(tmp_path / "bad.csv", [0.0, 0.1], [0.2])

    def test_series_rejects_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,speed\n0.0,1.0\n")
        with pytest.raises(ValueError, match="omega"):
            storage.load_series(path)

    def test_trajectory_roundtrip_bit_exact(self, tmp_path):
        traj = storage.simulate_trajectory(
            storage.heuristic_policy_fn(PARAMS), speed_fixture(60, 17), PARAMS, 5e6
        )
        path = tmp_path / "traj.csv"
        storage.save_trajectory(traj, path)
        back = storage.load_trajectory(path)
        for name in storage.TRAJECTORY_COLUMNS:
            assert np.array_equal(getattr(back, name), getattr(traj, name)), name
        assert back.e_final == traj.e_final
        assert back.dt == traj.dt

    def test_trajectory_file_has_final_energy_row(self, tmp_path):
        traj = storage.simulate_trajectory(
            storage.heuristic_policy_fn(PARAMS), speed_fixture(5, 19), PARAMS, 5e6
        )
        path = tmp_path / "traj.csv"
        storage.save_trajectory(traj, path)
        last = path.read_text().strip().splitlines()[-1].split(",")
        assert float(last[0]) == pytest.approx(5 * PARAMS.dt, rel=1e-15)
        assert math.isnan(float(last[1]))
        assert float(last[-1]) == traj.e_final

    def test_trajectory_rejects_truncated_file(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text(",".join(storage.TRAJECTORY_COLUMNS) + "\n" + ",".join(["0.0"] * 7) + "\n")
        with pytest.raises(ValueError, match="at least one step"):
            storage.load_trajectory(path)

    @pytest.mark.parametrize("load", [storage.load_series, storage.load_trajectory], ids=["series", "trajectory"])
    def test_header_only_file_has_no_data_rows(self, tmp_path, load):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(storage.TRAJECTORY_COLUMNS) + "\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="has no data rows"):
                load(path)
