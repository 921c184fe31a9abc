"""The closed-loop simulator against a one-point-per-step oracle.

``oracle_trajectory`` is the simulator as it was before the batch (omega,
accel) pass: one general 3-D ``grids.interpolate`` call per step, then the
same feasibility clamp and ulp correction.  The fast path must agree with
it to well under a milliwatt, keep every request inside its 8-corner
range, and leave the heuristic's trajectories bit-for-bit unchanged.
"""

import math

import numpy as np
import pytest

from sdpkit import armodel, grids, storage
from sdpkit.storage import StorageParams

PARAMS = StorageParams()
MODEL = storage.bundled_speed_model()
SEEDS = (1, 2, 3)


def oracle_trajectory(rule, speed, params, e0):
    """Per-step loop; ``rule(e_sto, omega, accel)`` is the requested injection."""
    omega = np.ascontiguousarray(speed, dtype=np.float64).reshape(-1)
    n = omega.size
    dt = params.dt
    accel = np.empty(n)
    accel[0] = 0.0
    np.divide(np.diff(omega), dt, out=accel[1:])
    p_prod = storage.pto_power(omega, params)
    p_grid = np.empty(n)
    p_sto = np.empty(n)
    e_path = np.empty(n + 1)
    e = float(e0)
    for k in range(n):
        e_path[k] = e
        p = float(p_prod[k])
        requested = float(rule(e, float(omega[k]), float(accel[k])))
        lo = p - (params.e_rated - e) / dt
        hi = p + e / dt
        u = min(max(requested, lo), hi)
        sto = p - u
        e_next = e + sto * dt
        if not 0.0 <= e_next <= params.e_rated:
            target = min(max(e_next, 0.0), params.e_rated)
            sto = (target - e) / dt
            e_next = e + sto * dt
            while not 0.0 <= e_next <= params.e_rated:
                sto = math.nextafter(sto, 0.0)
                e_next = e + sto * dt
        p_sto[k] = sto
        p_grid[k] = p - sto
        e = e_next
    e_path[n] = e
    return storage.TrajectoryRecord(
        t=np.arange(n) * dt, omega=omega, accel=accel, p_prod=p_prod, p_grid=p_grid,
        p_sto=p_sto, e_sto=e_path[:n].copy(), e_final=e, dt=dt,
    )


def interpolating_rule(policy):
    return lambda e, om, ac: grids.interpolate(policy, np.array([e, om, ac]))


def heuristic_rule(e, om, ac):
    return storage.heuristic_policy(e, PARAMS)


def random_policy(shape, seed, narrow=1.0):
    """A rough policy table on the storage grid, nondecreasing in stored energy.

    Each (speed, accel) column climbs from a random offset in random steps,
    so the closed loop stays contractive in energy and rounding-level
    differences between two paths cannot grow along a run.  ``narrow``
    shrinks the speed/accel hull, so the series leave it more often.
    """
    n_e, n_om, n_ac = shape
    grid = storage.default_state_grid(MODEL, PARAMS, n_e, n_om, n_ac)
    if narrow != 1.0:
        e_ax, om_ax, ac_ax = grid.axes
        grid = grids.build_grid([
            (e_ax.lo, e_ax.hi, e_ax.n),
            (narrow * om_ax.lo, narrow * om_ax.hi, om_ax.n),
            (narrow * ac_ax.lo, narrow * ac_ax.hi, ac_ax.n),
        ])
    rng = np.random.default_rng(seed)
    steps = rng.uniform(0.0, 1.0, size=shape)
    steps[0] = rng.uniform(0.0, 0.5 * n_e, size=(n_om, n_ac))
    table = np.cumsum(steps, axis=0) * (PARAMS.p_max / (1.5 * n_e))
    return grids.GridFunction(grid, table)


# (n_e, n_omega, n_accel, narrow): a plain grid, a narrowed hull that the
# series leave on most steps, and one grid per degenerate (1-node) axis.
GRIDS = {
    "7x9x11": ((7, 9, 11), 1.0),
    "5x6x6-narrow": ((5, 6, 6), 0.3),
    "1x8x8": ((1, 8, 8), 1.0),
    "6x1x7": ((6, 1, 7), 1.0),
    "6x7x1": ((6, 7, 1), 1.0),
}


def speed_series(seed, n=600, scale=2.5):
    """An AR(2) speed series, scaled so it also leaves the +/-4 sigma hull."""
    return scale * armodel.simulate(MODEL, n=n, seed=seed)


class RecordingPolicy:
    """Wraps a closed-loop policy and records every (k, e_sto, requested)."""

    def __init__(self, policy):
        self.policy = policy
        self.calls = []

    def __call__(self, omega, accel):
        law = self.policy(omega, accel)

        def step(k, e_sto):
            requested = law(k, e_sto)
            self.calls.append((k, e_sto, requested))
            return requested

        return step


def assert_exact_bookkeeping(traj, params=PARAMS):
    energy = traj.energy_path()
    assert np.array_equal(energy[1:], traj.e_sto + traj.p_sto * params.dt)
    assert np.array_equal(traj.p_grid, traj.p_prod - traj.p_sto)
    assert np.all(energy >= 0.0) and np.all(energy <= params.e_rated)


@pytest.mark.parametrize("name", GRIDS)
@pytest.mark.parametrize("seed", SEEDS)
def test_grid_policy_matches_the_per_point_oracle(name, seed):
    shape, narrow = GRIDS[name]
    policy = random_policy(shape, seed=seed, narrow=narrow)
    speed = speed_series(seed)
    traj = storage.simulate_trajectory(storage.grid_policy_fn(policy), speed, PARAMS, 5e6)
    ref = oracle_trajectory(interpolating_rule(policy), speed, PARAMS, 5e6)
    assert np.max(np.abs(traj.p_grid - ref.p_grid)) <= 1e-6
    assert abs(traj.e_final - ref.e_final) <= 1e-6
    assert_exact_bookkeeping(traj)


def test_series_leave_the_speed_and_accel_hull():
    # the oracle comparison above must also cover clamped (off-hull) queries
    grid = random_policy((7, 9, 11), seed=0).grid
    for seed in SEEDS:
        speed = speed_series(seed)
        accel = np.diff(speed) / PARAMS.dt
        assert np.abs(speed).max() > grid.axes[1].hi
        assert np.abs(accel).max() > grid.axes[2].hi


@pytest.mark.parametrize("name", GRIDS)
def test_every_request_lies_in_its_8_corner_range(name):
    shape, narrow = GRIDS[name]
    policy = random_policy(shape, seed=5, narrow=narrow)
    speed = speed_series(4)
    recorder = RecordingPolicy(storage.grid_policy_fn(policy))
    traj = storage.simulate_trajectory(recorder, speed, PARAMS, 5e6)
    k, e, requested = (np.array(col) for col in zip(*recorder.calls))
    assert k.tolist() == list(range(speed.size))
    assert np.array_equal(e, traj.e_sto)
    pts = np.column_stack([e, traj.omega[k], traj.accel[k]])
    flat, _ = grids.interpolation_stencil(policy.grid, pts)
    corners = policy.values[flat]
    assert np.all(corners.min(axis=1) <= requested)
    assert np.all(requested <= corners.max(axis=1))


@pytest.mark.parametrize("name", GRIDS)
def test_a_flat_table_is_reproduced_exactly(name):
    # weights that sum to 1 only up to rounding must not move a request off
    # the single value of its corners: both hull clips are needed for this
    shape, narrow = GRIDS[name]
    grid = random_policy(shape, seed=0, narrow=narrow).grid
    value = 0.1 * math.pi * PARAMS.p_max
    speed = speed_series(6)
    flat = grids.GridFunction(grid, np.full(grid.size, value))
    recorder = RecordingPolicy(storage.grid_policy_fn(flat))
    storage.simulate_trajectory(recorder, speed, PARAMS, 5e6)
    assert all(requested == value for _, _, requested in recorder.calls)


@pytest.mark.parametrize("name", GRIDS)
def test_queries_on_nodes_reproduce_the_table_exactly(name):
    shape, narrow = GRIDS[name]
    policy = random_policy(shape, seed=6, narrow=narrow)
    e_ax, om_ax, ac_ax = policy.grid.axes
    om_idx, ac_idx = np.meshgrid(np.arange(om_ax.n), np.arange(ac_ax.n), indexing="ij")
    om_idx, ac_idx = om_idx.ravel(), ac_idx.ravel()
    law = storage.grid_policy_fn(policy)(om_ax.nodes[om_idx], ac_ax.nodes[ac_idx])
    table = policy.as_array()
    for k in range(om_idx.size):
        for i, e in enumerate(e_ax.nodes):
            assert law(k, float(e)) == table[i, om_idx[k], ac_idx[k]]


@pytest.mark.parametrize("e0", [0.0, PARAMS.e_rated])
@pytest.mark.parametrize("name", ["7x9x11", "1x8x8"])
def test_store_starting_empty_or_full(name, e0):
    shape, narrow = GRIDS[name]
    policy = random_policy(shape, seed=7, narrow=narrow)
    speed = speed_series(5, n=300)
    traj = storage.simulate_trajectory(storage.grid_policy_fn(policy), speed, PARAMS, e0)
    ref = oracle_trajectory(interpolating_rule(policy), speed, PARAMS, e0)
    assert traj.e_sto[0] == e0
    assert np.max(np.abs(traj.p_grid - ref.p_grid)) <= 1e-6
    assert_exact_bookkeeping(traj)


@pytest.mark.parametrize("name", GRIDS)
def test_length_one_series(name):
    shape, narrow = GRIDS[name]
    policy = random_policy(shape, seed=8, narrow=narrow)
    speed = np.array([0.37])
    traj = storage.simulate_trajectory(storage.grid_policy_fn(policy), speed, PARAMS, 3e6)
    ref = oracle_trajectory(interpolating_rule(policy), speed, PARAMS, 3e6)
    assert traj.t.size == 1 and traj.accel[0] == 0.0
    assert abs(traj.p_grid[0] - ref.p_grid[0]) <= 1e-6
    assert_exact_bookkeeping(traj)


@pytest.mark.parametrize("e0", [0.0, 2.5e6, PARAMS.e_rated])
@pytest.mark.parametrize("seed", SEEDS)
def test_heuristic_trajectories_are_unchanged_to_the_bit(seed, e0):
    speed = speed_series(seed, n=2000, scale=1.0)
    traj = storage.simulate_trajectory(storage.heuristic_policy_fn(PARAMS), speed, PARAMS, e0)
    ref = oracle_trajectory(heuristic_rule, speed, PARAMS, e0)
    for name in storage.TRAJECTORY_COLUMNS:
        assert np.array_equal(getattr(traj, name), getattr(ref, name)), name
    assert traj.e_final == ref.e_final


def test_heuristic_length_one_series():
    speed = np.array([0.2])
    traj = storage.simulate_trajectory(storage.heuristic_policy_fn(PARAMS), speed, PARAMS, 4e6)
    ref = oracle_trajectory(heuristic_rule, speed, PARAMS, 4e6)
    assert np.array_equal(traj.p_grid, ref.p_grid)
    assert traj.e_final == ref.e_final
