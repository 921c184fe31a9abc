"""Grid-power smoothing of a direct-drive wave energy converter.

The converter's production power fluctuates with the swell; an on-board
energy store absorbs part of it so the power actually injected into the
network is steadier.  Per time step (dt seconds):

    p_grid = p_prod - p_sto            power balance
    e_sto' = e_sto + p_sto * dt        stored energy update

The control variable is the injected power p_grid, restricted to
[0, p_max] and to the storage feasibility interval (the store can
neither go negative nor exceed its rated capacity within one step).
Stage cost is p_grid^2, so minimising the long-run average cost
minimises the injected power's variance around its (fixed) mean.

The generator speed is modelled as an AR(2) process; together with its
backward difference and the stored energy this gives the 3-dimensional
controller state (e_sto, speed, accel).

In closed loop the speed series is given, so speed and accel are known
for the whole run and only the stored energy depends on earlier steps.
A policy therefore sees both series once, before the loop: a solved
policy table does its (speed, accel) interpolation for every step in one
batch pass, and each step is left with a 1-D interpolation in energy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .armodel import ARModel, stationary_moments, to_state_space
from .grids import (GridFunction, RectGrid, axis_locator, build_grid, interpolation_stencil,
                    stencil_blend, write_atomic)
from .grids import interpolate  # noqa: F401  kept as storage.interpolate: perfbench wraps it

__all__ = [
    "StorageParams",
    "TrajectoryRecord",
    "SmoothingMetrics",
    "bundled_speed_model",
    "pto_power",
    "heuristic_policy",
    "feasible_interval",
    "default_state_grid",
    "heuristic_policy_on_grid",
    "INPUT_RTOL",
    "require_storage_timestep",
    "build_problem",
    "grid_policy_fn",
    "heuristic_policy_fn",
    "simulate_trajectory",
    "metrics",
    "write_csv",
    "save_series",
    "series_timestep",
    "load_series",
    "load_speed_series",
    "save_trajectory",
    "load_trajectory",
]

# Span of the speed/accel grid axes, in stationary standard deviations.
GRID_SIGMA_SPAN = 4.0

# Relative tolerance of the input checks: a model's or a series' timestep against the storage timestep,
# each step of a series' time column against its mean step, and a policy's energy axis against [0, e_rated].
INPUT_RTOL = 1e-9


@dataclass(frozen=True)
class StorageParams:
    """Physical parameters of the store and the power take-off.

    ``beta`` is the torque-law gain: production power is beta * speed^2,
    levelled off at ``p_max`` (reached at speed sqrt(p_max / beta),
    0.5 rad/s with the defaults).
    """

    e_rated: float = 10e6
    p_max: float = 1.1e6
    dt: float = 0.1
    beta: float = 4.4e6

    def __post_init__(self) -> None:
        for name in ("e_rated", "p_max", "dt", "beta"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"{name} must be finite and > 0, got {v}")


def require_storage_timestep(dt: float, params: StorageParams, source: str) -> None:
    """Raise ValueError unless ``dt`` is the storage timestep to within INPUT_RTOL."""
    if not abs(dt - params.dt) <= INPUT_RTOL * params.dt:
        raise ValueError(f"{source} timestep {dt} != storage timestep {params.dt}")


def bundled_speed_model() -> ARModel:
    """Bundled AR(2) generator-speed model (0.1 s timestep).

    Coefficients were fitted to recorded production-speed data by
    matching the autocorrelation over 15 s of lags; the innovation std
    reproduces the recorded speed variance.
    """
    return ARModel(phi=(1.9799, -0.9879), sigma_eps=0.00347, dt=0.1)


def pto_power(omega, params: StorageParams):
    """Production power of the take-off at a given speed (torque law, levelled)."""
    return np.minimum(params.beta * np.square(omega), params.p_max)


def heuristic_policy(e_sto, params: StorageParams):
    """Proportional storage-discharge rule: inject (p_max / e_rated) * e_sto.

    Depends only on the stored energy: full store injects p_max, empty
    store injects nothing, so the store always has head-room in both
    directions.
    """
    return (params.p_max / params.e_rated) * np.asarray(e_sto, dtype=np.float64)


def feasible_interval(e_sto, omega, params: StorageParams):
    """Injection bounds keeping the store inside [0, e_rated] for one step.

    Injecting less than p_prod charges the store; more than p_prod
    drains it.  Returns ``(lo, hi)`` with
    lo = p_prod - (e_rated - e_sto)/dt and hi = p_prod + e_sto/dt.
    """
    p = pto_power(omega, params)
    e = np.asarray(e_sto, dtype=np.float64)
    lo = p - (params.e_rated - e) / params.dt
    hi = p + e / params.dt
    return lo, hi


def default_state_grid(
    model: ARModel,
    params: StorageParams,
    n_e: int = 30,
    n_omega: int = 60,
    n_accel: int = 60,
) -> RectGrid:
    """State grid: energy on [0, e_rated], speed and accel on +/- 4 stationary stds."""
    std_omega, std_accel = stationary_moments(model)
    return build_grid(
        [
            (0.0, params.e_rated, n_e),
            (-GRID_SIGMA_SPAN * std_omega, GRID_SIGMA_SPAN * std_omega, n_omega),
            (-GRID_SIGMA_SPAN * std_accel, GRID_SIGMA_SPAN * std_accel, n_accel),
        ],
        ("energy (n_e)", "speed (n_omega)", "accel (n_accel)"),
    )


def heuristic_policy_on_grid(grid: RectGrid, params: StorageParams) -> tuple[GridFunction, ...]:
    """The proportional rule sampled at the grid nodes (policy-iteration seed)."""
    e = np.repeat(grid.axes[0].nodes, grid.strides[0])  # the energy column of the nodes, in flat order
    return (GridFunction(grid, heuristic_policy(e, params)),)


def build_problem(
    model: ARModel,
    params: StorageParams,
    n_noise: int = 5,
    n_controls: int = 50,
) -> ControlProblem:
    """Assemble the smoothing problem for the grid solver.

    Control candidates are ``n_controls`` levels uniform on [0, p_max],
    each projected onto the state's feasibility interval, so levels
    clipped to the same bound repeat (the first one wins ties).  The energy
    update inside the dynamics is clipped to [0, e_rated] so projected
    candidates keep the store in bounds exactly, rounding included.

    The problem declares ``controlled_dims=1``: the stored energy moves
    deterministically, the noise drives only (speed, accel) through the
    AR(2) transition, and the cost p_grid^2 ignores the noise.
    """
    from .solver import ControlProblem, discretize_noise  # imported here, so that only solves load the solver
    if model.p != 2:
        raise ValueError(f"the storage problem needs an AR(2) speed model, got order {model.p}")
    require_storage_timestep(model.dt, params, "model")
    if n_controls < 2:
        raise ValueError(f"need at least 2 control levels, got {n_controls}")
    t = to_state_space(model)
    base = np.linspace(0.0, params.p_max, n_controls)

    def dynamics(x, u, w):
        e, om, ac = x[:, 0], x[:, 1], x[:, 2]
        e_next = e + (pto_power(om, params) - u[:, 0]) * params.dt
        np.clip(e_next, 0.0, params.e_rated, out=e_next)
        om_next = t[0, 0] * om + t[0, 1] * ac + w
        ac_next = t[1, 0] * om + t[1, 1] * ac + w / params.dt
        return np.stack([e_next, om_next, ac_next], axis=1)

    def stage_cost(x, u, w):
        return np.square(u[:, 0])

    def control_candidates(states):
        lo, hi = feasible_interval(states[:, 0], states[:, 1], params)
        return np.clip(base[None, :], lo[:, None], hi[:, None])[:, :, None]

    return ControlProblem(
        dynamics=dynamics,
        stage_cost=stage_cost,
        control_candidates=control_candidates,
        noise=discretize_noise(model.sigma_eps, n_noise),
        controlled_dims=1,
    )


@dataclass
class TrajectoryRecord:
    """Per-step records of a closed-loop run.

    ``e_sto[k]`` is the stored energy at the start of step k; ``e_final``
    is the energy after the last step, so
    e_sto[k+1] == e_sto[k] + p_sto[k] * dt holds along the whole run.
    """

    t: np.ndarray
    omega: np.ndarray
    accel: np.ndarray
    p_prod: np.ndarray
    p_grid: np.ndarray
    p_sto: np.ndarray
    e_sto: np.ndarray
    e_final: float
    dt: float

    def energy_path(self) -> np.ndarray:
        """Stored energy at every step boundary (length n + 1)."""
        return np.concatenate([self.e_sto, [self.e_final]])


@dataclass(frozen=True)
class SmoothingMetrics:
    """Summary statistics of the injected power over one trajectory."""

    std_p_grid: float
    mean_p_grid: float
    quadratic_cost: float
    e_sto_min: float
    e_sto_max: float


# A closed-loop policy maps the whole (omega, accel) series of a run to its
# per-step law (k, e_sto) -> requested injection.
StepLaw = Callable[[int, float], float]
Policy = Callable[[np.ndarray, np.ndarray], StepLaw]


def grid_policy_fn(policy: GridFunction, params: StorageParams) -> Policy:
    """Closed-loop control law from a solved policy table (interpolated), run under ``params``.

    The table's first axis is the stored energy and must span [0, e_rated] to within INPUT_RTOL.

    Per run, one batch stencil on the (speed, accel) sub-grid blends every
    energy layer of the table at every step, each value clipped to its 4
    corners: an ``(n_steps, n_e)`` array.  Per step, the law locates e_sto
    on the energy axis and interpolates linearly between the two bracketing
    layer values, clipped to their range, so the result stays inside the
    8-corner range of the 3-D cell.
    """
    if policy.grid.dim != 3:
        raise ValueError(f"storage policies are 3-dimensional, got {policy.grid.dim} axes")
    e_axis = policy.grid.axes[0]
    if abs(e_axis.lo) > INPUT_RTOL * params.e_rated or abs(e_axis.hi - params.e_rated) > INPUT_RTOL * params.e_rated:
        raise ValueError(f"policy energy axis [{e_axis.lo}, {e_axis.hi}] does not match e_rated={params.e_rated}")
    plane = RectGrid(policy.grid.axes[1:])
    table = policy.values.reshape(e_axis.n, plane.size)

    def prepare(omega: np.ndarray, accel: np.ndarray) -> StepLaw:
        flat, weights = interpolation_stencil(plane, np.column_stack([omega, accel]))
        layers = np.empty((omega.size, e_axis.n))
        for j in range(e_axis.n):
            layers[:, j] = stencil_blend(weights, table[j][flat])
        values = memoryview(layers)  # indexed per step: plain floats, no copy
        locate = axis_locator(e_axis)

        def step(k: int, e_sto: float) -> float:
            i, f = locate(e_sto)
            a, b = values[k, i], values[k, i + 1]
            u = (1.0 - f) * a + f * b
            if b < a:  # clip to [min(a, b), max(a, b)]
                a, b = b, a
            return a if a > u else b if b < u else u

        return step

    return prepare


def heuristic_policy_fn(params: StorageParams) -> Policy:
    """Closed-loop control law of the proportional rule: :func:`heuristic_policy` on one float."""
    gain = params.p_max / params.e_rated

    def prepare(omega: np.ndarray, accel: np.ndarray) -> StepLaw:
        return lambda k, e_sto: gain * e_sto

    return prepare


def simulate_trajectory(
    policy: Policy,
    speed: np.ndarray,
    params: StorageParams,
    e0: float,
) -> TrajectoryRecord:
    """Run the storage in closed loop against an exogenous speed series.

    The policy sees the speed and acceleration series once, before the
    loop, and returns its per-step law; the loop then asks it for an
    injection, a float, at each step's stored energy.  The requested injection
    is projected onto the feasibility interval each step (+-inf included, a
    nan raises ValueError naming the step); the stored energy
    is then advanced with the exact update e' = e + p_sto * dt and nudged,
    if rounding ever pushes it past a bound, by stepping p_sto toward zero
    one ulp at a time.  The stored record therefore satisfies the power
    balance, the energy recursion and the capacity bounds exactly.
    """
    omega = np.ascontiguousarray(speed, dtype=np.float64).reshape(-1)
    n = omega.size
    if n < 1:
        raise ValueError("speed series is empty")
    if not np.isfinite(omega).all():
        raise ValueError("speed series must be finite")
    if not 0.0 <= e0 <= params.e_rated:
        raise ValueError(f"initial energy {e0} outside [0, {params.e_rated}]")

    dt = params.dt
    accel = np.empty(n)
    accel[0] = 0.0
    np.divide(np.diff(omega), dt, out=accel[1:])
    p_prod = pto_power(omega, params)
    law = policy(omega, accel)

    e_rated = params.e_rated
    e_sto, p_sto = np.empty(n), np.empty(n)
    e_at, sto_at = memoryview(e_sto), memoryview(p_sto)  # plain-float writes, no per-step NumPy scalar
    e = float(e0)
    for k, p in enumerate(memoryview(p_prod)):
        e_at[k] = e
        u = law(k, e)
        lo = p - (e_rated - e) / dt
        hi = p + e / dt
        u = lo if lo > u else hi if hi < u else u  # min(max(u, lo), hi): a tie keeps u, +-inf clamps
        sto = p - u
        e_next = e + sto * dt
        if not 0.0 <= e_next <= e_rated:
            if e_next != e_next:
                raise ValueError(f"the policy requested {u!r} at step {k}")
            target = min(max(e_next, 0.0), e_rated)
            sto = (target - e) / dt
            e_next = e + sto * dt
            while not 0.0 <= e_next <= e_rated:
                sto = math.nextafter(sto, 0.0)
                e_next = e + sto * dt
        sto_at[k] = sto
        e = e_next

    return TrajectoryRecord(
        t=np.arange(n) * dt,
        omega=omega,
        accel=accel,
        p_prod=p_prod,
        p_grid=p_prod - p_sto,
        p_sto=p_sto,
        e_sto=e_sto,
        e_final=e,
        dt=dt,
    )


def metrics(traj: TrajectoryRecord) -> SmoothingMetrics:
    """Injected-power statistics of a trajectory (population moments)."""
    energy = traj.energy_path()
    return SmoothingMetrics(
        std_p_grid=float(np.std(traj.p_grid)),
        mean_p_grid=float(np.mean(traj.p_grid)),
        quadratic_cost=float(np.mean(np.square(traj.p_grid))),
        e_sto_min=float(energy.min()),
        e_sto_max=float(energy.max()),
    )


# Text round-trips use repr-quality floats so rereading is bit-exact.
_FLOAT_FMT = "%.17g"


def write_csv(path, block, header: str) -> None:
    """Atomically write a 2-D block under a header line, in the bytes of ``np.savetxt(fmt="%.17g")``."""
    row = ",".join([_FLOAT_FMT] * block.shape[1]) + "\n"
    parts = np.array_split(block, range(256, len(block), 256))  # never the whole block as one string
    write_atomic(path, (text.encode() for text in itertools.chain(
        [header + "\n"], (row * len(part) % tuple(part.ravel().tolist()) for part in parts))))


def save_series(path, t, omega) -> None:
    """Write a speed series as CSV with header ``t,omega``."""
    t = np.asarray(t, dtype=np.float64).reshape(-1)
    omega = np.asarray(omega, dtype=np.float64).reshape(-1)
    if omega.size != t.size:
        raise ValueError("series columns must have equal length")
    write_csv(path, np.column_stack([t, omega]), "t,omega")


def _read_csv(path, required: tuple[str, ...]):
    path = Path(path)
    with path.open() as fh:
        header = fh.readline().strip()
        if not any(line.partition("#")[0].strip() for line in fh):  # stops at the first row
            raise ValueError(f"{path} has no data rows")
    names = [c.strip() for c in header.split(",")]
    for col in required:
        if col not in names:
            raise ValueError(f"{path} is missing required column {col!r} (header: {header})")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != len(names):
        raise ValueError(f"{path}: {data.shape[1]} data columns but {len(names)} header names")
    return {name: data[:, i] for i, name in enumerate(names)}


def series_timestep(t: np.ndarray) -> float:
    """Mean step of a time column of two or more samples; ValueError unless it increases at that step."""
    if t.size < 2:
        raise ValueError("need at least two samples to infer the timestep")
    dt = float((t[-1] - t[0]) / (t.size - 1))  # the mean step: an offset time column rounds each step
    if not np.allclose(np.diff(t), dt, rtol=INPUT_RTOL, atol=0.0):
        raise ValueError("series time column is not uniformly spaced")
    if not dt > 0.0:
        raise ValueError(f"series time column must increase, got step {dt}")
    return dt


def load_series(path) -> tuple[np.ndarray, np.ndarray]:
    """(t, omega) of a speed series CSV, other columns ignored; its time column must pass :func:`series_timestep`."""
    cols = _read_csv(path, required=("t", "omega"))
    try:
        series_timestep(cols["t"])
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err
    return cols["t"], cols["omega"]


def load_speed_series(path, params: StorageParams) -> np.ndarray:
    """Speed column of a series sampled at the storage timestep; closed-loop runs derive production from it."""
    t, omega = load_series(path)
    require_storage_timestep(series_timestep(t), params, f"{path}: series")
    return omega


TRAJECTORY_COLUMNS = ("t", "omega", "accel", "p_prod", "p_grid", "p_sto", "e_sto")


def save_trajectory(traj: TrajectoryRecord, path) -> None:
    """Write a trajectory as CSV (one row per step, plus the final energy row).

    The last row carries only the time and the end-of-run stored energy;
    its other columns are written as nan placeholders.
    """
    n = traj.t.size
    block = np.full((n + 1, len(TRAJECTORY_COLUMNS)), np.nan)
    for i, name in enumerate(TRAJECTORY_COLUMNS):
        block[:n, i] = getattr(traj, name)
    block[n, 0] = n * traj.dt
    block[n, -1] = traj.e_final
    write_csv(path, block, ",".join(TRAJECTORY_COLUMNS))


def load_trajectory(path) -> TrajectoryRecord:
    """Read back a trajectory written by :func:`save_trajectory`."""
    cols = _read_csv(path, required=TRAJECTORY_COLUMNS)
    t = cols["t"]
    if t.size < 2:
        raise ValueError(f"{path}: trajectory needs at least one step plus the final row")
    n = t.size - 1
    return TrajectoryRecord(
        t=t[:n],
        omega=cols["omega"][:n],
        accel=cols["accel"][:n],
        p_prod=cols["p_prod"][:n],
        p_grid=cols["p_grid"][:n],
        p_sto=cols["p_sto"][:n],
        e_sto=cols["e_sto"][:n],
        e_final=float(cols["e_sto"][n]),
        dt=float(t[1] - t[0]),
    )
