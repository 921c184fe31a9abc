"""Command-line pipeline: generate, fit, solve, simulate, compare.

Exit codes: 0 success, 2 usage or invalid input, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from . import armodel, grids, storage

__all__ = ["main", "entry", "EXIT_OK", "EXIT_USAGE", "EXIT_IO"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3

DEFAULT_SLICES = 7  # fixed-energy levels in the policy-slice CSV


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < math.inf:  # NaN and inf too
        raise argparse.ArgumentTypeError(f"must be a finite positive number, got {text}")
    return value


def _add_storage_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--e-rated", type=_positive_float, default=10e6,
                        help="storage capacity in joules (default 10e6)")
    parser.add_argument("--p-max", type=_positive_float, default=1.1e6,
                        help="maximum power in watts (default 1.1e6)")
    parser.add_argument("--beta", type=_positive_float, default=4.4e6,
                        help="torque-law gain in W/(rad/s)^2 (default 4.4e6)")
    parser.add_argument("--dt", type=_positive_float, default=0.1,
                        help="time step in seconds (default 0.1)")


def _storage_params(args) -> storage.StorageParams:
    return storage.StorageParams(e_rated=args.e_rated, p_max=args.p_max,
                                 dt=args.dt, beta=args.beta)


def _load_model(path: str | None) -> armodel.ARModel:
    if path is None:
        return storage.bundled_speed_model()
    model, _ = armodel.load_ar_model(path)
    return model


def _series_dt(t: np.ndarray) -> float:
    """The series' uniform positive timestep, or 0.0 for fewer than two samples."""
    if t.size < 2:
        return 0.0
    steps = np.diff(t)
    dt = float((t[-1] - t[0]) / (t.size - 1))  # the mean step: an offset time column rounds each step
    if not np.allclose(steps, dt, rtol=1e-9, atol=0.0):
        raise ValueError("series time column is not uniformly spaced")
    if not dt > 0.0:
        raise ValueError(f"series time column must increase, got step {dt}")
    return dt


def cmd_generate(args) -> int:
    model = _load_model(args.model)
    omega = armodel.simulate(model, args.n, args.seed)
    t = np.arange(args.n) * model.dt
    storage.save_series(args.out, t, omega)
    print(f"wrote {args.n} steps ({args.n * model.dt:.1f} s) to {args.out}")
    return EXIT_OK


def cmd_fit(args) -> int:
    t, omega = storage.load_series(args.series)
    dt = _series_dt(t)
    if dt <= 0.0:
        raise ValueError("need at least two samples to infer the timestep")
    lag_count = max(args.p, int(round(args.lag_seconds / dt)))
    acf = armodel.sample_acf(omega, lag_count)
    phi, criterion = armodel.fit_multilag(acf, args.p, lag_count)
    gamma0 = float(np.var(omega))
    # the fitted model's own rho(1..p): 1 - phi . rho is then positive for
    # every stationary phi, which the sample rho does not guarantee
    model_acf = armodel.theoretical_acf(phi, args.p)
    sigma = armodel.innovation_std_from_acf(phi, gamma0, model_acf)
    model = armodel.ARModel(phi, sigma, dt)
    provenance = {"method": "multilag", "lag_count": lag_count, "criterion": criterion}
    armodel.save_ar_model(model, args.out, provenance)
    coeffs = ", ".join(f"{c:.6g}" for c in model.phi)
    print(f"fitted AR({model.p}) [multilag]: phi=({coeffs}), sigma_eps={model.sigma_eps:.6g}")
    print(f"wrote {args.out}")
    return EXIT_OK


def _write_policy_slices(policy: grids.GridFunction, path: Path) -> None:
    """CSV slices of the policy over (omega, accel) at fixed energy levels.

    Intended for external plotting; one block of rows per energy level.
    """
    grid = policy.grid
    e_axis, om_axis, ac_axis = grid.axes
    om, ac = (m.ravel() for m in np.meshgrid(om_axis.nodes, ac_axis.nodes, indexing="ij"))
    levels = [np.column_stack([np.full(om.size, e), om, ac]) for e in np.linspace(e_axis.lo, e_axis.hi, DEFAULT_SLICES)]
    # one level at a time: the interpolation's temporaries grow with its batch
    rows = np.concatenate([np.column_stack([pts, grids.interpolate(policy, pts)]) for pts in levels])
    storage.write_csv(path, rows, "e_sto,omega,accel,p_grid")


def cmd_solve(args) -> int:
    from . import solver  # imported here, so that only solves load the solver
    params = _storage_params(args)
    model = _load_model(args.model)
    problem = storage.build_problem(model, params, n_noise=args.noise_nodes,
                                    n_controls=args.n_controls)
    grid = storage.default_state_grid(model, params, n_e=args.n_e,
                                      n_omega=args.n_omega, n_accel=args.n_accel)
    config = solver.SolverConfig(
        eval_tol=args.eval_tol,
        eval_max_sweeps=args.max_sweeps,
        max_improvements=args.max_improvements,
        threads=args.threads,
    )
    seed = storage.heuristic_policy_on_grid(grid, params)
    report = solver.policy_iteration(problem, seed, config)

    out_dir = Path(args.out_dir)
    paths = solver.save_report(report, out_dir)
    slices_path = out_dir / "policy_slices.csv"
    _write_policy_slices(report.policy[0], slices_path)

    print(f"average cost J = {report.avg_cost:.6e} W^2 "
          f"(injected-power rms {report.avg_cost ** 0.5:.1f} W)")
    lo, hi = report.bracket_history[-1]
    relative = (hi - lo) / abs(report.avg_cost) if report.avg_cost else math.inf
    print(f"optimal average cost in [{lo:.10e}, {hi:.10e}] W^2, width {relative:.3g} of |J|")
    print(f"improvement steps: {report.improvement_steps} "
          f"({'certified' if report.converged else 'truncated at the improvement cap'})")
    print(f"evaluation sweeps: {report.sweeps_per_evaluation}")
    print(f"evaluation {1e3 * sum(report.evaluation_seconds) / sum(report.sweeps_per_evaluation):.3g} ms "
          f"per sweep over {report.plane_nodes_swept} of {args.n_omega * args.n_accel} speed-plane nodes, "
          f"improvement {sum(report.improvement_seconds):.3g} s in all, "
          f"lookahead build {report.lookahead_seconds:.3g} s")
    capped = report.evaluation_converged.count(False)
    if capped:
        print(f"note: {capped} of {len(report.evaluation_converged)} evaluations stopped at the "
              f"{args.max_sweeps}-sweep cap before meeting their stop (final span/stop "
              f"{', '.join(f'{r:.3g}' for r in report.evaluation_span_ratio)})")
    for name, p in paths.items():
        print(f"wrote {name}: {p}")
    print(f"wrote slices: {slices_path}")
    return EXIT_OK


def _policy_fn(spec: str, params: storage.StorageParams):
    if spec == "heuristic":
        return storage.heuristic_policy_fn(params)
    policy = grids.load_grid_function(spec)
    law = storage.grid_policy_fn(policy)  # rejects a table without 3 axes
    e_axis = policy.grid.axes[0]
    if abs(e_axis.lo) > 1e-9 * params.e_rated or abs(e_axis.hi - params.e_rated) > 1e-9 * params.e_rated:
        raise ValueError(
            f"policy energy axis [{e_axis.lo}, {e_axis.hi}] does not match e_rated={params.e_rated}"
        )
    return law


def _load_storage_series(series_path, params: storage.StorageParams):
    """Speed column of a series sampled at the storage timestep; runs derive production from it."""
    t, omega = storage.load_series(series_path)
    dt = _series_dt(t)
    if dt > 0.0:
        storage.require_storage_timestep(dt, params, "series")
    return omega


def cmd_simulate(args) -> int:
    params = _storage_params(args)
    e0 = params.e_rated / 2.0 if args.e0 is None else args.e0
    policy_fn = _policy_fn(args.policy, params)
    omega = _load_storage_series(args.series, params)
    traj = storage.simulate_trajectory(policy_fn, omega, params, e0)
    storage.save_trajectory(traj, args.out)
    m = storage.metrics(traj)
    if args.metrics_out:
        grids.write_json(args.metrics_out, dataclasses.asdict(m))
    print(f"wrote {traj.t.size} steps to {args.out}")
    print(f"std(p_grid) = {m.std_p_grid:.1f} W, mean(p_grid) = {m.mean_p_grid:.1f} W, "
          f"e_sto in [{m.e_sto_min:.3e}, {m.e_sto_max:.3e}] J")
    return EXIT_OK


def cmd_compare(args) -> int:
    params = _storage_params(args)
    e0 = params.e_rated / 2.0 if args.e0 is None else args.e0
    optimized_fn = _policy_fn(args.policy, params)
    heuristic_fn = storage.heuristic_policy_fn(params)
    per_series = []
    for series_path in args.series:
        omega = _load_storage_series(series_path, params)
        heur_traj = storage.simulate_trajectory(heuristic_fn, omega, params, e0)
        heur = storage.metrics(heur_traj)
        opti = storage.metrics(storage.simulate_trajectory(optimized_fn, omega, params, e0))
        if heur.std_p_grid == 0.0:
            raise ValueError(f"{series_path}: the heuristic's injected power is constant, "
                             "so no reduction relative to it exists")
        reduction = 100.0 * (1.0 - opti.std_p_grid / heur.std_p_grid)
        per_series.append({
            "series": str(series_path),
            "std_no_storage": float(np.std(heur_traj.p_prod)),  # the production both runs smooth
            "std_heuristic": heur.std_p_grid,
            "std_optimized": opti.std_p_grid,
            "reduction_vs_heuristic_pct": reduction,
        })
    mean_reduction = float(np.mean([s["reduction_vs_heuristic_pct"] for s in per_series]))
    doc = {"series": per_series, "mean_reduction_pct": mean_reduction}
    if args.out:
        grids.write_json(args.out, doc)
    for s in per_series:
        print(f"{s['series']}: std none={s['std_no_storage']:.0f} W, "
              f"heuristic={s['std_heuristic']:.0f} W, optimized={s['std_optimized']:.0f} W "
              f"({s['reduction_vs_heuristic_pct']:.1f}% reduction)")
    print(f"mean reduction vs heuristic: {mean_reduction:.1f}%")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdpkit",
        description="Storage smoothing of wave-converter power via average-cost dynamic programming.",
        epilog="exit codes: 0 ok, 2 usage/invalid input, 3 I/O failure",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a speed series from an AR model")
    p.add_argument("--model", help="model JSON (default: bundled AR(2) speed model)")
    p.add_argument("--n", type=_positive_int, default=10000, help="number of steps (default 10000)")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument("--out", required=True, help="output CSV path (columns t,omega)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("fit", help="fit an AR model to a speed series")
    p.add_argument("--series", required=True, help="input CSV with t,omega columns")
    p.add_argument("--p", type=_positive_int, default=2, help="model order (default 2)")
    p.add_argument("--lag-seconds", type=_positive_float, default=15.0,
                   help="autocorrelation span matched by multilag, in seconds (default 15)")
    p.add_argument("--out", required=True, help="output model JSON path")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("solve", help="solve the storage policy by policy iteration")
    p.add_argument("--model", help="model JSON (default: bundled AR(2) speed model)")
    p.add_argument("--out-dir", required=True, help="directory for the solution artifacts")
    p.add_argument("--n-e", type=_positive_int, default=30, help="energy nodes (default 30)")
    p.add_argument("--n-omega", type=_positive_int, default=60, help="speed nodes (default 60)")
    p.add_argument("--n-accel", type=_positive_int, default=60, help="accel nodes (default 60)")
    p.add_argument("--noise-nodes", type=_positive_int, default=5,
                   help="innovation discretization nodes (default 5)")
    p.add_argument("--n-controls", type=_positive_int, default=50,
                   help="control candidates per node (default 50)")
    p.add_argument("--max-sweeps", type=_positive_int, default=5000,
                   help="safety cap on the sweeps of each policy evaluation, reported when hit (default 5000)")
    p.add_argument("--eval-tol", type=_positive_float, default=1e-9,
                   help="relative tolerance of each evaluation and of the certified bracket (default 1e-9)")
    p.add_argument("--max-improvements", type=_positive_int, default=10,
                   help="policy improvement cap (default 10)")
    p.add_argument("--threads", type=_positive_int, default=1,
                   help="threads T of the improvement, split check and operator build: the calling thread and T - 1 "
                        "more share their chunks; evaluations run on the calling thread (same results at any T)")
    _add_storage_flags(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("simulate", help="run a policy in closed loop against a speed series")
    p.add_argument("--policy", required=True,
                   help="policy grid-function file, or the word 'heuristic'")
    p.add_argument("--series", required=True, help="input CSV with t,omega columns")
    p.add_argument("--e0", type=float, default=None,
                   help="initial stored energy in joules (default e_rated/2)")
    p.add_argument("--out", required=True, help="output trajectory CSV path")
    p.add_argument("--metrics-out", help="optional metrics JSON path")
    _add_storage_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("compare", help="compare a solved policy against the proportional heuristic")
    p.add_argument("--policy", required=True,
                   help="policy grid-function file, or the word 'heuristic'")
    p.add_argument("--series", required=True, nargs="+", help="one or more series CSVs")
    p.add_argument("--e0", type=float, default=None,
                   help="initial stored energy in joules (default e_rated/2)")
    p.add_argument("--out", help="optional comparison JSON path")
    _add_storage_flags(p)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"sdpkit: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"sdpkit: invalid input: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
