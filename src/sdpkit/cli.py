"""Command-line pipeline: generate, fit, solve, simulate, compare.

Exit codes: 0 success, 2 usage or invalid input, 3 I/O failure,
4 solver non-convergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import armodel, grids, solver, storage

__all__ = ["main", "entry", "EXIT_OK", "EXIT_USAGE", "EXIT_IO", "EXIT_NONCONVERGENCE"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NONCONVERGENCE = 4

# Default number of fixed-energy levels in the policy-slice CSV.
DEFAULT_SLICES = 7


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if value <= 0.0:
        raise argparse.ArgumentTypeError(f"must be a positive number, got {text}")
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


def _load_model(path: str | None, dt: float) -> armodel.ARModel:
    if path is None:
        model = storage.bundled_speed_model()
    else:
        model, _ = armodel.load_ar_model(path)
    if abs(model.dt - dt) > 1e-12 * max(model.dt, dt):
        raise ValueError(f"model timestep {model.dt} != requested timestep {dt}")
    return model


def _series_dt(t: np.ndarray) -> float:
    if t.size < 2:
        return 0.0
    steps = np.diff(t)
    dt = float(steps[0])
    if not np.allclose(steps, dt, rtol=1e-9, atol=0.0):
        raise ValueError("series time column is not uniformly spaced")
    return dt


def cmd_generate(args) -> int:
    params = _storage_params(args)
    model = _load_model(args.model, args.dt)
    omega = armodel.simulate(model, args.n, args.seed, args.burn_in)
    t = np.arange(args.n) * model.dt
    storage.save_series(args.out, t, omega, storage.pto_power(omega, params))
    print(f"wrote {args.n} steps ({args.n * model.dt:.1f} s) to {args.out}")
    return EXIT_OK


def cmd_fit(args) -> int:
    t, omega, _ = storage.load_series(args.series)
    dt = _series_dt(t)
    if dt <= 0.0:
        raise ValueError("need at least two samples to infer the timestep")
    if args.method == "cls":
        model = armodel.fit_cls(omega, args.p, dt)
        provenance = {"method": "cls", "lag_count": None, "criterion": None}
    else:
        lag_count = max(args.p, int(round(args.lag_seconds / dt)))
        acf = armodel.sample_acf(omega, lag_count, dt)
        phi, criterion = armodel.fit_multilag(acf, args.p, lag_count)
        gamma0 = float(np.var(omega))
        # the fitted model's own rho(1..p): 1 - phi . rho is then positive for
        # every stationary phi, which the sample rho does not guarantee
        model_acf = armodel.theoretical_acf(phi, args.p, dt)
        sigma = armodel.innovation_std_from_acf(phi, gamma0, model_acf)
        model = armodel.ARModel(phi, sigma, dt)
        provenance = {"method": "multilag", "lag_count": lag_count, "criterion": criterion}
    armodel.save_ar_model(model, args.out, provenance)
    coeffs = ", ".join(f"{c:.6g}" for c in model.phi)
    print(f"fitted AR({model.p}) [{args.method}]: phi=({coeffs}), sigma_eps={model.sigma_eps:.6g}")
    print(f"wrote {args.out}")
    return EXIT_OK


def _write_policy_slices(policy: grids.GridFunction, path: Path, n_levels: int) -> None:
    """CSV slices of the policy over (omega, accel) at fixed energy levels.

    Intended for external plotting; one block of rows per energy level.
    """
    grid = policy.grid
    e_axis, om_axis, ac_axis = grid.axes
    levels = np.linspace(e_axis.lo, e_axis.hi, n_levels)
    e, om, ac = np.meshgrid(levels, om_axis.nodes, ac_axis.nodes, indexing="ij")
    pts = np.column_stack([e.ravel(), om.ravel(), ac.ravel()])
    rows = np.column_stack([pts, grids.interpolate(policy, pts)])
    np.savetxt(path, rows, fmt="%.17g", delimiter=",",
               header="e_sto,omega,accel,p_grid", comments="")


def cmd_solve(args) -> int:
    params = _storage_params(args)
    model = _load_model(args.model, args.dt)
    problem = storage.build_problem(model, params, n_noise=args.noise_nodes,
                                    n_controls=args.n_controls)
    grid = storage.default_state_grid(model, params, n_e=args.n_e,
                                      n_omega=args.n_omega, n_accel=args.n_accel)
    policy_tol = args.policy_tol
    if policy_tol is None:
        # converged = no node moved to a different control level
        policy_tol = 0.5 * params.p_max / (args.n_controls - 1)
    config = solver.SolverConfig(
        eval_tol=args.eval_tol,
        eval_max_sweeps=args.max_sweeps,
        max_improvements=args.max_improvements,
        policy_change_tol=policy_tol,
        threads=args.threads,
    )
    seed = storage.heuristic_policy_on_grid(grid, params)
    report = solver.policy_iteration(problem, seed, config)

    out_dir = Path(args.out_dir)
    paths = solver.save_report(report, out_dir, stem="solution")
    slices_path = out_dir / "policy_slices.csv"
    _write_policy_slices(report.policy[0], slices_path, args.slices)

    print(f"average cost J = {report.avg_cost:.6e} W^2 "
          f"(injected-power rms {report.avg_cost ** 0.5:.1f} W)")
    print(f"improvement steps: {report.improvement_steps} "
          f"(policy {'converged' if report.converged else 'truncated at the improvement cap'})")
    print(f"evaluation sweeps: {report.sweeps_per_evaluation}")
    capped = report.evaluation_converged.count(False)
    if capped:
        print(f"note: {capped} of {len(report.evaluation_converged)} evaluations stopped at the "
              f"{args.max_sweeps}-sweep cap before converging (final span/tolerance "
              f"{', '.join(f'{r:.3g}' for r in report.evaluation_span_ratio)})")
    for name, p in paths.items():
        print(f"wrote {name}: {p}")
    print(f"wrote slices: {slices_path}")
    return EXIT_OK


def _load_storage_policy(path: str, params: storage.StorageParams) -> grids.GridFunction:
    policy = grids.load_grid_function(path)
    if policy.grid.dim != 3:
        raise ValueError(
            f"policy grid has {policy.grid.dim} axes; the storage state (e_sto, omega, accel) needs 3"
        )
    e_axis = policy.grid.axes[0]
    if abs(e_axis.lo) > 1e-9 * params.e_rated or abs(e_axis.hi - params.e_rated) > 1e-9 * params.e_rated:
        raise ValueError(
            f"policy energy axis [{e_axis.lo}, {e_axis.hi}] does not match e_rated={params.e_rated}"
        )
    return policy


def _policy_fn(spec: str, params: storage.StorageParams):
    if spec == "heuristic":
        return storage.heuristic_policy_fn(params)
    return storage.grid_policy_fn(_load_storage_policy(spec, params))


def _load_storage_series(series_path, params: storage.StorageParams):
    """Speed and optional production columns of a series sampled at the storage timestep."""
    t, omega, p_prod = storage.load_series(series_path)
    dt = _series_dt(t)
    if dt > 0.0 and abs(dt - params.dt) > 1e-9 * params.dt:
        raise ValueError(f"series timestep {dt} != storage timestep {params.dt}")
    return omega, p_prod


def _metrics_doc(m: storage.SmoothingMetrics) -> dict:
    return {
        "std_p_grid": m.std_p_grid,
        "mean_p_grid": m.mean_p_grid,
        "quadratic_cost": m.quadratic_cost,
        "e_sto_min": m.e_sto_min,
        "e_sto_max": m.e_sto_max,
    }


def cmd_simulate(args) -> int:
    params = _storage_params(args)
    e0 = params.e_rated / 2.0 if args.e0 is None else args.e0
    policy_fn = _policy_fn(args.policy, params)
    omega, _ = _load_storage_series(args.series, params)
    traj = storage.simulate_trajectory(policy_fn, omega, params, e0)
    storage.save_trajectory(traj, args.out)
    m = storage.metrics(traj)
    if args.metrics_out:
        Path(args.metrics_out).write_text(json.dumps(_metrics_doc(m), indent=2) + "\n")
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
        omega, p_prod = _load_storage_series(series_path, params)
        if p_prod is None:
            p_prod = storage.pto_power(omega, params)
        heur = storage.metrics(storage.simulate_trajectory(heuristic_fn, omega, params, e0))
        opti = storage.metrics(storage.simulate_trajectory(optimized_fn, omega, params, e0))
        reduction = 100.0 * (1.0 - opti.std_p_grid / heur.std_p_grid)
        per_series.append({
            "series": str(series_path),
            "std_no_storage": float(np.std(p_prod)),
            "std_heuristic": heur.std_p_grid,
            "std_optimized": opti.std_p_grid,
            "reduction_vs_heuristic_pct": reduction,
        })
    mean_reduction = float(np.mean([s["reduction_vs_heuristic_pct"] for s in per_series]))
    doc = {"series": per_series, "mean_reduction_pct": mean_reduction}
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
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
        epilog="exit codes: 0 ok, 2 usage/invalid input, 3 I/O failure, 4 solver non-convergence",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="synthesize a speed series from an AR model")
    p.add_argument("--model", help="model JSON (default: bundled AR(2) speed model)")
    p.add_argument("--n", type=_positive_int, default=10000, help="number of steps (default 10000)")
    p.add_argument("--seed", type=int, default=0, help="random seed (default 0)")
    p.add_argument("--burn-in", type=int, default=None,
                   help="warm-up steps to discard (default: 10 characteristic times)")
    p.add_argument("--out", required=True, help="output CSV path")
    _add_storage_flags(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("fit", help="fit an AR model to a speed series")
    p.add_argument("--series", required=True, help="input CSV with t,omega columns")
    p.add_argument("--p", type=_positive_int, default=2, help="model order (default 2)")
    p.add_argument("--method", choices=("multilag", "cls"), default="multilag",
                   help="fitting method (default multilag)")
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
    p.add_argument("--max-sweeps", type=_positive_int, default=1000,
                   help="sweep cap per policy evaluation (default 1000)")
    p.add_argument("--eval-tol", type=_positive_float, default=1e-9,
                   help="relative span tolerance per evaluation (default 1e-9)")
    p.add_argument("--max-improvements", type=_positive_int, default=10,
                   help="policy improvement cap (default 10)")
    p.add_argument("--policy-tol", type=_positive_float, default=None,
                   help="stop when the largest control change falls below this "
                        "(default: half a control level)")
    p.add_argument("--threads", type=_positive_int, default=1,
                   help="sweep parallelism (results are identical for any value)")
    p.add_argument("--slices", type=_positive_int, default=DEFAULT_SLICES,
                   help="fixed-energy levels in the policy-slice CSV (default 7)")
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
    except solver.DivergenceError as exc:
        print(f"sdpkit: solver failed to converge: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENCE
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
