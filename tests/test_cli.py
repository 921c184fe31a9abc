"""End-to-end tests of the command-line interface (in-process where possible)."""

import json
import subprocess
import sys

import numpy as np
import pytest

from sdpkit import armodel, cli, grids, storage


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture()
def speed_csv(tmp_path):
    path = tmp_path / "speed.csv"
    assert run_cli("generate", "--n", "400", "--seed", "3", "--out", str(path)) == 0
    return path


class TestGenerate:
    def test_writes_production_column(self, speed_csv):
        t, omega, p_prod = storage.load_series(speed_csv)
        assert t.size == omega.size == p_prod.size == 400
        assert np.allclose(np.diff(t), 0.1, rtol=0, atol=1e-12)
        params = storage.StorageParams()
        assert np.array_equal(p_prod, storage.pto_power(omega, params))

    def test_deterministic_bytes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_cli("generate", "--n", "100", "--seed", "9", "--out", str(a))
        run_cli("generate", "--n", "100", "--seed", "9", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_the_series(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        run_cli("generate", "--n", "100", "--seed", "1", "--out", str(a))
        run_cli("generate", "--n", "100", "--seed", "2", "--out", str(b))
        assert a.read_bytes() != b.read_bytes()

    def test_custom_model_file(self, tmp_path):
        model_path = tmp_path / "ar1.json"
        armodel.save_ar_model(armodel.ARModel((0.8,), 0.05, 0.1), model_path)
        out = tmp_path / "series.csv"
        assert run_cli("generate", "--model", str(model_path), "--n", "50",
                       "--out", str(out)) == 0
        _, omega, _ = storage.load_series(out)
        assert omega.size == 50

    def test_model_timestep_must_match(self, tmp_path):
        model_path = tmp_path / "wrong_dt.json"
        armodel.save_ar_model(armodel.ARModel((0.8,), 0.05, 0.2), model_path)
        code = run_cli("generate", "--model", str(model_path), "--n", "10",
                       "--out", str(tmp_path / "x.csv"))
        assert code == cli.EXIT_USAGE


class TestFit:
    def test_multilag_recovers_an_ar1(self, tmp_path):
        series = tmp_path / "series.csv"
        omega = armodel.simulate(armodel.ARModel((0.8,), 0.1, 0.1), n=30_000, seed=5)
        storage.save_series(series, np.arange(omega.size) * 0.1, omega)
        out = tmp_path / "model.json"
        assert run_cli("fit", "--series", str(series), "--p", "1",
                       "--lag-seconds", "2.0", "--out", str(out)) == 0
        model, fit = armodel.load_ar_model(out)
        assert model.phi[0] == pytest.approx(0.8, abs=0.05)
        assert model.sigma_eps == pytest.approx(0.1, rel=0.1)
        assert model.dt == pytest.approx(0.1, rel=1e-12)
        assert fit["method"] == "multilag"
        assert fit["lag_count"] == 20
        assert fit["criterion"] >= 0.0

    def test_cls_method(self, tmp_path):
        series = tmp_path / "series.csv"
        omega = armodel.simulate(armodel.ARModel((0.8,), 0.1, 0.1), n=30_000, seed=6)
        storage.save_series(series, np.arange(omega.size) * 0.1, omega)
        out = tmp_path / "model.json"
        assert run_cli("fit", "--series", str(series), "--p", "1",
                       "--method", "cls", "--out", str(out)) == 0
        model, fit = armodel.load_ar_model(out)
        assert model.phi[0] == pytest.approx(0.8, abs=0.02)
        assert fit["method"] == "cls"

    def test_default_order_two_on_bundled_data(self, speed_csv, tmp_path):
        out = tmp_path / "model.json"
        assert run_cli("fit", "--series", str(speed_csv), "--out", str(out)) == 0
        model, fit = armodel.load_ar_model(out)
        assert model.p == 2
        assert armodel.is_stationary(model.phi)
        assert fit["lag_count"] == 150  # 15 s of 0.1 s lags

    @pytest.mark.parametrize("n, seed", [(1000, 1), (2000, 7)])
    def test_near_unit_root_fit_has_a_positive_innovation_std(self, tmp_path, n, seed):
        series = tmp_path / "series.csv"
        assert run_cli("generate", "--n", str(n), "--seed", str(seed), "--out", str(series)) == 0
        out = tmp_path / "model.json"
        assert run_cli("fit", "--series", str(series), "--out", str(out)) == 0
        model, fit = armodel.load_ar_model(out)
        _, omega, _ = storage.load_series(series)
        # the sample autocorrelations would give a negative innovation variance
        sample = armodel.sample_acf(omega, fit["lag_count"], 0.1).values
        assert 1.0 - np.dot(model.phi, sample[1:3]) < 0.0
        # the fitted model's own ones give the true sigma_eps (0.00347) back
        rho = armodel.theoretical_acf(model.phi, 2, 0.1).values
        expected = np.sqrt(np.var(omega) * (1.0 - np.dot(model.phi, rho[1:3])))
        assert model.sigma_eps == pytest.approx(expected, rel=1e-6)
        assert model.sigma_eps == pytest.approx(0.00347, rel=0.25)

    def test_missing_file_is_an_io_error(self, tmp_path):
        code = run_cli("fit", "--series", str(tmp_path / "absent.csv"),
                       "--out", str(tmp_path / "m.json"))
        assert code == cli.EXIT_IO

    def test_invalid_order_is_a_usage_error(self, speed_csv, tmp_path):
        with pytest.raises(SystemExit) as info:
            run_cli("fit", "--series", str(speed_csv), "--p", "0",
                    "--out", str(tmp_path / "m.json"))
        assert info.value.code == cli.EXIT_USAGE


@pytest.fixture(scope="module")
def tiny_solution(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("tiny_solve")
    code = run_cli(
        "solve", "--out-dir", str(out_dir),
        "--n-e", "4", "--n-omega", "5", "--n-accel", "5",
        "--noise-nodes", "3", "--n-controls", "5",
        "--max-sweeps", "300", "--max-improvements", "3",
    )
    assert code == 0
    return out_dir


class TestSolve:
    def test_artifacts_exist_and_load(self, tiny_solution):
        value = grids.load_grid_function(tiny_solution / "solution_value.gridfn")
        policy = grids.load_grid_function(tiny_solution / "solution_policy_u0.gridfn")
        assert value.grid.shape == (4, 5, 5)
        assert policy.grid == value.grid
        params = storage.StorageParams()
        assert np.all(policy.values >= 0.0)
        assert np.all(policy.values <= params.p_max)

    def test_report_summary(self, tiny_solution):
        doc = json.loads((tiny_solution / "solution_report.json").read_text())
        assert doc["avg_cost"] > 0.0
        assert 1 <= doc["improvement_steps"] <= 3
        assert len(doc["avg_cost_history"]) == doc["improvement_steps"]

    def test_policy_slices_table(self, tiny_solution):
        lines = (tiny_solution / "policy_slices.csv").read_text().strip().splitlines()
        assert lines[0] == "e_sto,omega,accel,p_grid"
        assert len(lines) - 1 == 7 * 5 * 5  # default 7 energy levels over the speed plane
        block = np.loadtxt(tiny_solution / "policy_slices.csv", delimiter=",", skiprows=1)
        assert set(np.unique(block[:, 0]).round(3)).issuperset({0.0})
        assert block[:, 3].min() >= 0.0


    def test_sweep_cap_cut_off_is_reported(self, tmp_path, capsys):
        out_dir = tmp_path / "capped"
        code = run_cli(
            "solve", "--out-dir", str(out_dir),
            "--n-e", "4", "--n-omega", "5", "--n-accel", "5",
            "--noise-nodes", "3", "--n-controls", "5",
            "--max-sweeps", "1", "--max-improvements", "2",
        )
        assert code == 0
        doc = json.loads((out_dir / "solution_report.json").read_text())
        assert doc["sweeps_per_evaluation"] == [1] * doc["improvement_steps"]
        assert doc["evaluation_converged"] == [False] * doc["improvement_steps"]
        assert all(ratio > 1.0 for ratio in doc["evaluation_span_ratio"])
        assert len(doc["bracket_history"]) == doc["improvement_steps"]
        notes = [line for line in capsys.readouterr().out.splitlines() if "sweep cap" in line]
        assert len(notes) == 1
        assert notes[0].startswith(f"note: {doc['improvement_steps']} of {doc['improvement_steps']} evaluations")

    def test_report_records_each_evaluation_and_bracket(self, tiny_solution):
        doc = json.loads((tiny_solution / "solution_report.json").read_text())
        steps = doc["improvement_steps"]
        assert len(doc["evaluation_converged"]) == len(doc["evaluation_span_ratio"]) == steps
        for converged, ratio in zip(doc["evaluation_converged"], doc["evaluation_span_ratio"]):
            assert converged == (ratio <= 1.0)
        assert len(doc["bracket_history"]) == steps
        for lo, hi in doc["bracket_history"]:
            assert lo <= hi


class TestSimulate:
    def test_heuristic_run_with_metrics(self, speed_csv, tmp_path):
        traj_path = tmp_path / "traj.csv"
        metrics_path = tmp_path / "metrics.json"
        code = run_cli("simulate", "--policy", "heuristic", "--series", str(speed_csv),
                       "--out", str(traj_path), "--metrics-out", str(metrics_path))
        assert code == 0
        traj = storage.load_trajectory(traj_path)
        assert traj.e_sto[0] == 5e6  # default initial charge: half the rated energy
        assert np.array_equal(traj.energy_path()[1:], traj.e_sto + traj.p_sto * 0.1)
        doc = json.loads(metrics_path.read_text())
        assert set(doc) == {"std_p_grid", "mean_p_grid", "quadratic_cost",
                            "e_sto_min", "e_sto_max"}
        assert doc["std_p_grid"] == pytest.approx(float(np.std(traj.p_grid)), rel=1e-12)

    def test_solved_policy_runs(self, tiny_solution, speed_csv, tmp_path):
        traj_path = tmp_path / "traj.csv"
        code = run_cli("simulate", "--policy",
                       str(tiny_solution / "solution_policy_u0.gridfn"),
                       "--series", str(speed_csv), "--out", str(traj_path))
        assert code == 0
        traj = storage.load_trajectory(traj_path)
        energy = traj.energy_path()
        assert np.all(energy >= 0.0) and np.all(energy <= 10e6)

    def test_explicit_initial_charge(self, speed_csv, tmp_path):
        traj_path = tmp_path / "traj.csv"
        assert run_cli("simulate", "--policy", "heuristic", "--series", str(speed_csv),
                       "--e0", "1e6", "--out", str(traj_path)) == 0
        assert storage.load_trajectory(traj_path).e_sto[0] == 1e6

    def test_wrong_policy_shape_is_a_usage_error(self, speed_csv, tmp_path):
        g = grids.build_grid([(0.0, 1.0, 3)])
        bad = tmp_path / "bad.gridfn"
        grids.save_grid_function(grids.GridFunction(g, np.zeros(3)), bad)
        code = run_cli("simulate", "--policy", str(bad), "--series", str(speed_csv),
                       "--out", str(tmp_path / "t.csv"))
        assert code == cli.EXIT_USAGE

    @pytest.mark.parametrize("meta", [
        "[]",
        '{"format": "gridfn-v1", "axes": [{"lo": 0, "n": 2}], "payload": "p.bin", "value_count": 2}',
    ], ids=["list", "axis-without-hi"])
    def test_malformed_policy_file_is_a_usage_error(self, speed_csv, tmp_path, meta, capsys):
        bad = tmp_path / "bad.gridfn"
        bad.write_text(meta)
        code = run_cli("simulate", "--policy", str(bad), "--series", str(speed_csv),
                       "--out", str(tmp_path / "t.csv"))
        assert code == cli.EXIT_USAGE
        assert "invalid input" in capsys.readouterr().err

    def test_mismatched_energy_axis_is_a_usage_error(self, tiny_solution, speed_csv, tmp_path):
        code = run_cli("simulate", "--policy",
                       str(tiny_solution / "solution_policy_u0.gridfn"),
                       "--series", str(speed_csv), "--e-rated", "2e6",
                       "--out", str(tmp_path / "t.csv"))
        assert code == cli.EXIT_USAGE

    def test_mismatched_series_timestep_is_a_usage_error(self, tmp_path):
        series = tmp_path / "slow.csv"
        storage.save_series(series, np.arange(5) * 0.2, np.full(5, 0.3))
        code = run_cli("simulate", "--policy", "heuristic", "--series", str(series),
                       "--out", str(tmp_path / "t.csv"))
        assert code == cli.EXIT_USAGE
        code = run_cli("compare", "--policy", "heuristic", "--series", str(series),
                       "--out", str(tmp_path / "cmp.json"))
        assert code == cli.EXIT_USAGE
        assert not (tmp_path / "cmp.json").exists()


class TestCompare:
    def test_self_comparison_reports_zero_reduction(self, speed_csv, tmp_path):
        out = tmp_path / "cmp.json"
        code = run_cli("compare", "--policy", "heuristic",
                       "--series", str(speed_csv), str(speed_csv),
                       "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert len(doc["series"]) == 2
        assert doc["mean_reduction_pct"] == pytest.approx(0.0, abs=1e-9)
        entry = doc["series"][0]
        assert entry["std_heuristic"] == entry["std_optimized"]
        assert entry["std_no_storage"] > entry["std_heuristic"]

    def test_solved_policy_compares(self, tiny_solution, speed_csv, tmp_path):
        out = tmp_path / "cmp.json"
        code = run_cli("compare", "--policy",
                       str(tiny_solution / "solution_policy_u0.gridfn"),
                       "--series", str(speed_csv), "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert "reduction_vs_heuristic_pct" in doc["series"][0]


class TestParserBasics:
    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as info:
            run_cli()
        assert info.value.code == cli.EXIT_USAGE

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as info:
            run_cli("generate", "--frequency", "2")
        assert info.value.code == cli.EXIT_USAGE

    def test_console_script_is_wired(self, tmp_path):
        out = tmp_path / "series.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "sdpkit.cli", "generate", "--n", "5",
             "--seed", "0", "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "wrote 5 steps" in proc.stdout
        assert out.exists()

    def test_help_lists_all_subcommands(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli("--help")
        assert info.value.code == 0
        text = capsys.readouterr().out
        for name in ("generate", "fit", "solve", "simulate", "compare"):
            assert name in text
