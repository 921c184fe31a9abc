"""End-to-end tests of the command-line interface (in-process where possible)."""

import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

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


def with_production_column(series: Path, out: Path) -> Path:
    """The series as older versions wrote it: a third column of production at the default storage."""
    t, omega = storage.load_series(series)
    p_prod = storage.pto_power(omega, storage.StorageParams())
    storage.write_csv(out, np.column_stack([t, omega, p_prod]), "t,omega,p_prod")
    return out


class TestGenerate:
    def test_writes_time_and_speed_only(self, speed_csv):
        assert speed_csv.read_text().splitlines()[0] == "t,omega"
        t, omega = storage.load_series(speed_csv)
        assert t.size == omega.size == 400
        assert np.allclose(np.diff(t), 0.1, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("flag", ["--e-rated", "--p-max", "--beta", "--dt"])
    def test_takes_no_storage_flag(self, tmp_path, flag):
        with pytest.raises(SystemExit) as info:
            run_cli("generate", "--n", "5", "--out", str(tmp_path / "s.csv"), flag, "2e6")
        assert info.value.code == cli.EXIT_USAGE
        assert not (tmp_path / "s.csv").exists()

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

    @pytest.mark.parametrize("seed", ["1", "2", "3"])
    def test_bytes_equal_those_of_the_lfilter_path(self, tmp_path, monkeypatch, seed):
        # the series as scipy.signal.lfilter filtered them, at the default length and burn-in
        from scipy.signal import lfilter

        def lfilter_simulate(model, n, seed):
            burn_in = armodel._default_burn_in(model.phi)
            eps = np.random.default_rng(seed).normal(0.0, model.sigma_eps, size=n + burn_in)
            return lfilter([1.0], np.concatenate([[1.0], -np.asarray(model.phi)]), eps)[burn_in:]

        assert run_cli("generate", "--seed", seed, "--out", str(tmp_path / "kernel.csv")) == 0
        monkeypatch.setattr(armodel, "simulate", lfilter_simulate)
        assert run_cli("generate", "--seed", seed, "--out", str(tmp_path / "lfilter.csv")) == 0
        assert (tmp_path / "kernel.csv").read_bytes() == (tmp_path / "lfilter.csv").read_bytes()

    def test_custom_model_file(self, tmp_path):
        model_path = tmp_path / "ar1.json"
        armodel.save_ar_model(armodel.ARModel((0.8,), 0.05, 0.2), model_path)
        out = tmp_path / "series.csv"
        assert run_cli("generate", "--model", str(model_path), "--n", "50",
                       "--out", str(out)) == 0
        t, omega = storage.load_series(out)
        assert omega.size == 50
        assert np.array_equal(t, np.arange(50) * 0.2)  # the model's own timestep

    @pytest.mark.parametrize("doc", ["[]", '{"format": "armodel-v1"}'], ids=["list", "no-fields"])
    def test_malformed_model_file_is_a_usage_error(self, tmp_path, doc, capsys):
        model_path = tmp_path / "bad.json"
        model_path.write_text(doc)
        code = run_cli("generate", "--model", str(model_path), "--n", "10",
                       "--out", str(tmp_path / "x.csv"))
        assert code == cli.EXIT_USAGE
        assert "invalid input" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_a_model_whose_default_burn_in_exceeds_the_cap_is_a_usage_error(self, tmp_path, capsys):
        model_path = tmp_path / "slow.json"
        armodel.save_ar_model(armodel.ARModel(tuple(armodel.phi_from_pacf(np.tanh([3.2] * 4))), 1.0, 0.1), model_path)
        code = run_cli("generate", "--model", str(model_path), "--n", "10", "--out", str(tmp_path / "x.csv"))
        assert code == cli.EXIT_USAGE
        assert "slowest characteristic time" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()


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

    def test_default_order_two_on_bundled_data(self, speed_csv, tmp_path):
        out = tmp_path / "model.json"
        assert run_cli("fit", "--series", str(speed_csv), "--out", str(out)) == 0
        legacy_out = tmp_path / "legacy_model.json"
        legacy = with_production_column(speed_csv, tmp_path / "legacy.csv")
        assert run_cli("fit", "--series", str(legacy), "--out", str(legacy_out)) == 0
        assert legacy_out.read_bytes() == out.read_bytes()
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
        _, omega = storage.load_series(series)
        # the sample autocorrelations would give a negative innovation variance
        sample = armodel.sample_acf(omega, fit["lag_count"]).values
        assert 1.0 - np.dot(model.phi, sample[1:3]) < 0.0
        # the fitted model's own ones give the true sigma_eps (0.00347) back
        rho = armodel.theoretical_acf(model.phi, 2).values
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


TINY_GRID = ("--n-e", "4", "--n-omega", "5", "--n-accel", "5")


@pytest.fixture(scope="module")
def tiny_solution(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("tiny_solve")
    code = run_cli(
        "solve", "--out-dir", str(out_dir), *TINY_GRID,
        "--noise-nodes", "3", "--n-controls", "5",
        "--max-sweeps", "300", "--max-improvements", "3",
    )
    assert code == 0
    return out_dir


class TestSolve:
    def test_model_timestep_must_match(self, tmp_path, capsys):
        model_path = tmp_path / "wrong_dt.json"
        armodel.save_ar_model(armodel.ARModel((1.5, -0.7), 0.05, 0.2), model_path)
        code = run_cli("solve", "--model", str(model_path), *TINY_GRID, "--out-dir", str(tmp_path / "solution"))
        assert code == cli.EXIT_USAGE
        assert "model timestep 0.2 != storage timestep 0.1" in capsys.readouterr().err
        assert not (tmp_path / "solution").exists()

    def test_model_fitted_to_an_offset_time_column_solves(self, tmp_path):
        """Rounding in t = 1000 + 0.1 k moves each step by about 2e-13 relative; the mean step stays within 1e-15."""
        omega = armodel.simulate(storage.bundled_speed_model(), 3000, seed=4)
        series = tmp_path / "offset.csv"
        storage.save_series(series, 1000.0 + 0.1 * np.arange(omega.size), omega)
        model_path = tmp_path / "model.json"
        assert run_cli("fit", "--series", str(series), "--out", str(model_path)) == 0
        model, _ = armodel.load_ar_model(model_path)
        assert model.dt == pytest.approx(0.1, rel=1e-15, abs=0.0)
        assert run_cli("solve", "--model", str(model_path), *TINY_GRID, "--max-sweeps", "50",
                       "--max-improvements", "1", "--out-dir", str(tmp_path / "solution")) == cli.EXIT_OK
        assert run_cli("simulate", "--policy", "heuristic", "--series", str(series),
                       "--out", str(tmp_path / "t.csv")) == cli.EXIT_OK

    def test_malformed_model_file_is_a_usage_error(self, tmp_path, capsys):
        model_path = tmp_path / "bad.json"
        model_path.write_text(json.dumps({"format": armodel.ARMODEL_FORMAT, "p": 2, "phi": "12",
                                          "sigma_eps": 0.1, "dt": 0.1}))
        code = run_cli("solve", "--model", str(model_path), *TINY_GRID, "--out-dir", str(tmp_path / "solution"))
        assert code == cli.EXIT_USAGE
        assert "malformed field phi" in capsys.readouterr().err
        assert not (tmp_path / "solution").exists()

    @pytest.mark.parametrize("flag", ["--n-e", "--n-omega", "--n-accel"])
    def test_one_node_axis_is_a_usage_error(self, tmp_path, capsys, flag):
        # a lone energy node would make its axis a free wall and certify J = 0
        grid = list(TINY_GRID)
        grid[grid.index(flag) + 1] = "1"
        out_dir = tmp_path / "solution"
        code = run_cli("solve", *grid, "--out-dir", str(out_dir))
        assert code == cli.EXIT_USAGE
        err = capsys.readouterr().err
        assert "at least two nodes, got n=1" in err
        # the message names the axis whose flag was 1, and no other
        named = {"--n-e": "energy (n_e)", "--n-omega": "speed (n_omega)", "--n-accel": "accel (n_accel)"}
        assert [name for name in named.values() if name in err] == [named[flag]]
        assert not out_dir.exists()

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
        # every list holds one entry per improvement step, though the evaluations ran many more sweeps
        assert all(len(v) <= doc["improvement_steps"] for v in doc.values() if isinstance(v, list))
        assert sum(doc["sweeps_per_evaluation"]) > doc["improvement_steps"]

    def test_policy_slices_table(self, tiny_solution):
        lines = (tiny_solution / "policy_slices.csv").read_text().strip().splitlines()
        assert lines[0] == "e_sto,omega,accel,p_grid"
        assert len(lines) - 1 == 7 * 5 * 5  # default 7 energy levels over the speed plane
        block = np.loadtxt(tiny_solution / "policy_slices.csv", delimiter=",", skiprows=1)
        assert set(np.unique(block[:, 0]).round(3)).issuperset({0.0})
        assert block[:, 3].min() >= 0.0


    def test_policy_slices_equal_one_whole_batch_interpolation(self, tmp_path):
        # the slices are interpolated one energy level at a time; the bytes are those of one batch of all levels
        grid = grids.build_grid([(0.0, 1e7, 9), (-1.0, 1.0, 12), (-0.5, 0.5, 11)])
        policy = grids.GridFunction(grid, np.random.default_rng(7).uniform(0.0, 1.1e6, grid.size))
        cli._write_policy_slices(policy, tmp_path / "slices.csv")
        levels = np.linspace(0.0, 1e7, cli.DEFAULT_SLICES)
        e, om, ac = np.meshgrid(levels, grid.axes[1].nodes, grid.axes[2].nodes, indexing="ij")
        pts = np.column_stack([e.ravel(), om.ravel(), ac.ravel()])
        storage.write_csv(tmp_path / "batch.csv", np.column_stack([pts, grids.interpolate(policy, pts)]),
                          "e_sto,omega,accel,p_grid")
        assert (tmp_path / "slices.csv").read_bytes() == (tmp_path / "batch.csv").read_bytes()

    def test_sweep_cap_cut_off_is_reported(self, tmp_path, capsys):
        out_dir = tmp_path / "capped"
        code = run_cli(
            "solve", "--out-dir", str(out_dir), *TINY_GRID,
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

    def test_certified_solve_prints_its_bracket(self, tmp_path, capsys):
        out_dir = tmp_path / "certified"
        assert run_cli("solve", "--out-dir", str(out_dir), *TINY_GRID) == 0
        doc = json.loads((out_dir / "solution_report.json").read_text())
        assert doc["converged"] and all(doc["evaluation_converged"])
        lo, hi = doc["bracket_history"][-1]
        out = capsys.readouterr().out.splitlines()
        assert f"optimal average cost in [{lo:.10e}, {hi:.10e}] W^2, width {(hi - lo) / doc['avg_cost']:.3g} of |J|" in out
        assert f"improvement steps: {doc['improvement_steps']} (certified)" in out
        assert not any("sweep cap" in line for line in out)

    def test_report_times_each_improvement_step(self, tmp_path, capsys):
        out_dir = tmp_path / "timed"
        assert run_cli("solve", "--out-dir", str(out_dir), *TINY_GRID, "--max-sweeps", "20",
                       "--max-improvements", "2", "--threads", "2") == 0
        doc = json.loads((out_dir / "solution_report.json").read_text())
        steps = doc["improvement_steps"]
        assert len(doc["evaluation_seconds"]) == len(doc["improvement_seconds"]) == steps
        assert all(s > 0.0 for s in doc["evaluation_seconds"] + doc["improvement_seconds"])
        assert isinstance(doc["lookahead_seconds"], float) and doc["lookahead_seconds"] > 0.0
        timing = [line for line in capsys.readouterr().out.splitlines() if "ms per sweep" in line]
        assert len(timing) == 1 and timing[0].startswith("evaluation ")
        ms_per_sweep = 1e3 * sum(doc["evaluation_seconds"]) / sum(doc["sweeps_per_evaluation"])
        assert timing[0].startswith(f"evaluation {ms_per_sweep:.3g} ms per sweep")
        assert timing[0].endswith(f"lookahead build {doc['lookahead_seconds']:.3g} s")

    def test_report_records_each_evaluation_and_bracket(self, tiny_solution):
        doc = json.loads((tiny_solution / "solution_report.json").read_text())
        steps = doc["improvement_steps"]
        assert len(doc["evaluation_converged"]) == len(doc["evaluation_span_ratio"]) == steps
        for converged, ratio in zip(doc["evaluation_converged"], doc["evaluation_span_ratio"]):
            assert converged == (ratio <= 1.0)
        assert len(doc["bracket_history"]) == steps
        for lo, hi in doc["bracket_history"]:
            assert lo <= hi
        lo, hi = doc["bracket_history"][-1]
        assert doc["converged"] == (hi - lo <= 1e-9 * (abs(doc["avg_cost"]) + 1.0))  # the default --eval-tol


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
        legacy_path = tmp_path / "legacy_traj.csv"
        legacy = with_production_column(speed_csv, tmp_path / "legacy.csv")
        for series, out in ((speed_csv, traj_path), (legacy, legacy_path)):
            code = run_cli("simulate", "--policy",
                           str(tiny_solution / "solution_policy_u0.gridfn"),
                           "--series", str(series), "--out", str(out))
            assert code == 0
        assert legacy_path.read_bytes() == traj_path.read_bytes()
        traj = storage.load_trajectory(traj_path)
        energy = traj.energy_path()
        assert np.all(energy >= 0.0) and np.all(energy <= 10e6)

    def test_explicit_initial_charge(self, speed_csv, tmp_path):
        traj_path = tmp_path / "traj.csv"
        assert run_cli("simulate", "--policy", "heuristic", "--series", str(speed_csv),
                       "--e0", "1e6", "--out", str(traj_path)) == 0
        assert storage.load_trajectory(traj_path).e_sto[0] == 1e6

    def test_wrong_policy_shape_is_a_usage_error(self, speed_csv, tmp_path, capsys):
        # the 2-axis table's first axis is the storage's energy axis, so only the axis count is wrong
        for axes in ([(0.0, 1.0, 3)], [(0.0, 10e6, 3), (-1.0, 1.0, 4)]):
            g = grids.build_grid(axes)
            bad = tmp_path / "bad.gridfn"
            grids.save_grid_function(grids.GridFunction(g, np.zeros(g.size)), bad)
            code = run_cli("simulate", "--policy", str(bad), "--series", str(speed_csv),
                           "--out", str(tmp_path / "t.csv"))
            assert code == cli.EXIT_USAGE
            assert f"storage policies are 3-dimensional, got {len(axes)} axes" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("meta", [
        "[]",
        '{"format": "gridfn-v1", "axes": [{"lo": 0, "n": 2}], "payload": "p.bin", "value_count": 2, '
        '"dtype": "<f8", "order": "row-major"}',
        '{"format": "gridfn-v1", "axes": [{"lo": 0, "hi": 1, "n": 2}], "payload": "p.bin", "value_count": 2, '
        '"dtype": ">f8", "order": "row-major"}',
        '{"format": "gridfn-v1", "axes": [{"lo": 0, "hi": 1, "n": 2}], "payload": "p.bin", "value_count": 2, '
        '"dtype": "<f8", "order": "column-major"}',
    ], ids=["list", "axis-without-hi", "big-endian", "column-major"])
    def test_malformed_policy_file_is_a_usage_error(self, speed_csv, tmp_path, meta, capsys):
        bad = tmp_path / "bad.gridfn"
        bad.write_text(meta)
        code = run_cli("simulate", "--policy", str(bad), "--series", str(speed_csv),
                       "--out", str(tmp_path / "t.csv"))
        assert code == cli.EXIT_USAGE
        assert "invalid input" in capsys.readouterr().err

    def test_mismatched_energy_axis_is_a_usage_error(self, tiny_solution, speed_csv, tmp_path, capsys):
        code = run_cli("simulate", "--policy",
                       str(tiny_solution / "solution_policy_u0.gridfn"),
                       "--series", str(speed_csv), "--e-rated", "2e6",
                       "--out", str(tmp_path / "t.csv"))
        assert code == cli.EXIT_USAGE
        assert "policy energy axis [0.0, 10000000.0] does not match e_rated=2000000.0" in capsys.readouterr().err
        # a policy solved for a smaller store, run at the default capacity
        small = tmp_path / "small"
        assert run_cli("solve", "--out-dir", str(small), *TINY_GRID, "--max-sweeps", "20",
                       "--max-improvements", "1", "--e-rated", "5e6") == cli.EXIT_OK
        capsys.readouterr()
        code = run_cli("simulate", "--policy", str(small / "solution_policy_u0.gridfn"),
                       "--series", str(speed_csv), "--out", str(tmp_path / "t.csv"))
        assert code == cli.EXIT_USAGE
        assert "policy energy axis [0.0, 5000000.0] does not match e_rated=10000000.0" in capsys.readouterr().err
        assert not (tmp_path / "t.csv").exists()

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

    @pytest.mark.parametrize("command", ["fit", "simulate", "compare"])
    def test_backward_time_column_is_a_usage_error(self, tmp_path, capsys, command):
        series = tmp_path / "backward.csv"
        storage.save_series(series, -0.1 * np.arange(50), np.sin(np.arange(50)))
        out = tmp_path / "out"
        argv = {"fit": ("fit", "--series", str(series)),
                "simulate": ("simulate", "--policy", "heuristic", "--series", str(series)),
                "compare": ("compare", "--policy", "heuristic", "--series", str(series))}[command]
        assert run_cli(*argv, "--out", str(out)) == cli.EXIT_USAGE
        assert "series time column must increase, got step -0.1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "simulate", "compare"])
    def test_unevenly_spaced_time_column_is_a_usage_error(self, tmp_path, capsys, command):
        series = tmp_path / "uneven.csv"
        t = 0.1 * np.arange(50)
        t[20:] += 0.05
        storage.save_series(series, t, np.sin(np.arange(50)))
        out = tmp_path / "out"
        argv = {"fit": ("fit", "--series", str(series)),
                "simulate": ("simulate", "--policy", "heuristic", "--series", str(series)),
                "compare": ("compare", "--policy", "heuristic", "--series", str(series))}[command]
        assert run_cli(*argv, "--out", str(out)) == cli.EXIT_USAGE
        assert "series time column is not uniformly spaced" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_one_node_policy_axis_is_a_usage_error(self, speed_csv, tmp_path, capsys, command):
        # written by hand: save_grid_function cannot write a one-node axis
        policy = tmp_path / "flat.gridfn"
        axes = [{"lo": 0.0, "hi": 1e7, "n": 1}, {"lo": -1.0, "hi": 1.0, "n": 2}, {"lo": -1.0, "hi": 1.0, "n": 2}]
        policy.write_text(json.dumps({"format": "gridfn-v1", "axes": axes, "value_count": 4,
                                      "payload": "flat.gridfn.bin", "dtype": "<f8", "order": "row-major"}))
        (tmp_path / "flat.gridfn.bin").write_bytes(np.zeros(4, dtype="<f8").tobytes())
        out = tmp_path / "out"
        assert run_cli(command, "--policy", str(policy), "--series", str(speed_csv), "--out", str(out)) == cli.EXIT_USAGE
        assert "axis 0: axis needs at least two nodes, got n=1" in capsys.readouterr().err
        assert not out.exists()

    def test_fit_on_a_single_sample_is_a_usage_error(self, tmp_path, capsys):
        series = tmp_path / "one.csv"
        storage.save_series(series, [0.0], [0.3])
        out = tmp_path / "model.json"
        assert run_cli("fit", "--series", str(series), "--out", str(out)) == cli.EXIT_USAGE
        assert "need at least two samples to infer the timestep" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "simulate", "compare"])
    def test_header_only_series_is_a_usage_error(self, tmp_path, capsys, command):
        series = tmp_path / "empty.csv"
        series.write_text("t,omega\n")
        out = tmp_path / "out"
        argv = {"fit": ("fit", "--series", str(series)),
                "simulate": ("simulate", "--policy", "heuristic", "--series", str(series)),
                "compare": ("compare", "--policy", "heuristic", "--series", str(series))}[command]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(*argv, "--out", str(out)) == cli.EXIT_USAGE
        assert f"{series} has no data rows" in capsys.readouterr().err
        assert not out.exists()


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

    def test_std_no_storage_uses_the_production_of_the_closed_loop(self, speed_csv, tmp_path):
        """The no-storage std is the production at compare's own --beta, the one both runs smooth."""
        _, omega = storage.load_series(speed_csv)
        docs = {}
        for beta in ("4.4e6", "2e6"):
            out = tmp_path / f"cmp{beta}.json"
            assert run_cli("compare", "--policy", "heuristic", "--series", str(speed_csv), "--beta", beta,
                           "--out", str(out)) == 0
            docs[beta] = json.loads(out.read_text())["series"][0]
            production = storage.pto_power(omega, storage.StorageParams(beta=float(beta)))
            assert docs[beta]["std_no_storage"] == float(np.std(production))
        assert docs["4.4e6"]["std_no_storage"] > docs["4.4e6"]["std_heuristic"]
        assert docs["4.4e6"]["std_no_storage"] != docs["2e6"]["std_no_storage"]

    def test_constant_heuristic_power_is_a_usage_error(self, tmp_path, capsys):
        calm = tmp_path / "calm.csv"
        storage.save_series(calm, np.arange(20) * 0.1, np.zeros(20))
        out = tmp_path / "cmp.json"
        code = run_cli("compare", "--policy", "heuristic", "--series", str(calm), "--e0", "0",
                       "--out", str(out))
        assert code == cli.EXIT_USAGE
        assert f"invalid input: {calm}: the heuristic's injected power is constant" in capsys.readouterr().err
        assert not out.exists()


class TestJsonWrites:
    """A crash at the final rename leaves each JSON and CSV artifact as it was, and no stray file."""

    @pytest.mark.parametrize("command", ["fit", "simulate", "compare", "generate", "simulate-csv", "solve"])
    def test_failed_write_keeps_the_previous_file(self, speed_csv, tmp_path, monkeypatch, command):
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        out = out_dir / ("policy_slices.csv" if command == "solve" else "doc")
        series = str(speed_csv)
        argv = {  # two runs whose documents at `out` differ
            "fit": lambda v: ("fit", "--series", series, "--lag-seconds", v, "--out", str(out)),
            "simulate": lambda v: ("simulate", "--policy", "heuristic", "--series", series, "--e0", f"{v}e6",
                                   "--out", str(tmp_path / "t.csv"), "--metrics-out", str(out)),
            "compare": lambda v: ("compare", "--policy", "heuristic", "--series", *[series] * int(v),
                                  "--out", str(out)),
            "generate": lambda v: ("generate", "--n", "50", "--seed", v, "--out", str(out)),
            "simulate-csv": lambda v: ("simulate", "--policy", "heuristic", "--series", series,
                                       "--e0", f"{v}e6", "--out", str(out)),
            "solve": lambda v: ("solve", "--out-dir", str(out_dir), *TINY_GRID, "--max-sweeps", "50",
                                "--max-improvements", "1", "--n-e", f"{3 + int(v)}"),
        }[command]
        def files():  # solve rewrites its solution files before the slices; only `out` must survive
            return sorted(p.name for p in out_dir.iterdir()), out.read_bytes()

        assert run_cli(*argv("1")) == cli.EXIT_OK
        before = files()
        real_replace = grids.os.replace

        def failing_replace(src, dst):
            if Path(dst) == out:
                raise OSError("simulated crash mid-write")
            real_replace(src, dst)

        monkeypatch.setattr(grids.os, "replace", failing_replace)
        assert run_cli(*argv("2")) == cli.EXIT_IO
        assert files() == before


# Runs in a fresh interpreter: importing the CLI, generating and fitting load no SciPy module,
# no solver and no concurrent.futures; solve loads the solver and scipy.sparse but not scipy.special,
# and solve, simulate and compare load neither scipy.optimize, scipy.linalg, scipy.signal nor scipy.stats.
START_UP_SCRIPT = """
import sys
from sdpkit import cli

work, series, *grid = sys.argv[1:]
def scipy_modules():
    return [name for name in sys.modules if name.split(".")[0] == "scipy"]
def solver_modules():
    return [name for name in ("sdpkit.solver", "concurrent.futures") if name in sys.modules]
assert not scipy_modules()
assert not solver_modules(), f"loaded by importing the CLI: {solver_modules()}"
assert cli.main(["generate", "--n", "20", "--out", f"{work}/g.csv"]) == 0
assert not scipy_modules(), f"loaded by generate: {scipy_modules()}"
assert not solver_modules(), f"loaded by generate: {solver_modules()}"
assert cli.main(["fit", "--series", series, "--out", f"{work}/m.json"]) == 0
assert not scipy_modules(), f"loaded by fit: {scipy_modules()}"
assert not solver_modules(), f"loaded by fit: {solver_modules()}"
policy = f"{work}/solution_policy_u0.gridfn"
assert cli.main(["solve", "--out-dir", work, *grid]) == 0
assert "sdpkit.solver" in sys.modules
assert "scipy.sparse" in sys.modules and "scipy.special" not in sys.modules
assert cli.main(["simulate", "--policy", policy, "--series", series, "--out", f"{work}/t.csv"]) == 0
assert cli.main(["compare", "--policy", policy, "--series", series]) == 0
unused = ("scipy.optimize", "scipy.linalg", "scipy.signal", "scipy.stats")
loaded = [name for name in unused if name in sys.modules]
assert not loaded, f"loaded by solve, simulate or compare: {loaded}"
"""

# Runs in a fresh interpreter: simulate and compare on a saved policy load no SciPy module at all,
# and neither the solver nor concurrent.futures.
NO_SCIPY_SCRIPT = """
import sys
from sdpkit import cli

work, series, policy = sys.argv[1:]
def solver_modules():
    return [name for name in ("sdpkit.solver", "concurrent.futures") if name in sys.modules]
assert cli.main(["simulate", "--policy", policy, "--series", series, "--out", f"{work}/t.csv"]) == 0
assert not solver_modules(), f"loaded by simulate: {solver_modules()}"
assert cli.main(["compare", "--policy", policy, "--series", series, "--out", f"{work}/c.json"]) == 0
assert not solver_modules(), f"loaded by compare: {solver_modules()}"
loaded = [name for name in sys.modules if name.split(".")[0] == "scipy"]
assert not loaded, f"loaded without solving or fitting: {loaded}"
"""

# Runs in a fresh interpreter: the solver runs its chunk threads without concurrent.futures.
SOLVER_IMPORT_SCRIPT = """
import sys
import sdpkit.solver

assert "concurrent.futures" not in sys.modules
"""


# Runs in a fresh interpreter: the first solve of a process starts its lookahead clock
# with scipy.sparse already loaded, so lookahead_seconds holds no import time.
LOOKAHEAD_CLOCK_SCRIPT = """
import sys, time
from sdpkit import solver, storage

model, params = storage.bundled_speed_model(), storage.StorageParams()
grid = storage.default_state_grid(model, params, 3, 4, 4)
problem = storage.build_problem(model, params, n_noise=3, n_controls=4)
config = solver.SolverConfig(eval_max_sweeps=5, max_improvements=1)
scipy_loaded = []
clock = time.perf_counter

def perf_counter():
    scipy_loaded.append("scipy.sparse" in sys.modules)
    return clock()

time.perf_counter = perf_counter
assert "scipy.sparse" not in sys.modules
if sys.argv[1] == "policy_iteration":
    solver.policy_iteration(problem, storage.heuristic_policy_on_grid(grid, params), config)
else:
    solver.value_iteration(problem, grid, config)
assert scipy_loaded and all(scipy_loaded), scipy_loaded
"""


def run_fresh(script: str, *argv) -> subprocess.CompletedProcess:
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})


class TestStartUpImports:
    def test_solve_simulate_compare_load_no_fit_only_scipy_module(self, speed_csv, tmp_path):
        proc = run_fresh(START_UP_SCRIPT, str(tmp_path), str(speed_csv), *TINY_GRID)
        assert proc.returncode == 0, proc.stderr

    def test_simulate_and_compare_load_no_scipy_module(self, tiny_solution, speed_csv, tmp_path):
        proc = run_fresh(NO_SCIPY_SCRIPT, str(tmp_path), str(speed_csv),
                         str(tiny_solution / "solution_policy_u0.gridfn"))
        assert proc.returncode == 0, proc.stderr

    def test_importing_the_solver_loads_no_concurrent_futures(self):
        proc = run_fresh(SOLVER_IMPORT_SCRIPT)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("solve", ["policy_iteration", "value_iteration"])
    def test_the_lookahead_clock_starts_after_scipy_is_loaded(self, solve):
        proc = run_fresh(LOOKAHEAD_CLOCK_SCRIPT, solve)
        assert proc.returncode == 0, proc.stderr


class TestParserBasics:
    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as info:
            run_cli()
        assert info.value.code == cli.EXIT_USAGE

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as info:
            run_cli("generate", "--frequency", "2")
        assert info.value.code == cli.EXIT_USAGE

    @pytest.mark.parametrize("value", ["inf", "nan"])
    @pytest.mark.parametrize("command, flag", [
        ("simulate", "--e-rated"), ("simulate", "--p-max"), ("simulate", "--beta"), ("simulate", "--dt"),
        ("fit", "--lag-seconds"), ("solve", "--eval-tol"),
    ])
    def test_non_finite_float_flag_exits_2(self, speed_csv, tmp_path, command, flag, value):
        required = {"simulate": ("--policy", "heuristic", "--series", str(speed_csv),
                                 "--out", str(tmp_path / "t.csv")),
                    "fit": ("--series", str(speed_csv), "--out", str(tmp_path / "m.json")),
                    "solve": (*TINY_GRID, "--out-dir", str(tmp_path / "solution"))}[command]
        with pytest.raises(SystemExit) as info:
            run_cli(command, *required, flag, value)
        assert info.value.code == cli.EXIT_USAGE

    @pytest.mark.parametrize("command, flag, value", [
        ("fit", "--method", "cls"), ("generate", "--burn-in", "0"), ("solve", "--slices", "3"),
    ])
    def test_removed_option_exits_2(self, speed_csv, tmp_path, command, flag, value):
        required = {"fit": ("--series", str(speed_csv), "--out", str(tmp_path / "m.json")),
                    "generate": ("--n", "5", "--out", str(tmp_path / "s.csv")),
                    "solve": (*TINY_GRID, "--out-dir", str(tmp_path / "solution"))}[command]
        with pytest.raises(SystemExit) as info:
            run_cli(command, *required, flag, value)
        assert info.value.code == cli.EXIT_USAGE
        assert [p.name for p in tmp_path.iterdir()] == ["speed.csv"]  # nothing written

    def test_policy_tolerance_flag_is_gone(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            run_cli("solve", "--out-dir", str(tmp_path), "--policy-tol", "1")
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
