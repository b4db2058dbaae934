"""End-to-end checks of the command-line harness."""

import argparse
import json
from pathlib import Path

import numpy as np
import pytest

from twolayer_opt import (FormatError, RunConfig, builtin_activation, cli,
                          dataset, model)
from twolayer_opt.cli import main, read_trajectory_csv


def run_cli(*argv):
    return main(list(argv))


class TestGenerate:
    def test_round_trip(self, tmp_path):
        out = tmp_path / "data"
        code = run_cli("generate", "--d", "3", "--n-samples", "9", "--data-seed", "7",
                       "--out", str(out), "--name", "demo")
        assert code == 0
        ds = dataset.load(out / "demo.csv")
        assert (ds.dim, ds.n_samples) == (3, 9)
        assert (out / "demo.meta.json").exists()

    def test_teacher_labels_match_forward(self, tmp_path):
        out = tmp_path / "data"
        run_cli("generate", "--d", "2", "--n-samples", "4", "--data-seed", "3",
                "--activation", "tanh", "--out", str(out), "--name", "t")
        ds = dataset.load(out / "t.csv")
        teacher = ds.provenance.teacher
        params = model.NetworkParams(np.array(teacher["W"]),
                                     np.array(teacher["theta"]))
        act = builtin_activation(teacher["activation"])
        for u, v in zip(ds.inputs, ds.labels):
            assert v == model.forward(params, act, u)

    def test_config_recipe_seed(self, tmp_path):
        spec = {"dataset": {"d": 3, "N": 9, "seed": 11, "teacher_seed": 4,
                            "noise_std": 0.1}}
        cfg_path = tmp_path / "spec.json"
        cfg_path.write_text(json.dumps(spec))
        assert run_cli("generate", "--config", str(cfg_path),
                       "--out", str(tmp_path), "--name", "cfg") == 0
        got = dataset.load(tmp_path / "cfg.csv")
        want = dataset.make_realizable(3, 9, seed=11, teacher_seed=4,
                                       noise_std=0.1)
        np.testing.assert_array_equal(got.inputs, want.inputs)
        np.testing.assert_array_equal(got.labels, want.labels)

    def test_config_recipe_null_number(self, tmp_path, capsys):
        cfg_path = tmp_path / "spec.json"
        cfg_path.write_text('{"dataset": {"d": 3, "N": 9, "seed": null}}')
        assert run_cli("generate", "--config", str(cfg_path),
                       "--out", str(tmp_path), "--name", "cfg") == 2
        err = capsys.readouterr().err
        assert "'seed'" in err and err.count("\n") == 1

    def test_overparam_warning(self, tmp_path, capsys):
        run_cli("generate", "--d", "2", "--n-samples", "5", "--warn-overparam",
                "--out", str(tmp_path), "--name", "big")
        err = capsys.readouterr().err
        assert "number of samples" in err

        run_cli("generate", "--d", "3", "--n-samples", "5", "--warn-overparam",
                "--out", str(tmp_path), "--name", "ok")
        assert "number of samples" not in capsys.readouterr().err

    def test_refuses_overwrite_without_force(self, tmp_path):
        args = ("generate", "--d", "2", "--n-samples", "4",
                "--out", str(tmp_path), "--name", "x")
        assert run_cli(*args) == 0
        assert run_cli(*args) == 2
        assert run_cli(*args, "--force") == 0


class TestTrain:
    def _generate(self, tmp_path):
        run_cli("generate", "--d", "3", "--n-samples", "9", "--data-seed", "7",
                "--out", str(tmp_path), "--name", "demo")
        return tmp_path / "demo.csv"

    def test_repetitions_and_summary(self, tmp_path, capsys):
        data = self._generate(tmp_path)
        code = run_cli("train", "--data", str(data), "--out", str(tmp_path / "runs"),
                       "--name", "r", "--reps", "2", "--n-outer", "8",
                       "--n-inner", "4", "--sigma", "0.2", "--seed", "1")
        assert code == 0
        out = capsys.readouterr().out
        assert "final_f" in out and "min_sigma_min_D" in out
        for rep in range(2):
            traj = read_trajectory_csv(tmp_path / "runs" / f"r_rep{rep}.trajectory.csv")
            assert len(traj["k"]) == 9

    def test_rerun_is_idempotent(self, tmp_path):
        data = self._generate(tmp_path)
        args = ("train", "--data", str(data), "--out", str(tmp_path / "runs"),
                "--name", "r", "--reps", "1", "--n-outer", "5", "--n-inner", "3",
                "--sigma", "0.3", "--seed", "2")
        assert run_cli(*args) == 0
        first = (tmp_path / "runs" / "r_rep0.trajectory.csv").read_text()
        assert run_cli(*args) == 2  # refuses without --force
        assert run_cli(*args, "--force") == 0
        assert (tmp_path / "runs" / "r_rep0.trajectory.csv").read_text() == first

    def test_theorem2_preset_manifest(self, tmp_path):
        data = self._generate(tmp_path)
        run_cli("train", "--data", str(data), "--out", str(tmp_path / "runs"),
                "--name", "p", "--reps", "1", "--n-outer", "6",
                "--theorem2-preset", "--seed", "3")
        manifest = json.loads((tmp_path / "runs" / "p_rep0.manifest.json").read_text())
        derived = manifest["derived"]
        assert derived["n_inner"] == 6
        assert derived["sigma"] == pytest.approx(1.0 / np.sqrt(6))
        assert derived["gamma"] == pytest.approx(1.0 / derived["L_ball"])

    def test_realizable_descent(self, tmp_path):
        data = self._generate(tmp_path)
        run_cli("train", "--data", str(data), "--out", str(tmp_path / "runs"),
                "--name", "d", "--reps", "1", "--n-outer", "40",
                "--n-inner", "25", "--sigma", "0", "--seed", "4")
        manifest = json.loads((tmp_path / "runs" / "d_rep0.manifest.json").read_text())
        assert manifest["final_f"] < manifest["derived"]["f_init"]

    def test_config_file_with_inline_dataset(self, tmp_path):
        spec = {
            "name": "cfg",
            "dataset": {"d": 3, "N": 9, "dist": "uniform_cube", "seed": 11},
            "run": {"N_o": 4, "N_i": 3, "R": 4.0, "sigma": 0.1, "seed": 5},
            "repetitions": 1,
        }
        cfg_path = tmp_path / "spec.json"
        cfg_path.write_text(json.dumps(spec))
        code = run_cli("train", "--config", str(cfg_path),
                       "--out", str(tmp_path / "runs"))
        assert code == 0
        assert (tmp_path / "runs" / "cfg_rep0.trajectory.csv").exists()

    def test_config_seed_respected_unless_flag_passed(self, tmp_path):
        spec = {
            "name": "cfg",
            "dataset": {"d": 3, "N": 9, "seed": 11},
            "run": {"N_o": 2, "N_i": 2, "sigma": 0.1, "seed": 5},
            "repetitions": 1,
        }
        cfg_path = tmp_path / "spec.json"
        cfg_path.write_text(json.dumps(spec))
        run_cli("train", "--config", str(cfg_path), "--out", str(tmp_path / "a"))
        m = json.loads((tmp_path / "a" / "cfg_rep0.manifest.json").read_text())
        assert m["config"]["seed"] == 5
        run_cli("train", "--config", str(cfg_path), "--out", str(tmp_path / "b"),
                "--seed", "9")
        m = json.loads((tmp_path / "b" / "cfg_rep0.manifest.json").read_text())
        assert m["config"]["seed"] == 9

    @pytest.mark.parametrize("change, key", [
        ({"repetitions": None}, "'repetitions'"),
        ({"run": {"N_o": 2, "N_i": 2, "sigma": None}}, "'sigma'"),
        ({"run": {"N_o": 2, "N_i": 2, "init": None}}, "'init'"),
        ({"run": None}, "'run'"),
        ({"dataset": None}, "'dataset'"),
        ({"out_dir": None}, "'out_dir'"),
        (None, "JSON object"),
        ({"run": {"N_o": 2, "N_i": 2, "early_exit": "false"}}, "'early_exit'"),
        ({"run": {"N_o": 2, "N_i": 2, "theorem2_preset": "no"}},
         "'theorem2_preset'"),
        ({"run": {"N_o": 2, "N_i": 2, "early_exit": 0}}, "'early_exit'"),
        ({"run": {"N_o": 2.7, "N_i": 2}}, "'N_o'"),
        ({"repetitions": True}, "'repetitions'"),
        ({"run": {"N_o": 2, "N_i": 2, "sigma": False}}, "'sigma'"),
        ({"activation": ["sigmoid"]}, "'activation'"),
        ({"dataset": {"path": 5}}, "'dataset.path'"),
        ({"name": None}, "'name'"),
        ({"activation": "swish"}, "'activation'"),
        # a key that nothing reads
        ({"run": {"N_o": 2, "N_i": 2, "n_outer": 3}}, "'n_outer'"),
        ({"repititions": 2}, "'repititions'"),
        ({"dataset": {"d": 3, "N": 9, "noise": 0.1}}, "'noise'"),
        ({"run": {"N_o": 2, "N_i": 2, "init": {"w_scale": 2.0}}}, "'w_scale'"),
        ({"run": {"N_o": 2, "N_i": 2, "beta_policy": "fixed"}}, "'beta_policy'"),
    ], ids=["repetitions", "run.sigma", "run.init", "run", "dataset",
            "out_dir", "list", "run.early_exit", "run.theorem2_preset",
            "run.early_exit_number", "run.N_o_fraction", "repetitions_bool",
            "run.sigma_bool", "activation_list", "dataset.path", "name",
            "activation_unknown", "unknown.run.n_outer", "unknown.repititions",
            "unknown.dataset.noise", "unknown.run.init.w_scale",
            "unknown.run.beta_policy"])
    def test_config_wrong_json_type(self, tmp_path, capsys, change, key):
        spec = {"dataset": {"d": 3, "N": 9},
                "run": {"N_o": 2, "N_i": 2}, "repetitions": 1}
        cfg = [spec] if change is None else {**spec, **change}
        cfg_path = tmp_path / "spec.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli("train", "--config", str(cfg_path)) == 2
        err = capsys.readouterr().err
        assert key in err and err.count("\n") == 1


class TestDiagnose:
    def test_report(self, tmp_path, capsys):
        run_cli("generate", "--d", "3", "--n-samples", "9",
                "--out", str(tmp_path), "--name", "demo")
        code = run_cli("diagnose", "--data", str(tmp_path / "demo.csv"),
                       "--seed", "2", "--out", str(tmp_path / "diag"))
        assert code == 0
        out = capsys.readouterr().out
        assert "sigma_min(D)" in out and "verdict" in out
        report = json.loads((tmp_path / "diag" / "diagnose.json").read_text())
        assert "certificate" in report and "sigma_min_D" in report["certificate"]


    def test_sidecar_null_number(self, tmp_path, capsys):
        run_cli("generate", "--d", "3", "--n-samples", "9",
                "--out", str(tmp_path), "--name", "demo")
        meta_path = tmp_path / "demo.meta.json"
        meta = json.loads(meta_path.read_text())
        meta_path.write_text(json.dumps({**meta, "N": None}))
        capsys.readouterr()
        assert run_cli("diagnose", "--data", str(tmp_path / "demo.csv")) == 2
        err = capsys.readouterr().err
        assert "'N'" in err and err.count("\n") == 1


class TestVerify:
    def test_gradcheck_json_shape(self, tmp_path, capsys):
        code = run_cli("verify", "gradcheck", "--instances", "2",
                       "--out", str(tmp_path))
        assert code == 0
        verdict = json.loads(capsys.readouterr().out)
        check = verdict["checks"][0]
        assert {"check", "measured", "threshold", "comparison", "pass"} <= set(check)
        assert (tmp_path / "verify_gradcheck.json").exists()

    def test_rank_suite_linear_control(self, capsys):
        code = run_cli("verify", "rank", "--activation", "linear", "--trials", "10")
        assert code == 0
        verdict = json.loads(capsys.readouterr().out)
        assert all("control" in c["check"] for c in verdict["checks"])

    def test_rank_suite_sigmoid(self, capsys):
        assert run_cli("verify", "rank", "--trials", "10") == 0

    def test_lipschitz_suite(self, capsys):
        assert run_cli("verify", "lipschitz", "--trials", "40") == 0

    def test_theorem1_suite(self, capsys):
        assert run_cli("verify", "theorem1", "--seeds", "50") == 0

    def test_theorem2_suite(self, capsys):
        assert run_cli("verify", "theorem2", "--seeds", "3") == 0

    def test_certify_suite(self, capsys):
        assert run_cli("verify", "certify") == 0

    def test_certify_suite_fails_linear_control(self, capsys):
        assert run_cli("verify", "certify", "--activation", "linear") == 1
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["checks"][-1]["measured"] == "rank_deficient"

    def test_unknown_suite_usage_error(self, capsys):
        assert run_cli("verify", "nonsense") == 2

    def test_suite_looked_up_at_call_time(self, monkeypatch, capsys):
        calls = []
        fake = [{"check": "fake", "pass": True}]
        monkeypatch.setattr(cli, "suite_theorem2",
                            lambda *args: calls.append(args) or fake)
        assert run_cli("verify", "theorem2", "--seeds", "7") == 0
        assert calls == [("sigmoid", 0, 7)]
        assert json.loads(capsys.readouterr().out)["checks"] == fake


class TestPlotdata:
    def _train(self, tmp_path, reps):
        run_cli("generate", "--d", "3", "--n-samples", "9",
                "--out", str(tmp_path), "--name", "demo")
        run_cli("train", "--data", str(tmp_path / "demo.csv"),
                "--out", str(tmp_path / "runs"), "--name", "r",
                "--reps", str(reps), "--n-outer", "6", "--n-inner", "3",
                "--sigma", "0.2", "--seed", "1")
        return tmp_path / "runs"

    def test_metric_files(self, tmp_path):
        runs = self._train(tmp_path, reps=1)
        assert run_cli("plotdata", "--run-dir", str(runs)) == 0
        fdat = (runs / "plotdata" / "f.dat").read_text().splitlines()
        assert len(fdat) == 7  # n_outer + 1 rows

    @pytest.mark.parametrize("edit", ["extra_column", "non_numeric"])
    def test_trajectory_format_error_line(self, tmp_path, edit):
        path = self._train(tmp_path, reps=1) / "r_rep0.trajectory.csv"
        lines = path.read_text().splitlines()
        fields = lines[3].split(",")
        if edit == "extra_column":
            fields.append("0.5")
        else:
            fields[1] = "abc"
        lines[3] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError) as err:
            read_trajectory_csv(path)
        assert err.value.line == 4

    def test_missing_dir_is_io_error(self, tmp_path):
        assert run_cli("plotdata", "--run-dir", str(tmp_path / "missing")) == 2

    def test_multiseed_aggregates(self, tmp_path):
        runs = self._train(tmp_path, reps=3)
        assert run_cli("plotdata", "--run-dir", str(runs)) == 0
        lines = (runs / "plotdata" / "combined.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert "f_mean" in header and "f_min" in header and "f_max" in header

        # recompute aggregates independently from the per-rep trajectories
        trajs = [read_trajectory_csv(runs / f"r_rep{i}.trajectory.csv")
                 for i in range(3)]
        stacked = np.vstack([t["f"] for t in trajs])
        col = header.index("f_mean")
        got = np.array([float(line.split(",")[col]) for line in lines[1:]])
        np.testing.assert_allclose(got, stacked.mean(axis=0), rtol=1e-15)


def test_readme_config_loads(tmp_path):
    # the README's example config is the documented schema
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("```json\n", 1)[1].split("```", 1)[0]
    cfg_path = tmp_path / "spec.json"
    cfg_path.write_text(block)
    spec = cli._load_spec(argparse.Namespace(config=str(cfg_path), activation=None))
    RunConfig.from_dict(spec.run)
    assert spec.dataset["d"] == 3 and spec.repetitions == 3


@pytest.mark.parametrize("argv", [
    ["verify", "lipschitz", "--trials", "0"],
    ["verify", "gradcheck", "--instances", "0"],
    ["verify", "rank", "--trials", "0"],
    ["verify", "theorem1", "--seeds", "0"],
    ["verify", "theorem2", "--seeds", "0"],
    ["train", "--reps", "0"],
    # a flag on a subcommand that does not read it
    ["plotdata", "--run-dir", ".", "--seed", "1"],
    ["plotdata", "--run-dir", ".", "--activation", "tanh"],
    ["plotdata", "--run-dir", ".", "--config", "c.json"],
    ["plotdata", "--run-dir", ".", "--rank-tol", "0.5"],
    ["train", "--d", "3", "--n-samples", "9", "--rank-tol", "0.9"],
    ["generate", "--d", "3", "--n-samples", "9", "--rank-tol", "0.9"],
    ["generate", "--d", "3", "--n-samples", "9", "--seed", "7"],
], ids=["lipschitz_trials_0", "gradcheck_instances_0", "rank_trials_0",
        "theorem1_seeds_0", "theorem2_seeds_0", "train_reps_0",
        "plotdata_seed", "plotdata_activation", "plotdata_config",
        "plotdata_rank_tol", "train_rank_tol", "generate_rank_tol",
        "generate_seed"])
def test_parser_rejects(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert run_cli(*argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and argv[-2] in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", ["generate", "train", "diagnose", "verify",
                                     "plotdata"])
def test_out_naming_a_file(tmp_path, capsys, command):
    run_cli("generate", "--d", "3", "--n-samples", "9",
            "--out", str(tmp_path), "--name", "demo")
    data = str(tmp_path / "demo.csv")
    run_cli("train", "--data", data, "--out", str(tmp_path / "runs"),
            "--n-outer", "2", "--n-inner", "2")
    argv = {
        "generate": ["generate", "--d", "2", "--n-samples", "4"],
        "train": ["train", "--data", data, "--n-outer", "2", "--n-inner", "2"],
        "diagnose": ["diagnose", "--data", data],
        "verify": ["verify", "gradcheck", "--instances", "1"],
        "plotdata": ["plotdata", "--run-dir", str(tmp_path / "runs")],
    }[command]
    blocker = tmp_path / "blocker"
    blocker.write_text("keep")
    capsys.readouterr()
    assert run_cli(*argv, "--out", str(blocker)) == 2
    err = capsys.readouterr().err
    assert str(blocker) in err and err.count("\n") == 1
    assert blocker.read_text() == "keep"


@pytest.mark.parametrize("argv", [["verify", "gradcheck", "--instances", "1"],
                                  ["diagnose", "--data"]])
def test_rerun_refused_before_the_work(tmp_path, capsys, argv):
    run_cli("generate", "--d", "3", "--n-samples", "9",
            "--out", str(tmp_path), "--name", "demo")
    if argv[0] == "diagnose":
        argv = argv + [str(tmp_path / "demo.csv")]
    assert run_cli(*argv, "--out", str(tmp_path / "o")) == 0
    capsys.readouterr()
    assert run_cli(*argv, "--out", str(tmp_path / "o")) == 2
    out, err = capsys.readouterr()
    assert out == "" and "--force" in err and err.count("\n") == 1
