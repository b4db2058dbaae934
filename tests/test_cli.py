"""End-to-end checks of the command-line harness."""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import svd_spectrum

from twolayer_opt import (PAPER_ACTIVATIONS, FormatError, RunConfig,
                          builtin_activation, certify, cli, dataset,
                          diagnostics, model, optimizer)
from twolayer_opt.cli import TRAJECTORY_COLUMNS, main, read_trajectory_csv


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
        run_cli("generate", "--d", "2", "--n-samples", "5",
                "--out", str(tmp_path), "--name", "big")
        err = capsys.readouterr().err
        assert "number of samples" in err

        run_cli("generate", "--d", "3", "--n-samples", "5",
                "--out", str(tmp_path), "--name", "ok")
        assert "number of samples" not in capsys.readouterr().err

    def test_config_out_dir(self, tmp_path, monkeypatch, capsys):
        # the config's out_dir holds the files unless --out is given
        monkeypatch.chdir(tmp_path)
        Path("spec.json").write_text(json.dumps({"out_dir": "gen"}))
        assert run_cli("generate", "--config", "spec.json", "--d", "2",
                       "--n-samples", "3", "--name", "x") == 0
        assert sorted(os.listdir()) == ["gen", "spec.json"]
        assert sorted(os.listdir("gen")) == ["x.csv", "x.meta.json"]
        assert run_cli("generate", "--config", "spec.json", "--d", "2",
                       "--n-samples", "3", "--name", "x", "--out", "o") == 0
        assert sorted(os.listdir("o")) == ["x.csv", "x.meta.json"]

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

    @pytest.mark.parametrize("flags, deficient_rows, routes", [
        # W = 0, then two small steps from it
        (["--w-scale", "0"], 3, {"svd": 3}),
        # poorly separated spectra: two rows converge only at 6 solves
        (["--activation", "softplus", "--w-scale", "1e4"], 0, {"inverse": 3}),
    ], ids=["zero_W", "saturated_softplus"])
    def test_square_D_routes(self, tmp_path, monkeypatch, flags, deficient_rows,
                             routes):
        # D is 529 x 529.  A rank-deficient row takes the SVD, and no
        # iterate of the inverse route raises under main's np.errstate
        assert run_cli("generate", "--d", "23", "--n-samples", "529",
                       "--out", str(tmp_path), "--name", "data") == 0
        rows = []   # (column_sigma_extremes, SVD reference) per row
        program = diagnostics.column_sigma_extremes

        def checked(D):
            rows.append((program(D), svd_spectrum(D)))
            return rows[-1][0]

        monkeypatch.setattr(diagnostics, "column_sigma_extremes", checked)
        assert run_cli("train", "--data", str(tmp_path / "data.csv"), *flags,
                       "--n-outer", "2", "--n-inner", "5",
                       "--out", str(tmp_path / "runs"), "--name", "r") == 0
        manifest = json.loads((tmp_path / "runs" / "r_rep0.manifest.json").read_text())
        spectrum = manifest["derived"]["spectrum"]
        assert spectrum == routes
        assert len(rows) == 3
        assert spectrum.get("svd", 0) == sum(got.spectrum == "svd" for got, _ in rows)
        assert sum(not want.full_rank for _, want in rows) == deficient_rows
        for got, want in rows:
            assert got.full_rank == want.full_rank
            if got.spectrum == "inverse":
                assert got[1] is None
                assert abs(got[0] - want[0]) <= 529 * np.finfo(float).eps * want[1]
            else:
                assert (got, got.spectrum) == (want, "svd")

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
        # early_exit is no run key, whatever its value
        ({"run": {"N_o": 2, "N_i": 2, "early_exit": False}},
         "unknown run config key 'early_exit'"),
        ({"run": {"N_o": 2, "N_i": 2, "theorem2_preset": "no"}},
         "'theorem2_preset'"),
        ({"run": {"N_o": 2, "N_i": 2, "theorem2_preset": 0}},
         "'theorem2_preset'"),
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
        # a dataset from a file and a recipe at once
        ({"dataset": {"path": "data.csv", "d": 3}}, "'path'"),
        # a run setting out of its range
        ({"run": {"N_o": 2, "N_i": 2, "R": float("inf")}}, "R must"),
        ({"run": {"N_o": 2, "N_i": 2, "sigma": float("nan")}}, "sigma must"),
        ({"run": {"N_o": 2, "N_i": 2, "init": {"W_scale": -1.0}}}, "W_scale"),
        ({"run": {"N_o": 2, "N_i": 2, "init": {"theta_scale": float("nan")}}},
         "theta_scale"),
        ({"run": {"N_o": 2, "N_i": 2, "seed": -1}}, "seed must"),
        ({"dataset": {"d": 3, "N": 9, "seed": -1}}, "dataset seed"),
        ({"dataset": {"d": 3, "N": 9, "teacher_seed": -1}}, "teacher_seed"),
        ({"dataset": {"d": 3, "N": 9, "noise_std": -1.0}}, "noise_std"),
        ({"dataset": {"d": 3, "N": 9, "noise_std": float("nan")}}, "noise_std"),
    ], ids=["repetitions", "run.sigma", "run.init", "run", "dataset",
            "out_dir", "list", "run.early_exit", "run.theorem2_preset",
            "run.theorem2_preset_number", "run.N_o_fraction", "repetitions_bool",
            "run.sigma_bool", "activation_list", "dataset.path", "name",
            "activation_unknown", "unknown.run.n_outer", "unknown.repititions",
            "unknown.dataset.noise", "unknown.run.init.w_scale",
            "unknown.run.beta_policy", "dataset.path_and_recipe", "run.R_inf",
            "run.sigma_nan", "run.init.W_scale_negative",
            "run.init.theta_scale_nan", "run.seed_negative",
            "dataset.seed_negative", "dataset.teacher_seed_negative",
            "dataset.noise_std_negative", "dataset.noise_std_nan"])
    def test_config_wrong_json_type(self, tmp_path, capsys, change, key):
        spec = {"dataset": {"d": 3, "N": 9},
                "run": {"N_o": 2, "N_i": 2}, "repetitions": 1}
        cfg = [spec] if change is None else {**spec, **change}
        cfg_path = tmp_path / "spec.json"
        cfg_path.write_text(json.dumps(cfg))
        assert run_cli("train", "--config", str(cfg_path)) == 2
        err = capsys.readouterr().err
        assert key in err and err.count("\n") == 1

    @pytest.mark.parametrize("run, flag, key", [
        ({"sigma": "0.1"}, ["--sigma", "0.2"], "'sigma'"),
        ({"init": {"W_scale": -1.0}}, ["--w-scale", "1"], "W_scale"),
    ], ids=["run.sigma_string", "run.init.W_scale_negative"])
    def test_config_wrong_json_type_under_flag(self, tmp_path, capsys, run, flag,
                                               key):
        # the config's run section is read whole, so a bad value is reported
        # even where a flag overrides it
        spec = {"dataset": {"d": 3, "N": 9}, "run": {"N_o": 2, "N_i": 2, **run}}
        cfg_path = tmp_path / "spec.json"
        cfg_path.write_text(json.dumps(spec))
        assert run_cli("train", "--config", str(cfg_path), *flag,
                       "--out", str(tmp_path / "runs")) == 2
        err = capsys.readouterr().err
        assert key in err and err.count("\n") == 1
        assert not (tmp_path / "runs").exists()


@pytest.mark.parametrize("flag, value, setting", [
    ("--w-scale", "-1", "W_scale"), ("--theta-scale", "-1", "theta_scale"),
    ("--w-scale", "nan", "W_scale"), ("--theta-scale", "nan", "theta_scale"),
    ("--sigma", "nan", "sigma"), ("--sigma", "inf", "sigma"),
    ("--r-ball", "inf", "R"),
])
def test_bad_run_setting_flag(tmp_path, capsys, flag, value, setting):
    # one line naming the setting, before the output directory is made
    out = tmp_path / "runs"
    assert run_cli("train", "--d", "3", "--n-samples", "9", "--out", str(out),
                   flag, value) == 2
    err = capsys.readouterr().err
    assert f"{setting} must be finite" in err and err.count("\n") == 1
    assert not out.exists()


def test_non_finite_theta_hessian(tmp_path, capsys):
    # softplus features of a W scaled by 1e160 are finite, their squares in
    # f and in G = H^T H / N are not
    assert run_cli("train", "--d", "3", "--n-samples", "9", "--activation",
                   "softplus", "--w-scale", "1e160",
                   "--out", str(tmp_path / "runs")) == 3
    err = capsys.readouterr().err
    assert err.startswith("numeric failure") and err.count("\n") == 1


@pytest.mark.parametrize("flags", [["--sigma", "1e200"],
                                   ["--sigma", "1e160", "--n-inner", "5"]])
def test_sigma_overflow(tmp_path, capsys, flags):
    # N_i sigma^2 overflows the Python float that the step size beta is
    # derived from
    assert run_cli("train", "--d", "3", "--n-samples", "9", *flags,
                   "--out", str(tmp_path / "runs")) == 3
    err = capsys.readouterr().err
    assert err == ("numeric failure: Numerical result out of range "
                   "in optimizer._resolve_beta\n")


def test_sigma_underflow(tmp_path, capsys):
    # N_i sigma^2 underflows to 0, which caps beta no more than sigma = 0
    assert run_cli("train", "--d", "3", "--n-samples", "9", "--sigma", "1e-200",
                   "--out", str(tmp_path / "runs")) == 0
    assert capsys.readouterr().err == ""
    tiny = RunConfig(n_outer=1, n_inner=20, sigma=1e-200)
    assert (optimizer._resolve_beta(tiny, 2.0) == 0.25
            == optimizer._resolve_beta(RunConfig(n_outer=1, n_inner=20), 2.0))


def _run_python(script):
    """stdout of `script` run by a fresh interpreter on this source tree."""
    src = Path(cli.__file__).parents[1]
    result = subprocess.run([sys.executable, "-c", script], capture_output=True,
                            text=True, timeout=300,
                            env={**os.environ, "PYTHONPATH": str(src)})
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_no_heavy_scipy_modules(tmp_path, capsys):
    # the program imports numpy alone; scipy (about 25 MB and 0.3 s) is
    # loaded only by the erf activation, which needs scipy.special.erf
    assert _run_python(f"""
import contextlib, io, sys
from twolayer_opt.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["train", "--d", "3", "--n-samples", "9", "--n-outer", "3",
                 "--out", {str(tmp_path / "sigmoid")!r}]) == 0
    assert main(["verify", "certify"]) == 0
print([m for m in sys.modules if m.startswith("scipy")])
""") == "[]\n"

    erf = ["train", "--d", "3", "--n-samples", "9", "--n-outer", "3",
           "--activation", "erf"]
    assert _run_python(f"""
import contextlib, io, sys
from twolayer_opt.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    assert main({erf + ["--out", str(tmp_path / "child")]!r}) == 0
print("scipy.special" in sys.modules)
""") == "True\n"
    assert run_cli(*erf, "--out", str(tmp_path / "parent")) == 0
    capsys.readouterr()
    name = "run_rep0.trajectory.csv"
    assert ((tmp_path / "child" / name).read_bytes()
            == (tmp_path / "parent" / name).read_bytes())


def test_saturated_networks_one_stderr_line(tmp_path):
    # at W ~ 1e160 every bounded paper activation saturates to its limit
    # without a warning (exit 0); softplus, unbounded, overflows, which is
    # one line (exit 3).  "always" prints each warning that a plain process
    # would print once
    outcomes = json.loads(_run_python(f"""
import contextlib, io, json, warnings
from twolayer_opt.activations import PAPER_ACTIVATIONS
from twolayer_opt.cli import main
warnings.simplefilter("always")
outcomes = {{}}
for name in PAPER_ACTIVATIONS:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["train", "--d", "3", "--n-samples", "9", "--activation", name,
                     "--w-scale", "1e160", "--out", {str(tmp_path)!r} + "/" + name])
    outcomes[name] = [code, err.getvalue()]
print(json.dumps(outcomes))
"""))
    code, err = outcomes.pop("softplus")
    assert outcomes == {name: [0, ""] for name in PAPER_ACTIVATIONS
                        if name != "softplus"}
    # the line names the operation and where it overflowed: f of softplus
    # features ~1e160 at the first trajectory row
    assert code == 3 and err.count("\n") == 1
    assert err.startswith("numeric failure: overflow")
    assert err.endswith(" in model.objective\n")


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
        assert report["certificate"]["spectrum"] == "svd"

    def test_params_activation(self, tmp_path, capsys):
        run_cli("generate", "--d", "3", "--n-samples", "9",
                "--out", str(tmp_path), "--name", "demo")
        params = model.NetworkParams(np.eye(3), np.ones(3))
        model.save_params(params, tmp_path / "p.csv", "tanh")
        argv = ["diagnose", "--data", str(tmp_path / "demo.csv"),
                "--params", str(tmp_path / "p.csv")]
        assert run_cli(*argv, "--out", str(tmp_path / "diag")) == 0
        report = json.loads((tmp_path / "diag" / "diagnose.json").read_text())
        want = certify(params, builtin_activation("tanh"),
                       dataset.load(tmp_path / "demo.csv"))
        assert report["activation"] == "tanh"
        assert report["certificate"]["sigma_min_D"] == want.sigma_min_D
        assert run_cli(*argv, "--activation", "tanh") == 0

        cfg_path = tmp_path / "spec.json"
        cfg_path.write_text('{"activation": "sigmoid"}')
        capsys.readouterr()
        for clash in (["--activation", "sigmoid"], ["--config", str(cfg_path)]):
            assert run_cli(*argv, *clash) == 2
            err = capsys.readouterr().err
            assert "tanh" in err and "sigmoid" in err and err.count("\n") == 1

    def test_repeated_sample_rank_deficient(self, tmp_path, capsys):
        # a repeated sample repeats a column of the square D (d = 2, N = 4),
        # so sigma_min(D) is rounding-level: no flag can certify it
        ds = dataset.make_realizable(2, 4, seed=1)
        inputs, labels = ds.inputs.copy(), ds.labels.copy()
        inputs[-1], labels[-1] = inputs[0], labels[0]
        dataset.save(dataset.Dataset(inputs, labels, ds.provenance),
                     tmp_path / "repeated.csv")
        argv = ["diagnose", "--data", str(tmp_path / "repeated.csv")]
        assert run_cli(*argv, "--out", str(tmp_path / "diag")) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-2].split() == ["verdict", "rank_deficient"]
        report = json.loads((tmp_path / "diag" / "diagnose.json").read_text())
        assert report["rank_tol"] == report["certificate"]["rank_tol"] == 1e-10
        assert report["collection_rank"]["numerical_rank"] == 3
        assert run_cli(*argv, "--rank-tol", "1e-300") == 2
        assert "--rank-tol" in capsys.readouterr().err

    def test_non_finite_theta_hessian(self, tmp_path, capsys):
        # the train case above, as a params file: L_theta is not reported
        # as inf, the run stops with exit 3
        run_cli("generate", "--d", "3", "--n-samples", "9",
                "--out", str(tmp_path), "--name", "demo")
        params = model.NetworkParams(1e160 * np.eye(3), np.ones(3))
        model.save_params(params, tmp_path / "p.csv", "softplus")
        capsys.readouterr()
        assert run_cli("diagnose", "--data", str(tmp_path / "demo.csv"),
                       "--params", str(tmp_path / "p.csv")) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure") and err.count("\n") == 1

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


@pytest.mark.parametrize("command", ["train", "diagnose"])
@pytest.mark.parametrize("missing", ["table", "sidecar"])
def test_missing_input_named(tmp_path, capsys, command, missing):
    # the sidecar is read before its table, yet a missing table is
    # reported by the table's name
    run_cli("generate", "--d", "3", "--n-samples", "9",
            "--out", str(tmp_path), "--name", "demo")
    table = tmp_path / "gone.csv"
    if missing == "sidecar":
        if command == "train":
            run_cli("generate", "--d", "3", "--n-samples", "9",
                    "--out", str(tmp_path), "--name", "gone")
        else:
            model.save_params(model.NetworkParams(np.eye(3), np.ones(3)),
                              table, "sigmoid")
        (tmp_path / "gone.meta.json").unlink()
    inputs = (["--data", str(table)] if command == "train" else
              ["--data", str(tmp_path / "demo.csv"), "--params", str(table)])
    out = tmp_path / "out"
    capsys.readouterr()
    assert run_cli(command, *inputs, "--out", str(out)) == 2
    err = capsys.readouterr().err
    named = table if missing == "table" else tmp_path / "gone.meta.json"
    assert err.count("\n") == 1 and f"cannot read {named}:" in err
    assert (".meta.json" in err) == (missing == "sidecar")
    assert not out.exists()


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
        # h(Wu) u^T = W (u u^T): rank at most d(d+1)/2 = 3 and 6, reached
        assert [(c["measured"], c["comparison"], c["threshold"])
                for c in verdict["checks"]] == [(3, "<=", 3), (6, "<=", 6)]

    def test_rank_suite_relu_no_claim(self, tmp_path, capsys):
        # relu is outside the good class and not linear: its collections
        # reach full rank on some seeds, so the suite claims nothing
        assert run_cli("verify", "rank", "--activation", "relu",
                       "--trials", "10", "--out", str(tmp_path)) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1
        assert "no rank claim for relu" in err
        assert not (tmp_path / "verify_rank.json").exists()

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
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert checks[1]["check"] == "sigma_min_D_positive"
        assert checks[1]["spectrum"] == "svd"

    def test_certify_suite_fails_linear_control(self, capsys):
        assert run_cli("verify", "certify", "--activation", "linear") == 1
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["checks"][-1]["measured"] == "rank_deficient"

    @pytest.mark.parametrize("argv, systems", [
        (["theorem2", "--seeds", "3"], 3), (["certify"], 1)],
        ids=["theorem2", "certify"])
    def test_suites_certify_only_the_returned_iterate(self, monkeypatch, capsys,
                                                      argv, systems):
        program_run, program_system = optimizer.run, optimizer.stationarity_system
        calls = []
        monkeypatch.setattr(optimizer, "stationarity_system",
                            lambda *args: calls.append(1) or program_system(*args))
        assert run_cli("verify", *argv) == 0
        assert len(calls) == systems
        verdict = capsys.readouterr().out
        monkeypatch.setattr(optimizer, "run", lambda a, ds, cfg, certify_rows:
                            program_run(a, ds, cfg, certify_rows=True))
        assert run_cli("verify", *argv) == 0
        assert capsys.readouterr().out == verdict

    def test_config_dataset_path_read_only_by_train(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"dataset": {"path": str(missing)}}))
        assert run_cli("verify", "gradcheck", "--config", str(config),
                       "--instances", "1") == 0
        capsys.readouterr()
        out = tmp_path / "out"
        assert run_cli("train", "--config", str(config), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"cannot read {missing}:" in err
        assert not out.exists()

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

    def test_header_only_trajectory(self, tmp_path, capsys):
        # every run writes n_outer + 1 >= 1 rows
        path = tmp_path / "r_rep0.trajectory.csv"
        path.write_text(",".join(TRAJECTORY_COLUMNS) + "\n")
        assert run_cli("plotdata", "--run-dir", str(tmp_path)) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "no rows" in err and err.count("\n") == 1
        assert not (tmp_path / "plotdata").exists()

    def test_missing_dir_is_io_error(self, tmp_path):
        assert run_cli("plotdata", "--run-dir", str(tmp_path / "missing")) == 2

    def test_run_dir_naming_a_file(self, tmp_path, capsys):
        path = tmp_path / "r_rep0.trajectory.csv"
        path.write_text("keep")
        assert run_cli("plotdata", "--run-dir", str(path)) == 2
        err = capsys.readouterr().err
        assert err == f"error: run directory {path} is not a directory\n"

    @pytest.mark.parametrize("edit", ["k_value", "drop_row"])
    def test_mismatched_repetitions(self, tmp_path, capsys, edit):
        # repetitions are averaged row by row, so their k columns must agree
        runs = self._train(tmp_path, reps=2)
        path = runs / "r_rep1.trajectory.csv"
        lines = path.read_text().splitlines()
        if edit == "k_value":
            lines[3] = "7" + lines[3][lines[3].index(","):]
        else:
            del lines[-1]
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert run_cli("plotdata", "--run-dir", str(runs)) == 2
        err = capsys.readouterr().err
        assert str(path) in err and err.count("\n") == 1
        assert not (runs / "plotdata").exists()

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
    assert isinstance(spec.run, RunConfig) and spec.run.n_outer == 200
    assert spec.dataset["d"] == 3 and spec.repetitions == 3


def test_readme_trajectory_header():
    # the README's Files section names the columns that train writes
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    header = readme.split("starts with the header", 1)[1].split("`", 2)[1]
    assert header == ",".join(TRAJECTORY_COLUMNS)


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
    # generate warns whenever N > d^2; no flag turns the warning on
    ["generate", "--d", "3", "--n-samples", "9", "--warn-overparam", "--force"],
    # the inner phase always runs its N_i steps
    ["train", "--d", "3", "--n-samples", "9", "--early-exit", "--force"],
    # a dataset from a file and a recipe at once
    ["train", "--data", "data.csv", "--noise-std", "0.1"],
    ["train", "--config", "PATH_CONFIG", "--d", "3"],
    ["generate", "--config", "PATH_CONFIG", "--d", "3", "--n-samples", "9"],
    # a d=2 network for d=3 data
    ["diagnose", "--data", "PATH_DATA", "--params", "PATH_PARAMS"],
    # a verify flag on a suite that does not read it
    ["verify", "certify", "--seeds", "5"],
    ["verify", "certify", "--trials", "3"],
    ["verify", "certify", "--instances", "2"],
    ["verify", "gradcheck", "--seeds", "5"],
    ["verify", "gradcheck", "--rank-tol", "0.5"],
    ["verify", "theorem2", "--trials", "9"],
    ["verify", "theorem2", "--rank-tol", "0.3"],
    ["verify", "lipschitz", "--rank-tol", "0.5"],
    ["verify", "rank", "--seeds", "5"],
    ["verify", "theorem1", "--instances", "2"],
    # the rank tolerance is a constant, not a flag
    ["diagnose", "--data", "PATH_DATA", "--rank-tol", "1e-300"],
    ["verify", "rank", "--rank-tol", "1e-300"],
    ["verify", "certify", "--rank-tol", "1e-300"],
    # a seed below 0, a label noise that is negative or not a number
    ["train", "--d", "3", "--n-samples", "9", "--seed", "-1"],
    ["generate", "--d", "3", "--n-samples", "9", "--data-seed", "-1"],
    ["generate", "--d", "3", "--n-samples", "9", "--teacher-seed", "-1"],
    ["verify", "certify", "--seed", "-1"],
    ["generate", "--d", "3", "--n-samples", "9", "--noise-std", "-1"],
    ["generate", "--d", "3", "--n-samples", "9", "--noise-std", "nan"],
    # a recipe flag out of dataset.check_recipe's range, at parse time
    ["generate", "--n-samples", "9", "--d", "0"],
    # a name that is not one file name inside --out
    ["train", "--d", "3", "--n-samples", "9", "--n-outer", "2", "--out", "r5",
     "--name", "../x"],
    ["generate", "--d", "3", "--n-samples", "9", "--name", ""],
    ["generate", "--d", "3", "--n-samples", "9", "--name", "."],
    ["generate", "--d", "3", "--n-samples", "9", "--out", "o", "--name", "a/b"],
    ["diagnose", "--data", "PATH_DATA", "--out", "o", "--name", ".."],
], ids=["lipschitz_trials_0", "gradcheck_instances_0", "rank_trials_0",
        "theorem1_seeds_0", "theorem2_seeds_0", "train_reps_0",
        "plotdata_seed", "plotdata_activation", "plotdata_config",
        "plotdata_rank_tol", "train_rank_tol", "generate_rank_tol",
        "generate_seed", "generate_warn_overparam", "train_early_exit",
        "train_data_and_recipe",
        "train_config_path_and_recipe",
        "generate_config_path_and_recipe", "diagnose_params_d_mismatch",
        "certify_seeds", "certify_trials", "certify_instances", "gradcheck_seeds",
        "gradcheck_rank_tol", "theorem2_trials", "theorem2_rank_tol",
        "lipschitz_rank_tol", "rank_seeds", "theorem1_instances",
        "diagnose_rank_tol", "rank_rank_tol", "certify_rank_tol",
        "train_seed_negative", "generate_data_seed_negative",
        "generate_teacher_seed_negative", "certify_seed_negative",
        "generate_noise_std_negative", "generate_noise_std_nan", "generate_d_0",
        "train_name_parent", "generate_name_empty", "generate_name_dot",
        "generate_name_subdirectory", "diagnose_name_dotdot"])
def test_parser_rejects(tmp_path, tmp_path_factory, monkeypatch, capsys, argv):
    inputs = tmp_path_factory.mktemp("inputs")
    paths = {"PATH_CONFIG": inputs / "path.json",   # names itself
             "PATH_DATA": inputs / "d3.csv", "PATH_PARAMS": inputs / "p2.csv"}
    paths["PATH_CONFIG"].write_text(
        json.dumps({"dataset": {"path": str(paths["PATH_CONFIG"])}}))
    dataset.save(dataset.make_realizable(3, 9), paths["PATH_DATA"])
    model.save_params(model.NetworkParams(np.eye(2), np.ones(2)),
                      paths["PATH_PARAMS"], "sigmoid")
    argv = [str(paths.get(arg, arg)) for arg in argv]
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


@pytest.mark.parametrize("argv, code", [
    (["verify", "rank", "--activation", "relu", "--trials", "10"], 2),
    (["train", "--d", "3", "--n-samples", "9", "--activation", "softplus",
      "--w-scale", "1e160"], 3),
], ids=["verify_rank_relu", "train_numeric_failure"])
def test_failed_command_leaves_no_output_directory(tmp_path, capsys, argv, code):
    out = tmp_path / "out"
    assert run_cli(*argv, "--out", str(out)) == code
    assert capsys.readouterr().err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["train", "--d", "3", "--n-samples", "9", "--n-outer", "300", "--reps", "2"],
    ["verify", "gradcheck", "--instances", "1"],
], ids=["train", "verify"])
def test_out_under_a_file_refused_before_the_work(tmp_path, monkeypatch, capsys,
                                                  argv):
    runs = []
    monkeypatch.setattr(optimizer, "run", lambda *args: runs.append(args))
    blocker = tmp_path / "blocker"
    blocker.write_text("keep")
    assert run_cli(*argv, "--out", str(blocker / "sub")) == 2
    out, err = capsys.readouterr()
    assert out == "" and runs == []
    assert str(blocker) in err and err.count("\n") == 1
    assert blocker.read_text() == "keep"


@pytest.mark.parametrize("name", ["../x", "", ".", "..", "a/b", "a\0b"])
def test_config_name_not_one_file_name(tmp_path, monkeypatch, capsys, name):
    monkeypatch.chdir(tmp_path)
    Path("spec.json").write_text(json.dumps(
        {"name": name, "dataset": {"d": 3, "N": 9}, "run": {"N_o": 2, "N_i": 2},
         "out_dir": "r5"}))
    assert run_cli("train", "--config", "spec.json") == 2
    err = capsys.readouterr().err
    assert "config key 'name'" in err and err.count("\n") == 1
    assert sorted(os.listdir()) == ["spec.json"]


@pytest.mark.parametrize("config, key", [
    ({"run": {"sigmaa": 1}}, "'sigmaa'"),
    ({"run": {"N_o": "x"}}, "'N_o'"),
    # generate and train are given --d over it
    ({"dataset": {"d": "three", "N": 9}}, "'d'"),
    # a recipe value out of its range; the seed is named before the dist
    ({"dataset": {"d": 3, "N": 9, "seed": -1, "dist": "foo"}}, "dataset seed"),
    ({"dataset": {"d": 0, "N": 9}}, "dataset d"),
    ({"dataset": {"d": 3, "N": 9, "noise_std": -1}}, "dataset noise_std"),
], ids=["unknown_run_key", "run_value_type", "recipe_value_type_under_flag",
        "recipe_seed_negative", "recipe_d_0", "recipe_noise_std_negative"])
@pytest.mark.parametrize("command", ["generate", "train", "diagnose",
                                     "verify_gradcheck", "verify_certify"])
def test_every_command_checks_the_whole_config(tmp_path, capsys, command,
                                               config, key):
    # every command reads the config whole, whichever parts of it it uses
    data = tmp_path / "d.csv"
    dataset.save(dataset.make_realizable(2, 3), data)
    cfg_path = tmp_path / "spec.json"
    cfg_path.write_text(json.dumps(config))
    argv = {
        "generate": ["generate", "--d", "2", "--n-samples", "3"],
        "train": ["train", "--d", "2", "--n-samples", "3", "--n-outer", "1",
                  "--n-inner", "1"],
        "diagnose": ["diagnose", "--data", str(data)],
        "verify_gradcheck": ["verify", "gradcheck", "--instances", "1"],
        "verify_certify": ["verify", "certify"],
    }[command]
    out = tmp_path / "out"
    assert run_cli(*argv, "--config", str(cfg_path), "--out", str(out)) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and key in err and err.count("\n") == 1
    assert not out.exists()


def test_count_too_large_to_allocate(tmp_path, monkeypatch, capsys):
    # stands in for generate --d 10000000000, whose inputs numpy cannot
    # allocate; nothing of that size is requested here
    def refuse(d, N, dist, seed):
        raise MemoryError("Unable to allocate 671. GiB for an array with "
                          "shape (9, 10000000000) and data type float64")
    monkeypatch.setattr(dataset, "generate_inputs", refuse)
    assert run_cli("generate", "--d", "3", "--n-samples", "9",
                   "--out", str(tmp_path / "data")) == 2
    assert capsys.readouterr().err == (
        "error: Unable to allocate 671. GiB for an array with shape "
        "(9, 10000000000) and data type float64\n")
    assert not (tmp_path / "data").exists()


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
