"""Dataset generation, teacher labeling, and CSV round-trips."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twolayer_opt import (Dataset, FormatError, IoError, NetworkParams,
                          Provenance, ShapeError, builtin_activation, dataset,
                          generate_inputs, model, random_params)
from twolayer_opt.cli import main


class TestGenerateInputs:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            generate_inputs(2, 0)
        with pytest.raises(ValueError):
            generate_inputs(0, 5)

    def test_uniform_cube_support(self):
        x = generate_inputs(3, 9, "uniform_cube", seed=1)
        assert x.shape == (9, 3)
        assert np.all(x >= -1.0) and np.all(x <= 1.0)

    def test_gaussian_sample_mean(self):
        x = generate_inputs(2, 10_000, "std_gaussian", seed=5)
        assert np.all(np.abs(x.mean(axis=0)) < 0.05)

    def test_seed_determinism(self):
        a = generate_inputs(4, 20, "std_gaussian", seed=3)
        b = generate_inputs(4, 20, "std_gaussian", seed=3)
        c = generate_inputs(4, 20, "std_gaussian", seed=4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_unknown_distribution(self):
        with pytest.raises(ValueError):
            generate_inputs(2, 2, "cauchy")


class TestTeacherLabels:
    """make_realizable labels its inputs with the teacher that its
    provenance records."""

    def test_labels_match_model_forward(self):
        ds = dataset.make_realizable(3, 12, "std_gaussian", seed=9,
                                     activation="tanh")
        teacher = ds.provenance.teacher
        params = NetworkParams(np.array(teacher["W"]), np.array(teacher["theta"]))
        act = builtin_activation(teacher["activation"])
        assert teacher["activation"] == "tanh"
        for u, v in zip(ds.inputs, ds.labels):
            assert v == model.forward(params, act, u)

    @pytest.mark.parametrize("teacher_seed, drawn_from", [(None, 8), (3, 3)])
    def test_teacher_is_random_params(self, teacher_seed, drawn_from):
        ds = dataset.make_realizable(4, 6, seed=7, teacher_seed=teacher_seed)
        want = random_params(np.random.default_rng(drawn_from), 4)
        np.testing.assert_array_equal(ds.provenance.teacher["W"], want.W)
        np.testing.assert_array_equal(ds.provenance.teacher["theta"], want.theta)

    def test_label_noise(self):
        clean = dataset.make_realizable(3, 10, seed=1)
        noisy1 = dataset.make_realizable(3, 10, seed=1, noise_std=0.1)
        noisy2 = dataset.make_realizable(3, 10, seed=1, noise_std=0.1)
        assert not np.array_equal(clean.labels, noisy1.labels)
        np.testing.assert_array_equal(noisy1.labels, noisy2.labels)
        np.testing.assert_array_equal(
            noisy1.labels,
            clean.labels + np.random.default_rng(3).normal(0.0, 0.1, size=10))
        assert noisy1.provenance.teacher["label_noise_std"] == 0.1
        assert noisy1.provenance.teacher["label_noise_seed"] == 3


class TestDatasetInvariants:
    def test_count_mismatch(self):
        with pytest.raises(ShapeError):
            Dataset(np.ones((3, 2)), np.ones(4), Provenance("uniform_cube"))

    def test_one_dimensional_inputs(self):
        with pytest.raises(ShapeError, match=r"inputs must be \(N, d\)"):
            Dataset(np.ones(3), np.ones(3), Provenance("uniform_cube"))

    def test_nonfinite_rejected(self):
        from twolayer_opt import NumericsError
        with pytest.raises(NumericsError):
            Dataset(np.array([[np.inf, 0.0]]), np.array([1.0]),
                    Provenance("uniform_cube"))


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        ds = dataset.make_realizable(3, 7, "std_gaussian", seed=13)
        path = tmp_path / "data.csv"
        dataset.save(ds, path)
        back = dataset.load(path)
        np.testing.assert_array_equal(back.inputs, ds.inputs)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.provenance.distribution == ds.provenance.distribution
        assert back.provenance.seed == ds.provenance.seed
        assert back.provenance.teacher == ds.provenance.teacher

    def test_wrong_column_count(self, tmp_path):
        ds = dataset.make_realizable(2, 3, seed=0)
        path = tmp_path / "data.csv"
        dataset.save(ds, path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1] + ",0.5"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError) as err:
            dataset.load(path)
        assert err.value.line == 2

    def test_non_numeric_token(self, tmp_path):
        ds = dataset.make_realizable(2, 3, seed=0)
        path = tmp_path / "data.csv"
        dataset.save(ds, path)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace(lines[2].split(",")[0], "abc", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError) as err:
            dataset.load(path)
        assert err.value.line == 3

    def test_sidecar_missing_key(self, tmp_path):
        path = tmp_path / "data.csv"
        dataset.save(dataset.make_realizable(2, 3, seed=0), path)
        path.with_suffix(".meta.json").write_text('{"d": 2}')
        with pytest.raises(FormatError, match="'N'"):
            dataset.load(path)
        assert main(["diagnose", "--data", str(path)]) == 2

    @pytest.mark.parametrize("key", ["d", "N"])
    def test_sidecar_null_number(self, tmp_path, key):
        path = tmp_path / "data.csv"
        dataset.save(dataset.make_realizable(2, 3, seed=0), path)
        path.with_suffix(".meta.json").write_text(json.dumps({"d": 2, "N": 3, key: None}))
        with pytest.raises(FormatError, match=f"'{key}'"):
            dataset.load(path)

    @pytest.mark.parametrize("key, value", [("d", -1), ("d", 0), ("N", 0)])
    def test_sidecar_count_below_one(self, tmp_path, capsys, key, value):
        path = tmp_path / "data.csv"
        dataset.save(dataset.make_realizable(2, 3, seed=0), path)
        path.with_suffix(".meta.json").write_text(
            json.dumps({"d": 2, "N": 3, key: value}))
        with pytest.raises(FormatError, match=f"{key}={value}, need {key} >= 1"):
            dataset.load(path)
        assert main(["diagnose", "--data", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{key}={value}" in err and err.count("\n") == 1

    def test_empty_table(self, tmp_path, capsys):
        # FormatError line numbers are 1-based, an empty file's too, and the
        # message names the file
        path = tmp_path / "data.csv"
        dataset.save(dataset.make_realizable(2, 3, seed=0), path)
        path.write_text("")
        with pytest.raises(FormatError) as exc:
            dataset.load(path)
        assert exc.value.line == 1
        assert main(["train", "--data", str(path), "--out", str(tmp_path / "runs")]) == 2
        assert (capsys.readouterr().err
                == f"error: {path}: expected 3 rows, found 0 (line 1)\n")

    def test_table_not_text(self, tmp_path, capsys):
        path = tmp_path / "data.csv"
        dataset.save(dataset.make_realizable(2, 3, seed=0), path)
        path.write_bytes(b"\xff\xfe0.5,0.5,1\n")
        with pytest.raises(FormatError, match="is not text"):
            dataset.load(path)
        assert main(["train", "--data", str(path), "--out", str(tmp_path / "runs")]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and err.count("\n") == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(IoError):
            dataset.load(tmp_path / "nope.csv")

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        min_size=3, max_size=3), min_size=1, max_size=8))
    def test_round_trip_property(self, rows):
        inputs = np.array([r[:2] for r in rows])
        labels = np.array([r[2] for r in rows])
        ds = Dataset(inputs, labels, Provenance("uniform_cube", 0))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "d.csv"
            dataset.save(ds, path)
            back = dataset.load(path)
        np.testing.assert_array_equal(back.inputs, ds.inputs)
        np.testing.assert_array_equal(back.labels, ds.labels)
