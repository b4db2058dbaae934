"""Forward map, loss, exact gradients, and the D s stationarity identity."""

import json

import numpy as np
import pytest
from conftest import fitted_labels, random_instance, rel_err

from twolayer_opt import (Dataset, NetworkParams, NumericsError, Provenance,
                          ShapeError, builtin_activation, model)

SIG = builtin_activation("sigmoid")


def loop_forward(W, theta, act, u):
    """Naive double-loop oracle for theta^T h(W u)."""
    total = 0.0
    for j in range(len(theta)):
        z = 0.0
        for k in range(len(u)):
            z += W[j][k] * u[k]
        total += theta[j] * float(act.eval(z))
    return total


class TestNetworkParams:
    def test_wide_hidden_layer_rejected(self):
        with pytest.raises(ShapeError):
            NetworkParams(np.ones((3, 2)), np.ones(3))  # n > d

    def test_theta_length_mismatch(self):
        with pytest.raises(ShapeError):
            NetworkParams(np.ones((2, 3)), np.ones(3))

    def test_one_dimensional_W(self):
        with pytest.raises(ShapeError, match="W must be 2-d"):
            NetworkParams(np.ones(3), np.ones(3))

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericsError):
            NetworkParams(np.array([[1.0, np.nan]]), np.array([1.0]))

    def test_flat_case_allowed(self):
        p = NetworkParams(np.ones((2, 4)), np.ones(2))
        assert (p.n, p.d) == (2, 4)


class TestForward:
    def test_zero_theta(self, rng):
        p = NetworkParams(rng.normal(size=(3, 3)), np.zeros(3))
        assert model.forward(p, SIG, rng.normal(size=3)) == 0.0

    def test_zero_W_sigmoid(self):
        n = 4
        p = NetworkParams(np.zeros((n, n)), np.ones(n))
        assert model.forward(p, SIG, np.ones(n)) == pytest.approx(0.5 * n)

    def test_matches_loop_oracle(self, rng):
        for _ in range(10):
            p, ds = random_instance(rng)
            u = ds.inputs[0]
            expected = loop_forward(p.W, p.theta, SIG, u)
            assert model.forward(p, SIG, u) == pytest.approx(expected, rel=1e-12)

    def test_shape_mismatch(self, rng):
        p = NetworkParams(rng.normal(size=(2, 3)), rng.normal(size=2))
        with pytest.raises(ShapeError):
            model.forward(p, SIG, np.ones(4))


class TestLoss:
    def test_fitted_data_zero_loss(self, rng):
        p, ds = random_instance(rng, d=3, n=3, N=8)
        fitted = Dataset(ds.inputs, fitted_labels(p, SIG, ds.inputs), ds.provenance)
        assert model.loss(p, SIG, fitted) == 0.0

    def test_constant_labels(self):
        p = NetworkParams(np.ones((2, 2)), np.zeros(2))
        ds = Dataset(np.ones((2, 2)), np.ones(2), Provenance("uniform_cube"))
        assert model.loss(p, SIG, ds) == pytest.approx(0.5)

    def test_matches_loop_oracle(self, rng):
        p, ds = random_instance(rng)
        total = 0.0
        for u, v in zip(ds.inputs, ds.labels):
            total += (v - loop_forward(p.W, p.theta, SIG, u)) ** 2
        expected = total / (2.0 * ds.n_samples)
        assert model.loss(p, SIG, ds) == pytest.approx(expected, rel=1e-12)

    def test_nonnegative_and_zero_iff_residual_zero(self, rng):
        for _ in range(10):
            p, ds = random_instance(rng)
            s = model.residuals(p, SIG, ds)
            f = model.loss(p, SIG, ds)
            assert f >= 0.0
            assert (f == 0.0) == bool(np.all(s == 0.0))


class TestGradTheta:
    def test_zero_residuals(self, rng):
        p, ds = random_instance(rng, d=3, n=2, N=6)
        fitted = Dataset(ds.inputs, fitted_labels(p, SIG, ds.inputs), ds.provenance)
        np.testing.assert_array_equal(model.grad_theta(p, SIG, fitted), np.zeros(2))

    def test_quadratic_closed_form_at_zero_W(self, rng):
        # with W = 0 the subproblem is an explicit quadratic in theta via h(0)
        n, N = 3, 7
        theta = rng.normal(size=n)
        p = NetworkParams(np.zeros((n, n)), theta)
        ds = Dataset(rng.uniform(-1, 1, (N, n)), rng.normal(size=N),
                     Provenance("uniform_cube"))
        h0 = float(SIG.eval(0.0)) * np.ones(n)
        hess = np.outer(h0, h0)
        closed = hess @ theta - np.mean(ds.labels) * h0
        np.testing.assert_allclose(model.grad_theta(p, SIG, ds), closed, rtol=1e-12)

    def test_finite_differences(self, rng):
        for _ in range(5):
            p, ds = random_instance(rng)
            _, fd_t = model.fd_gradients(p, SIG, ds)
            assert rel_err(fd_t, model.grad_theta(p, SIG, ds)) <= 1e-6


class TestGradW:
    def test_zero_theta_gives_zero_matrix(self, rng):
        p, ds = random_instance(rng, d=4, n=3, N=5)
        p0 = NetworkParams(p.W, np.zeros(3))
        np.testing.assert_array_equal(model.grad_W(p0, SIG, ds), np.zeros((3, 4)))

    def test_zero_residuals(self, rng):
        p, ds = random_instance(rng, d=3, n=3, N=6)
        fitted = Dataset(ds.inputs, fitted_labels(p, SIG, ds.inputs), ds.provenance)
        np.testing.assert_array_equal(model.grad_W(p, SIG, fitted), np.zeros((3, 3)))

    def test_finite_differences(self, rng):
        for _ in range(5):
            p, ds = random_instance(rng)
            fd_w, _ = model.fd_gradients(p, SIG, ds)
            assert rel_err(fd_w, model.grad_W(p, SIG, ds)) <= 1e-6


class TestKhatriRao:
    def test_converts_to_khatri_rao(self, rng):
        A, U = rng.normal(size=(7, 2)), rng.uniform(-1.0, 1.0, size=(7, 3))
        D, dense = model.KhatriRao(A, U), model.khatri_rao(A, U)
        assert (D.shape, D.nbytes) == (dense.shape, dense.nbytes)
        got = np.asarray(D)
        assert got.dtype == dense.dtype and got.tobytes() == dense.tobytes()

    @pytest.mark.parametrize("poison", [
        None, "overflow", "nan", "inf_times_zero", "large_in_other_rows"])
    def test_all_finite_from_factors(self, rng, poison):
        A, U = rng.normal(size=(7, 2)), rng.uniform(-1.0, 1.0, size=(7, 3))
        if poison == "overflow":
            A[2, 0], U[2, 1] = 1e200, -1e200
        elif poison == "nan":
            U[4, 2] = np.nan
        elif poison == "inf_times_zero":   # D's entry inf * 0 is NaN
            A[5, 1], U[5] = np.inf, 0.0
        elif poison == "large_in_other_rows":   # max|A| max|U| overflows, no entry does
            A[1, 0], U[3, 2] = 1e200, 1e200
        with np.errstate(all="raise"):
            got = model.KhatriRao(A, U).all_finite()
        assert got == np.isfinite(model.khatri_rao(A, U)).all()
        assert got == (poison in (None, "large_in_other_rows"))


class TestStationaritySystem:
    def test_zero_theta_zero_D(self, rng):
        p, ds = random_instance(rng, d=3, n=3, N=5)
        sys = model.stationarity_system(
            NetworkParams(p.W, np.zeros(3)), SIG, ds)
        np.testing.assert_array_equal(sys.D, np.zeros((9, 5)))

    def test_scalar_case(self):
        # n = d = 1, W = 0, u = 1, theta = 2: D = h'(0) * 2 * 1 = 0.5
        p = NetworkParams(np.zeros((1, 1)), np.array([2.0]))
        ds = Dataset(np.array([[1.0]]), np.array([0.0]), Provenance("manual"))
        sys = model.stationarity_system(p, SIG, ds)
        assert sys.D.shape == (1, 1)
        assert np.asarray(sys.D)[0, 0] == pytest.approx(0.5)

    def test_identity_on_random_instances(self, rng):
        for _ in range(20):
            p, ds = random_instance(rng)
            sys = model.stationarity_system(p, SIG, ds)
            g = model.grad_W(p, SIG, ds)
            lhs = -(sys.D @ sys.s) / ds.n_samples
            assert rel_err(lhs, g.reshape(-1)) <= 1e-10

    def test_residual_bound_via_sigma_min(self, rng):
        # sigma_min(D) >= delta > 0 implies ||s|| <= N ||grad_W||_F / delta
        for _ in range(10):
            p, ds = random_instance(rng, square=True, N=6)
            sys = model.stationarity_system(p, SIG, ds)
            svals = np.linalg.svd(sys.D, compute_uv=False)
            if sys.D.shape[0] < sys.D.shape[1] or svals[-1] <= 0:
                continue
            g_norm = np.linalg.norm(model.grad_W(p, SIG, ds))
            bound = ds.n_samples * g_norm / svals[-1]
            assert np.linalg.norm(sys.s) <= bound * (1 + 1e-8)


class TestParamsPersistence:
    def test_round_trip(self, tmp_path, rng):
        p = NetworkParams(rng.normal(size=(2, 4)), rng.normal(size=2))
        path = tmp_path / "params.csv"
        model.save_params(p, path, "tanh")
        back, act_name = model.load_params(path)
        np.testing.assert_array_equal(back.W, p.W)
        np.testing.assert_array_equal(back.theta, p.theta)
        assert act_name == "tanh"

    def test_malformed(self, tmp_path, rng):
        from twolayer_opt import FormatError
        p = NetworkParams(rng.normal(size=(2, 2)), rng.normal(size=2))
        path = tmp_path / "params.csv"
        model.save_params(p, path, "sigmoid")
        lines = path.read_text().splitlines()
        lines[0] += ",9"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError):
            model.load_params(path)

    def test_sidecar_missing_key(self, tmp_path):
        from twolayer_opt import FormatError
        path = tmp_path / "params.csv"
        model.save_params(NetworkParams(np.eye(2), np.ones(2)), path, "sigmoid")
        path.with_suffix(".meta.json").write_text('{"n": 2, "d": 2}')
        with pytest.raises(FormatError, match="'activation'"):
            model.load_params(path)

    @pytest.mark.parametrize("key", ["n", "d"])
    def test_sidecar_null_number(self, tmp_path, key):
        from twolayer_opt import FormatError
        path = tmp_path / "params.csv"
        model.save_params(NetworkParams(np.eye(2), np.ones(2)), path, "sigmoid")
        meta = {"n": 2, "d": 2, "activation": "sigmoid", key: None}
        path.with_suffix(".meta.json").write_text(json.dumps(meta))
        with pytest.raises(FormatError, match=f"'{key}'"):
            model.load_params(path)

    def test_sidecar_unknown_activation(self, tmp_path):
        from twolayer_opt import FormatError
        path = tmp_path / "params.csv"
        model.save_params(NetworkParams(np.eye(2), np.ones(2)), path, "swish")
        with pytest.raises(FormatError, match="'swish'"):
            model.load_params(path)

    def test_sidecar_no_hidden_units(self, tmp_path):
        from twolayer_opt import FormatError
        path = tmp_path / "params.csv"
        path.write_text("")
        path.with_suffix(".meta.json").write_text(
            '{"n": -1, "d": 2, "activation": "sigmoid"}')
        with pytest.raises(FormatError, match="n=-1"):
            model.load_params(path)

    def test_sidecar_no_input_columns(self, tmp_path):
        from twolayer_opt import FormatError
        path = tmp_path / "params.csv"
        model.save_params(NetworkParams(np.eye(2), np.ones(2)), path, "sigmoid")
        path.with_suffix(".meta.json").write_text(
            '{"n": 2, "d": -1, "activation": "sigmoid"}')
        with pytest.raises(FormatError, match="d=-1, need d >= 1"):
            model.load_params(path)
