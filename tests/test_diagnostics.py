"""Rank reports, Lipschitz estimators, certificates, perturbation trials."""

import numpy as np
import pytest
from conftest import fitted_labels, random_instance, svd_extremes
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from twolayer_opt import (ConfigError, Dataset, NetworkParams, NumericsError,
                          Provenance, builtin_activation, certify,
                          collection_rank, diagnostics, lipschitz_estimates,
                          model, perturbation_rank_trial, project_ball,
                          svd_rank)

SIG = builtin_activation("sigmoid")


class TestSvdRank:
    def test_identity(self):
        rep = svd_rank(np.eye(2))
        np.testing.assert_allclose(rep.singular_values, [1.0, 1.0])
        assert rep.numerical_rank == 2
        assert rep.sigma_min == 1.0

    def test_zero_matrix(self):
        rep = svd_rank(np.zeros((3, 4)))
        assert rep.numerical_rank == 0
        assert rep.sigma_min == 0.0

    def test_duplicated_columns(self, rng):
        col = rng.normal(size=3)
        rep = svd_rank(np.column_stack([col, col]))
        assert rep.numerical_rank == 1

    def test_nonfinite(self):
        with pytest.raises(NumericsError):
            svd_rank(np.array([[1.0, np.inf]]))

    def test_rank_tol_domain(self):
        with pytest.raises(ValueError):
            svd_rank(np.eye(2), rank_tol=2.0)

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, (3, 5),
                  elements=st.floats(-10, 10, allow_nan=False)))
    def test_transpose_invariance(self, M):
        assert svd_rank(M).numerical_rank == svd_rank(M.T).numerical_rank


class TestCollectionRank:
    def test_scalar_case(self):
        rep = collection_rank(SIG, None, np.array([[1.0]]))
        assert rep.numerical_rank == 1

    def test_linear_symmetric_obstruction(self, rng):
        # vect(u u^T) spans at most the 3-dim symmetric subspace for d = 2
        lin = builtin_activation("linear")
        rep = collection_rank(lin, None, rng.uniform(-1, 1, size=(4, 2)))
        assert rep.numerical_rank <= 3

    def test_sigmoid_full_rank(self):
        for s in range(10):
            rng = np.random.default_rng(s)
            rep = collection_rank(SIG, None, rng.uniform(-1, 1, size=(4, 2)))
            assert rep.is_full_rank()

    def test_rotation_invariance(self, rng):
        # inputs -> Q u with W -> W Q^T leaves the collection rank unchanged
        d, N = 3, 9
        inputs = rng.uniform(-1, 1, size=(N, d))
        W = rng.normal(size=(d, d))
        Q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        base = collection_rank(SIG, W, inputs)
        rotated = collection_rank(SIG, W @ Q.T, inputs @ Q.T)
        assert base.numerical_rank == rotated.numerical_rank

    def test_shape_checks(self, rng):
        from twolayer_opt import ShapeError
        with pytest.raises(ShapeError):
            collection_rank(SIG, np.ones((2, 3)), rng.uniform(-1, 1, (4, 3)))


class TestLipschitzEstimates:
    def test_zero_inputs_zero_bound(self):
        p = NetworkParams(np.ones((2, 2)), np.ones(2))
        ds = Dataset(np.zeros((3, 2)), np.ones(3), Provenance("manual"))
        est = lipschitz_estimates(p, SIG, ds)
        assert est.l_w_bound == 0.0

    def test_analytic_theta_bound(self, rng):
        p, ds = random_instance(rng, d=3, n=3, N=9)
        est = lipschitz_estimates(p, SIG, ds)
        assert est.l_theta_bound_analytic == pytest.approx(3.0)
        assert est.l_theta_exact <= est.l_theta_bound_analytic * (1 + 1e-12)

    def test_softplus_has_no_analytic_theta_bound(self, rng):
        p, ds = random_instance(rng, d=3, n=3, N=9)
        est = lipschitz_estimates(p, builtin_activation("softplus"), ds)
        assert est.l_theta_bound_analytic is None
        assert est.l_w_bound > 0

    def test_relu_rejected(self, rng):
        p, ds = random_instance(rng)
        with pytest.raises(ConfigError):
            lipschitz_estimates(p, builtin_activation("relu"), ds)

    def test_grad_W_inequality_sampled(self, rng):
        for _ in range(200):
            d = int(rng.integers(2, 5))
            n = int(rng.integers(1, d + 1))
            N = int(rng.integers(2, 17))
            ds = Dataset(rng.uniform(-1, 1, (N, d)), rng.normal(size=N),
                         Provenance("uniform_cube"))
            theta = rng.normal(size=n)
            W1, W2 = rng.normal(size=(n, d)), rng.normal(size=(n, d))
            p1 = NetworkParams(W1, theta)
            est = lipschitz_estimates(p1, SIG, ds)
            lhs = np.linalg.norm(model.grad_W(p1, SIG, ds)
                                 - model.grad_W(NetworkParams(W2, theta), SIG, ds))
            assert lhs <= est.l_w_bound * np.linalg.norm(W1 - W2) * (1 + 1e-9)

    def test_grad_theta_inequality_sampled(self, rng):
        for _ in range(200):
            p, ds = random_instance(rng, d=3)
            t2 = rng.normal(size=p.n)
            est = lipschitz_estimates(p, SIG, ds)
            lhs = np.linalg.norm(
                model.grad_theta(p, SIG, ds)
                - model.grad_theta(NetworkParams(p.W, t2), SIG, ds))
            assert lhs <= est.l_theta_exact * np.linalg.norm(p.theta - t2) * (1 + 1e-9)

    def test_ball_bound_dominates_in_ball_estimates(self, rng):
        R = 4.0
        for _ in range(20):
            p, ds = random_instance(rng, square=True)
            theta = project_ball(p.theta, R / 2)
            est = lipschitz_estimates(NetworkParams(p.W, theta), SIG, ds)
            ball = diagnostics.lipschitz_ball_bound(SIG, ds, R)
            assert est.l_w_bound <= ball * (1 + 1e-12)


class TestColumnSigmaExtremes:
    @staticmethod
    def check_against_svd(M):
        got = diagnostics.column_sigma_extremes(M)
        want = svd_extremes(M)
        if M.shape[0] < M.shape[1]:
            assert got[0] == 0.0
        else:
            assert got == want
        assert got[1] == pytest.approx(want[1], rel=1e-12, abs=0.0)

    @settings(max_examples=100, deadline=None)
    @given(shape=st.tuples(st.integers(1, 8), st.integers(1, 12)),
           scale=st.sampled_from([1.0, 1e-200, 1e200]), data=st.data())
    def test_matches_svd(self, shape, scale, data):
        M = data.draw(arrays(np.float64, shape,
                             elements=st.floats(-1e3, 1e3, allow_nan=False)))
        self.check_against_svd(M * scale)

    @settings(max_examples=50, deadline=None)
    @given(n=st.integers(1, 3), d=st.integers(1, 4), N=st.integers(2, 30),
           seed=st.integers(0, 2**32 - 1))
    def test_rank_deficient_khatri_rao(self, n, d, N, seed):
        # a repeated sample repeats a column of D
        rng = np.random.default_rng(seed)
        A, U = rng.normal(size=(N, n)), rng.uniform(-1.0, 1.0, size=(N, d))
        A[-1], U[-1] = A[0], U[0]
        self.check_against_svd(model.khatri_rao(A, U))

    @pytest.mark.parametrize("shape", [(3, 7), (4, 4), (7, 3)])
    def test_zero_matrix(self, shape):
        assert diagnostics.column_sigma_extremes(np.zeros(shape)) == (0.0, 0.0)

    @pytest.mark.parametrize("shape", [(3, 7), (4, 4), (7, 3)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite(self, shape, bad):
        M = np.ones(shape)
        M[1, 2] = bad
        with pytest.raises(NumericsError):
            diagnostics.column_sigma_extremes(M)


class TestCertify:
    def test_exact_fit(self, rng):
        p, ds = random_instance(rng, d=3, n=3, N=6)
        fitted = Dataset(ds.inputs, fitted_labels(p, SIG, ds.inputs), ds.provenance)
        cert = certify(p, SIG, fitted)
        assert cert.residual_norm == 0.0
        assert cert.loss_value == 0.0

    def test_zero_theta_rank_deficient(self, rng):
        p, ds = random_instance(rng, d=3, n=3, N=6)
        cert = certify(NetworkParams(p.W, np.zeros(3)), SIG, ds)
        assert cert.verdict == "rank_deficient"
        assert cert.sigma_min_D == 0.0

    def test_inequality_holds(self, rng):
        for _ in range(20):
            p, ds = random_instance(rng, d=3, n=3, N=9)
            cert = certify(p, SIG, ds)
            assert cert.loss_value == model.loss(p, SIG, ds)
            if cert.verdict == "certified_near_global":
                assert cert.residual_norm <= cert.certified_bound * (1 + 1e-8)

    def test_overdetermined_columns_rank_deficient(self, rng):
        # N > n*d means D cannot have full column rank
        p, ds = random_instance(rng, d=2, n=2, N=10)
        cert = certify(p, SIG, ds)
        assert cert.verdict == "rank_deficient"

    def test_report_is_json_friendly(self, rng):
        import json
        p, ds = random_instance(rng, d=3, n=3, N=9)
        blob = json.dumps(certify(p, SIG, ds).to_dict())
        assert "sigma_min_D" in blob


class TestPerturbationRankTrial:
    def test_single_row_perturbation_sigmoid(self, rng):
        d, N = 2, 4
        inputs = rng.uniform(-1, 1, size=(N, d))
        w_prime = rng.normal(size=(d, d))
        z = np.zeros((d, d))
        z[0] = rng.normal(size=d)
        frac = perturbation_rank_trial(w_prime, z, SIG, inputs, trials=100, seed=3)
        assert frac == 1.0

    def test_linear_control_fraction_zero(self, rng):
        d, N = 2, 4
        inputs = rng.uniform(-1, 1, size=(N, d))
        frac = perturbation_rank_trial(
            rng.normal(size=(d, d)), rng.normal(size=(d, d)),
            builtin_activation("linear"), inputs, trials=50, seed=3)
        assert frac == 0.0

    def test_zero_trials_rejected(self, rng):
        with pytest.raises(ValueError):
            perturbation_rank_trial(np.eye(2), np.eye(2), SIG,
                                    rng.uniform(-1, 1, (4, 2)), trials=0)

    def test_zero_Z_rejected(self, rng):
        with pytest.raises(ValueError):
            perturbation_rank_trial(np.eye(2), np.zeros((2, 2)), SIG,
                                    rng.uniform(-1, 1, (4, 2)), trials=5)
