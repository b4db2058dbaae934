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

    @settings(max_examples=50, deadline=None)
    @given(arrays(np.float64, (3, 5),
                  elements=st.floats(-10, 10, allow_nan=False)))
    def test_transpose_invariance(self, M):
        assert svd_rank(M).numerical_rank == svd_rank(M.T).numerical_rank


class TestCollectionRank:
    def test_scalar_case(self):
        rep = collection_rank(SIG, np.eye(1), np.array([[1.0]]))
        assert rep.numerical_rank == 1

    def test_linear_symmetric_obstruction(self, rng):
        # vect(u u^T) spans at most the 3-dim symmetric subspace for d = 2
        lin = builtin_activation("linear")
        rep = collection_rank(lin, np.eye(2), rng.uniform(-1, 1, size=(4, 2)))
        assert rep.numerical_rank <= 3

    def test_sigmoid_full_rank(self):
        for s in range(10):
            rng = np.random.default_rng(s)
            rep = collection_rank(SIG, np.eye(2), rng.uniform(-1, 1, size=(4, 2)))
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


def square_khatri_rao(rng, n, d):
    """Square D (N = n*d) from Gaussian A and uniform-cube U."""
    N = n * d
    return model.khatri_rao(rng.normal(size=(N, n)),
                            rng.uniform(-1.0, 1.0, size=(N, d)))


def certify_D(D):
    """The certificate of D with a unit residual and gradient."""
    system = model.StationaritySystem(D=D, s=np.ones(D.shape[1]))
    return diagnostics.certificate(system, np.ones(1))


def svd_verdict(D):
    sigma_min, sigma_max = svd_extremes(D)
    return ("rank_deficient" if sigma_min <= diagnostics.RANK_TOL * sigma_max
            else "certified_near_global")


def decided(got):
    """column_sigma_extremes' (sigma_min, sigma_max), route and rank decision."""
    return (*got, got.spectrum, got.full_rank)


class TestColumnSigmaExtremes:
    @staticmethod
    def check_against_svd(M):
        got = diagnostics.column_sigma_extremes(M)
        if M.shape[0] < M.shape[1]:
            assert decided(got) == (0.0, None, "shape", False)
        else:
            assert decided(got) == (*svd_extremes(M), "svd",
                                    svd_rank(M).is_full_rank())

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
        want = ((0.0, None, "shape", False) if shape[0] < shape[1]
                else (0.0, 0.0, "svd", False))
        assert decided(diagnostics.column_sigma_extremes(np.zeros(shape))) == want

    @pytest.mark.parametrize("shape", [(3, 7), (4, 4), (7, 3)])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite(self, shape, bad):
        M = np.ones(shape)
        M[1, 2] = bad
        with pytest.raises(NumericsError):
            diagnostics.column_sigma_extremes(M)

    @settings(max_examples=8, deadline=None)
    @given(nd=st.sampled_from([(16, 32), (23, 23), (24, 24), (20, 30), (25, 25)]),
           log_scale=st.floats(0.0, 6.0), seed=st.integers(0, 2**32 - 1))
    def test_inverse_route_matches_svd(self, nd, log_scale, seed):
        # columns scaled over 10^log_scale take cond(D) up to about 1e8
        rng = np.random.default_rng(seed)
        D = square_khatri_rao(rng, *nd)
        D = D * np.logspace(0.0, -log_scale, D.shape[1])[rng.permutation(D.shape[1])]
        sigma_min, sigma_max = svd_extremes(D)
        cert = certify_D(D)
        assert abs(cert.sigma_min_D - sigma_min) <= \
            max(D.shape) * np.finfo(float).eps * sigma_max
        assert cert.verdict == svd_verdict(D)

    def test_inverse_route_taken(self, rng):
        D = square_khatri_rao(rng, 23, 23)
        got = diagnostics.column_sigma_extremes(D)
        assert decided(got)[1:] == (None, "inverse", True)
        sigma_min, sigma_max = svd_extremes(D)
        assert abs(got[0] - sigma_min) <= 529 * np.finfo(float).eps * sigma_max
        cert = certify_D(D)
        assert (cert.spectrum, cert.sigma_max_D) == ("inverse", None)
        assert cert.verdict == "certified_near_global"

    @staticmethod
    def check_svd_fallback(D):
        cert = certify_D(D)
        assert cert.spectrum == "svd"
        assert (cert.sigma_min_D, cert.sigma_max_D) == svd_extremes(D)
        assert cert.verdict == svd_verdict(D)
        return cert

    @pytest.mark.parametrize("scale", [1.0, 1e-200, 1e200])
    @pytest.mark.parametrize("last_sample", ["repeated", "zero"])
    def test_fallback_singular_sample(self, rng, last_sample, scale):
        # a repeated sample repeats a column of D; u_i = 0 zeroes one, so
        # QR's R has an exactly zero diagonal entry and its last diagonal
        # block has no inverse.  Entries outside (1e-100, 1e100)
        # go straight to the SVD, which scales itself, and the CLI's
        # errstate would turn an overflow into an error
        N = 529
        A, U = rng.normal(size=(N, 23)), rng.uniform(-1.0, 1.0, size=(N, 23))
        if last_sample == "repeated":
            A[-1], U[-1] = A[0], U[0]
        else:
            U[-1] = 0.0
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            cert = self.check_svd_fallback(scale * model.khatri_rao(A, U))
        assert cert.verdict == "rank_deficient"

    def test_fallback_zero_W(self, rng):
        p, ds = random_instance(rng, d=23, n=23, N=529)
        system = model.stationarity_system(
            NetworkParams(np.zeros((23, 23)), p.theta), SIG, ds)
        cert = self.check_svd_fallback(system.D)
        assert cert.verdict == "rank_deficient"

    def test_fallback_guard_band(self, rng, monkeypatch):
        # RANK_TOL sigma_max < sigma_min <= RANK_TOL ||D||_F: the SVD decides
        # (full rank), not the inverse route.  Singular values 1.5e-10, then
        # 1e-9 ... 1 in geometric steps: the Ritz values converge, so the
        # guard band alone sends D to the SVD
        Q = np.linalg.qr(rng.normal(size=(512, 512)))[0]
        D = Q * np.concatenate([[1.5e-10], np.geomspace(1e-9, 1.0, 511)])
        sigma_min, sigma_max = svd_extremes(D)
        tol = diagnostics.RANK_TOL
        assert tol * sigma_max < sigma_min <= tol * np.linalg.norm(D)
        cert = self.check_svd_fallback(D)
        assert cert.verdict == "certified_near_global"
        monkeypatch.setattr(diagnostics, "RANK_TOL", 1e-12)
        assert decided(diagnostics.column_sigma_extremes(D))[1:] == \
            (None, "inverse", True)

    # near the guard band (3e-9, 1e-8) also with Q from seeds 0-19
    @pytest.mark.parametrize("s, seed", [
        pytest.param(s, seed, id=str(s) if seed is None else f"{s}-seed{seed}")
        for s in (1e-6, 1e-4, 3e-9, 1e-8)
        for seed in ((None,) if s > 1e-8 else (None, *range(20)))])
    def test_isolated_sigma_min_takes_inverse(self, rng, s, seed):
        # singular values 1, ..., 1 and s, with s above the guard band
        # RANK_TOL ||D||_F = 2.3e-9: the inverse route accepts s.  Closer
        # to the band the Ritz values' changes are rounding errors by 4
        # solves, and for some Q they stop moving (7 of these 21 at 3e-9,
        # 1 at 1e-8): the rounding-level rule accepts them
        if seed is not None:
            rng = np.random.default_rng(seed)
        Q = np.linalg.qr(rng.normal(size=(512, 512)))[0]
        D = Q * np.concatenate([np.ones(511), [s]])
        got = diagnostics.column_sigma_extremes(D)
        assert decided(got)[1:] == (None, "inverse", True)
        sigma_min, sigma_max = svd_extremes(D)
        assert abs(got[0] - sigma_min) <= 512 * np.finfo(float).eps * sigma_max

    def test_fallback_ritz_not_converged(self, rng):
        # singular values 1 ... 1.1 in equal steps: 32 columns cannot
        # separate the smallest one in 4 solves, nor in 6
        Q = np.linalg.qr(rng.normal(size=(512, 512)))[0]
        self.check_svd_fallback(Q * np.linspace(1.0, 1.1, 512))

    def test_fallback_overflowing_solve(self):
        # a denormal pivot: the solve overflows, under the CLI's errstate
        D = np.eye(512)
        D[-1, -1] = 1e-310
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            cert = self.check_svd_fallback(D)
        assert cert.verdict == "rank_deficient"


class TestTriangularSolve:
    # n = 103 is not a multiple of SUBSTITUTION_BLOCK: the last block is short
    @pytest.fixture
    def R(self, rng):
        n = 3 * diagnostics.SUBSTITUTION_BLOCK + 7
        return np.triu(rng.normal(size=(n, n))) / np.sqrt(n) + 3.0 * np.eye(n)

    @pytest.mark.parametrize("transpose", [False, True])
    def test_matches_solve(self, rng, R, transpose):
        X = rng.normal(size=(len(R), diagnostics.INVERSE_BLOCK))
        inverses = diagnostics._diagonal_block_inverses(R)
        got = diagnostics._triangular_solve(R, inverses, X, transpose=transpose)
        want = np.linalg.solve(R.T if transpose else R, X)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13 * np.abs(want).max())

    @pytest.mark.parametrize("transpose", [False, True])
    def test_packed_qr_factor(self, rng, R, transpose):
        # R read in place from the raw QR, with Householder data below its
        # diagonal, gives the bits of its upper triangle
        packed = np.linalg.qr(R.T @ R, mode="raw")[0].T
        upper = np.triu(packed)
        assert not np.array_equal(packed, upper)
        X = rng.normal(size=(len(R), diagnostics.INVERSE_BLOCK))
        got, want = (diagnostics._triangular_solve(
            M, diagnostics._diagonal_block_inverses(M), X, transpose=transpose)
            for M in (packed, upper))
        assert got.tobytes() == want.tobytes()

    def test_singular_diagonal_block_takes_svd(self, rng):
        # u_i = 0 zeroes column i of D, and R[i, i] = 0 exactly: the
        # diagonal block that holds it has no inverse
        N, i = 529, 100
        A, U = rng.normal(size=(N, 23)), rng.uniform(-1.0, 1.0, size=(N, 23))
        U[i] = 0.0
        D = model.khatri_rao(A, U)
        assert np.linalg.qr(D, mode="r")[i, i] == 0.0
        cert = TestColumnSigmaExtremes.check_svd_fallback(D)
        assert cert.verdict == "rank_deficient"


def block_of_condition(rng, cond, shape=(625, diagnostics.INVERSE_BLOCK)):
    """A block with singular values 1 ... 1/cond spread evenly in log
    scale, and random left and right singular vectors."""
    m, n = shape
    U = np.linalg.qr(rng.normal(size=(m, n)))[0]
    V = np.linalg.qr(rng.normal(size=(n, n)))[0]
    return (U * np.logspace(0.0, -np.log10(cond), n)) @ V.T


class TestCholeskyQr:
    @staticmethod
    def check_factorisation(X, Q, R, scale):
        """X = scale Q R, Q orthonormal and R upper triangular, to O(eps)."""
        eps, n = np.finfo(float).eps, X.shape[1]
        assert np.abs(Q.T @ Q - np.eye(n)).max() <= 20 * eps
        assert np.linalg.norm(scale * (Q @ R) - X) <= 20 * eps * np.linalg.norm(X)
        assert np.array_equal(np.triu(R), R)
        assert abs(scale * np.linalg.norm(R, 2) - np.linalg.norm(X, 2)) <= \
            20 * eps * np.linalg.norm(X, 2)

    # the unshifted Cholesky of the Gram fails (or leaves Q far from
    # orthonormal) once the condition number passes about 1e8
    @pytest.mark.parametrize("cond", [1.0, 1e4, 1e8, 1e10, 1e12])
    def test_orthonormal_and_exact(self, rng, cond):
        X = block_of_condition(rng, cond)
        self.check_factorisation(X, *diagnostics._cholesky_qr(X))

    # the Gram of an unscaled block overflows or underflows
    @pytest.mark.parametrize("magnitude", [1e200, 1e-200])
    def test_extreme_magnitudes(self, rng, magnitude):
        X = block_of_condition(rng, 1e4)
        with np.errstate(all="raise"):
            Q, R, scale = diagnostics._cholesky_qr(magnitude * X)
        self.check_factorisation(X, Q, R, scale / magnitude)

    def test_start_block_drawn_once(self, rng):
        n = diagnostics.INVERSE_MIN_COLUMNS
        block = diagnostics._start_block(n)
        assert not block.flags.writeable
        assert diagnostics._start_block(n) is block
        want = np.random.default_rng(diagnostics.INVERSE_SEED).standard_normal(
            (n, diagnostics.INVERSE_BLOCK))
        assert np.array_equal(block, want)
        D = square_khatri_rao(rng, 16, 32)
        first = diagnostics.column_sigma_extremes(D)
        assert first.spectrum == "inverse"
        assert diagnostics.column_sigma_extremes(D) == first

    def test_cholesky_failure_takes_svd(self, rng, monkeypatch):
        def refuse(X):
            raise np.linalg.LinAlgError("Matrix is not positive definite")
        monkeypatch.setattr(diagnostics, "_cholesky_qr", refuse)
        D = square_khatri_rao(rng, 23, 23)
        cert = TestColumnSigmaExtremes.check_svd_fallback(D)
        assert cert.verdict == "certified_near_global"


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

    def test_overflowing_bound_inconclusive(self):
        # D has full rank, but N ||grad|| / sigma_min = 4 * 2e150 / 1e-200
        # overflows
        system = model.StationaritySystem(D=1e-200 * np.eye(4), s=np.ones(4))
        cert = diagnostics.certificate(system, np.full((2, 2), 1e150))
        assert (cert.spectrum, cert.verdict) == ("svd", "inconclusive")
        assert (cert.grad_norm, cert.certified_bound) == (2e150, np.inf)

    @pytest.mark.parametrize("poison", ["overflow", "nan"])
    def test_wide_non_finite_D(self, rng, poison):
        # the shape route never forms D: its factors show the bad entries,
        # with no floating-point error under the CLI's errstate
        A, U = rng.normal(size=(10, 2)), rng.uniform(-1.0, 1.0, size=(10, 2))
        if poison == "overflow":   # every product 1e200 * 1e200 overflows
            A, U = np.full_like(A, 1e200), np.full_like(U, 1e200)
        else:
            A[3, 1] = np.nan
        system = model.StationaritySystem(D=model.KhatriRao(A, U), s=np.ones(10))
        with np.errstate(over="raise", invalid="raise", divide="raise"), \
                pytest.raises(NumericsError, match="non-finite entries in D"):
            diagnostics.certificate(system, np.ones((2, 2)))

    def test_overdetermined_columns_rank_deficient(self, rng):
        # N > n*d means D cannot have full column rank
        p, ds = random_instance(rng, d=2, n=2, N=10)
        cert = certify(p, SIG, ds)
        assert cert.verdict == "rank_deficient"
        assert (cert.spectrum, cert.sigma_max_D) == ("shape", None)

    def test_small_square_takes_svd(self, rng):
        p, ds = random_instance(rng, d=3, n=3, N=9)
        cert = certify(p, SIG, ds)
        D = model.stationarity_system(p, SIG, ds).D
        assert cert.spectrum == "svd"
        assert (cert.sigma_min_D, cert.sigma_max_D) == svd_extremes(D)

    def test_report_is_json_friendly(self, rng):
        import json
        p, ds = random_instance(rng, d=3, n=3, N=9)
        blob = json.loads(json.dumps(certify(p, SIG, ds).to_dict()))
        assert "sigma_min_D" in blob and blob["spectrum"] == "svd"
        p, ds = random_instance(rng, d=2, n=2, N=10)
        wide = json.loads(json.dumps(certify(p, SIG, ds).to_dict()))
        assert wide["sigma_max_D"] is None and wide["spectrum"] == "shape"


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
