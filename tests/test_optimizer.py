"""Prox mapping, inner SGD, outer descent, and full SGD-GD runs."""

import numpy as np
import pytest
from conftest import (fitted_labels, random_instance, reference_inner_sgd,
                      svd_extremes)
from hypothesis import given, settings
from hypothesis import strategies as st

from twolayer_opt import (ConfigError, NetworkParams, RunConfig,
                          builtin_activation, certify, inner_sgd,
                          make_realizable, model, optimizer, outer_step,
                          prox_ball, run, solve_theta_star)
from twolayer_opt.diagnostics import lipschitz_ball_bound, lipschitz_estimates
from twolayer_opt.optimizer import phase_noise

SIG = builtin_activation("sigmoid")


class TestProxBall:
    def test_origin_fixed_point(self):
        np.testing.assert_array_equal(prox_ball(np.zeros(2), np.zeros(2), 1.0),
                                      np.zeros(2))

    def test_radial_projection(self):
        np.testing.assert_allclose(
            prox_ball(np.array([2.0, 0.0]), np.zeros(2), 1.0), [1.0, 0.0])

    def test_interior_identity(self, rng):
        for _ in range(50):
            x = rng.normal(size=4)
            y = rng.normal(size=4)
            radius = np.linalg.norm(x - y) + rng.uniform(0.1, 1.0)
            np.testing.assert_array_equal(prox_ball(x, y, radius), x - y)

    def test_shape_mismatch(self):
        from twolayer_opt import ShapeError
        with pytest.raises(ShapeError):
            prox_ball(np.zeros(2), np.zeros(3), 1.0)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=6),
           st.lists(st.floats(-50, 50), min_size=1, max_size=6),
           st.floats(0.01, 20.0))
    def test_feasibility_property(self, xs, ys, radius):
        k = min(len(xs), len(ys))
        out = prox_ball(np.array(xs[:k]), np.array(ys[:k]), radius)
        assert np.linalg.norm(out) <= radius * (1 + 1e-12)

    def test_projection_optimality(self, rng):
        # prox objective <y, z - x> + 0.5 ||z - x||^2 is minimized at the output
        for _ in range(100):
            n = int(rng.integers(1, 6))
            x, y = rng.normal(size=n) * 2, rng.normal(size=n) * 2
            radius = rng.uniform(0.1, 3.0)
            out = prox_ball(x, y, radius)

            def objective(z):
                return float(y @ (z - x) + 0.5 * np.sum((z - x) ** 2))

            for _ in range(20):
                z = rng.normal(size=n)
                z = z / max(1.0, np.linalg.norm(z) / radius)
                assert objective(out) <= objective(z) + 1e-12


class TestPhaseNoise:
    def test_zero_noise_is_exact(self, rng):
        p, ds = random_instance(rng)
        noise_rng = np.random.default_rng(0)
        before = noise_rng.bit_generator.state
        np.testing.assert_array_equal(phase_noise(noise_rng, 0.0, 7, p.n),
                                      np.zeros((7, p.n)))
        cfg = RunConfig(n_outer=1, n_inner=7, sigma=0.0)
        inner_sgd(p, SIG, ds, cfg, noise_rng)
        assert noise_rng.bit_generator.state == before

    def test_seed_reproducibility(self, rng):
        p, ds = random_instance(rng)
        xi1 = phase_noise(np.random.default_rng(7), 0.5, 6, p.n)
        xi2 = phase_noise(np.random.default_rng(7), 0.5, 6, p.n)
        np.testing.assert_array_equal(xi1, xi2)
        cfg = RunConfig(n_outer=1, n_inner=6, sigma=0.5)
        t1, _ = inner_sgd(p, SIG, ds, cfg, np.random.default_rng(7))
        t2, _ = inner_sgd(p, SIG, ds, cfg, np.random.default_rng(7))
        np.testing.assert_array_equal(t1, t2)

    def test_noise_second_moment(self):
        # E ||xi||^2 = sigma^2 with coordinates N(0, sigma^2 / n)
        sigma = 0.7
        xi = phase_noise(np.random.default_rng(123), sigma, 100_000, 3)
        assert np.mean(np.sum(xi ** 2, axis=1)) == pytest.approx(sigma ** 2, rel=0.02)


class TestInnerSgd:
    def test_stationary_at_interior_minimizer(self, rng):
        p, ds = random_instance(rng, d=3, n=3, N=9)
        R = 40.0  # large ball so the unconstrained minimizer is interior
        theta_star = solve_theta_star(p, SIG, ds, R / 2)
        assert np.linalg.norm(theta_star) < R / 2
        start = NetworkParams(p.W, theta_star)
        cfg = RunConfig(n_outer=1, n_inner=25, R=R, sigma=0.0)
        theta_av, summary = inner_sgd(start, SIG, ds, cfg, np.random.default_rng(0))
        np.testing.assert_allclose(theta_av, theta_star, rtol=1e-12, atol=1e-14)
        assert summary.steps == 25

    def test_noiseless_k0_bound(self, rng):
        p, ds = random_instance(rng, d=3, n=3, N=9)
        R = 4.0
        theta0 = p.theta / max(1.0, np.linalg.norm(p.theta) / (R / 2))
        start = NetworkParams(p.W, theta0)
        theta_star = solve_theta_star(start, SIG, ds, R / 2)
        f_star = model.loss(NetworkParams(p.W, theta_star), SIG, ds)
        n_i = 400
        cfg = RunConfig(n_outer=1, n_inner=n_i, R=R, sigma=0.0)
        theta_av, summary = inner_sgd(start, SIG, ds, cfg, np.random.default_rng(0))
        gap = model.loss(NetworkParams(p.W, theta_av), SIG, ds) - f_star
        k0 = float(np.sum((theta0 - theta_star) ** 2)) / (n_i * summary.beta)
        assert gap <= k0

    def test_iterates_stay_feasible(self, rng):
        R = 0.5
        for s in range(20):
            p, ds = random_instance(rng, d=3, n=3, N=9)
            cfg = RunConfig(n_outer=1, n_inner=1, R=R, sigma=2.0)
            theta_av, _ = inner_sgd(p, SIG, ds, cfg, np.random.default_rng(s))
            assert np.linalg.norm(theta_av) <= R / 2 * (1 + 1e-12)

    def test_fixed_beta_bound_violation(self, rng):
        p, ds = random_instance(rng, d=3, n=3, N=9)
        l_theta = lipschitz_estimates(p, SIG, ds).l_theta_exact
        cfg = RunConfig(n_outer=1, n_inner=5, R=4.0, sigma=0.0,
                        beta=1.0 / l_theta)  # > 1/(2L)
        with pytest.raises(ConfigError):
            inner_sgd(p, SIG, ds, cfg, np.random.default_rng(0))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 6), st.integers(2, 30), st.integers(1, 40),
           st.sampled_from([0.0, 0.05, 0.7, 3.0]),
           st.sampled_from([0.05, 1e6]), st.booleans(),
           st.integers(0, 2 ** 32 - 1))
    def test_matches_per_step_reference(self, d, N, n_inner, sigma, R,
                                        early_exit, seed):
        # R = 0.05 keeps the projection active, R = 1e6 inactive
        p, ds = random_instance(np.random.default_rng(seed), d=d, N=N)
        cfg = RunConfig(n_outer=1, n_inner=n_inner, R=R, sigma=sigma,
                        early_exit=early_exit)
        rng_new, rng_ref = (np.random.default_rng(seed) for _ in range(2))
        theta, summary = inner_sgd(p, SIG, ds, cfg, rng_new)
        theta_ref, ref, largest = reference_inner_sgd(p, SIG, ds, cfg, rng_ref)
        # relative to the iterates' scale: their average can cancel far below it
        scale = max(np.linalg.norm(theta_ref), largest)
        assert np.linalg.norm(theta - theta_ref) <= 1e-12 * scale
        assert (summary.steps, summary.beta, summary.early_exit) == \
            (ref.steps, ref.beta, ref.early_exit)
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state

    def test_early_exit_contract(self, rng):
        ds = make_realizable(3, 9, seed=31)
        for s in range(10):
            inst = np.random.default_rng(s)
            p = NetworkParams(inst.normal(size=(3, 3)), inst.normal(size=3))
            f_in = model.loss(p, SIG, ds)
            cfg = RunConfig(n_outer=1, n_inner=200, R=4.0, sigma=0.3,
                            early_exit=True)
            theta_av, summary = inner_sgd(p, SIG, ds, cfg, np.random.default_rng(s))
            if summary.early_exit:
                assert model.loss(NetworkParams(p.W, theta_av), SIG, ds) <= f_in
                assert summary.steps < 200


class TestOuterStep:
    def test_stationary_point_fixed(self, rng):
        p, ds = random_instance(rng, d=3, n=3, N=6)
        from twolayer_opt import Dataset
        fitted = Dataset(ds.inputs, fitted_labels(p, SIG, ds.inputs), ds.provenance)
        stepped = outer_step(p, SIG, fitted, gamma=0.1)
        np.testing.assert_array_equal(stepped.W, p.W)
        np.testing.assert_array_equal(stepped.theta, p.theta)

    def test_descent_lemma(self, rng):
        for _ in range(20):
            p, ds = random_instance(rng, square=True, N=9)
            est = lipschitz_estimates(p, SIG, ds)
            L = est.l_w_bound
            gamma = 1.0 / L
            g2 = float(np.linalg.norm(model.grad_W(p, SIG, ds)) ** 2)
            f0 = model.loss(p, SIG, ds)
            f1 = model.loss(outer_step(p, SIG, ds, gamma, L), SIG, ds)
            assert f1 <= f0 - (gamma - L * gamma ** 2 / 2.0) * g2 + 1e-8

    def test_halved_step_is_midpoint(self, rng):
        p, ds = random_instance(rng, square=True)
        est = lipschitz_estimates(p, SIG, ds)
        gamma = 1.0 / est.l_w_bound
        w_full = outer_step(p, SIG, ds, gamma, est.l_w_bound).W
        w_half = outer_step(p, SIG, ds, gamma / 2, est.l_w_bound).W
        np.testing.assert_allclose(w_half, (p.W + w_full) / 2.0, rtol=1e-12)

    def test_step_bound_violation(self, rng):
        p, ds = random_instance(rng, square=True)
        L = lipschitz_estimates(p, SIG, ds).l_w_bound
        with pytest.raises(ConfigError):
            outer_step(p, SIG, ds, gamma=2.0 / L)
        with pytest.raises(ConfigError):
            outer_step(p, SIG, ds, gamma=0.0)


class TestSolveThetaStar:
    def test_gradient_map_tolerance(self, rng):
        p, ds = random_instance(rng, d=3, n=3, N=9)
        radius = 2.0
        theta_star = solve_theta_star(p, SIG, ds, radius, tol=1e-12)
        l_theta = lipschitz_estimates(p, SIG, ds).l_theta_exact
        eta = 1.0 / l_theta
        g = model.grad_theta(NetworkParams(p.W, theta_star), SIG, ds)
        moved = theta_star - eta * g
        moved = moved / max(1.0, np.linalg.norm(moved) / radius)
        assert np.linalg.norm(theta_star - moved) / eta <= 1e-10

    def test_matches_least_squares_when_interior(self, rng):
        p, ds = random_instance(rng, d=3, n=3, N=12)
        H = np.asarray(SIG.eval(ds.inputs @ p.W.T))
        theta_ls = np.linalg.lstsq(H, ds.labels, rcond=None)[0]
        radius = np.linalg.norm(theta_ls) * 2 + 1.0
        theta_star = solve_theta_star(p, SIG, ds, radius)
        np.testing.assert_allclose(theta_star, theta_ls, atol=1e-9)


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(n_outer=1, n_inner=0)
        with pytest.raises(ConfigError):
            RunConfig(n_outer=1, n_inner=1, R=0.0)
        with pytest.raises(ConfigError):
            RunConfig(n_outer=1, n_inner=1, sigma=-1.0)
        with pytest.raises(ConfigError):
            RunConfig(n_outer=1, n_inner=1, beta=0.0)
        with pytest.raises(ConfigError):
            RunConfig(n_outer=1, n_inner=1, gamma=-0.1)
        # the preset derives both step sizes
        with pytest.raises(ConfigError):
            RunConfig(n_outer=1, n_inner=1, theorem2_preset=True, beta=0.1)
        with pytest.raises(ConfigError):
            RunConfig(n_outer=1, n_inner=1, theorem2_preset=True, gamma=0.1)
        # a key that nothing reads, such as the old step-size policies
        with pytest.raises(ConfigError, match="'beta_policy'"):
            RunConfig.from_dict({"N_o": 3, "N_i": 2, "beta_policy": "fixed"})

    def test_dict_round_trip(self):
        cfg = RunConfig(n_outer=5, n_inner=7, R=2.0, sigma=0.3, beta=0.01,
                        gamma=0.05, early_exit=True, seed=9, init_w_scale=0.5)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg
        assert RunConfig.from_dict({}) == RunConfig()


class TestRun:
    def test_zero_outer_iterations_edge(self):
        ds = make_realizable(3, 9, seed=1)
        cfg = RunConfig(n_outer=0, n_inner=5, seed=2)
        params, rec = run(SIG, ds, cfg)
        assert len(rec) == 1
        assert rec.inner_steps[0] == 0
        assert rec.f[0] == pytest.approx(rec.derived["f_init"])
        # returned parameters are the (seeded) initialization
        rng = np.random.default_rng(2)
        W0 = rng.normal(0, 1.0 / np.sqrt(3), size=(3, 3))
        np.testing.assert_array_equal(params.W, W0)

    def test_bit_identical_repetition(self):
        ds = make_realizable(3, 9, seed=4)
        cfg = RunConfig(n_outer=12, n_inner=6, sigma=0.4, seed=5)
        p1, r1 = run(SIG, ds, cfg)
        p2, r2 = run(SIG, ds, cfg)
        np.testing.assert_array_equal(p1.W, p2.W)
        np.testing.assert_array_equal(p1.theta, p2.theta)
        for col, vals in r1.columns().items():
            np.testing.assert_array_equal(vals, r2.columns()[col])

    def test_wide_D_matches_svd_reference(self, monkeypatch):
        ds = make_realizable(3, 30, seed=4)   # D is 9 x 30
        cfg = RunConfig(n_outer=8, n_inner=5, sigma=0.2, seed=3)
        p1, r1 = run(SIG, ds, cfg)

        monkeypatch.setattr(optimizer, "column_sigma_extremes", svd_extremes)
        p2, r2 = run(SIG, ds, cfg)
        np.testing.assert_array_equal(p1.W, p2.W)
        np.testing.assert_array_equal(p1.theta, p2.theta)
        for col, vals in r1.columns().items():
            np.testing.assert_array_equal(vals, r2.columns()[col])
        assert np.all(r1.sigma_min_d == 0.0)
        assert certify(p1, SIG, ds).verdict == "rank_deficient"

    def test_record_shape_and_finiteness(self):
        ds = make_realizable(3, 9, seed=4)
        cfg = RunConfig(n_outer=15, n_inner=4, sigma=0.2, seed=0)
        _, rec = run(SIG, ds, cfg)
        assert len(rec) == 16
        for vals in rec.columns().values():
            assert np.all(np.isfinite(vals))

    def test_monotone_descent_noiseless(self):
        ds = make_realizable(3, 9, seed=8)
        cfg = RunConfig(n_outer=30, n_inner=50, sigma=0.0, seed=3)
        _, rec = run(SIG, ds, cfg)
        assert np.all(np.diff(rec.f) <= 1e-10)

    def test_theorem2_preset_derivation(self):
        ds = make_realizable(3, 9, seed=4)
        cfg = RunConfig(n_outer=10, n_inner=1, theorem2_preset=True, seed=1)
        _, rec = run(SIG, ds, cfg)
        assert rec.derived["n_inner"] == 10
        assert rec.derived["sigma"] == pytest.approx(1.0 / np.sqrt(10))
        assert rec.derived["gamma"] == pytest.approx(1.0 / rec.derived["L_ball"])

    def test_theorem2_preset_equals_explicit_spelling(self):
        # features of a large gaussian-activated W are near 0, so
        # 1/(2 L_theta) > 1 and beta is the phase's noise cap
        # 1/sqrt(N_i sigma^2) = 1
        gauss = builtin_activation("gaussian")
        ds = make_realizable(3, 9, seed=4, activation="gaussian")
        n_o = 12
        common = dict(n_outer=n_o, seed=2, init_w_scale=10.0)
        p1, r1 = run(gauss, ds, RunConfig(n_inner=1, theorem2_preset=True, **common))
        p2, r2 = run(gauss, ds, RunConfig(n_inner=n_o, sigma=1.0 / np.sqrt(n_o),
                                          **common))
        np.testing.assert_array_equal(p1.W, p2.W)
        np.testing.assert_array_equal(p1.theta, p2.theta)
        for col, vals in r1.columns().items():
            np.testing.assert_array_equal(vals, r2.columns()[col])

    def test_bad_fixed_gamma(self):
        ds = make_realizable(3, 9, seed=4)
        L = lipschitz_ball_bound(SIG, ds, 4.0)
        cfg = RunConfig(n_outer=2, n_inner=2, gamma=2.5 / L)
        with pytest.raises(ConfigError):
            run(SIG, ds, cfg)

    def test_theta_rows_feasible(self):
        ds = make_realizable(3, 9, seed=4)
        R = 1.0
        cfg = RunConfig(n_outer=10, n_inner=5, R=R, sigma=1.0, seed=6)
        params, _ = run(SIG, ds, cfg)
        assert np.linalg.norm(params.theta) <= R / 2 * (1 + 1e-12)
