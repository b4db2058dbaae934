"""Prox mapping, inner SGD, outer descent, and full SGD-GD runs."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import (fitted_labels, prox_step, random_instance,
                      reference_inner_sgd, rel_err, svd_extremes, svd_spectrum)
from hypothesis import given, settings
from hypothesis import strategies as st

from twolayer_opt import (ConfigError, NetworkParams, NumericsError,
                          RunConfig, ShapeError, builtin_activation, certify,
                          inner_sgd, diagnostics, make_realizable, model,
                          optimizer, outer_step, project_ball,
                          random_params, run, solve_theta_star, svd_rank)
from twolayer_opt.diagnostics import (lipschitz_ball_bound, lipschitz_estimates,
                                      theta_subproblem)
from twolayer_opt.optimizer import InnerSummary, _resolve_beta, phase_noise

SIG = builtin_activation("sigmoid")


def running_sum_inner_sgd(p, a, ds, cfg, rng):
    """inner_sgd's eigenbasis steps with the phase's noise drawn in one call
    and the mean kept as a running sum, updated at every step.  Returns
    (theta_avg, InnerSummary, the 0-based steps whose iterate was
    projected)."""
    n_inner, sigma = cfg.n_inner, cfg.sigma
    radius = cfg.R / 2.0
    lam, Q, b = theta_subproblem(p, a, ds)
    l_theta = float(lam[-1])
    beta = _resolve_beta(cfg, l_theta)
    n = p.n
    Cq = beta * (b - phase_noise(rng, sigma, n_inner, n)) @ Q
    lag = 1.0 - beta * lam
    lag_l, y = lag.tolist(), (p.theta @ Q).tolist()
    sum_y = [0.0] * n
    projected = []
    for step, c in enumerate(Cq.tolist()):
        y = [g * yi + ci for g, yi, ci in zip(lag_l, y, c)]
        norm = math.hypot(*y)
        if norm > radius:
            y = [yi * (radius / norm) for yi in y]
            projected.append(step)
        sum_y = [s + yi for s, yi in zip(sum_y, y)]
    theta_avg = Q @ np.divide(sum_y, n_inner)
    return theta_avg, InnerSummary(beta=beta, l_theta=l_theta), projected


class TestProxBall:
    # the prox step onto the ball as inner_sgd takes it (conftest.prox_step)
    def test_origin_fixed_point(self):
        np.testing.assert_array_equal(prox_step(np.zeros(2), np.zeros(2), 1.0),
                                      np.zeros(2))

    def test_radial_projection(self):
        np.testing.assert_allclose(
            prox_step(np.array([2.0, 0.0]), np.zeros(2), 1.0), [1.0, 0.0])

    def test_interior_identity(self, rng):
        for _ in range(50):
            x = rng.normal(size=4)
            y = rng.normal(size=4)
            radius = np.linalg.norm(x - y) + rng.uniform(0.1, 1.0)
            np.testing.assert_array_equal(prox_step(x, y, radius), x - y)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=6),
           st.lists(st.floats(-50, 50), min_size=1, max_size=6),
           st.floats(0.01, 20.0))
    def test_feasibility_property(self, xs, ys, radius):
        k = min(len(xs), len(ys))
        out = prox_step(np.array(xs[:k]), np.array(ys[:k]), radius)
        assert np.linalg.norm(out) <= radius * (1 + 1e-12)

    def test_projection_optimality(self, rng):
        # prox objective <y, z - x> + 0.5 ||z - x||^2 is minimized at the output
        for _ in range(100):
            n = int(rng.integers(1, 6))
            x, y = rng.normal(size=n) * 2, rng.normal(size=n) * 2
            radius = rng.uniform(0.1, 3.0)
            out = prox_step(x, y, radius)

            def objective(z):
                return float(y @ (z - x) + 0.5 * np.sum((z - x) ** 2))

            for _ in range(20):
                z = rng.normal(size=n)
                z = project_ball(z, radius)
                assert objective(out) <= objective(z) + 1e-12


class TestProjectBall:
    def test_overflowing_square(self):
        # z . z overflows, z does not: the projection is still defined
        with np.errstate(over="raise"):
            out = project_ball(1e200 * np.ones(3), 2.0)
        assert np.isfinite(out).all() and np.linalg.norm(out) <= 2.0


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
        theta_av, _ = inner_sgd(start, SIG, ds, cfg, np.random.default_rng(0))
        np.testing.assert_allclose(theta_av, theta_star, rtol=1e-12, atol=1e-14)

    def test_noiseless_k0_bound(self, rng):
        p, ds = random_instance(rng, d=3, n=3, N=9)
        R = 4.0
        theta0 = project_ball(p.theta, R / 2)
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
    @given(st.integers(2, 6), st.integers(2, 30), st.integers(1, 300),
           st.sampled_from([0.0, 0.05, 0.7, 3.0]),
           st.sampled_from(["first", "mid", "never"]), st.floats(0.2, 0.95),
           st.integers(0, 2 ** 32 - 1))
    def test_matches_per_step_reference(self, d, N, n_inner, sigma, contact,
                                        frac, seed):
        # the ball binds from the first step (R = 0.05), from a step inside
        # the phase, or never (R = 1e6); for "mid" the iterates grow from
        # theta = 0 and the radius is below the largest unprojected norm
        p, ds = random_instance(np.random.default_rng(seed), d=d, N=N)
        cfg = RunConfig(n_outer=1, n_inner=n_inner,
                        R=1e6 if contact == "never" else 0.05, sigma=sigma)
        if contact == "mid":
            p = replace(p, theta=np.zeros(p.n))
            free = replace(cfg, R=1e6)
            free_largest = reference_inner_sgd(p, SIG, ds, free,
                                               np.random.default_rng(seed))[2]
            cfg = replace(cfg, R=2.0 * frac * free_largest)
        rng_new, rng_ref = (np.random.default_rng(seed) for _ in range(2))
        theta, summary = inner_sgd(p, SIG, ds, cfg, rng_new)
        theta_ref, ref, largest = reference_inner_sgd(p, SIG, ds, cfg, rng_ref)
        # relative to the iterates' scale: their average can cancel far below it
        scale = max(np.linalg.norm(theta_ref), largest)
        assert np.linalg.norm(theta - theta_ref) <= 1e-12 * scale
        assert summary == ref
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state

    # the width d rides on blocked's id, so that d = 3 keeps the bare
    # [contact-sigma-blocked] ids and the other widths add "-d<d>"
    @pytest.mark.parametrize("blocked, d", [
        pytest.param(blocked, d, id=f"{blocked}{'' if d == 3 else f'-d{d}'}")
        for d in (1, 2, 3, 10) for blocked in (False, True)])
    @pytest.mark.parametrize("sigma", [0.0, 0.7])
    @pytest.mark.parametrize("contact", ["first", "mid", "never"])
    def test_bits_match_running_sum(self, monkeypatch, contact, sigma, blocked,
                                    d):
        # the width-n step kernel does the list loop's arithmetic in its
        # order, and block-wise draws continue one another, so theta, the
        # summary and the generator agree bit for bit at every width, in one
        # block or (blocked) in 7-row blocks, 6 to the phase, which carry y
        # and the sum.  For "mid" the iterates grow from theta = 0 and the
        # radius is below the largest unprojected norm
        if blocked:
            monkeypatch.setattr(optimizer, "INNER_BLOCK", 7)
        first_contacts = []
        for seed in range(8):
            p, ds = random_instance(np.random.default_rng(seed), d=d, N=9,
                                    square=True)
            cfg = RunConfig(n_outer=1, n_inner=40, sigma=sigma,
                            R=1e6 if contact == "never" else 0.05)
            if contact == "mid":
                p = replace(p, theta=np.zeros(p.n))
                free = replace(cfg, R=1e6)
                largest = reference_inner_sgd(p, SIG, ds, free,
                                              np.random.default_rng(seed))[2]
                cfg = replace(cfg, R=1.2 * largest)
            rng_new, rng_old = (np.random.default_rng(seed) for _ in range(2))
            theta, summary = inner_sgd(p, SIG, ds, cfg, rng_new)
            theta_old, old, projected = running_sum_inner_sgd(p, SIG, ds, cfg,
                                                              rng_old)
            assert theta.tolist() == theta_old.tolist()
            assert summary == old
            assert rng_new.bit_generator.state == rng_old.bit_generator.state
            first_contacts.append(projected[0] if projected else None)
        if contact == "first":
            assert first_contacts == [0] * 8
        elif contact == "never":
            assert first_contacts == [None] * 8
        else:
            assert all(first_contacts)   # inside the phase, after step 0

    def test_blocks_leave_the_run_unchanged(self, monkeypatch):
        # with 7-row blocks a 25-step phase draws its noise in 4 calls
        # (7 + 7 + 7 + 4 rows) and carries y and its sum across them; the
        # run is the same bits as with one block per phase
        ds = make_realizable(3, 9, seed=6)
        cfg = RunConfig(n_outer=5, n_inner=25, sigma=0.5, seed=6)
        whole = run(SIG, ds, cfg)
        monkeypatch.setattr(optimizer, "INNER_BLOCK", 7)
        blocked = run(SIG, ds, cfg)
        assert blocked[0].W.tolist() == whole[0].W.tolist()
        assert blocked[0].theta.tolist() == whole[0].theta.tolist()
        for column, values in whole[1].columns().items():
            np.testing.assert_array_equal(blocked[1].columns()[column], values)
        assert whole[1].inner_steps.tolist() == [25] * 5 + [0]

    def test_memory_independent_of_n_inner(self):
        # a phase holds one block of noise rows at a time, so four blocks'
        # worth of steps peak where one block does
        p, ds = random_instance(np.random.default_rng(0), d=3, n=3, N=9)

        def traced_peak(n_inner):
            cfg = RunConfig(n_outer=1, n_inner=n_inner, sigma=0.5)
            tracemalloc.start()
            try:
                inner_sgd(p, SIG, ds, cfg, np.random.default_rng(0))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one = traced_peak(optimizer.INNER_BLOCK)
        assert traced_peak(4 * optimizer.INNER_BLOCK) <= one + 64 * 1024

    def test_l_theta_is_theta_smoothness(self, rng):
        # one L_theta formula: inner_sgd's, theta_subproblem's and
        # lipschitz_estimates' agree exactly, and with the SVD of H
        for _ in range(20):
            p, ds = random_instance(rng)
            _, _, H = model._features(SIG, p.W, ds.inputs)
            _, summary = inner_sgd(p, SIG, ds, RunConfig(n_outer=1, n_inner=3),
                                   np.random.default_rng(0))
            assert summary.l_theta == theta_subproblem(p, SIG, ds)[0][-1] == \
                lipschitz_estimates(p, SIG, ds).l_theta_exact
            top = np.linalg.svd(H, compute_uv=False)[0]
            assert summary.l_theta == pytest.approx(top * top / len(H), rel=1e-13)


class TestOuterStep:
    def test_stationary_point_fixed(self, rng):
        p, ds = random_instance(rng, d=3, n=3, N=6)
        from twolayer_opt import Dataset
        fitted = Dataset(ds.inputs, fitted_labels(p, SIG, ds.inputs), ds.provenance)
        stepped = outer_step(p, model.grad_W(p, SIG, fitted), 0.1,
                             lipschitz_estimates(p, SIG, fitted).l_w_bound)
        np.testing.assert_array_equal(stepped.W, p.W)
        np.testing.assert_array_equal(stepped.theta, p.theta)

    def test_descent_lemma(self, rng):
        for _ in range(20):
            p, ds = random_instance(rng, square=True, N=9)
            est = lipschitz_estimates(p, SIG, ds)
            L = est.l_w_bound
            gamma = 1.0 / L
            g = model.grad_W(p, SIG, ds)
            g2 = float(np.linalg.norm(g) ** 2)
            f0 = model.loss(p, SIG, ds)
            f1 = model.loss(outer_step(p, g, gamma, L), SIG, ds)
            assert f1 <= f0 - (gamma - L * gamma ** 2 / 2.0) * g2 + 1e-8

    def test_halved_step_is_midpoint(self, rng):
        p, ds = random_instance(rng, square=True)
        est = lipschitz_estimates(p, SIG, ds)
        gamma = 1.0 / est.l_w_bound
        g = model.grad_W(p, SIG, ds)
        w_full = outer_step(p, g, gamma, est.l_w_bound).W
        w_half = outer_step(p, g, gamma / 2, est.l_w_bound).W
        np.testing.assert_allclose(w_half, (p.W + w_full) / 2.0, rtol=1e-12)

    def test_step_bound_violation(self, rng):
        p, ds = random_instance(rng, square=True)
        g = model.grad_W(p, SIG, ds)
        L = lipschitz_estimates(p, SIG, ds).l_w_bound
        with pytest.raises(ConfigError):
            outer_step(p, g, 2.0 / L, L)
        with pytest.raises(ConfigError):
            outer_step(p, g, 0.0, L)

    @pytest.mark.parametrize("shape", [(3,), (1, 3)])
    def test_grad_shape_mismatch(self, shape):
        # W - gamma grad would broadcast either gradient over W's rows
        p = NetworkParams(np.eye(3), np.ones(3))
        with pytest.raises(ShapeError, match=r"\(3, 3\)"):
            outer_step(p, np.ones(shape), 0.1, 1.0)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_grad(self, bad):
        p = NetworkParams(np.eye(3), np.ones(3))
        grad = np.zeros((3, 3))
        grad[1, 2] = bad
        with pytest.raises(NumericsError):
            outer_step(p, grad, 0.1, 1.0)


class TestSolveThetaStar:
    def test_gradient_map_tolerance(self, rng):
        p, ds = random_instance(rng, d=3, n=3, N=9)
        radius = 2.0
        theta_star = solve_theta_star(p, SIG, ds, radius)
        l_theta = lipschitz_estimates(p, SIG, ds).l_theta_exact
        eta = 1.0 / l_theta
        g = model.grad_theta(NetworkParams(p.W, theta_star), SIG, ds)
        moved = theta_star - eta * g
        moved = project_ball(moved, radius)
        assert np.linalg.norm(theta_star - moved) / eta <= 1e-10

    def test_matches_least_squares_when_interior(self, rng):
        p, ds = random_instance(rng, d=3, n=3, N=12)
        H = np.asarray(SIG.eval(ds.inputs @ p.W.T))
        theta_ls = np.linalg.lstsq(H, ds.labels, rcond=None)[0]
        radius = np.linalg.norm(theta_ls) * 2 + 1.0
        theta_star = solve_theta_star(p, SIG, ds, radius)
        np.testing.assert_allclose(theta_star, theta_ls, atol=1e-9)

    def test_minimum_norm_when_singular(self, rng):
        # N < n makes G singular, and theta* is then the minimiser of least
        # norm: no component in G's null space, where eigh leaves
        # rounding-level eigenvalues and c rounding-level entries
        checked = 0
        for _ in range(200):
            d = int(rng.integers(2, 6))
            p, ds = random_instance(rng, d=d, n=d, N=int(rng.integers(1, d)))
            _, _, H = model._features(SIG, p.W, ds.inputs)
            theta_ls = np.linalg.lstsq(H, ds.labels, rcond=None)[0]
            if np.linalg.norm(theta_ls) >= 1e3:
                continue
            checked += 1
            theta = solve_theta_star(p, SIG, ds, 1e3)
            assert rel_err(theta, theta_ls) <= 1e-10
        assert checked >= 150

    @pytest.mark.parametrize("radius", [1e-3, 1.0, 1e3])
    @pytest.mark.parametrize("singular", [False, True], ids=["G", "N_below_n"])
    def test_kkt_conditions(self, rng, radius, singular):
        # theta* minimises the convex subproblem over the ball iff, with
        # g = grad f(theta*), g = 0 inside the ball, and on its boundary
        # ||theta*|| = radius and g = -mu theta* for some mu >= 0.  N < n
        # makes G singular.  Tolerances are relative to g's terms, ||b|| and
        # L_theta ||theta*||
        for _ in range(50):
            d = int(rng.integers(2, 6))
            p, ds = (random_instance(rng, d=d, n=d, N=int(rng.integers(1, d)))
                     if singular else random_instance(rng, d=d))
            theta = solve_theta_star(p, SIG, ds, radius)
            g = model.grad_theta(NetworkParams(p.W, theta), SIG, ds)
            lam, _, b = theta_subproblem(p, SIG, ds)
            norm = np.linalg.norm(theta)
            tol = 1e-12 * (np.linalg.norm(b) + lam[-1] * norm)
            assert norm <= radius * (1 + 1e-14)
            if norm < radius * (1 - 1e-12):
                assert np.linalg.norm(g) <= tol
            else:
                mu = -(g @ theta) / norm ** 2
                assert mu >= -tol / norm
                assert np.linalg.norm(g + mu * theta) <= tol

    @pytest.mark.parametrize("radius", [1e-3, 1e3])
    def test_zero_features(self, radius):
        # tanh(0) = 0, so W = 0 gives H = 0: f is constant and theta* = 0
        p = NetworkParams(np.zeros((3, 3)), np.ones(3))
        theta = solve_theta_star(p, builtin_activation("tanh"),
                                 make_realizable(3, 9, seed=1), radius)
        assert theta.tolist() == [0.0, 0.0, 0.0]


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(ConfigError, match="n_outer must be >= 0"):
            RunConfig(n_outer=-1)
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
        # the preset derives N_i, sigma and both step sizes
        with pytest.raises(ConfigError, match="derives beta"):
            RunConfig(n_outer=1, theorem2_preset=True, beta=0.1)
        with pytest.raises(ConfigError, match="derives gamma"):
            RunConfig(n_outer=1, theorem2_preset=True, gamma=0.1)
        # its N_i is N_o
        with pytest.raises(ConfigError, match="needs n_outer >= 1"):
            RunConfig(n_outer=0, theorem2_preset=True)
        # a key that nothing reads, such as the old step-size policies
        with pytest.raises(ConfigError, match="'beta_policy'"):
            RunConfig.from_dict({"N_o": 3, "N_i": 2, "beta_policy": "fixed"})

    def test_dict_round_trip(self):
        cfg = RunConfig(n_outer=5, n_inner=7, R=2.0, sigma=0.3, beta=0.01,
                        gamma=0.05, seed=9, init_w_scale=0.5)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg
        assert RunConfig.from_dict({}) == RunConfig()
        # a preset config states only what was given, not the N_i, sigma,
        # beta and gamma that the preset derives
        preset = RunConfig(n_outer=6, theorem2_preset=True, seed=3)
        assert (set(optimizer.RUN_KEYS) - set(preset.to_dict())
                == set(optimizer.PRESET_KEYS))
        assert RunConfig.from_dict(preset.to_dict()) == preset


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

        monkeypatch.setattr(diagnostics, "column_sigma_extremes", svd_spectrum)
        p2, r2 = run(SIG, ds, cfg)
        np.testing.assert_array_equal(p1.W, p2.W)
        np.testing.assert_array_equal(p1.theta, p2.theta)
        for col, vals in r1.columns().items():
            np.testing.assert_array_equal(vals, r2.columns()[col])
        assert np.all(r1.sigma_min_d == 0.0)
        assert certify(p1, SIG, ds).verdict == "rank_deficient"
        assert r1.derived["spectrum"] == {"shape": 9}

    def test_inverse_route_rows_match_svd(self, monkeypatch):
        # D is 529 x 529: every row takes the block inverse iteration, and
        # each row's sigma_min_D is checked against the SVD of its own D
        ds = make_realizable(23, 529, seed=2)
        references = []
        program = diagnostics.column_sigma_extremes

        def checked(D):
            references.append(svd_extremes(D))
            return program(D)

        monkeypatch.setattr(diagnostics, "column_sigma_extremes", checked)
        cfg = RunConfig(n_outer=2, n_inner=5, sigma=0.2, seed=1)
        _, rec = run(SIG, ds, cfg)
        assert rec.derived["spectrum"] == {"inverse": 3}
        assert len(references) == len(rec) == 3
        eps = np.finfo(float).eps
        for got, (sigma_min, sigma_max) in zip(rec.sigma_min_d, references):
            assert sigma_min > 1e-10 * sigma_max   # the SVD's verdict: full rank
            assert abs(got - sigma_min) <= 529 * eps * sigma_max

    @pytest.mark.parametrize("certify_rows", [True, False])
    @pytest.mark.parametrize("N", [9, 30], ids=["square_D", "wide_D"])
    def test_D_formed_only_where_read(self, monkeypatch, N, certify_rows):
        # a square D is formed once per certified row; a wide one never,
        # since its route reads only its shape and factors
        formed = []
        program = model.khatri_rao
        monkeypatch.setattr(model, "khatri_rao",
                            lambda A, U: formed.append(A.shape) or program(A, U))
        cfg = RunConfig(n_outer=6, n_inner=5, sigma=0.2, seed=3)
        _, rec = run(SIG, make_realizable(3, N, seed=4), cfg, certify_rows=certify_rows)
        certified = len(rec) if certify_rows else 1
        assert len(formed) == (certified if N == 9 else 0)

    @pytest.mark.parametrize("N", [9, 30], ids=["square_D", "wide_D"])
    def test_final_row_is_the_certificate(self, N):
        ds = make_realizable(3, N, seed=4)
        p, rec = run(SIG, ds, RunConfig(n_outer=6, n_inner=5, sigma=0.2, seed=3))
        cert = certify(p, SIG, ds)
        row = (rec.f[-1], rec.grad_norm[-1], rec.sigma_min_w[-1],
               rec.sigma_min_d[-1], rec.resid_norm[-1])
        assert row == (cert.loss_value, cert.grad_norm, svd_rank(p.W).sigma_min,
                       cert.sigma_min_D, cert.residual_norm)

    @pytest.mark.parametrize("d", [1, 3, 10])
    @pytest.mark.parametrize("block, n_outer, certify_rows", [
        (3, 2, True),                          # the final row fills a block
        (3, 7, True),                          # blocks of 3, 3 and 2 rows
        (3, 5, True),                          # the final row fills a second block
        (None, optimizer.SPECTRA_BLOCK, True),   # one full block, then one row
        (None, 5, False),                      # the final row alone
    ], ids=["one_block", "three_blocks", "two_blocks", "real_block",
         "uncertified"])
    def test_sigma_min_w_is_svd_rank(self, monkeypatch, d, block, n_outer,
                                     certify_rows):
        # each certified row's W, in row order, as stationarity_system sees it
        Ws, program = [], model.stationarity_system
        monkeypatch.setattr(optimizer, "stationarity_system",
                            lambda p, a, ds: Ws.append(p.W) or program(p, a, ds))
        # the row count of each stacked SVD of W
        stacks, svd = [], np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda M, **kw: (
            M.ndim == 3 and stacks.append(len(M))) or svd(M, **kw))
        block = block or optimizer.SPECTRA_BLOCK
        monkeypatch.setattr(optimizer, "SPECTRA_BLOCK", block)
        cfg = RunConfig(n_outer=n_outer, n_inner=2, sigma=0.2, seed=3)
        _, rec = run(SIG, make_realizable(d, 2 * d, seed=4), cfg,
                     certify_rows=certify_rows)
        full, rest = divmod(len(Ws), block)
        assert stacks == [block] * full + [rest] * (rest > 0)
        certified = rec.sigma_min_w if certify_rows else rec.sigma_min_w[-1:]
        assert certified.tolist() == [svd_rank(W).sigma_min for W in Ws]
        assert np.isnan(rec.sigma_min_w[:len(rec) - len(Ws)]).all()

    @pytest.mark.parametrize("cfg", [
        RunConfig(n_outer=12, n_inner=6, sigma=0.4, seed=5),
        RunConfig(n_outer=12, theorem2_preset=True, seed=5),
    ], ids=["noisy", "theorem2_preset"])
    def test_uncertified_rows(self, cfg):
        ds = make_realizable(3, 9, seed=4)
        p1, r1 = run(SIG, ds, cfg)
        p2, r2 = run(SIG, ds, cfg, certify_rows=False)
        np.testing.assert_array_equal(p1.W, p2.W)
        np.testing.assert_array_equal(p1.theta, p2.theta)
        for name in ("k", "grad_norm", "inner_steps"):
            np.testing.assert_array_equal(getattr(r1, name), getattr(r2, name))
        for name in ("f", "sigma_min_w", "sigma_min_d", "resid_norm"):
            assert np.all(np.isnan(getattr(r2, name)[:-1]))
        assert ({col: vals[-1] for col, vals in r1.columns().items()}
                == {col: vals[-1] for col, vals in r2.columns().items()})
        assert r1.derived["spectrum"] == {"svd": len(r1)}
        assert r2.derived == {**r1.derived, "spectrum": {"svd": 1}}

    def test_uncertified_row_non_finite_gradient(self, monkeypatch):
        monkeypatch.setattr(optimizer, "grad_W",
                            lambda p, a, ds: np.full(p.W.shape, np.inf))
        cfg = RunConfig(n_outer=3, n_inner=2, seed=1)
        with pytest.raises(NumericsError, match="outer iteration 0$"):
            run(SIG, make_realizable(3, 9, seed=4), cfg, certify_rows=False)

    def test_non_finite_sigma_min_w_names_row(self, monkeypatch):
        # blocks of rows 0-2, 3-5 and 6-7: poison the second block's middle row
        stacks, svd = [], np.linalg.svd

        def poisoned(M, **kw):
            s = svd(M, **kw)
            if M.ndim == 3:
                stacks.append(len(M))
                if len(stacks) == 2:
                    s[1, -1] = np.nan
            return s

        monkeypatch.setattr(np.linalg, "svd", poisoned)
        monkeypatch.setattr(optimizer, "SPECTRA_BLOCK", 3)
        cfg = RunConfig(n_outer=7, n_inner=2, sigma=0.2, seed=1)
        with pytest.raises(NumericsError, match="outer iteration 4$"):
            run(SIG, make_realizable(3, 9, seed=4), cfg)

    @pytest.mark.parametrize("certify_rows", [True, False])
    def test_non_finite_theta_names_iteration(self, monkeypatch, certify_rows):
        cfg = RunConfig(n_outer=5, n_inner=3, sigma=0.2, seed=1)
        program, phase = optimizer.inner_sgd, iter(range(cfg.n_outer))

        def poisoned(p, a, ds, cfg, rng):
            theta, summary = program(p, a, ds, cfg, rng)
            if next(phase) == 2:
                theta = theta.copy()
                theta[1] = np.nan
            return theta, summary

        monkeypatch.setattr(optimizer, "inner_sgd", poisoned)
        with pytest.raises(NumericsError, match="outer iteration 2$"):
            run(SIG, make_realizable(3, 9, seed=4), cfg,
                certify_rows=certify_rows)

    @pytest.mark.parametrize("preset", [False, True],
                             ids=["noisy", "theorem2_preset"])
    def test_matches_public_pieces(self, preset):
        # run carries its iterates unchecked (NetworkParams._derived); the
        # same loop of checked public pieces gives the same bits
        ds = make_realizable(3, 9, seed=4)
        n_o = 9
        if preset:
            cfg = RunConfig(n_outer=n_o, theorem2_preset=True, seed=5)
            inner = RunConfig(n_inner=n_o, sigma=1.0 / math.sqrt(n_o))
        else:
            cfg = inner = RunConfig(n_outer=n_o, n_inner=6, sigma=0.4, seed=5)
        L = lipschitz_ball_bound(SIG, ds, cfg.R)
        rng = np.random.default_rng(cfg.seed)
        p = random_params(rng, 3)
        p = NetworkParams(p.W, project_ball(p.theta, cfg.R / 2.0))
        norms = []
        for _ in range(n_o):
            theta, _ = inner_sgd(p, SIG, ds, inner, rng)
            p = NetworkParams(p.W, theta)
            g = model.grad_W(p, SIG, ds)
            norms.append(float(np.linalg.norm(g)))
            p = outer_step(p, g, 1.0 / L, L)
        norms.append(float(np.linalg.norm(model.grad_W(p, SIG, ds))))
        for certify_rows in (True, False):
            params, rec = run(SIG, ds, cfg, certify_rows=certify_rows)
            np.testing.assert_array_equal(params.W, p.W)
            np.testing.assert_array_equal(params.theta, p.theta)
            assert rec.grad_norm.tolist() == norms

    def test_record_shape_and_finiteness(self):
        ds = make_realizable(3, 9, seed=4)
        cfg = RunConfig(n_outer=15, n_inner=4, sigma=0.2, seed=0)
        _, rec = run(SIG, ds, cfg)
        assert len(rec) == 16
        assert rec.derived["spectrum"] == {"svd": 16}
        for vals in rec.columns().values():
            assert np.all(np.isfinite(vals))

    def test_monotone_descent_noiseless(self):
        ds = make_realizable(3, 9, seed=8)
        cfg = RunConfig(n_outer=30, n_inner=50, sigma=0.0, seed=3)
        _, rec = run(SIG, ds, cfg)
        assert np.all(np.diff(rec.f) <= 1e-10)

    def test_theorem2_preset_derivation(self):
        ds = make_realizable(3, 9, seed=4)
        cfg = RunConfig(n_outer=10, theorem2_preset=True, seed=1)
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
        p1, r1 = run(gauss, ds, RunConfig(theorem2_preset=True, **common))
        p2, r2 = run(gauss, ds, RunConfig(n_inner=n_o, sigma=1.0 / np.sqrt(n_o),
                                          **common))
        np.testing.assert_array_equal(p1.W, p2.W)
        np.testing.assert_array_equal(p1.theta, p2.theta)
        for col, vals in r1.columns().items():
            np.testing.assert_array_equal(vals, r2.columns()[col])

    def test_given_step_sizes_are_used(self, monkeypatch):
        # a beta within 1/(2 L_theta) and a gamma within 2/L, as given
        ds = make_realizable(3, 9, seed=4)
        L = lipschitz_ball_bound(SIG, ds, 4.0)
        beta, gamma = 0.01, 1.5 / L
        program, summaries = optimizer.inner_sgd, []

        def recorded(*args):
            theta, summary = program(*args)
            summaries.append(summary)
            return theta, summary

        monkeypatch.setattr(optimizer, "inner_sgd", recorded)
        cfg = RunConfig(n_outer=3, n_inner=4, sigma=0.2, beta=beta,
                        gamma=gamma, seed=1)
        _, rec = run(SIG, ds, cfg)
        assert [s.beta for s in summaries] == [beta] * 3
        assert all(beta < 1.0 / (2.0 * s.l_theta) for s in summaries)
        assert rec.derived["gamma"] == gamma

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
