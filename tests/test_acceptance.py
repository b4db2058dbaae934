"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every criterion is asserted at its stated tolerance and scale.
"""

from dataclasses import replace

import numpy as np
from conftest import rel_err

from twolayer_opt import (Dataset, NetworkParams, Provenance, RunConfig,
                          builtin_activation, certify, collection_rank,
                          inner_sgd, make_realizable, model,
                          perturbation_rank_trial, prox_ball, run,
                          solve_theta_star)
from twolayer_opt.diagnostics import lipschitz_ball_bound, lipschitz_estimates

SIG = builtin_activation("sigmoid")


def report(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance {num:>2}] {name}: {status} ({detail})")
    assert passed, f"criterion {num} ({name}): {detail}"


def _random_instance(rng, d_max=5, n_max=None, N_max=25, ball=None):
    d = int(rng.integers(2, d_max + 1))
    n = int(rng.integers(1, (n_max or d) + 1)) if n_max != "square" else d
    n = min(n, d)
    N = int(rng.integers(2, N_max + 1))
    theta = rng.normal(size=n)
    if ball is not None:
        theta = theta / max(1.0, np.linalg.norm(theta) / ball)
    params = NetworkParams(rng.normal(size=(n, d)), theta)
    ds = Dataset(rng.uniform(-1.0, 1.0, size=(N, d)), rng.normal(size=N),
                 Provenance("uniform_cube", None))
    return params, ds


def test_criterion_01_gradient_correctness():
    rng = np.random.default_rng(101)
    worst = 0.0
    for name in ("sigmoid", "tanh", "gaussian", "softplus"):
        act = builtin_activation(name)
        for _ in range(20):
            p, ds = _random_instance(rng)
            fd_w, fd_t = model.fd_gradients(p, act, ds, step=1e-5)
            worst = max(worst,
                        rel_err(fd_w, model.grad_W(p, act, ds)),
                        rel_err(fd_t, model.grad_theta(p, act, ds)))
    report(1, "gradient correctness", worst <= 1e-6,
           f"max relative FD error {worst:.3e} <= 1e-6")


def test_criterion_02_stationarity_identity():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        p, ds = _random_instance(rng)
        sys = model.stationarity_system(p, SIG, ds)
        g = model.grad_W(p, SIG, ds).reshape(-1)
        worst = max(worst, rel_err(-(sys.D @ sys.s) / ds.n_samples, g))
    report(2, "stationarity identity vect(grad) = -(1/N) D s",
           worst <= 1e-10, f"max relative error {worst:.3e} <= 1e-10")


def test_criterion_03_collection_full_rank():
    trials = failures = 0
    for name in ("sigmoid", "tanh", "gaussian"):
        act = builtin_activation(name)
        for d in (2, 3):
            N = d * d
            for s in range(100):
                rng = np.random.default_rng(30_000 + 1000 * d + s)
                inputs = rng.uniform(-1.0, 1.0, size=(N, d))
                W = rng.normal(size=(d, d))
                for w_choice in (None, W):
                    trials += 1
                    rep = collection_rank(act, w_choice, inputs, rank_tol=1e-10)
                    failures += not rep.is_full_rank()

    control_ok = True
    lin = builtin_activation("linear")
    for s in range(100):
        rng = np.random.default_rng(31_000 + s)
        rep = collection_rank(lin, rng.normal(size=(2, 2)),
                              rng.uniform(-1, 1, size=(4, 2)), rank_tol=1e-10)
        control_ok &= rep.numerical_rank <= 3

    report(3, "feature collections full rank (with linear control)",
           failures == 0 and control_ok,
           f"{trials - failures}/{trials} full rank; linear control rank<=3: {control_ok}")


def test_criterion_04_trajectory_nonsingular_W():
    ds = make_realizable(3, 9, seed=42)
    worst = np.inf
    for s in range(20):
        cfg = RunConfig(n_outer=200, n_inner=6, R=4.0, sigma=0.5, seed=s)
        _, rec = run(SIG, ds, cfg)
        worst = min(worst, float(rec.sigma_min_w.min()))
    report(4, "trajectory keeps W nonsingular", worst > 1e-12,
           f"min sigma_min(W_k) over 20 runs x 201 rows = {worst:.3e} > 1e-12")


def test_criterion_05_perturbation_rank():
    ok = True
    details = []
    lin = builtin_activation("linear")
    for d in (2, 3):
        N = d * d
        rng = np.random.default_rng(500 + d)
        inputs = rng.uniform(-1.0, 1.0, size=(N, d))
        w_prime = rng.normal(size=(d, d))
        z = rng.normal(size=(d, d))
        frac = perturbation_rank_trial(w_prime, z, SIG, inputs, trials=100, seed=d)
        frac_lin = perturbation_rank_trial(w_prime, z, lin, inputs, trials=100, seed=d)
        ok &= frac == 1.0 and frac_lin == 0.0
        details.append(f"d={d}: sigmoid {frac}, linear {frac_lin}")
    report(5, "diagonal perturbations keep collections full rank",
           ok, "; ".join(details))


def test_criterion_06_grad_W_lipschitz_bound():
    rng = np.random.default_rng(606)
    activations = [builtin_activation(n)
                   for n in ("sigmoid", "tanh", "gaussian", "softplus")]
    violations = 0
    worst = 0.0
    for i in range(1000):
        act = activations[i % 4]
        d = int(rng.integers(2, 5))
        n = int(rng.integers(1, d + 1))
        N = int(rng.integers(2, 17))
        ds = Dataset(rng.uniform(-1, 1, size=(N, d)), rng.normal(size=N),
                     Provenance("uniform_cube", None))
        theta = rng.normal(size=n)
        theta = theta / max(1.0, np.linalg.norm(theta) / 2.0)  # in the ball
        W1, W2 = rng.normal(size=(n, d)), rng.normal(size=(n, d))
        p1 = NetworkParams(W1, theta)
        bound = lipschitz_estimates(p1, act, ds).l_w_bound
        lhs = np.linalg.norm(model.grad_W(p1, act, ds)
                             - model.grad_W(NetworkParams(W2, theta), act, ds))
        rhs = bound * np.linalg.norm(W1 - W2)
        if rhs > 0:
            worst = max(worst, lhs / rhs)
        if lhs > rhs * (1 + 1e-9):
            violations += 1
    report(6, "W-gradient Lipschitz bound", violations == 0,
           f"0 violations required, got {violations}; worst lhs/rhs {worst:.3f}")


def test_criterion_07_theta_lipschitz_and_ordering():
    rng = np.random.default_rng(707)
    activations = [builtin_activation(n)
                   for n in ("sigmoid", "tanh", "gaussian", "erf")]
    viol_lip = viol_ord = 0
    for i in range(1000):
        act = activations[i % 4]
        d = int(rng.integers(2, 5))
        n = int(rng.integers(1, d + 1))
        N = int(rng.integers(2, 17))
        ds = Dataset(rng.uniform(-1, 1, size=(N, d)), rng.normal(size=N),
                     Provenance("uniform_cube", None))
        W = rng.normal(size=(n, d))
        t1, t2 = rng.normal(size=n), rng.normal(size=n)
        p1 = NetworkParams(W, t1)
        est = lipschitz_estimates(p1, act, ds)
        lhs = np.linalg.norm(model.grad_theta(p1, act, ds)
                             - model.grad_theta(NetworkParams(W, t2), act, ds))
        if lhs > est.l_theta_exact * np.linalg.norm(t1 - t2) * (1 + 1e-9):
            viol_lip += 1
        if est.l_theta_exact > est.l_theta_bound_analytic * (1 + 1e-12):
            viol_ord += 1
    report(7, "theta-gradient Lipschitz constant and u^2 n ordering",
           viol_lip == 0 and viol_ord == 0,
           f"lipschitz violations {viol_lip}, ordering violations {viol_ord}")


def test_criterion_08_inner_sgd_bound():
    rng = np.random.default_rng(808)
    ds = make_realizable(3, 9, seed=11)
    R, sigma = 4.0, 1.0
    W = rng.normal(0.0, 1.0 / np.sqrt(3), size=(3, 3))
    theta0 = rng.normal(size=3)
    theta0 = theta0 / max(1.0, np.linalg.norm(theta0) / (R / 2))
    params = NetworkParams(W, theta0)
    theta_star = solve_theta_star(params, SIG, ds, R / 2, tol=1e-12)
    f_star = model.loss(NetworkParams(W, theta_star), SIG, ds)
    dist2 = float(np.sum((theta0 - theta_star) ** 2))

    ok = True
    details = []
    for n_i in (10, 100):
        cfg = RunConfig(n_outer=1, n_inner=n_i, R=R, sigma=sigma)
        gaps = []
        beta = None
        for s in range(1000):
            theta_av, summary = inner_sgd(params, SIG, ds, cfg,
                                          np.random.default_rng(80_000 + s))
            gaps.append(model.loss(NetworkParams(W, theta_av), SIG, ds) - f_star)
            beta = summary.beta
        k0 = dist2 / (n_i * beta) + sigma ** 2 * beta
        mean_gap = float(np.mean(gaps))
        ok &= mean_gap <= 1.1 * k0
        details.append(f"N_i={n_i}: mean gap {mean_gap:.4f} vs 1.1*K0 {1.1 * k0:.4f}")
    report(8, "inner-SGD suboptimality bound K0", ok, "; ".join(details))


def test_criterion_09_outer_convergence_bound():
    ds = make_realizable(3, 9, seed=11)
    R = 4.0
    l_theta_analytic = 1.0 * 3  # u^2 n for sigmoid with n = 3
    ok = True
    details = []
    for n_o in (50, 200):
        mins, bounds = [], []
        for s in range(50):
            cfg = RunConfig(n_outer=n_o, n_inner=1, R=R, theorem2_preset=True,
                            seed=1000 * n_o + s)
            _, rec = run(SIG, ds, cfg)
            mins.append(float(np.min(rec.grad_norm[:n_o] ** 2)))
            L = rec.derived["L_ball"]
            bounds.append(2.0 * L * (rec.derived["f_init"]
                                     + R * R * (l_theta_analytic + 0.5) + 1.0) / n_o)
        mean_min, mean_bound = float(np.mean(mins)), float(np.mean(bounds))
        ok &= mean_min <= mean_bound
        details.append(f"N_o={n_o}: mean min grad^2 {mean_min:.3e} <= bound {mean_bound:.3f}")
    report(9, "outer gradient-norm convergence bound", ok, "; ".join(details))


def test_criterion_10_global_certificate():
    ds = make_realizable(3, 9, seed=21)
    rng = np.random.default_rng(3)
    R = 4.0
    L = lipschitz_ball_bound(SIG, ds, R)
    gamma = 1.0 / L
    W = rng.normal(0.0, 1.0 / np.sqrt(3), size=(3, 3))
    theta = rng.normal(size=3)
    theta = theta / max(1.0, np.linalg.norm(theta) / (R / 2))
    params = NetworkParams(W, theta)
    cfg = RunConfig(n_outer=1, n_inner=40, R=R, sigma=0.0)

    grad_norm = np.inf
    for _ in range(3000):  # iteration budget
        theta_new, _ = inner_sgd(params, SIG, ds, cfg, rng)
        params = replace(params, theta=theta_new)
        g = model.grad_W(params, SIG, ds)
        grad_norm = float(np.linalg.norm(g))
        if grad_norm <= 1e-6:
            break
        params = replace(params, W=params.W - gamma * g)

    cert = certify(params, SIG, ds)
    blob = cert.to_dict()
    inequality = cert.residual_norm <= cert.certified_bound * (1 + 1e-8)
    report(10, "global-optimality certificate at the final iterate",
           inequality and "sigma_min_D" in blob and blob["sigma_min_D"] > 0,
           f"grad {grad_norm:.2e}; ||s|| {cert.residual_norm:.3e} <= "
           f"bound {cert.certified_bound:.3e}; sigma_min(D) {cert.sigma_min_D:.3e}")


def test_criterion_11_prox_properties():
    rng = np.random.default_rng(1111)
    feasible_ok = optimal_ok = True
    for _ in range(10_000):
        n = int(rng.integers(1, 7))
        x = rng.normal(size=n) * rng.uniform(0.1, 5.0)
        y = rng.normal(size=n) * rng.uniform(0.1, 5.0)
        radius = rng.uniform(0.05, 5.0)
        out = prox_ball(x, y, radius)
        feasible_ok &= np.linalg.norm(out) <= radius * (1 + 1e-12)

        z = rng.normal(size=(100, n))
        norms = np.linalg.norm(z, axis=1)
        z = z / np.maximum(1.0, norms / radius)[:, None]
        obj_out = y @ (out - x) + 0.5 * np.sum((out - x) ** 2)
        obj_z = (z - x) @ y + 0.5 * np.sum((z - x) ** 2, axis=1)
        optimal_ok &= bool(np.all(obj_out <= obj_z + 1e-10))
    report(11, "prox-mapping feasibility and optimality",
           feasible_ok and optimal_ok,
           f"feasible: {feasible_ok}, optimal vs sampled points: {optimal_ok}")
