"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every criterion is asserted at its stated tolerance and scale.
"""

import numpy as np
from conftest import rel_err

from twolayer_opt import (RunConfig, builtin_activation, certify,
                          collection_rank, make_realizable, model,
                          perturbation_rank_trial, prox_ball, run, verify)

SIG = builtin_activation("sigmoid")


def report(num, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"[acceptance {num:>2}] {name}: {status} ({detail})")
    assert passed, f"criterion {num} ({name}): {detail}"


def test_criterion_01_gradient_correctness():
    acts = [builtin_activation(n) for n in ("sigmoid", "tanh", "gaussian", "softplus")]
    worst = verify.gradcheck(acts, np.random.default_rng(101), 20)
    report(1, "gradient correctness", worst <= 1e-6,
           f"max relative FD error {worst:.3e} <= 1e-6")


def test_criterion_02_stationarity_identity():
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(100):
        p, ds = verify.gradient_instance(rng)
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
                for w_choice in (np.eye(d), W):
                    trials += 1
                    rep = collection_rank(act, w_choice, inputs)
                    failures += not rep.is_full_rank()

    control_ok = True
    lin = builtin_activation("linear")
    for s in range(100):
        rng = np.random.default_rng(31_000 + s)
        rep = collection_rank(lin, rng.normal(size=(2, 2)),
                              rng.uniform(-1, 1, size=(4, 2)))
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
    acts = [builtin_activation(n) for n in ("sigmoid", "tanh", "gaussian", "softplus")]
    violations, worst = verify.lipschitz_W(acts, np.random.default_rng(606), 1000)
    report(6, "W-gradient Lipschitz bound", violations == 0,
           f"0 violations required, got {violations}; worst lhs/rhs {worst:.3f}")


def test_criterion_07_theta_lipschitz_and_ordering():
    acts = [builtin_activation(n) for n in ("sigmoid", "tanh", "gaussian", "erf")]
    viol_lip, viol_ord = verify.lipschitz_theta(acts, np.random.default_rng(707), 1000)
    report(7, "theta-gradient Lipschitz constant and u^2 n ordering",
           viol_lip == 0 and viol_ord == 0,
           f"lipschitz violations {viol_lip}, ordering violations {viol_ord}")


def test_criterion_08_inner_sgd_bound():
    ds = make_realizable(3, 9, seed=11)
    results = dict(zip((10, 100), verify.theorem1(
        SIG, np.random.default_rng(808), ds, 80_000, 1000, (10, 100))))
    report(8, "inner-SGD suboptimality bound K0",
           all(gap <= 1.1 * k0 for gap, k0 in results.values()),
           "; ".join(f"N_i={n_i}: mean gap {gap:.4f} vs 1.1*K0 {1.1 * k0:.4f}"
                     for n_i, (gap, k0) in results.items()))


def test_criterion_09_outer_convergence_bound():
    ds = make_realizable(3, 9, seed=11)
    results = {n_o: verify.theorem2(SIG, ds, 1000 * n_o, 50, n_o) for n_o in (50, 200)}
    report(9, "outer gradient-norm convergence bound",
           all(low <= bound for low, bound in results.values()),
           "; ".join(f"N_o={n_o}: mean min grad^2 {low:.3e} <= bound {bound:.3f}"
                     for n_o, (low, bound) in results.items()))


def test_criterion_10_global_certificate():
    ds = make_realizable(3, 9, seed=21)
    cfg = RunConfig(n_outer=3000, n_inner=40, R=4.0, sigma=0.0, seed=3)
    params, rec = run(SIG, ds, cfg, certify_rows=False)

    cert = certify(params, SIG, ds)
    blob = cert.to_dict()
    inequality = cert.residual_norm <= cert.certified_bound * (1 + 1e-8)
    report(10, "global-optimality certificate at the final iterate",
           inequality and "sigma_min_D" in blob and blob["sigma_min_D"] > 0,
           f"grad {rec.grad_norm[-2]:.2e}; ||s|| {cert.residual_norm:.3e} <= "
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
