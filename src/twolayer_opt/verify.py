"""Bound-verification suites and the one measurement behind each bound.

gradcheck, lipschitz_W, lipschitz_theta, theorem1 and theorem2 return the
measured numbers; the `verify` suites and the acceptance criteria call them
with their own seeds and scales and keep their own thresholds.  Each
suite_* returns a list of {check, measured, threshold, comparison, pass}.
"""

from __future__ import annotations

import operator

import numpy as np

from . import dataset as ds_mod
from . import diagnostics, model, optimizer
from .activations import builtin_activation
from .errors import ConfigError
from .optimizer import RunConfig

SUITES = ("gradcheck", "rank", "lipschitz", "theorem1", "theorem2", "certify")

R = 4.0        # ball parameter of the theorem suites: ||theta|| <= R/2
SIGMA = 1.0    # inner-SGD noise level of theorem1
COMPARISONS = {"<=": operator.le, ">=": operator.ge, "<": operator.lt,
               ">": operator.gt, "==": operator.eq}


def _check(name, measured, comparison, threshold):
    return {"check": name, "measured": measured, "threshold": threshold,
            "comparison": comparison,
            "pass": bool(COMPARISONS[comparison](measured, threshold))}


def _instance_data(rng, d, N):
    return ds_mod.Dataset(rng.uniform(-1.0, 1.0, size=(N, d)), rng.normal(size=N),
                          ds_mod.Provenance("uniform_cube", None))


def gradient_instance(rng):
    """Random (params, dataset): d in 2..5, n in 1..d, N in 2..25, Gaussian
    theta and W, uniform-cube inputs and Gaussian labels."""
    d = int(rng.integers(2, 6))
    n = int(rng.integers(1, d + 1))
    N = int(rng.integers(2, 26))
    theta = rng.normal(size=n)
    params = model.NetworkParams(rng.normal(size=(n, d)), theta)
    return params, _instance_data(rng, d, N)


def _lipschitz_shape(rng):
    """(n, d, dataset) with d in 2..4, n in 1..d and N in 2..16."""
    d = int(rng.integers(2, 5))
    n = int(rng.integers(1, d + 1))
    N = int(rng.integers(2, 17))
    return n, d, _instance_data(rng, d, N)


def rel_err(approx, exact) -> float:
    """||approx - exact|| / max(||exact||, 1e-12)."""
    scale = max(float(np.linalg.norm(exact)), 1e-12)
    return float(np.linalg.norm(np.asarray(approx) - np.asarray(exact))) / scale


def gradcheck(activations, rng, instances) -> float:
    """Largest relative error of the central finite differences against
    grad_W and grad_theta, over `instances` gradient_instance draws per
    activation."""
    worst = 0.0
    for act in activations:
        for _ in range(instances):
            p, ds = gradient_instance(rng)
            fd_w, fd_t = model.fd_gradients(p, act, ds)
            worst = max(worst, rel_err(fd_w, model.grad_W(p, act, ds)),
                        rel_err(fd_t, model.grad_theta(p, act, ds)))
    return worst


def lipschitz_W(activations, rng, samples) -> tuple:
    """(violations, worst ratio) of ||grad_W f(W1) - grad_W f(W2)|| <=
    L_W ||W1 - W2|| over `samples` random instances with theta in the ball
    of radius 2, cycling through the activations."""
    violations, worst = 0, 0.0
    for i in range(samples):
        act = activations[i % len(activations)]
        n, d, ds = _lipschitz_shape(rng)
        theta = optimizer.project_ball(rng.normal(size=n), 2.0)
        W1, W2 = rng.normal(size=(n, d)), rng.normal(size=(n, d))
        p1 = model.NetworkParams(W1, theta)
        bound = diagnostics.lipschitz_estimates(p1, act, ds).l_w_bound
        lhs = np.linalg.norm(model.grad_W(p1, act, ds)
                             - model.grad_W(model.NetworkParams(W2, theta), act, ds))
        rhs = bound * np.linalg.norm(W1 - W2)
        if rhs > 0:
            worst = max(worst, lhs / rhs)
        violations += bool(lhs > rhs * (1 + 1e-9))
    return violations, float(worst)


def lipschitz_theta(activations, rng, samples) -> tuple:
    """(Lipschitz violations, ordering violations): ||grad_theta f(t1) -
    grad_theta f(t2)|| <= L_theta ||t1 - t2|| with the exact L_theta, and
    L_theta <= u^2 n where the activation is bounded, over `samples` random
    instances cycling through the activations."""
    viol_lip = viol_ord = 0
    for i in range(samples):
        act = activations[i % len(activations)]
        n, d, ds = _lipschitz_shape(rng)
        W = rng.normal(size=(n, d))
        t1, t2 = rng.normal(size=n), rng.normal(size=n)
        p1 = model.NetworkParams(W, t1)
        est = diagnostics.lipschitz_estimates(p1, act, ds)
        lhs = np.linalg.norm(model.grad_theta(p1, act, ds)
                             - model.grad_theta(model.NetworkParams(W, t2), act, ds))
        viol_lip += bool(lhs > est.l_theta_exact * np.linalg.norm(t1 - t2) * (1 + 1e-9))
        viol_ord += bool(est.l_theta_bound_analytic is not None and est.l_theta_exact
                         > est.l_theta_bound_analytic * (1 + 1e-12))
    return viol_lip, viol_ord


def theorem1(act, rng, ds, first_seed, seeds, inner_counts) -> list:
    """(mean gap, K0) per N_i in inner_counts: the inner-SGD phase from a
    random (W, theta0) drawn from rng, run with generators first_seed + s
    for s < seeds, against K0 = ||theta0 - theta*||^2 / (N_i beta) +
    sigma^2 beta."""
    drawn = model.random_params(rng, ds.dim)
    W, theta0 = drawn.W, optimizer.project_ball(drawn.theta, R / 2)
    params = model.NetworkParams(W, theta0)
    theta_star = optimizer.solve_theta_star(params, act, ds, R / 2)
    f_star = model.loss(model.NetworkParams(W, theta_star), act, ds)
    dist2 = float(np.sum((theta0 - theta_star) ** 2))
    out = []
    for n_i in inner_counts:
        cfg = RunConfig(n_outer=1, n_inner=n_i, R=R, sigma=SIGMA)
        gaps = []
        for s in range(seeds):
            theta_av, summary = optimizer.inner_sgd(
                params, act, ds, cfg, np.random.default_rng(first_seed + s))
            gaps.append(model.loss(model.NetworkParams(W, theta_av), act, ds) - f_star)
        beta = summary.beta
        out.append((float(np.mean(gaps)), dist2 / (n_i * beta) + SIGMA ** 2 * beta))
    return out


def theorem2(act, ds, first_seed, seeds, n_outer) -> tuple:
    """(mean min_k ||grad_W f||^2, mean bound) over theorem2_preset runs of
    n_outer outer iterations with run seeds first_seed + s for s < seeds;
    the bound is 2 L (f_init + R^2 (u^2 n + 1/2) + 1) / N_o.  Only grad_norm
    and derived are read, so the runs certify no row (certify_rows=False)
    but the final one."""
    u = act.value_bound
    if u is None:
        raise ConfigError("theorem2 suite needs a bounded activation")
    l_theta_analytic = u * u * ds.dim
    mins, bounds = [], []
    for s in range(seeds):
        cfg = RunConfig(n_outer=n_outer, R=R, theorem2_preset=True, seed=first_seed + s)
        _, rec = optimizer.run(act, ds, cfg, certify_rows=False)
        mins.append(float(np.min(rec.grad_norm[:n_outer] ** 2)))
        bounds.append(2 * rec.derived["L_ball"] * (
            rec.derived["f_init"] + R * R * (l_theta_analytic + 0.5) + 1) / n_outer)
    return float(np.mean(mins)), float(np.mean(bounds))


# ------------------------------------------------------------------ suites

def suite_gradcheck(activation: str, seed: int, instances: int) -> list:
    worst = gradcheck([builtin_activation(activation)],
                      np.random.default_rng(seed), instances)
    return [_check("max_fd_relative_error", worst, "<=", 1e-6)]


def suite_rank(activation: str, seed: int, trials: int) -> list:
    """Full rank on every trial for the paper's good class; rank at most
    d(d+1)/2 for a linear h (constant h', h(0) = 0); else a ConfigError."""
    act = builtin_activation(activation)
    if not (act.claimed_c1 or act.deriv_lipschitz == 0.0 and act.eval(0.0) == 0.0):
        raise ConfigError(f"the rank suite makes no rank claim for {activation}: "
                          "it is neither in the paper's good class nor linear")
    checks = []
    for d in (2, 3):
        N = d * d
        full = max_rank = 0
        for s in range(trials):
            rng = np.random.default_rng((seed + 1) * 10_000 + 97 * d + s)
            inputs = rng.uniform(-1.0, 1.0, size=(N, d))
            W = rng.normal(size=(d, d))
            rep = diagnostics.collection_rank(act, W, inputs)
            max_rank = max(max_rank, rep.numerical_rank)
            full += rep.is_full_rank()
        if act.claimed_c1:
            checks.append(_check(f"full_rank_fraction_d{d}", full / trials, ">=", 1.0))
        else:   # negative control: u u^T spans only the symmetric matrices
            checks.append(_check(f"control_max_rank_d{d}", max_rank, "<=",
                                 d * (d + 1) // 2))
    return checks


def suite_lipschitz(activation: str, seed: int, trials: int) -> list:
    acts = [builtin_activation(activation)]
    viol_w, _ = lipschitz_W(acts, np.random.default_rng(seed), trials)
    viol_t, viol_order = lipschitz_theta(acts, np.random.default_rng(seed), trials)
    return [_check("grad_W_lipschitz_violations", viol_w, "==", 0),
            _check("grad_theta_lipschitz_violations", viol_t, "==", 0),
            _check("l_theta_ordering_violations", viol_order, "==", 0)]


def suite_theorem1(activation: str, seed: int, seeds: int) -> list:
    ds = ds_mod.make_realizable(3, 9, seed=seed + 5, activation=activation)
    results = theorem1(builtin_activation(activation), np.random.default_rng(seed),
                       ds, 1000, seeds, (10, 50))
    return [_check(f"mean_gap_over_K0_Ni{n_i}", mean_gap / k0, "<=", 1.1)
            for n_i, (mean_gap, k0) in zip((10, 50), results)]


def suite_theorem2(activation: str, seed: int, seeds: int) -> list:
    ds = ds_mod.make_realizable(3, 9, seed=seed + 5, activation=activation)
    mean_min, mean_bound = theorem2(builtin_activation(activation), ds,
                                    seed * 1000, seeds, 30)
    return [_check("mean_min_grad_sq_over_bound_No30", mean_min / mean_bound,
                   "<=", 1.0)]


def suite_certify(activation: str, seed: int) -> list:
    act = builtin_activation(activation)
    ds = ds_mod.make_realizable(3, 9, seed=seed + 5, activation=activation)
    cfg = RunConfig(n_outer=150, n_inner=20, R=R, sigma=0.0, seed=seed)
    params, _ = optimizer.run(act, ds, cfg, certify_rows=False)
    cert = diagnostics.certify(params, act, ds)
    ratio = (cert.residual_norm / cert.certified_bound
             if np.isfinite(cert.certified_bound) and cert.certified_bound > 0
             else float("inf"))
    return [_check("residual_over_certified_bound", ratio, "<=", 1 + 1e-8),
            {**_check("sigma_min_D_positive", cert.sigma_min_D, ">", 0.0),
             "spectrum": cert.spectrum},
            _check("verdict", cert.verdict, "==", "certified_near_global")]
