"""Alternating SGD-GD trainer.

Each outer iteration runs an inner stochastic-gradient phase on the convex
theta-subproblem (prox steps onto the ball ||theta|| <= R/2, with
beta-weighted iterate averaging and optional early exit once the objective
improves on the incoming theta), then takes a single full-gradient descent
step on the hidden layer W.

At fixed W the inner prox step is affine in theta up to the projection:
with features H (N x n), G = H^T H / N and b = H^T v / N it is
theta <- P_ball((I - beta G) theta + beta (b - xi_t)).  The phase computes
H, G, b and all n_inner noise vectors xi_t once (one generator call), so a
step costs O(n^2) and touches none of the N samples.

Step sizes: a beta or gamma left at None is derived; one that is given is
used, after a check of its bound.
  * beta: derived as min(1/(2 L_theta), sqrt(1/(N_i sigma^2))) with the
    exact data-dependent L_theta; a given beta must satisfy
    0 < beta <= 1/(2 L_theta).
  * gamma: derived as 1/L with L the W-smoothness bound evaluated at the
    worst case over the feasible ball (constant across iterations); a given
    gamma must satisfy 0 < gamma < 2/L.
  * theorem2_preset derives N_i = N_o, sigma = 1/sqrt(N_i), gamma = 1/L,
    and beta from that N_i and sigma, so it rejects a given beta or gamma.

Runs are bit-reproducible from (config, dataset): all randomness flows from
one seeded generator, drawn in a fixed order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Optional

import numpy as np

from .activations import ActivationFunction
from .diagnostics import (column_sigma_extremes, lipschitz_ball_bound,
                          lipschitz_estimates, theta_smoothness)
from .errors import ConfigError, NumericsError, ShapeError
from .files import check_keys, json_field
from .model import (NetworkParams, _features, grad_W, loss, objective,
                    stationarity_system, theta_gradient)

if TYPE_CHECKING:  # pragma: no cover
    from .dataset import Dataset

# each run config key as to_dict writes it and from_dict reads it:
# key -> (RunConfig field, JSON type); the "init" object holds INIT_KEYS
RUN_KEYS = {
    "N_o": ("n_outer", int), "N_i": ("n_inner", int), "R": ("R", float),
    "sigma": ("sigma", float), "beta": ("beta", float),
    "gamma": ("gamma", float), "theorem2_preset": ("theorem2_preset", bool),
    "early_exit": ("early_exit", bool), "seed": ("seed", int),
}
INIT_KEYS = {"W_scale": ("init_w_scale", float),
             "theta_scale": ("init_theta_scale", float)}


@dataclass(frozen=True)
class RunConfig:
    """All SGD-GD hyperparameters, with the only defaults they have.

    R is the ball *diameter* parameter: the feasible set for theta is the
    origin-centred ball of radius R/2.  sigma is the total noise scale, split
    evenly over coordinates so that E||xi||^2 = sigma^2.  A beta or gamma
    of None is derived (see the module docstring).
    """

    n_outer: int = 50
    n_inner: int = 20
    R: float = 4.0
    sigma: float = 0.0
    beta: Optional[float] = None
    gamma: Optional[float] = None
    theorem2_preset: bool = False
    early_exit: bool = False
    seed: int = 0
    init_w_scale: float = 1.0
    init_theta_scale: float = 1.0

    def __post_init__(self):
        if self.n_outer < 0:
            raise ConfigError(f"n_outer must be >= 0, got {self.n_outer}")
        if self.n_inner < 1:
            raise ConfigError(f"n_inner must be >= 1, got {self.n_inner}")
        if not self.R > 0:
            raise ConfigError(f"R must be positive, got {self.R}")
        if self.sigma < 0:
            raise ConfigError(f"sigma must be >= 0, got {self.sigma}")
        for name in ("beta", "gamma"):
            step = getattr(self, name)
            if step is not None and not step > 0:
                raise ConfigError(f"{name} must be positive, got {step}")
            if step is not None and self.theorem2_preset:
                raise ConfigError(f"theorem2_preset derives {name}; "
                                  f"{name}={step} cannot be given with it")
        if self.theorem2_preset and self.n_outer < 1:
            raise ConfigError("theorem2_preset needs n_outer >= 1")

    def to_dict(self) -> dict:
        def section(keys):
            return {key: getattr(self, name) for key, (name, _) in keys.items()}
        return {**section(RUN_KEYS), "init": section(INIT_KEYS)}

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """RunConfig from its to_dict form, as read from a JSON config.  A
        missing key keeps its default, and a null is taken only where the
        default is None.  An unknown key raises ConfigError, and a value
        of the wrong JSON type FormatError, each naming the key."""
        check_keys(data, [*RUN_KEYS, "init"], "run config")
        init = json_field(dict, data.get("init", {}), "run config key 'init'")
        check_keys(init, INIT_KEYS, "run config 'init'")
        defaults = {f.name: f.default for f in fields(cls)}

        def read(section, keys):
            return {name: (None if section[key] is None and defaults[name] is None
                           else json_field(kind, section[key],
                                           f"run config key {key!r}"))
                    for key, (name, kind) in keys.items() if key in section}

        return cls(**read(data, RUN_KEYS), **read(init, INIT_KEYS))


@dataclass
class InnerSummary:
    steps: int
    final_f: float
    beta: float
    l_theta: float
    early_exit: bool = False


TRAJECTORY_COLUMNS = ("k", "f", "grad_norm_F", "sigma_min_W", "sigma_min_D",
                      "resid_norm", "inner_steps", "inner_final_f")


@dataclass
class TrajectoryRecord:
    """Per-outer-iteration telemetry; row k < n_outer holds the quantities
    at (W_k, theta_{k+1}), the final row holds the returned iterate."""

    k: np.ndarray
    f: np.ndarray
    grad_norm: np.ndarray
    sigma_min_w: np.ndarray
    sigma_min_d: np.ndarray
    resid_norm: np.ndarray
    inner_steps: np.ndarray
    inner_final_f: np.ndarray
    derived: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.k)

    def columns(self) -> dict:
        return {
            "k": self.k, "f": self.f, "grad_norm_F": self.grad_norm,
            "sigma_min_W": self.sigma_min_w, "sigma_min_D": self.sigma_min_d,
            "resid_norm": self.resid_norm, "inner_steps": self.inner_steps,
            "inner_final_f": self.inner_final_f,
        }


def project_ball(z: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection of z onto {x : ||x||_2 <= radius}."""
    norm = math.sqrt(z.dot(z))   # np.linalg.norm's own arithmetic, less overhead
    if norm <= radius:
        return z
    return z * (radius / norm)


def prox_ball(x, y, radius: float) -> np.ndarray:
    """Prox-mapping P_x(y) over the origin-centred ball: the projection of
    x - y onto {z : ||z||_2 <= radius}."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ShapeError(f"x and y must be equal-length vectors, got {x.shape}, {y.shape}")
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    return project_ball(x - y, radius)


def phase_noise(rng: np.random.Generator, sigma: float, steps: int,
                n: int) -> np.ndarray:
    """Gradient noise of `steps` inner steps, one row xi_t per step, with
    coordinates i.i.d. N(0, sigma^2/n) so that E||xi_t||^2 = sigma^2.  One
    generator call, giving the values of `steps` successive draws of n; a
    zero sigma draws nothing."""
    if sigma == 0.0:
        return np.zeros((steps, n))
    return rng.normal(0.0, sigma / math.sqrt(n), size=(steps, n))


def _resolve_beta(cfg: RunConfig, l_theta: float) -> float:
    cap = np.inf if l_theta == 0.0 else 1.0 / (2.0 * l_theta)
    if cfg.beta is not None:
        if cfg.beta > cap:
            raise ConfigError(
                f"beta={cfg.beta} violates the step bound 1/(2 L_theta)={cap}")
        return cfg.beta
    noise_cap = (np.inf if cfg.sigma == 0.0
                 else 1.0 / np.sqrt(cfg.n_inner * cfg.sigma ** 2))
    beta = min(cap, noise_cap)
    return 1.0 if not np.isfinite(beta) else beta  # zero-gradient degenerate case


def inner_sgd(p: NetworkParams, a: ActivationFunction, ds: "Dataset",
              cfg: RunConfig, rng: np.random.Generator):
    """Inner stochastic phase at fixed W; returns (theta_new, InnerSummary).

    theta_new is the beta-weighted average of the prox iterates (or the
    first average that already improves on the incoming theta, when
    early_exit is on).

    Step t is theta <- P_ball(M theta + C[t]) with M = I - beta G and
    C[t] = beta (b - xi_t) (see the module docstring).  An early exit after
    k steps rewinds rng and redraws k rows of phase_noise, leaving it where
    k per-step draws would.
    """
    n_inner, sigma = cfg.n_inner, cfg.sigma
    radius = cfg.R / 2.0

    _, _, H = _features(a, p.W, ds.inputs)   # fixed during the phase
    v = np.asarray(ds.labels, dtype=float)

    def f_of(theta):
        return objective(v - H @ theta)

    l_theta = theta_smoothness(H)
    beta = _resolve_beta(cfg, l_theta)

    n, N = p.n, len(v)
    M = np.eye(n) - beta * (H.T @ H / N)
    state = rng.bit_generator.state
    C = beta * (H.T @ v / N - phase_noise(rng, sigma, n_inner, n))

    f_incoming = f_of(p.theta)
    theta_bar = p.theta
    sum_theta = np.zeros(n)   # beta is constant: the weighted average is the mean
    steps = 0
    exited = False
    for c in C:
        theta_bar = project_ball(M @ theta_bar + c, radius)
        sum_theta += theta_bar
        steps += 1
        if cfg.early_exit and f_of(sum_theta / steps) <= f_incoming:
            exited = True
            break
    if steps < n_inner:   # leave rng where step-by-step draws would
        rng.bit_generator.state = state
        phase_noise(rng, sigma, steps, n)
    theta_avg = sum_theta / steps if steps else p.theta
    return theta_avg, InnerSummary(steps=steps, final_f=f_of(theta_avg),
                                   beta=beta, l_theta=l_theta,
                                   early_exit=exited)


def _check_gamma(gamma: float, lipschitz_bound: float) -> None:
    cap = np.inf if lipschitz_bound == 0.0 else 2.0 / lipschitz_bound
    if not 0.0 < gamma < cap:
        raise ConfigError(f"gamma={gamma} outside (0, 2/L) with L={lipschitz_bound}")


def outer_step(p: NetworkParams, a: ActivationFunction, ds: "Dataset",
               gamma: float, lipschitz_bound: Optional[float] = None,
               grad: Optional[np.ndarray] = None) -> NetworkParams:
    """One full-gradient descent step on W (theta unchanged).

    gamma must satisfy 0 < gamma < 2/L; by default L is the data-dependent
    W-smoothness bound at the current theta.  grad, when given, is
    grad_W f at p, already computed by the caller.
    """
    if lipschitz_bound is None:
        lipschitz_bound = lipschitz_estimates(p, a, ds).l_w_bound
    _check_gamma(gamma, lipschitz_bound)
    if grad is None:
        grad = grad_W(p, a, ds)
    return replace(p, W=p.W - gamma * grad)


def solve_theta_star(p: NetworkParams, a: ActivationFunction, ds: "Dataset",
                     radius: float, tol: float = 1e-12,
                     max_iter: int = 200_000) -> np.ndarray:
    """Deterministic reference minimizer of the convex theta-subproblem over
    the ball, by projected gradient run to gradient-map norm <= tol.

    Warm-started at the (projected) least-squares solution, so convergence
    is typically immediate.
    """
    _, _, H = _features(a, p.W, ds.inputs)
    v = np.asarray(ds.labels, dtype=float)
    l_theta = theta_smoothness(H)
    if l_theta == 0.0:
        return np.zeros(p.n)
    eta = 1.0 / l_theta
    lstsq = np.linalg.lstsq(H, v, rcond=None)[0]
    theta = prox_ball(lstsq, np.zeros_like(lstsq), radius)
    for _ in range(max_iter):
        nxt = prox_ball(theta, eta * theta_gradient(H, v, theta), radius)
        if np.linalg.norm(theta - nxt) / eta <= tol:
            return nxt
        theta = nxt
    raise NumericsError(
        f"theta-subproblem solver did not reach gradient-map tol {tol} "
        f"in {max_iter} iterations")


def run(a: ActivationFunction, ds: "Dataset", cfg: RunConfig):
    """Full SGD-GD run; returns (NetworkParams, TrajectoryRecord).

    Requires square W (n = d) so the trajectory rank diagnostics are
    well-defined.  The record has n_outer + 1 rows: one per outer iteration
    evaluated at (W_k, theta_{k+1}), plus a final row for the returned
    iterate.
    """
    d = ds.dim
    rng = np.random.default_rng(cfg.seed)

    n_outer = cfg.n_outer
    if cfg.theorem2_preset:   # the inner phases' N_i and sigma
        cfg = replace(cfg, n_inner=n_outer, sigma=1.0 / np.sqrt(n_outer))

    L_ball = lipschitz_ball_bound(a, ds, cfg.R)
    gamma = cfg.gamma
    if gamma is None:
        gamma = 1.0 if L_ball == 0.0 else 1.0 / L_ball
    _check_gamma(gamma, L_ball)

    W = rng.normal(0.0, cfg.init_w_scale / np.sqrt(d), size=(d, d))
    theta0 = rng.normal(0.0, cfg.init_theta_scale, size=d)
    theta = prox_ball(theta0, np.zeros(d), cfg.R / 2.0)
    params = NetworkParams(W, theta)
    f_init = loss(params, a, ds)

    rows = []   # one value per TRAJECTORY_COLUMNS entry, in that order

    def record(k, p, steps, inner_final):
        sys = stationarity_system(p, a, ds)
        g = grad_W(p, a, ds)
        f_val = objective(sys.s)
        smd, _ = column_sigma_extremes(sys.D)
        row = (k, f_val, float(np.linalg.norm(g)),
               float(np.linalg.svd(p.W, compute_uv=False)[-1]), smd,
               float(np.linalg.norm(sys.s)), steps,
               inner_final if inner_final is not None else f_val)
        rows.append(row)
        if not all(np.isfinite(v) for v in row[1:6]):
            raise NumericsError(f"non-finite iterate at outer iteration {k}")
        return g

    for k in range(n_outer):
        theta, summary = inner_sgd(params, a, ds, cfg, rng)
        params = replace(params, theta=theta)
        g = record(k, params, summary.steps, summary.final_f)
        params = outer_step(params, a, ds, gamma, L_ball, grad=g)

    record(n_outer, params, 0, None)

    trajectory = TrajectoryRecord(
        *(np.array(column) for column in zip(*rows)),
        derived={
            "n_outer": n_outer, "n_inner": cfg.n_inner, "sigma": cfg.sigma,
            "gamma": gamma, "L_ball": L_ball, "R": cfg.R,
            "f_init": f_init, "seed": cfg.seed,
        },
    )
    return params, trajectory
