"""Alternating SGD-GD trainer.

Each outer iteration runs an inner stochastic-gradient phase on the convex
theta-subproblem (N_i prox steps onto the ball ||theta|| <= R/2, with
beta-weighted iterate averaging), then takes a single full-gradient descent
step on the hidden layer W (outer_step).  A run starts from
model.random_params with theta projected into the ball; project_ball is the
one projection onto the ball, and prox_ball the prox step built on it.
Each iterate's trajectory row is its diagnostics.certificate, built from the
stationarity system and the gradient that the W step uses, plus
svd_rank(W).sigma_min; TrajectoryRecord declares each column once.  A
caller that reads only the returned iterate's certificate (the verify
suites) passes certify_rows=False, and each row but the final one then
holds the W step's grad_norm and NaN in the other certificate columns.

At fixed W the inner prox step is affine in theta up to the projection:
with features H (N x n), G = H^T H / N and b = H^T v / N it is
theta <- P_ball((I - beta G) theta + beta (b - xi_t)).  The phase computes
H, G, b and one eigendecomposition G = Q diag(lam) Q^T, whose lam[-1] is
L_theta, once.  The steps run one at a time in G's eigenbasis, where
I - beta G is the diagonal 1 - beta lam: each costs O(n) and touches none
of the N samples, and a phase costs the same whether the ball binds at its
first step or never.  The noise is drawn INNER_BLOCK steps at a time, so a
phase's memory does not grow with n_inner.  The same eigenbasis gives the
subproblem's exact (least-norm) minimizer over the ball (solve_theta_star).

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

The loop validates only the array that changed: run checks that each
phase's theta is finite, outer_step the gradient's shape and the new W's
finiteness, and NetworkParams._derived carries the other array unchecked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import reduce
from operator import add, mul
from typing import TYPE_CHECKING, Optional

import numpy as np

from .activations import ActivationFunction
from .diagnostics import (certificate, l2_norm, lipschitz_ball_bound,
                          svd_rank, theta_spectrum)
from .errors import ConfigError, NumericsError, ShapeError
from .files import check_keys, json_field
from .model import (NetworkParams, _features, grad_W, loss, random_params,
                    stationarity_system)

if TYPE_CHECKING:  # pragma: no cover
    from .dataset import Dataset

# each run config key as to_dict writes it and from_dict reads it:
# key -> (RunConfig field, JSON type); the "init" object holds INIT_KEYS
RUN_KEYS = {
    "N_o": ("n_outer", int), "N_i": ("n_inner", int), "R": ("R", float),
    "sigma": ("sigma", float), "beta": ("beta", float),
    "gamma": ("gamma", float), "theorem2_preset": ("theorem2_preset", bool),
    "seed": ("seed", int),
}
INIT_KEYS = {"W_scale": ("init_w_scale", float),
             "theta_scale": ("init_theta_scale", float)}
INNER_BLOCK = 4096   # inner steps per phase_noise draw: a phase's memory bound


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
    seed: int = 0
    init_w_scale: float = 1.0
    init_theta_scale: float = 1.0

    def __post_init__(self):
        if self.n_outer < 0:
            raise ConfigError(f"n_outer must be >= 0, got {self.n_outer}")
        if self.n_inner < 1:
            raise ConfigError(f"n_inner must be >= 1, got {self.n_inner}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if not 0 < self.R < math.inf:
            raise ConfigError(f"R must be finite and positive, got {self.R}")
        for key, value in (("sigma", self.sigma), ("W_scale", self.init_w_scale),
                           ("theta_scale", self.init_theta_scale)):
            if not 0 <= value < math.inf:
                raise ConfigError(f"{key} must be finite and >= 0, got {value}")
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
    beta: float
    l_theta: float


@dataclass
class TrajectoryRecord:
    """Per-outer-iteration telemetry; row k < n_outer holds the quantities
    at (W_k, theta_{k+1}), the final row holds the returned iterate.  A row
    that run left uncertified (certify_rows=False) holds NaN in f,
    sigma_min_w, sigma_min_d and resid_norm."""

    # each field's metadata "column" is its trajectory CSV column
    k: np.ndarray = field(metadata={"column": "k"})
    f: np.ndarray = field(metadata={"column": "f"})
    grad_norm: np.ndarray = field(metadata={"column": "grad_norm_F"})
    sigma_min_w: np.ndarray = field(metadata={"column": "sigma_min_W"})
    sigma_min_d: np.ndarray = field(metadata={"column": "sigma_min_D"})
    resid_norm: np.ndarray = field(metadata={"column": "resid_norm"})
    inner_steps: np.ndarray = field(metadata={"column": "inner_steps"})
    derived: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.k)

    def columns(self) -> dict:
        return {column: getattr(self, name)
                for column, name in TRAJECTORY_FIELDS.items()}


# trajectory column -> TrajectoryRecord field, in CSV order
TRAJECTORY_FIELDS = {f.metadata["column"]: f.name
                     for f in fields(TrajectoryRecord) if "column" in f.metadata}
TRAJECTORY_COLUMNS = tuple(TRAJECTORY_FIELDS)
# the fields a certified row takes from its certificate and svd_rank(W)
CERTIFICATE_FIELDS = ("f", "grad_norm", "sigma_min_w", "sigma_min_d",
                      "resid_norm")


def project_ball(z: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection of z onto {x : ||x||_2 <= radius}."""
    norm = l2_norm(z)
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
    cap = math.inf if l_theta == 0.0 else 1.0 / (2.0 * l_theta)
    if cfg.beta is not None:
        if cfg.beta > cap:
            raise ConfigError(
                f"beta={cfg.beta} violates the step bound 1/(2 L_theta)={cap}")
        return cfg.beta
    # a sigma below ~1e-162 squares to 0: no cap on beta, as at sigma = 0
    noise_var = cfg.n_inner * cfg.sigma ** 2
    noise_cap = math.inf if noise_var == 0.0 else 1.0 / math.sqrt(noise_var)
    beta = min(cap, noise_cap)
    return 1.0 if not math.isfinite(beta) else beta  # zero-gradient degenerate case


def inner_sgd(p: NetworkParams, a: ActivationFunction, ds: "Dataset",
              cfg: RunConfig, rng: np.random.Generator):
    """Inner stochastic phase at fixed W; returns (theta_new, InnerSummary).

    theta_new is the beta-weighted average of the n_inner prox iterates.
    Step t is theta <- P_ball((I - beta G) theta + beta (b - xi_t)) (see
    the module docstring), taken in G's eigenbasis, where I - beta G is
    diagonal.  Each block of INNER_BLOCK steps draws its phase_noise in one
    call.
    """
    n_inner, sigma, radius = cfg.n_inner, cfg.sigma, cfg.R / 2.0

    _, _, H = _features(a, p.W, ds.inputs)   # fixed during the phase
    v = ds.labels
    lam, Q = theta_spectrum(H)
    l_theta = float(lam[-1])
    beta = _resolve_beta(cfg, l_theta)

    # in G's eigenbasis y = Q^T theta a step is y <- P_ball(lag * y + Cq[t]),
    # with lag = 1 - beta lam in [1/2, 1]; Q is orthogonal, so y has theta's
    # norm and projecting y projects theta
    n, b = p.n, H.T @ v / len(v)
    lag = 1.0 - beta * lam

    # the steps run on Python floats: with n a handful of hidden units, a
    # numpy call on an n-vector costs more than its arithmetic.  The
    # projection is project_ball's, on lists.  Each block's ys are folded
    # into sum_y in running-sum order (not by sum(), which compensates on
    # Python 3.12+)
    lag_l, y = lag.tolist(), (p.theta @ Q).tolist()
    sum_y = [0.0] * n
    for start in range(0, n_inner, INNER_BLOCK):
        rows = min(INNER_BLOCK, n_inner - start)
        Cq = beta * (b - phase_noise(rng, sigma, rows, n)) @ Q
        ys = []
        for c in Cq.tolist():
            y = list(map(add, map(mul, lag_l, y), c))
            norm = math.hypot(*y)
            if norm > radius:
                scale = radius / norm
                y = [yi * scale for yi in y]
            ys.append(y)
        sum_y = [reduce(add, col, s) for s, col in zip(sum_y, zip(*ys))]
    theta_avg = Q @ np.divide(sum_y, n_inner)
    return theta_avg, InnerSummary(steps=n_inner, beta=beta, l_theta=l_theta)


def _check_gamma(gamma: float, lipschitz_bound: float) -> None:
    cap = np.inf if lipschitz_bound == 0.0 else 2.0 / lipschitz_bound
    if not 0.0 < gamma < cap:
        raise ConfigError(f"gamma={gamma} outside (0, 2/L) with L={lipschitz_bound}")


def outer_step(p: NetworkParams, grad: np.ndarray, gamma: float,
               lipschitz_bound: float) -> NetworkParams:
    """One full-gradient descent step W - gamma grad on the hidden layer
    (theta unchanged), where grad is grad_W f at p and gamma must satisfy
    0 < gamma < 2/L for the W-smoothness bound L = lipschitz_bound.  A grad
    not of W's shape raises ShapeError, and a non-finite new W
    NumericsError; p's theta is carried over unchecked."""
    _check_gamma(gamma, lipschitz_bound)
    if grad.shape != p.W.shape:
        raise ShapeError(f"grad has shape {grad.shape}, W has {p.W.shape}")
    W = p.W - gamma * grad
    if not np.isfinite(W).all():
        raise NumericsError("non-finite entries in W after the outer step")
    return NetworkParams._derived(W, p.theta)


def solve_theta_star(p: NetworkParams, a: ActivationFunction, ds: "Dataset",
                     radius: float) -> np.ndarray:
    """Exact minimizer theta* of the convex theta-subproblem over the ball
    ||theta|| <= radius, by the trust-region step of Moré and Sorensen
    ("Computing a trust region step", SIAM J. Sci. Stat. Comput. 4, 1983)
    in theta_spectrum's eigenbasis G = Q diag(lam) Q^T: theta* = Q y(mu),
    y(mu) = c / (lam + mu) with c = Q^T H^T v / N (0 where c_i = 0), for the
    least mu >= m = max(0, -lam_min) that puts y(mu) in the ball: m, or the
    root of ||y(mu)|| = radius bisected on [m, m + ||c|| / radius].  c lies
    in range(G), so it is 0 where lam_i <= n eps lam_max: least-norm theta*."""
    _, _, H = _features(a, p.W, ds.inputs)
    lam, Q = theta_spectrum(H)
    c = (H.T @ ds.labels / len(ds.labels)) @ Q
    c[lam <= len(lam) * np.finfo(float).eps * lam[-1]] = 0.0

    @np.errstate(divide="ignore", over="ignore")   # c_i / 0 is an inf entry
    def y_of(mu):
        y = np.divide(c, lam + mu, out=np.zeros_like(c), where=c != 0.0)
        return y, np.linalg.norm(y) <= radius

    lo = max(0.0, -float(lam[0]))
    hi = lo if y_of(lo)[1] else lo + float(np.linalg.norm(c)) / radius
    while lo < (mid := 0.5 * (lo + hi)) < hi:   # down to adjacent floats
        lo, hi = (lo, mid) if y_of(mid)[1] else (mid, hi)
    return Q @ y_of(hi)[0]


def run(a: ActivationFunction, ds: "Dataset", cfg: RunConfig, *,
        certify_rows: bool = True):
    """Full SGD-GD run; returns (NetworkParams, TrajectoryRecord).

    Requires square W (n = d) so the trajectory rank diagnostics are
    well-defined.  The record has n_outer + 1 rows: one per outer iteration
    evaluated at (W_k, theta_{k+1}), plus a final row for the returned
    iterate.  The final row is always certified.  With certify_rows False
    a row k < n_outer computes only grad_W, which the W step needs: it
    holds k, grad_norm and inner_steps, and NaN in the other
    CERTIFICATE_FIELDS, and derived["spectrum"] counts the certified rows
    alone.  The iterates, grad_norm and inner_steps are the same bits either way.
    """
    rng = np.random.default_rng(cfg.seed)

    n_outer = cfg.n_outer
    if cfg.theorem2_preset:   # the inner phases' N_i and sigma
        cfg = replace(cfg, n_inner=n_outer, sigma=1.0 / math.sqrt(n_outer))

    L_ball = lipschitz_ball_bound(a, ds, cfg.R)
    gamma = cfg.gamma
    if gamma is None:
        gamma = 1.0 if L_ball == 0.0 else 1.0 / L_ball
    _check_gamma(gamma, L_ball)

    params = random_params(rng, ds.dim, cfg.init_w_scale, cfg.init_theta_scale)
    params = NetworkParams._derived(params.W,
                                    project_ball(params.theta, cfg.R / 2.0))
    f_init = loss(params, a, ds)

    rows = []   # one {TrajectoryRecord field: value} per row
    spectrum = {}   # rows per column_sigma_extremes route

    def record(k, p, summary, certified):
        g = grad_W(p, a, ds)
        if certified:
            cert = certificate(stationarity_system(p, a, ds), g)
            spectrum[cert.spectrum] = spectrum.get(cert.spectrum, 0) + 1
            row = dict(f=cert.loss_value, grad_norm=cert.grad_norm,
                       sigma_min_w=svd_rank(p.W).sigma_min,
                       sigma_min_d=cert.sigma_min_D,
                       resid_norm=cert.residual_norm)
        else:   # grad_norm as certificate computes it, NaN for the rest
            row = dict(dict.fromkeys(CERTIFICATE_FIELDS, math.nan), grad_norm=l2_norm(g))
        if not all(math.isfinite(row[name]) for name in
                   (CERTIFICATE_FIELDS if certified else ("grad_norm",))):
            raise NumericsError(f"non-finite iterate at outer iteration {k}")
        rows.append(dict(row, k=k, inner_steps=summary.steps if summary else 0))
        return g

    for k in range(n_outer):
        theta, summary = inner_sgd(params, a, ds, cfg, rng)
        if not np.isfinite(theta).all():
            raise NumericsError(f"non-finite theta at outer iteration {k}")
        params = NetworkParams._derived(params.W, theta)
        g = record(k, params, summary, certify_rows)
        params = outer_step(params, g, gamma, L_ball)

    record(n_outer, params, None, True)

    trajectory = TrajectoryRecord(
        **{name: np.array([row[name] for row in rows])
           for name in TRAJECTORY_FIELDS.values()},
        derived={"n_inner": cfg.n_inner, "sigma": cfg.sigma, "gamma": gamma,
                 "L_ball": L_ball, "f_init": f_init, "spectrum": spectrum},
    )
    return params, trajectory
