"""Alternating SGD-GD trainer.

Each outer iteration runs an inner stochastic-gradient phase on the convex
theta-subproblem (N_i prox steps onto the ball ||theta|| <= R/2, with
beta-weighted iterate averaging), then takes a single full-gradient descent
step on the hidden layer W (outer_step).  A run starts from
model.random_params with theta projected into the ball by project_ball; the
inner phase's prox step, P_x(y) = P_ball(x - y), is the projection inside
its compiled step loop (_inner_steps).
The loop computes each iterate's grad_W once, for the W step and for the
row recorder, which writes row k straight into the columns of the
TrajectoryRecord that run allocates before the loop: the gradient's norm
and, on a certified row, the diagnostics.certificate of the stationarity
system and that gradient.  A certified row's sigma_min_W is
svd_rank(W).sigma_min bit for bit, written for the held rows from one
stacked SVD of their W when SPECTRA_BLOCK are held or at the final row.  A
caller that reads only the returned iterate's certificate (the verify
suites) passes certify_rows=False, and each row but the final one then
holds NaN in f, sigma_min_W, sigma_min_D and resid_norm.

At fixed W the inner prox step is affine in theta up to the projection:
with features H (N x n), G = H^T H / N and b = H^T v / N it is
theta <- P_ball((I - beta G) theta + beta (b - xi_t)).  The phase takes b
and G = Q diag(lam) Q^T, whose lam[-1] is L_theta, once from
diagnostics.theta_subproblem, and takes its steps one at a time in G's
eigenbasis, where I - beta G is the diagonal 1 - beta lam: each costs O(n)
and touches none of the N samples, and a phase costs the same whether the
ball binds at its first step or never.  They run in a loop compiled once
per width n (_inner_steps), which keeps each coordinate of the iterate and
of its running sum in a local variable and adds each iterate onto the sum
as it is taken.  The noise is drawn INNER_BLOCK steps at a time, so a
phase's memory does not grow with n_inner.  The same eigenbasis gives the
subproblem's exact (least-norm) minimizer over the ball (solve_theta_star).

Step sizes: a beta or gamma left at None is derived; one that is given is
used, after a check of its bound.
  * beta: derived as min(1/(2 L_theta), sqrt(1/(N_i sigma^2))) with the
    exact data-dependent L_theta (an N_i sigma^2 that overflows raises
    OverflowError); a given beta must satisfy 0 < beta <= 1/(2 L_theta).
  * gamma: derived as 1/L with L the W-smoothness bound evaluated at the
    worst case over the feasible ball (constant across iterations); a given
    gamma must satisfy 0 < gamma < 2/L.
  * theorem2_preset derives N_i = N_o, sigma = 1/sqrt(N_i), gamma = 1/L,
    and beta from that N_i and sigma, so it rejects a given N_i, sigma,
    beta or gamma (one equal to its default cannot be told from none).

Runs are bit-reproducible from (config, dataset): all randomness flows from
one seeded generator, drawn in a fixed order.

The loop validates only the array that changed: run checks that each
phase's theta is finite, outer_step the gradient's shape and the new W's
finiteness, and NetworkParams._derived carries the other array unchecked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import lru_cache
from typing import TYPE_CHECKING, Optional

import numpy as np

from .activations import ActivationFunction
from .diagnostics import (certificate, l2_norm, lipschitz_ball_bound,
                          theta_subproblem)
from .errors import ConfigError, NumericsError, ShapeError
from .files import check_keys, json_field
from .model import (NetworkParams, grad_W, loss, random_params,
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
# the run keys theorem2_preset derives: given only at their defaults, and
# left out of a preset config's to_dict
PRESET_KEYS = ("N_i", "sigma", "beta", "gamma")
INNER_BLOCK = 4096   # inner steps per phase_noise draw: a phase's memory bound
SPECTRA_BLOCK = 128  # certified rows per stacked SVD of W: run's memory bound


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
        for key in PRESET_KEYS if self.theorem2_preset else ():
            name = RUN_KEYS[key][0]
            if getattr(self, name) != getattr(RunConfig, name):
                raise ConfigError(f"theorem2_preset derives {key}; "
                                  f"{key}={getattr(self, name)} cannot be given with it")
        if self.theorem2_preset and self.n_outer < 1:
            raise ConfigError("theorem2_preset needs n_outer >= 1")

    def to_dict(self) -> dict:
        skip = PRESET_KEYS if self.theorem2_preset else ()
        def section(keys):
            return {key: getattr(self, name)
                    for key, (name, _) in keys.items() if key not in skip}
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


def project_ball(z: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection of a finite z onto {x : ||x||_2 <= radius}."""
    with np.errstate(over="ignore"):
        norm = l2_norm(z)
    if norm == math.inf:   # z . z overflows: hypot scales z first
        norm = math.hypot(*z.flat)
    if norm <= radius:
        return z
    return z * (radius / norm)


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
    if noise_var == math.inf:   # fail as sigma ** 2 does, not with beta = 0
        raise OverflowError("Numerical result out of range")
    noise_cap = math.inf if noise_var == 0.0 else 1.0 / math.sqrt(noise_var)
    beta = min(cap, noise_cap)
    return 1.0 if not math.isfinite(beta) else beta  # zero-gradient degenerate case


@lru_cache
def _inner_steps(n: int):
    """The inner phase's step loop at width n: steps(lag, y, s, Cq, radius)
    returns (y, s) after, for each row c of Cq in turn, y <- lag * y + c,
    y <- y * (radius / ||y||) where ||y|| = hypot(*y) > radius, and s += y,
    one coordinate at a time, with Cq's rows flat in one list.  Its source
    is built from n alone so that each coordinate of lag, y and s is a
    local variable, which no loop over lists or arrays matches in speed."""
    l, y, s, c = ("".join(f"{v}{i}, " for i in range(n)) for v in "lysc")
    source = "\n".join([
        "def steps(lag, y, s, Cq, radius, hypot=hypot):",
        f"    {l}= lag", f"    {y}= y", f"    {s}= s", "    it = iter(Cq)",
        f"    for {c}in zip({'it, ' * n}):",
        *(f"        y{i} = l{i} * y{i} + c{i}" for i in range(n)),
        f"        norm = hypot({y})",
        "        if norm > radius:",
        "            scale = radius / norm",
        *(f"            y{i} *= scale" for i in range(n)),
        *(f"        s{i} += y{i}" for i in range(n)),
        f"    return ({y}), ({s})"])
    namespace = {"hypot": math.hypot}
    exec(compile(source, f"<inner steps, n={n}>", "exec"), namespace)
    return namespace["steps"]


def inner_sgd(p: NetworkParams, a: ActivationFunction, ds: "Dataset",
              cfg: RunConfig, rng: np.random.Generator):
    """Inner stochastic phase at fixed W; returns (theta_new, InnerSummary).

    theta_new is the beta-weighted average of the n_inner prox iterates.
    Step t is theta <- P_ball((I - beta G) theta + beta (b - xi_t)) (see
    the module docstring), taken in G's eigenbasis from theta_subproblem,
    where I - beta G is diagonal.  Each block of INNER_BLOCK steps draws
    its phase_noise in one call.
    """
    n_inner, sigma, radius = cfg.n_inner, cfg.sigma, cfg.R / 2.0

    lam, Q, b = theta_subproblem(p, a, ds)   # fixed during the phase
    l_theta = float(lam[-1])
    beta = _resolve_beta(cfg, l_theta)

    # in G's eigenbasis y = Q^T theta a step is y <- P_ball(lag * y + Cq[t]),
    # with lag = 1 - beta lam in [1/2, 1]; Q is orthogonal, so y has theta's
    # norm and projecting y projects theta
    n, lag = p.n, 1.0 - beta * lam

    # the steps run on Python floats: with n a handful of hidden units, a
    # numpy call on an n-vector costs more than its arithmetic
    steps, lag_l = _inner_steps(n), lag.tolist()
    y, sum_y = (p.theta @ Q).tolist(), [0.0] * n
    for start in range(0, n_inner, INNER_BLOCK):
        rows = min(INNER_BLOCK, n_inner - start)
        Cq = beta * (b - phase_noise(rng, sigma, rows, n)) @ Q
        y, sum_y = steps(lag_l, y, sum_y, Cq.ravel().tolist(), radius)
    theta_avg = Q @ np.divide(sum_y, n_inner)
    return theta_avg, InnerSummary(beta=beta, l_theta=l_theta)


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
    in theta_subproblem's eigenbasis G = Q diag(lam) Q^T: theta* = Q y(mu),
    y(mu) = c / (lam + mu) with c = Q^T b (0 where c_i = 0), for the
    least mu >= m = max(0, -lam_min) that puts y(mu) in the ball: m, or the
    root of ||y(mu)|| = radius bisected on [m, m + ||c|| / radius].  c lies
    in range(G), so it is 0 where lam_i <= n eps lam_max: least-norm theta*."""
    lam, Q, b = theta_subproblem(p, a, ds)
    c = b @ Q
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
    iterate.  The loop computes grad_W once per iterate, for the W step and
    for record, which checks row k as finite and writes it in place into the
    record allocated before the loop.  The final row is always certified;
    with certify_rows False a row k < n_outer holds NaN in f, sigma_min_w,
    sigma_min_d and resid_norm, and derived["spectrum"] counts the
    certified rows alone.  The iterates, grad_norm and inner_steps are the
    same bits either way.
    """
    rng = np.random.default_rng(cfg.seed)

    n_outer = cfg.n_outer
    if cfg.theorem2_preset:   # the inner phases' N_i and sigma
        cfg = replace(cfg, theorem2_preset=False, n_inner=n_outer,
                      sigma=1.0 / math.sqrt(n_outer))

    L_ball = lipschitz_ball_bound(a, ds, cfg.R)
    gamma = cfg.gamma
    if gamma is None:
        gamma = 1.0 if L_ball == 0.0 else 1.0 / L_ball
        if gamma == math.inf:
            raise NumericsError(f"the W step 1/L overflows at L={L_ball}, R={cfg.R}")
    _check_gamma(gamma, L_ball)

    params = random_params(rng, ds.dim, cfg.init_w_scale, cfg.init_theta_scale)
    params = NetworkParams._derived(params.W,
                                    project_ball(params.theta, cfg.R / 2.0))
    f_init = loss(params, a, ds)

    rec = TrajectoryRecord(
        k=np.arange(n_outer + 1),
        inner_steps=np.append(np.full(n_outer, cfg.n_inner), 0),
        **{name: np.full(n_outer + 1, math.nan) for name in
           ("f", "grad_norm", "sigma_min_w", "sigma_min_d", "resid_norm")},
        derived={"n_inner": cfg.n_inner, "sigma": cfg.sigma, "gamma": gamma,
                 "L_ball": L_ball, "f_init": f_init, "spectrum": {}})
    spectrum = rec.derived["spectrum"]   # rows per column_sigma_extremes route
    # W of the certified rows k - len(held) + 1 ... k that await sigma_min_w:
    # contiguous, as a run certifies every row or the final row alone
    held = []

    def record(k, p, g, certified):
        computed = [l2_norm(g)]
        if certified:
            cert = certificate(stationarity_system(p, a, ds), g)
            spectrum[cert.spectrum] = spectrum.get(cert.spectrum, 0) + 1
            computed += [cert.loss_value, cert.sigma_min_D, cert.residual_norm]
            held.append(p.W)
        if not all(map(math.isfinite, computed)):
            raise NumericsError(f"non-finite iterate at outer iteration {k}")
        columns = (rec.grad_norm, rec.f, rec.sigma_min_d, rec.resid_norm)
        for column, value in zip(columns, computed):
            column[k] = value
        if len(held) == SPECTRA_BLOCK or k == n_outer:
            # one stacked SVD gives each matrix's values bit for bit as its own call
            first = k + 1 - len(held)
            svals = np.linalg.svd(np.stack(held), compute_uv=False)[:, -1]
            row = first + np.flatnonzero(~np.isfinite(svals))
            if row.size:
                raise NumericsError(f"non-finite iterate at outer iteration {row[0]}")
            rec.sigma_min_w[first:k + 1] = svals
            held.clear()

    for k in range(n_outer):
        theta, _ = inner_sgd(params, a, ds, cfg, rng)
        if not np.isfinite(theta).all():
            raise NumericsError(f"non-finite theta at outer iteration {k}")
        params = NetworkParams._derived(params.W, theta)
        g = grad_W(params, a, ds)
        record(k, params, g, certify_rows)
        params = outer_step(params, g, gamma, L_ball)

    record(n_outer, params, grad_W(params, a, ds), True)
    return params, rec
