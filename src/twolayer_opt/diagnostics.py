"""Numerical certificates: SVD ranks, feature-collection ranks, Lipschitz
constant estimators, and the first-order => global optimality certificate.

The certificate logic is elementary: vect(grad_W f) = -(1/N) D s, so whenever
the smallest column singular value of D is positive,

    ||s||_2 <= N ||grad_W f||_F / sigma_min(D).

A small gradient plus a well-conditioned D therefore pins the residual (and
the loss) near zero.  The certificate exists only when N <= n*d: a wide D
(n*d < N) has sigma_min(D) = 0 by shape, so column_sigma_extremes decides
that case without an SVD.  "Full rank" statements about random feature
collections are probed by Monte-Carlo at an SVD tolerance; they admit no
finite certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .activations import ActivationFunction
from .errors import ConfigError, NumericsError, ShapeError
from .model import (NetworkParams, _features, grad_W, khatri_rao, objective,
                    stationarity_system)

if TYPE_CHECKING:  # pragma: no cover
    from .dataset import Dataset

DEFAULT_RANK_TOL = 1e-10


@dataclass(frozen=True)
class RankReport:
    matrix_dims: tuple
    singular_values: np.ndarray   # descending
    numerical_rank: int
    sigma_min: float
    rank_tol: float

    def is_full_rank(self) -> bool:
        return self.numerical_rank == min(self.matrix_dims)

    def to_dict(self) -> dict:
        return {
            "matrix_dims": list(self.matrix_dims),
            "singular_values": [float(s) for s in self.singular_values],
            "numerical_rank": self.numerical_rank,
            "sigma_min": self.sigma_min,
            "rank_tol": self.rank_tol,
        }


@dataclass(frozen=True)
class LipschitzEstimate:
    l_w_bound: float
    l_theta_exact: float
    l_theta_bound_analytic: Optional[float]
    inputs_summary: dict

    def to_dict(self) -> dict:
        return {
            "L_W_bound": self.l_w_bound,
            "L_theta_exact": self.l_theta_exact,
            "L_theta_bound_analytic": self.l_theta_bound_analytic,
            "inputs_summary": self.inputs_summary,
        }


@dataclass(frozen=True)
class GlobalCertificate:
    grad_norm: float
    sigma_min_D: float
    sigma_max_D: float
    residual_norm: float
    certified_bound: float
    loss_value: float
    verdict: str   # certified_near_global | rank_deficient | inconclusive
    rank_tol: float

    def to_dict(self) -> dict:
        return {
            "grad_norm": self.grad_norm,
            "sigma_min_D": self.sigma_min_D,
            "sigma_max_D": self.sigma_max_D,
            "residual_norm": self.residual_norm,
            "certified_bound": self.certified_bound,
            "loss_value": self.loss_value,
            "verdict": self.verdict,
            "rank_tol": self.rank_tol,
        }


def svd_rank(M, rank_tol: float = DEFAULT_RANK_TOL) -> RankReport:
    """Numerical rank of M: count of singular values above rank_tol * sigma_max."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if not 0.0 < rank_tol < 1.0:
        raise ValueError(f"rank_tol must lie in (0, 1), got {rank_tol}")
    if not np.all(np.isfinite(M)):
        raise NumericsError("non-finite entries in matrix")
    svals = np.linalg.svd(M, compute_uv=False)
    sigma_max = float(svals[0]) if svals.size else 0.0
    rank = int(np.count_nonzero(svals > rank_tol * sigma_max)) if sigma_max > 0 else 0
    return RankReport(
        matrix_dims=M.shape,
        singular_values=svals,
        numerical_rank=rank,
        sigma_min=float(svals[-1]) if svals.size else 0.0,
        rank_tol=rank_tol,
    )


def collection_matrix(a: ActivationFunction, W, inputs) -> np.ndarray:
    """(d^2, N) matrix whose column i is vect(h(W u_i) u_i^T); W=None means identity."""
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 2:
        raise ShapeError(f"inputs must be (N, d), got shape {inputs.shape}")
    d = inputs.shape[1]
    W = np.eye(d) if W is None else np.asarray(W, dtype=float)
    if W.shape != (d, d):
        raise ShapeError(f"W must be square ({d}, {d}), got {W.shape}")
    U, _, H = _features(a, W, inputs)
    return khatri_rao(H, U)


def collection_rank(a: ActivationFunction, W, inputs,
                    rank_tol: float = DEFAULT_RANK_TOL) -> RankReport:
    """Rank report for the collection {h(W u_i) u_i^T}."""
    return svd_rank(collection_matrix(a, W, inputs), rank_tol)


def theta_smoothness(features: np.ndarray) -> float:
    """Exact smoothness constant of the theta-subproblem from its feature
    matrix H (rows h(W u_i)): lambda_max(H^T H) / N."""
    features = np.asarray(features, dtype=float)
    svals = np.linalg.svd(features, compute_uv=False)
    top = float(svals[0]) if svals.size else 0.0
    return top * top / features.shape[0]


def _w_smoothness(a: ActivationFunction, ds: "Dataset", theta_max: float,
                 theta_norm: float):
    """(L_W, sum ||u||^2 |v|, sum ||u||^2): the W-gradient Lipschitz bound of
    lipschitz_estimates for any theta with max_j |theta_j| <= theta_max and
    ||theta||_2 <= theta_norm, and the two data sums it is made of."""
    if a.deriv_lipschitz is None or a.grad_H_bound is None:
        raise ConfigError(
            f"activation {a.name!r} has no finite smoothness constants; "
            "the W-gradient Lipschitz bound is undefined for it")
    U = np.asarray(ds.inputs, dtype=float)
    v = np.asarray(ds.labels, dtype=float)
    N, d = U.shape
    u_sq = np.sum(U * U, axis=1)
    sum_u2_absv = float(u_sq @ np.abs(v))
    sum_u2 = float(np.sum(u_sq))
    l_w = (theta_max / N) * (
        a.deriv_lipschitz * sum_u2_absv
        + np.sqrt(2.0 * d) * a.grad_H_bound * theta_norm * sum_u2)
    return float(l_w), sum_u2_absv, sum_u2


def lipschitz_estimates(p: NetworkParams, a: ActivationFunction,
                        ds: "Dataset") -> LipschitzEstimate:
    """Data-dependent W-gradient Lipschitz bound and exact theta constant.

    L_W_bound = (1/N) theta_max (L_h' sum ||u||^2 |v|
                                 + sqrt(2 d) L_hh' ||theta||_2 sum ||u||^2)
    L_theta_exact = lambda_max(sum_i h(W u_i) h(W u_i)^T) / N
    L_theta_bound_analytic = u^2 n when |h| <= u is available.
    """
    theta_max = float(np.max(np.abs(p.theta)))
    theta_norm = float(np.linalg.norm(p.theta))
    l_w, sum_u2_absv, sum_u2 = _w_smoothness(a, ds, theta_max, theta_norm)
    _, _, H = _features(a, p.W, ds.inputs)
    l_theta_analytic = (
        a.value_bound ** 2 * p.n if a.value_bound is not None else None)
    return LipschitzEstimate(
        l_w_bound=l_w,
        l_theta_exact=float(theta_smoothness(H)),
        l_theta_bound_analytic=l_theta_analytic,
        inputs_summary={
            "theta_max": theta_max,
            "theta_norm": theta_norm,
            "sum_u2_absv": sum_u2_absv,
            "sum_u2": sum_u2,
        },
    )


def lipschitz_ball_bound(a: ActivationFunction, ds: "Dataset", R: float) -> float:
    """Worst case of L_W_bound over the feasible ball ||theta||_2 <= R/2
    (then also theta_max <= R/2), so the constant is uniform across outer
    iterations."""
    r = R / 2.0
    return _w_smoothness(a, ds, r, r)[0]


def column_sigma_extremes(M: np.ndarray):
    """(sigma_min, sigma_max) with sigma_min the smallest *column* singular
    value of M.

    A wide M (fewer rows than columns) has column rank below its column
    count, so sigma_min = 0 exactly and no factorization is needed; sigma_max
    then comes from the largest eigenvalue of the small Gram M M^T.  This is
    the shape rule of the certificate: it exists only when N <= n*d, and a
    wide D costs no SVD.  Square and tall M take the full SVD.  Non-finite
    entries raise NumericsError on both paths."""
    M = np.asarray(M, dtype=float)
    if M.size == 0:
        return 0.0, 0.0
    lo, hi = float(M.min()), float(M.max())
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise NumericsError("non-finite entries in D")
    m, n = M.shape
    if m >= n:
        svals = np.linalg.svd(M, compute_uv=False)
        return float(svals[-1]), float(svals[0])
    # M M^T could overflow or underflow where the SVD (which scales itself)
    # would not: rescale such an M by a power of two, which is exact.
    peak = max(-lo, hi)
    scale = 1.0 if 1e-100 < peak < 1e100 else math.ldexp(1.0, math.frexp(peak)[1])
    S = M if scale == 1.0 else M / scale
    top = float(np.linalg.eigvalsh(S @ S.T)[-1])
    return 0.0, scale * math.sqrt(max(top, 0.0))


def certify(p: NetworkParams, a: ActivationFunction, ds: "Dataset",
            rank_tol: float = DEFAULT_RANK_TOL) -> GlobalCertificate:
    """Evaluate the first-order => global certificate at (W, theta)."""
    if not 0.0 < rank_tol < 1.0:
        raise ValueError(f"rank_tol must lie in (0, 1), got {rank_tol}")
    sys = stationarity_system(p, a, ds)
    g = grad_W(p, a, ds)
    grad_norm = float(np.linalg.norm(g))
    resid_norm = float(np.linalg.norm(sys.s))
    sigma_min, sigma_max = column_sigma_extremes(sys.D)
    N = len(sys.s)
    bound = N * grad_norm / sigma_min if sigma_min > 0.0 else float("inf")
    if sigma_min <= rank_tol * sigma_max or sigma_max == 0.0:
        verdict = "rank_deficient"
    elif np.isfinite(bound):
        verdict = "certified_near_global"
    else:
        verdict = "inconclusive"
    return GlobalCertificate(
        grad_norm=grad_norm,
        sigma_min_D=sigma_min,
        sigma_max_D=sigma_max,
        residual_norm=resid_norm,
        certified_bound=float(bound),
        loss_value=objective(sys.s),
        verdict=verdict,
        rank_tol=rank_tol,
    )


def perturbation_rank_trial(w_prime, z, a: ActivationFunction, inputs,
                            trials: int, seed: int = 0,
                            rank_tol: float = DEFAULT_RANK_TOL) -> float:
    """Fraction of random diagonal perturbations W = W' + diag(v) Z (with
    v ~ N(0, I)) whose feature collection is full rank, among the trials
    where W itself is numerically nonsingular."""
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    w_prime = np.asarray(w_prime, dtype=float)
    z = np.asarray(z, dtype=float)
    inputs = np.asarray(inputs, dtype=float)
    d = inputs.shape[1]
    if w_prime.shape != (d, d) or z.shape != (d, d):
        raise ShapeError(
            f"W' and Z must both be ({d}, {d}), got {w_prime.shape}, {z.shape}")
    if not np.any(z):
        raise ValueError("Z must be nonzero")
    rng = np.random.default_rng(seed)
    nonsingular = full = 0
    for _ in range(trials):
        v = rng.standard_normal(d)
        W = w_prime + v[:, None] * z
        if not svd_rank(W, rank_tol).is_full_rank():
            continue
        nonsingular += 1
        if collection_rank(a, W, inputs, rank_tol).is_full_rank():
            full += 1
    if nonsingular == 0:
        raise NumericsError("every perturbed W came out singular")
    return full / nonsingular
