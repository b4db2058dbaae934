"""Numerical certificates: SVD ranks, feature-collection ranks, Lipschitz
constant estimators, and the first-order => global optimality certificate.

The certificate logic is elementary: vect(grad_W f) = -(1/N) D s, so whenever
D has full column rank,

    ||s||_2 <= N ||grad_W f||_F / sigma_min(D).

A small gradient plus a well-conditioned D therefore pins the residual (and
the loss) near zero.  column_sigma_extremes computes sigma_min(D) on one of
three routes, shape, inverse or svd, and the route decides whether D has
full rank; the certificate's `spectrum` names it.  Each route forms only
what it reads: the shape route never forms a KhatriRao D, and the inverse
route reads D's QR factor R in place.  certificate is the one
place this arithmetic is done: certify applies it at a point, and
optimizer.run at every iterate, from the stationarity system and gradient
it already holds.  "Full rank" statements about random feature collections
are probed by Monte-Carlo at an SVD tolerance; they admit no finite
certificate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .activations import ActivationFunction
from .errors import ConfigError, NumericsError, ShapeError
from .model import (KhatriRao, NetworkParams, StationaritySystem, _features,
                    grad_W, khatri_rao, objective, stationarity_system)

if TYPE_CHECKING:  # pragma: no cover
    from .dataset import Dataset

# the one rank tolerance: rank-deficient means sigma_min <= RANK_TOL sigma_max
RANK_TOL = 1e-10
# column_sigma_extremes' inverse route: square D with at least
# INVERSE_MIN_COLUMNS columns (below it the SVD is as fast), a start block
# of INVERSE_BLOCK columns drawn from seed INVERSE_SEED, solves with D's
# triangular QR factor by substitution over SUBSTITUTION_BLOCK-row blocks,
# and the Ritz values tested after each count of solves in INVERSE_SOLVES.
# A Ritz value whose last change is at most RITZ_STALL_ULPS units in its
# last place has stopped moving (converged values moved 1 to 5 ulp at 4
# solves for D = Q diag(1, ..., 1, s), 512 x 512, s = 3e-9 and 1e-8, at
# 1 and 2 BLAS threads)
INVERSE_MIN_COLUMNS = 512
INVERSE_BLOCK = 32
INVERSE_SEED = 0
INVERSE_SOLVES = (4, 6)
RITZ_STALL_ULPS = 8
SUBSTITUTION_BLOCK = 32


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
        return {**asdict(self), "singular_values": self.singular_values.tolist()}


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
    sigma_max_D: Optional[float]   # None when no SVD of D ran
    residual_norm: float
    certified_bound: float
    loss_value: float
    verdict: str   # certified_near_global | rank_deficient | inconclusive
    rank_tol: float
    spectrum: str  # column_sigma_extremes' route: shape | svd | inverse

    def to_dict(self) -> dict:
        return asdict(self)


class SigmaExtremes(tuple):
    """column_sigma_extremes' pair (sigma_min, sigma_max), with the route
    that computed it (`spectrum`) and that route's rank decision (`full_rank`)."""

    def __new__(cls, sigma_min, sigma_max, spectrum: str, full_rank: bool):
        pair = super().__new__(cls, (sigma_min, sigma_max))
        pair.spectrum, pair.full_rank = spectrum, full_rank
        return pair


def l2_norm(x: np.ndarray) -> float:
    """||x||_2 of x's entries, sqrt(x . x): np.linalg.norm's arithmetic
    without its overhead."""
    flat = x.ravel()
    return math.sqrt(flat.dot(flat))


def _above_rank_tol(sigma, sigma_max):
    """The SVD's rank rule: sigma counts when sigma > RANK_TOL * sigma_max."""
    return sigma > RANK_TOL * sigma_max


def svd_rank(M) -> RankReport:
    """Numerical rank of M: count of singular values above RANK_TOL * sigma_max."""
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if not np.isfinite(M).all():
        raise NumericsError("non-finite entries in matrix")
    svals = np.linalg.svd(M, compute_uv=False)
    rank = int(np.count_nonzero(_above_rank_tol(svals, svals.max(initial=0.0))))
    return RankReport(
        matrix_dims=M.shape,
        singular_values=svals,
        numerical_rank=rank,
        sigma_min=float(svals[-1]) if svals.size else 0.0,
        rank_tol=RANK_TOL,
    )


def collection_rank(a: ActivationFunction, W, inputs) -> RankReport:
    """Rank report for the collection {h(W u_i) u_i^T}: the (d^2, N) matrix
    whose column i is vect(h(W u_i) u_i^T), for a square W."""
    inputs = np.asarray(inputs, dtype=float)
    if inputs.ndim != 2:
        raise ShapeError(f"inputs must be (N, d), got shape {inputs.shape}")
    d = inputs.shape[1]
    W = np.asarray(W, dtype=float)
    if W.shape != (d, d):
        raise ShapeError(
            f"W must be ({d}, {d}) for {d}-dimensional inputs, got {W.shape}")
    U, _, H = _features(a, W, inputs)
    return svd_rank(khatri_rao(H, U))


def theta_spectrum(features: np.ndarray):
    """(lam, Q) with G = Q diag(lam) Q^T, lam ascending, for the Hessian
    G = H^T H / N of the theta-subproblem with feature matrix H (rows
    h(W u_i)).  A non-finite G (features too large to square) raises
    NumericsError before the eigendecomposition."""
    features = np.asarray(features, dtype=float)
    G = features.T @ features / features.shape[0]
    if not np.isfinite(G).all():
        raise NumericsError("non-finite theta-subproblem Hessian H^T H / N")
    return np.linalg.eigh(G)


def _w_smoothness(a: ActivationFunction, ds: "Dataset", theta_max: float,
                 theta_norm: float):
    """(L_W, sum ||u||^2 |v|, sum ||u||^2): the W-gradient Lipschitz bound of
    lipschitz_estimates for any theta with max_j |theta_j| <= theta_max and
    ||theta||_2 <= theta_norm, and the two data sums it is made of."""
    if a.deriv_lipschitz is None or a.grad_H_bound is None:
        raise ConfigError(
            f"activation {a.name!r} has no finite smoothness constants; "
            "the W-gradient Lipschitz bound is undefined for it")
    U, v = ds.inputs, ds.labels
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
        l_theta_exact=float(theta_spectrum(H)[0][-1]),
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


def _diagonal_block_inverses(R: np.ndarray) -> list:
    """Inverses of the diagonal blocks of SUBSTITUTION_BLOCK rows (the last
    one may be smaller) of the upper triangle of R, whatever lies below
    its diagonal: the full blocks in one stacked call, the short one in
    another.  An exactly zero diagonal entry raises np.linalg.LinAlgError."""
    b = SUBSTITUTION_BLOCK
    k = len(R) // b
    # the k full diagonal blocks as a (k, b, b) view of R
    full = R[:k * b, :k * b].reshape(k, b, k, b).diagonal(axis1=0, axis2=2)
    inverses = list(np.linalg.inv(np.triu(full.transpose(2, 0, 1))))
    if k * b < len(R):
        inverses.append(np.linalg.inv(np.triu(R[k * b:, k * b:])))
    return inverses


@np.errstate(over="ignore", invalid="ignore")
def _triangular_solve(R: np.ndarray, inverses: list, X: np.ndarray, *,
                      transpose: bool) -> np.ndarray:
    """R^{-1} X, or R^{-T} X when transpose, for the upper triangle of R by
    block substitution with its _diagonal_block_inverses.  No entry below
    R's diagonal is read, so R may be the packed Householder output of a
    QR.  An overflow leaves non-finite entries for the caller to test; it
    does not raise under the CLI's np.errstate."""
    b = SUBSTITUTION_BLOCK
    Y = np.empty_like(X)
    if transpose:   # R^T is lower triangular: forward substitution
        for k, inv in enumerate(inverses):
            s = k * b
            Y[s:s + b] = inv.T @ (X[s:s + b] - R[:s, s:s + b].T @ Y[:s])
    else:           # back substitution
        for k in reversed(range(len(inverses))):
            s = k * b
            Y[s:s + b] = inverses[k] @ (X[s:s + b] - R[s:s + b, s + b:] @ Y[s + b:])
    return Y


@functools.lru_cache(maxsize=1)
def _start_block(n: int) -> np.ndarray:
    """The inverse route's (n, INVERSE_BLOCK) start block from seed
    INVERSE_SEED, read-only, drawn again only when the column count
    changes."""
    block = np.random.default_rng(INVERSE_SEED).standard_normal((n, INVERSE_BLOCK))
    block.flags.writeable = False
    return block


def _cholesky_qr(X: np.ndarray):
    """(Q, R, scale) with X = scale Q R, Q orthonormal to O(eps) and R upper
    triangular, by shifted CholeskyQR3 (Fukaya, Kannan, Nakatsukasa,
    Yamamoto and Yanagisawa, SIAM J. Sci. Comput. 42, 2020): X is divided
    by its largest entry, scale, so that its Gram cannot overflow; then
    three passes of G = Q^T Q = L L^T, Q <- Q L^{-T}, R <- L^T R, the first
    with G shifted by 11 (m n + n (n + 1)) eps ||Q||_F^2 and the last two
    a CholeskyQR2 (Yamamoto et al., ETNA 44, 2015).  Past a condition
    number of about 1e13 (at 625 x 32) a Cholesky factor does not exist,
    and np.linalg.LinAlgError is raised."""
    m, n = X.shape
    scale = float(np.abs(X).max())
    Q, R = X / scale, np.eye(n)
    for shifted in (True, False, False):
        G = Q.T @ Q
        if shifted:
            G[np.diag_indices(n)] += (11.0 * (m * n + n * (n + 1))
                                      * np.finfo(float).eps * np.trace(G))
        L = np.linalg.cholesky(G)
        Q, R = Q @ np.linalg.inv(L).T, L.T @ R
    return Q, R, scale


def _inverse_sigma_min(M: np.ndarray):
    """sigma_min of a square M by block inverse iteration, or None when the
    SVD has to decide.

    M is factored once, M = Q_M R by np.linalg.qr, and R is read in place
    as the upper triangle of its packed Householder output; the triangular
    R has M's singular values, and R^T R = M^T M.  The fixed-seed _start_block
    goes through solves alternately with R^T and R (_triangular_solve),
    each followed by shifted CholeskyQR3 (_cholesky_qr; Fukaya et al.,
    SIAM J. Sci. Comput. 42, 2020), X = scale Q R_X.
    Once the block entering a solve is orthonormal, 1 / (scale ||R_X||_2)
    is a Ritz value of M: an upper bound on sigma_min that falls with every
    solve.  After each count of solves in INVERSE_SOLVES the block gets a
    Rayleigh-Ritz step, sigma_min(M Q), and the Ritz values of the two
    solves before the last are the only ones formed.  With ||M||_F >=
    sigma_max and tol = sqrt(n) eps ||M||_F <= n eps sigma_max, the value
    is accepted only when
      * the Ritz values converge: the error left after the last solve,
        extrapolated geometrically from the last two changes, is <= tol;
        or the last change is at most RITZ_STALL_ULPS ulp and the
        Rayleigh-Ritz value lies within tol of the last Ritz value (when
        neither holds, the next count of solves is tried);
      * it lies above the guard band: sigma_min - tol > RANK_TOL ||M||_F,
        so that sigma_min > RANK_TOL * sigma_max for certain.
    An exactly singular diagonal block of R, a non-finite solve or a block
    whose Cholesky factor does not exist returns None as well."""
    n = M.shape[1]
    frob = float(np.linalg.norm(M))   # no overflow: entries lie in (1e-100, 1e100)
    tol = math.sqrt(n) * np.finfo(float).eps * frob
    R = np.linalg.qr(M, mode="raw")[0].T
    try:
        inverses = _diagonal_block_inverses(R)
    except np.linalg.LinAlgError:   # an exactly zero diagonal entry of R
        return None
    Q = _start_block(n)
    ritz = []   # the Ritz values a checkpoint reads
    for i in range(INVERSE_SOLVES[-1]):
        X = _triangular_solve(R, inverses, Q, transpose=i % 2 == 0)
        if not np.isfinite(X).all():
            return None
        try:
            Q, R_X, scale = _cholesky_qr(X)
        except np.linalg.LinAlgError:
            return None
        if i + 1 in INVERSE_SOLVES:
            sigma_min = float(np.linalg.svd(M @ Q, compute_uv=False)[-1])
            step, last = ritz[-2] - ritz[-1], ritz[-1] - sigma_min
            if (step > last and last * last <= tol * (step - last)
                    or abs(step) <= RITZ_STALL_ULPS * math.ulp(ritz[-1])
                    and abs(last) <= tol):
                return sigma_min if sigma_min - tol > RANK_TOL * frob else None
        if i + 2 in INVERSE_SOLVES or i + 3 in INVERSE_SOLVES:
            # in Python floats a product past the largest float is inf,
            # not an error
            ritz.append(1.0 / (scale * float(np.linalg.norm(R_X, 2))))
    return None


def column_sigma_extremes(M) -> SigmaExtremes:
    """(sigma_min, sigma_max) of M, an array or a model.KhatriRao,
    sigma_min its smallest *column* singular value and sigma_max None when
    no SVD ran, with the route that computed them and its decision that M
    has full column rank (SigmaExtremes):
      * shape, for a wide M: rank-deficient by shape, sigma_min = 0, with
        no factorization, and a KhatriRao is never formed.  The
        certificate exists only when N <= n*d.
      * inverse, for a square M with at least INVERSE_MIN_COLUMNS columns
        (the measured crossover) and entries of magnitude in (1e-100,
        1e100): _inverse_sigma_min's block inverse iteration, which accepts
        a value only when M has full rank for certain; else the SVD decides.
      * svd, for every other M: the full SVD, which alone gives sigma_max;
        full rank when sigma_min > RANK_TOL * sigma_max.
    Non-finite entries raise NumericsError on every route: a wide
    KhatriRao's are read from its factors (KhatriRao.all_finite), every
    other M's from a scan of its entries."""
    m, n = np.shape(M)
    if isinstance(M, KhatriRao) and m < n:
        finite = M.all_finite()
    else:
        M = np.asarray(M, dtype=float)
        lo, hi = float(M.min()), float(M.max())
        finite = math.isfinite(lo) and math.isfinite(hi)
    if not finite:
        raise NumericsError("non-finite entries in D")
    if m < n:
        return SigmaExtremes(0.0, None, "shape", False)
    if m == n >= INVERSE_MIN_COLUMNS and 1e-100 < max(-lo, hi) < 1e100:
        sigma_min = _inverse_sigma_min(M)
        if sigma_min is not None:
            return SigmaExtremes(sigma_min, None, "inverse", True)
    svals = np.linalg.svd(M, compute_uv=False)
    sigma_min, sigma_max = float(svals[-1]), float(svals[0])
    return SigmaExtremes(sigma_min, sigma_max, "svd",
                         _above_rank_tol(sigma_min, sigma_max))


def certificate(system: StationaritySystem, grad: np.ndarray) -> GlobalCertificate:
    """The first-order => global certificate of a point, from its
    stationarity system (D, s) and its W-gradient grad_W f.  A full-rank D
    whose bound overflows is inconclusive."""
    grad_norm = l2_norm(grad)
    sigma_min, sigma_max = extremes = column_sigma_extremes(system.D)
    bound = len(system.s) * grad_norm / sigma_min if sigma_min > 0.0 else math.inf
    verdict = ("rank_deficient" if not extremes.full_rank
               else "certified_near_global" if math.isfinite(bound)
               else "inconclusive")
    return GlobalCertificate(
        grad_norm=grad_norm,
        sigma_min_D=sigma_min,
        sigma_max_D=sigma_max,
        residual_norm=l2_norm(system.s),
        certified_bound=bound,
        loss_value=objective(system.s),
        verdict=verdict,
        rank_tol=RANK_TOL,
        spectrum=extremes.spectrum,
    )


def certify(p: NetworkParams, a: ActivationFunction,
            ds: "Dataset") -> GlobalCertificate:
    """Evaluate the first-order => global certificate at (W, theta)."""
    return certificate(stationarity_system(p, a, ds), grad_W(p, a, ds))


def perturbation_rank_trial(w_prime, z, a: ActivationFunction, inputs,
                            trials: int, seed: int = 0) -> float:
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
        if not svd_rank(W).is_full_rank():
            continue
        nonsingular += 1
        if collection_rank(a, W, inputs).is_full_rank():
            full += 1
    if nonsingular == 0:
        raise NumericsError("every perturbed W came out singular")
    return full / nonsingular
