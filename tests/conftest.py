import math

import numpy as np
import pytest

from twolayer_opt import (Dataset, NetworkParams, Provenance, diagnostics,
                          optimizer)
from twolayer_opt.diagnostics import theta_spectrum
from twolayer_opt.verify import rel_err  # noqa: F401  (re-exported to the tests)


def fitted_labels(params, act, inputs):
    """Labels on the loss's own arithmetic path, so residuals are exactly 0."""
    H = np.asarray(act.eval(np.asarray(inputs) @ params.W.T), dtype=float)
    return H @ params.theta


def svd_extremes(M):
    """Reference (sigma_min, sigma_max) from the full SVD, with the
    smallest *column* singular value: 0 for a wide M."""
    svals = np.linalg.svd(M, compute_uv=False)
    return (float(svals[-1]) if M.shape[0] >= M.shape[1] else 0.0,
            float(svals[0]))


def svd_spectrum(M):
    """svd_extremes with the SVD's rank decision, sigma_min > RANK_TOL *
    sigma_max: a stand-in for diagnostics.column_sigma_extremes that takes
    the svd route for every M."""
    sigma_min, sigma_max = svd_extremes(M)
    return diagnostics.SigmaExtremes(
        sigma_min, sigma_max, "svd", sigma_min > diagnostics.RANK_TOL * sigma_max)


def reference_inner_sgd(p, a, ds, cfg, rng):
    """Reference inner SGD phase, one step at a time on the N samples: the
    exact theta-gradient on H plus a fresh N(0, sigma^2/n) draw of n
    coordinates, a prox step onto the ball, and the beta-weighted running
    average.  Returns inner_sgd's (theta_avg, InnerSummary) plus the
    largest norm of a prox iterate."""
    n_inner, sigma = cfg.n_inner, cfg.sigma
    radius = cfg.R / 2.0
    H = np.asarray(a.eval(np.asarray(ds.inputs) @ p.W.T), dtype=float)
    v = np.asarray(ds.labels, dtype=float)
    l_theta = float(theta_spectrum(H)[0][-1])
    beta = optimizer._resolve_beta(cfg, l_theta)
    theta_bar = p.theta
    sum_w = 0.0
    sum_wtheta = np.zeros_like(p.theta)
    largest = 0.0
    for _ in range(n_inner):
        g = -(H.T @ (v - H @ theta_bar)) / len(v)
        if sigma > 0.0:
            g = g + rng.normal(0.0, sigma / math.sqrt(g.size), size=g.size)
        theta_bar = optimizer.prox_ball(theta_bar, beta * g, radius)
        largest = max(largest, float(np.linalg.norm(theta_bar)))
        sum_w += beta
        sum_wtheta = sum_wtheta + beta * theta_bar
    theta_avg = sum_wtheta / sum_w
    return theta_avg, optimizer.InnerSummary(
        steps=n_inner, beta=beta, l_theta=l_theta), largest


def random_instance(rng, d=None, n=None, N=None, square=False):
    """Random (params, dataset) pair with uniform-cube inputs and Gaussian
    labels."""
    d = int(rng.integers(2, 6)) if d is None else d
    n = d if square else (int(rng.integers(1, d + 1)) if n is None else n)
    N = int(rng.integers(2, 26)) if N is None else N
    params = NetworkParams(rng.normal(size=(n, d)), rng.normal(size=n))
    ds = Dataset(rng.uniform(-1.0, 1.0, size=(N, d)), rng.normal(size=N),
                 Provenance("uniform_cube", None))
    return params, ds


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
