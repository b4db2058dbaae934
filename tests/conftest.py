import numpy as np
import pytest

from twolayer_opt import Dataset, NetworkParams, Provenance


def rel_err(approx, exact):
    scale = max(float(np.linalg.norm(exact)), 1e-12)
    return float(np.linalg.norm(np.asarray(approx) - np.asarray(exact))) / scale


def fitted_labels(params, act, inputs):
    """Labels on the loss's own arithmetic path, so residuals are exactly 0."""
    H = np.asarray(act.eval(np.asarray(inputs) @ params.W.T), dtype=float)
    return H @ params.theta


def svd_extremes(M):
    """Reference (sigma_min, sigma_max) from the full SVD."""
    svals = np.linalg.svd(M, compute_uv=False)
    return (float(svals[-1]) if M.shape[0] >= M.shape[1] else 0.0,
            float(svals[0]))


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
