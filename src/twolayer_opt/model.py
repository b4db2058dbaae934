"""Two-layer network: forward map, squared loss, exact gradients, and the
stationarity system D s.

The network is phi(u) = theta^T h(W u) with hidden matrix W (n x d) and
output vector theta (n).  The training objective is

    f(W, theta) = (1/2N) sum_i (v_i - phi(u_i))^2

and its W-gradient factors through the (n*d) x N matrix D whose column i is
vect(h'(W u_i) u_i^T) scaled rowwise by theta:

    vect(grad_W f) = -(1/N) D s,      s_i = v_i - phi(u_i).

vect() stacks gradient rows (row-major), so block j of D (rows j*d..j*d+d-1)
belongs to hidden row j.  Column i is the Khatri-Rao column a_i (x) u_i with
A = h'(U W^T) theta.  One pass computes U, A and s: stationarity_system
returns D as a KhatriRao of A and U, formed only where np.asarray reads it,
and grad_W is -((A s)^T U) / N, with no D.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import files
from .activations import ACTIVATION_NAMES, ActivationFunction
from .errors import FormatError, NumericsError, ShapeError

if TYPE_CHECKING:  # pragma: no cover
    from .dataset import Dataset


@dataclass(frozen=True)
class NetworkParams:
    """Hidden layer W (n x d) and output layer theta (n,), with 1 <= n <= d.
    The constructor checks shapes and finiteness; the trainer's iterates
    come from the unchecked NetworkParams._derived."""

    W: np.ndarray
    theta: np.ndarray

    @classmethod
    def _derived(cls, W: np.ndarray, theta: np.ndarray) -> "NetworkParams":
        """NetworkParams holding W and theta as given, unchecked.  The
        caller guarantees the invariant __post_init__ establishes: both are
        finite float arrays of a validated NetworkParams' shapes."""
        p = object.__new__(cls)
        object.__setattr__(p, "W", W)
        object.__setattr__(p, "theta", theta)
        return p

    def __post_init__(self):
        W = np.asarray(self.W, dtype=float)
        theta = np.asarray(self.theta, dtype=float)
        if W.ndim != 2 or theta.ndim != 1:
            raise ShapeError(f"W must be 2-d and theta 1-d, got {W.shape}, {theta.shape}")
        n, d = W.shape
        if not 1 <= n <= d:
            raise ShapeError(f"need 1 <= n <= d, got n={n}, d={d}")
        if theta.shape[0] != n:
            raise ShapeError(f"theta has length {theta.shape[0]}, expected {n}")
        if not (np.isfinite(W).all() and np.isfinite(theta).all()):
            raise NumericsError("non-finite entries in network parameters")
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "theta", theta)

    @property
    def n(self) -> int:
        return self.W.shape[0]

    @property
    def d(self) -> int:
        return self.W.shape[1]


def random_params(rng: np.random.Generator, d: int, w_scale: float = 1.0,
                  theta_scale: float = 1.0) -> NetworkParams:
    """A random square network: W ~ N(0, w_scale^2/d) (d x d), then
    theta ~ N(0, theta_scale^2) (d,), drawn from rng in that order."""
    W = rng.normal(0.0, w_scale / np.sqrt(d), size=(d, d))
    return NetworkParams(W, rng.normal(0.0, theta_scale, size=d))


@dataclass(frozen=True)
class StationaritySystem:
    """Matrix D ((n*d) x N), a KhatriRao or an array, and residual vector
    s (N,)."""

    D: KhatriRao | np.ndarray
    s: np.ndarray


def forward(p: NetworkParams, a: ActivationFunction, u) -> float:
    """theta^T h(W u) for a single input vector."""
    u = np.asarray(u, dtype=float)
    if u.shape != (p.d,):
        raise ShapeError(f"input of shape {u.shape}, expected ({p.d},)")
    return float(p.theta @ np.asarray(a.eval(p.W @ u), dtype=float))


def _features(a: ActivationFunction, W: np.ndarray, inputs):
    """Inputs U (N, d), pre-activations Z = U W^T and features H = h(Z),
    both (N, n)."""
    U = np.asarray(inputs, dtype=float)
    if U.ndim != 2 or U.shape[1] != W.shape[1]:
        raise ShapeError(
            f"inputs of shape {U.shape} incompatible with d={W.shape[1]}")
    Z = U @ W.T
    return U, Z, np.asarray(a.eval(Z), dtype=float)


def khatri_rao(A: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Column-wise Khatri-Rao product: the (n*d, N) matrix whose column i is
    the row-major flattening of the outer product of rows A[i] (n,) and
    U[i] (d,)."""
    (N, n), d = A.shape, U.shape[1]
    return np.einsum("ij,ik->jki", A, U).reshape(n * d, N)


class KhatriRao:
    """D = khatri_rao(A, U), (n*d) x N, held as its factors A (N, n) and
    U (N, d).  It has D's shape and nbytes; np.asarray forms D on each
    conversion, and all_finite reads D's finiteness from the factors."""

    def __init__(self, A: np.ndarray, U: np.ndarray):
        self.A, self.U = A, U
        self.shape = (A.shape[1] * U.shape[1], A.shape[0])
        self.nbytes = self.shape[0] * self.shape[1] * A.itemsize

    def __array__(self, dtype=None, copy=None):
        return np.array(khatri_rao(self.A, self.U), dtype=dtype, copy=copy)

    def all_finite(self) -> bool:
        """Whether every entry a_ij u_ik of D is finite, exactly: whether
        max_i (max_j |a_ij|) (max_k |u_ik|) is, NaN propagating.  The rows'
        maxima are taken only when the bound max|A| max|U| is not finite."""
        A, U = self.A, self.U
        if math.isfinite(max(float(A.max()), -float(A.min()))
                         * max(float(U.max()), -float(U.min()))):
            return True
        with np.errstate(over="ignore", invalid="ignore"):
            return math.isfinite((np.abs(A).max(axis=1)
                                  * np.abs(U).max(axis=1)).max())


def _residual_pass(p: NetworkParams, a: ActivationFunction, ds: "Dataset"):
    """_features' U and Z, and the residuals s_i = v_i - theta^T h(W u_i)."""
    U, Z, H = _features(a, p.W, ds.inputs)
    return U, Z, ds.labels - H @ p.theta


def residuals(p: NetworkParams, a: ActivationFunction, ds: "Dataset") -> np.ndarray:
    """s_i = v_i - theta^T h(W u_i)."""
    return _residual_pass(p, a, ds)[2]


def objective(s: np.ndarray) -> float:
    """f = ||s||^2 / 2N from the residual vector s."""
    return float(s @ s / (2.0 * len(s)))


def loss(p: NetworkParams, a: ActivationFunction, ds: "Dataset") -> float:
    return objective(residuals(p, a, ds))


def grad_theta(p: NetworkParams, a: ActivationFunction, ds: "Dataset") -> np.ndarray:
    """Exact gradient of f in theta: -(1/N) sum_i s_i h(W u_i)."""
    _, _, H = _features(a, p.W, ds.inputs)
    return -(H.T @ (ds.labels - H @ p.theta)) / len(ds.labels)


def _deriv_pass(p: NetworkParams, a: ActivationFunction, ds: "Dataset"):
    """_features' U, D's factor A = h'(Z) theta (N, n) and the residuals s."""
    U, Z, s = _residual_pass(p, a, ds)
    return U, np.asarray(a.deriv(Z), dtype=float) * p.theta[None, :], s


def grad_W(p: NetworkParams, a: ActivationFunction, ds: "Dataset") -> np.ndarray:
    """Exact gradient of f in W, entry (j,k) = -(1/N) sum_i s_i h'(z_ij) theta_j u_ik."""
    U, A, s = _deriv_pass(p, a, ds)
    return -((A * s[:, None]).T @ U) / len(s)


def stationarity_system(p: NetworkParams, a: ActivationFunction,
                        ds: "Dataset") -> StationaritySystem:
    """D and s with vect(grad_W f) = -(1/N) D s, D as the KhatriRao of
    A = h'(Z) theta and U: it is formed only where np.asarray reads it."""
    U, A, s = _deriv_pass(p, a, ds)
    return StationaritySystem(D=KhatriRao(A, U), s=s)


FD_STEP = 1e-5   # fd_gradients' step h


def fd_gradients(p: NetworkParams, a: ActivationFunction, ds: "Dataset"):
    """Central finite differences (f(x+h) - f(x-h)) / 2h, h = FD_STEP, of the
    loss in every entry of W and theta: the independent check of the
    analytic gradients.  Returns (fd_W, fd_theta)."""
    def fd_array(base, rebuild):
        g = np.zeros_like(base)
        for idx in np.ndindex(base.shape):
            hi, lo = base.copy(), base.copy()
            hi[idx] += FD_STEP
            lo[idx] -= FD_STEP
            g[idx] = (loss(rebuild(hi), a, ds) - loss(rebuild(lo), a, ds)) / (2.0 * FD_STEP)
        return g

    return (fd_array(p.W, lambda W: NetworkParams(W, p.theta)),
            fd_array(p.theta, lambda t: NetworkParams(p.W, t)))


def save_params(p: NetworkParams, path, activation: str) -> None:
    """Write W rows then theta as the final row, plus a JSON shape sidecar."""
    files.write_table(path, [*p.W, p.theta])
    files.write_json(files.sidecar(path),
                     {"n": p.n, "d": p.d, "activation": activation})


def load_params(path):
    """Inverse of save_params; returns (NetworkParams, activation name)."""
    meta = files.read_sidecar(path, {"n": int, "d": int, "activation": str})
    n, d = meta["n"], meta["d"]
    if meta["activation"] not in ACTIVATION_NAMES:
        raise FormatError(f"sidecar names unknown activation {meta['activation']!r}")
    rows = files.read_table(path, lambda i: d if i < n else n, rows=n + 1)
    return NetworkParams(np.array(rows[:n]), np.array(rows[n])), meta["activation"]
