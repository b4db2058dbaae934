"""Scalar activation functions with analytic first/second derivatives.

Each activation is packaged with the constants the smoothness estimators
need: a bound on |h| (when one exists), a Lipschitz constant for h', and a
bound on the gradient of H(x1, x2) = h(x1) h'(x2).  The constant tables were
obtained by dense numerical maximization over [-50, 50] (see
scripts/derive_activation_bounds.py) and are stored with a 5% safety margin.

`linear` and `relu` are deliberate negative controls: their derivative is
constant on intervals, so the rank guarantees that hold for the other nine
activations break down for them (claimed_c1 = False).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np


_SQRT2 = np.sqrt(2.0)
_TWO_OVER_SQRT_PI = 2.0 / np.sqrt(np.pi)


@dataclass(frozen=True)
class ActivationFunction:
    """Immutable bundle of h, h', h'' and smoothness metadata.

    value_bound      : u with |h(x)| <= u for all x, or None if h unbounded
    deriv_lipschitz  : L with |h'(a) - h'(b)| <= L |a - b|, None if h' has
                       jumps (relu)
    grad_H_bound     : bound on ||grad H||_2 for H(x1,x2) = h(x1) h'(x2),
                       None when h'' is not defined everywhere (relu)
    claimed_c1       : True for the nine activations whose derivative is
                       never interval-constant / affine-reducible
    """

    name: str
    eval: Callable[[np.ndarray], np.ndarray]
    deriv: Callable[[np.ndarray], np.ndarray]
    deriv2: Callable[[np.ndarray], np.ndarray]
    value_bound: Optional[float]
    deriv_lipschitz: Optional[float]
    grad_H_bound: Optional[float]
    claimed_c1: bool


# A function under errstate(over="ignore") is written so that an
# intermediate that overflows to inf gives its intended limit (1/inf = 0,
# exp(-inf) = 0); any other overflow is an error (cli.main raises on it).


def _softplus(x):
    return np.logaddexp(0.0, x)


# scipy.special.expit's formula, so it saturates to exactly 0 and 1 where
# expit does; exp(-x) overflows to inf below x = -709.78 and 1/inf is the
# intended 0.  Clipping the argument instead would floor the sigmoid at
# ~1e-308 and let a saturated D look full rank.  It is softplus' h'.
@np.errstate(over="ignore")
def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _d_sigmoid(x):
    s = _sigmoid(x)
    return s * (1.0 - s)


def _d2_sigmoid(x):
    s = _sigmoid(x)
    return s * (1.0 - s) * (1.0 - 2.0 * s)


# (1 - e^-x) / (1 + e^-x) == tanh(x/2); the tanh form is overflow-free
def _sigsym(x):
    return np.tanh(0.5 * x)


def _d_sigsym(x):
    t = np.tanh(0.5 * x)
    return 0.5 * (1.0 - t * t)


def _d2_sigsym(x):
    t = np.tanh(0.5 * x)
    return -0.5 * t * (1.0 - t * t)


@np.errstate(over="ignore")
def _gauss(x):
    return np.exp(-x * x)


@np.errstate(over="ignore")
def _d_gauss(x):
    return -2.0 * x * np.exp(-x * x)


@np.errstate(over="ignore")
def _d2_gauss(x):
    e = np.exp(-x * x)
    return 4.0 * x * (x * e) - 2.0 * e


@np.errstate(over="ignore")
def _gausssym(x):
    return 2.0 * np.exp(-x * x) - 1.0


@np.errstate(over="ignore")
def _d_gausssym(x):
    return -4.0 * x * np.exp(-x * x)


@np.errstate(over="ignore")
def _d2_gausssym(x):
    e = np.exp(-x * x)
    return 8.0 * x * (x * e) - 4.0 * e


def _elliot(x):
    return x / (2.0 * (1.0 + np.abs(x))) + 0.5


@np.errstate(over="ignore")
def _d_elliot(x):
    return 0.5 / (1.0 + np.abs(x)) ** 2


@np.errstate(over="ignore")
def _d2_elliot(x):
    # h'' jumps at 0; the symmetric convention h''(0) = 0 is used
    return -np.sign(x) / (1.0 + np.abs(x)) ** 3


def _elliotsym(x):
    return x / (1.0 + np.abs(x))


@np.errstate(over="ignore")
def _d_elliotsym(x):
    return 1.0 / (1.0 + np.abs(x)) ** 2


@np.errstate(over="ignore")
def _d2_elliotsym(x):
    return -2.0 * np.sign(x) / (1.0 + np.abs(x)) ** 3


# integral form (2/sqrt(pi)) int_0^x exp(-t^2/2) dt == sqrt(2) erf(x/sqrt(2))
# scipy is imported here, so only erf runs load it
def _erfact(x):
    from scipy.special import erf
    return _SQRT2 * erf(np.asarray(x, dtype=float) / _SQRT2)


@np.errstate(over="ignore")
def _d_erfact(x):
    return _TWO_OVER_SQRT_PI * np.exp(-0.5 * x * x)


@np.errstate(over="ignore")
def _d2_erfact(x):
    return -_TWO_OVER_SQRT_PI * x * np.exp(-0.5 * x * x)


def _tanh(x):
    return np.tanh(x)


def _d_tanh(x):
    t = np.tanh(x)
    return 1.0 - t * t


def _d2_tanh(x):
    t = np.tanh(x)
    return -2.0 * t * (1.0 - t * t)


def _linear(x):
    return np.asarray(x, dtype=float) + 0.0


def _d_linear(x):
    return np.ones_like(np.asarray(x, dtype=float))


def _d2_linear(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _relu(x):
    return np.maximum(np.asarray(x, dtype=float), 0.0)


def _d_relu(x):
    return (np.asarray(x, dtype=float) > 0.0).astype(float)


def _d2_relu(x):
    return np.zeros_like(np.asarray(x, dtype=float))


# deriv_lipschitz / grad_H_bound: dense-grid maxima over [-50, 50] x 1.05,
# from scripts/derive_activation_bounds.py.  Any activation with unbounded h
# (softplus) keeps value_bound = None; its grad-H constant is only valid for
# arguments within [-50, 50], which covers every estimator use at desk scale.
_BUILTINS = {
    "softplus": ActivationFunction(
        "softplus", _softplus, _sigmoid, _d_sigmoid,
        value_bound=None, deriv_lipschitz=0.2625, grad_H_bound=13.1355,
        claimed_c1=True),
    "sigmoid": ActivationFunction(
        "sigmoid", _sigmoid, _d_sigmoid, _d2_sigmoid,
        value_bound=1.0, deriv_lipschitz=0.101037, grad_H_bound=0.101034,
        claimed_c1=True),
    "sigmoid_symmetric": ActivationFunction(
        "sigmoid_symmetric", _sigsym, _d_sigsym, _d2_sigsym,
        value_bound=1.0, deriv_lipschitz=0.202073, grad_H_bound=0.2625,
        claimed_c1=True),
    "gaussian": ActivationFunction(
        "gaussian", _gauss, _d_gauss, _d2_gauss,
        value_bound=1.0, deriv_lipschitz=2.1, grad_H_bound=2.1,
        claimed_c1=True),
    "gaussian_symmetric": ActivationFunction(
        "gaussian_symmetric", _gausssym, _d_gausssym, _d2_gausssym,
        value_bound=1.0, deriv_lipschitz=4.2, grad_H_bound=4.2,
        claimed_c1=True),
    "elliot": ActivationFunction(
        "elliot", _elliot, _d_elliot, _d2_elliot,
        value_bound=1.0, deriv_lipschitz=1.05, grad_H_bound=1.039706,
        claimed_c1=True),
    "elliot_symmetric": ActivationFunction(
        "elliot_symmetric", _elliotsym, _d_elliotsym, _d2_elliotsym,
        value_bound=1.0, deriv_lipschitz=2.1, grad_H_bound=2.058824,
        claimed_c1=True),
    "erf": ActivationFunction(
        "erf", _erfact, _d_erfact, _d2_erfact,
        value_bound=_SQRT2, deriv_lipschitz=0.718617, grad_H_bound=1.336902,
        claimed_c1=True),
    "tanh": ActivationFunction(
        "tanh", _tanh, _d_tanh, _d2_tanh,
        value_bound=1.0, deriv_lipschitz=0.808291, grad_H_bound=1.05,
        claimed_c1=True),
    "linear": ActivationFunction(
        "linear", _linear, _d_linear, _d2_linear,
        value_bound=None, deriv_lipschitz=0.0, grad_H_bound=1.05,
        claimed_c1=False),
    "relu": ActivationFunction(
        "relu", _relu, _d_relu, _d2_relu,
        value_bound=None, deriv_lipschitz=None, grad_H_bound=None,
        claimed_c1=False),
}

ACTIVATION_NAMES = tuple(_BUILTINS)
PAPER_ACTIVATIONS = tuple(n for n, a in _BUILTINS.items() if a.claimed_c1)


def builtin_activation(name: str) -> ActivationFunction:
    """Look up a built-in activation by name."""
    try:
        return _BUILTINS[name]
    except KeyError:
        raise NameError(
            f"unknown activation {name!r}; choose one of {sorted(_BUILTINS)}"
        ) from None


@dataclass(frozen=True)
class IntervalProbe:
    lo: float
    hi: float
    residual_constant_deriv: float
    residual_affine_relation: float
    flagged: bool


@dataclass(frozen=True)
class C1ProbeReport:
    """Outcome of the interval heuristic; verdict True = no interval admits
    either forbidden representation at the given tolerance.

    This is a numerical heuristic, not a certificate: the defining property
    quantifies over all intervals and all constants, which no finite probe
    can decide.
    """

    activation: str
    tol: float
    grid_points: int
    intervals: Sequence[IntervalProbe] = field(default_factory=tuple)

    @property
    def verdict(self) -> bool:
        return not any(p.flagged for p in self.intervals)


def c1_probe(a: ActivationFunction, intervals, grid_points: int = 64,
             tol: float = 1e-8, on_deriv: bool = False) -> C1ProbeReport:
    """Probe whether h looks interval-degenerate on the given intervals.

    On each interval (lo, hi) two least-squares fits are run over a uniform
    grid: (i) h'(x) = c1, and (ii) x h'(x) + h(x) = c3 - c2 h'(x).  An
    interval is flagged when either family fits with max residual <= tol,
    i.e. the activation locally behaves like the excluded class.

    Residuals are scaled by the magnitude of the fitted data on the grid, so
    a saturated tail (where h' underflows to numerically-constant values,
    e.g. the gaussian beyond |x| ~ 4) is not mistaken for a degenerate
    interval.  With on_deriv=True the probe is applied to h' instead (using
    h'').
    """
    if grid_points < 8:
        raise ValueError("grid_points must be at least 8")
    f, df = (a.deriv, a.deriv2) if on_deriv else (a.eval, a.deriv)
    probes = []
    for lo, hi in intervals:
        lo, hi = float(lo), float(hi)
        if not lo < hi:
            raise ValueError(f"empty interval ({lo}, {hi})")
        x = np.linspace(lo, hi, grid_points)
        fx, dfx = np.asarray(f(x), float), np.asarray(df(x), float)

        # family (i): deviation of h' from constant, relative to |h'|
        scale_d = max(float(np.max(np.abs(dfx))), 1e-300)
        res_const = float(np.max(np.abs(dfx - dfx.mean()))) / scale_d

        # family (ii): y = c3 - c2 h'(x) with y = x h'(x) + h(x); the fit
        # residual is relative to the spread of y (what a constant cannot
        # already explain)
        y = x * dfx + fx
        design = np.column_stack([-dfx, np.ones_like(x)])
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        scale_y = max(float(np.max(np.abs(y - y.mean()))), 1e-300)
        res_affine = float(np.max(np.abs(design @ coef - y))) / scale_y

        flagged = res_const <= tol or res_affine <= tol
        probes.append(IntervalProbe(lo, hi, res_const, res_affine, flagged))
    return C1ProbeReport(a.name, tol, grid_points, tuple(probes))
