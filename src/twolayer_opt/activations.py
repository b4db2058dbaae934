"""Scalar activation functions with analytic first/second derivatives.

Each activation is packaged with the constants the smoothness estimators
need: a bound on |h| (when one exists), a Lipschitz constant for h', and a
bound on the gradient of H(x1, x2) = h(x1) h'(x2).  The constant tables were
obtained by dense numerical maximization over [-50, 50] (see
scripts/derive_activation_bounds.py) and are stored with a 5% safety margin.

Three activations are affine images of another, h = a h_b(b x) + c, and are
built from it: sigmoid_symmetric(x) = tanh(x/2), gaussian_symmetric =
2 gaussian - 1 and elliot = (elliot_symmetric + 1) / 2.

claimed_c1 declares the paper's good class: False for the controls `linear`
and `relu`, whose h' is constant on an interval.  The listed elliot pair
fails the class's interval condition, (x+1) h'(x) + h(x) = 1 on x > 0, yet
its feature collections come out full rank.  The certificate holds for any
activation: it is linear algebra on D.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

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
    claimed_c1       : True for the paper's nine good-class activations
                       (see above), False for linear and relu
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


@np.errstate(over="ignore")
def _gauss(x):
    return np.exp(-x * x)


@np.errstate(over="ignore")
def _d_gauss(x):
    return x * (-2.0 * np.exp(-x * x))


@np.errstate(over="ignore")
def _d2_gauss(x):
    e = np.exp(-x * x)
    return x * (4.0 * (x * e)) - 2.0 * e


def _elliotsym(x):
    return x / (1.0 + np.abs(x))


@np.errstate(over="ignore")
def _d_elliotsym(x):
    return 1.0 / (1.0 + np.abs(x)) ** 2


@np.errstate(over="ignore")
def _d2_elliotsym(x):
    # h'' jumps at 0; the symmetric convention h''(0) = 0 is used
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


def _zero(x):   # h'' of linear, and of relu away from its kink
    return np.zeros_like(np.asarray(x, dtype=float))


def _relu(x):
    return np.maximum(np.asarray(x, dtype=float), 0.0)


def _d_relu(x):
    return (np.asarray(x, dtype=float) > 0.0).astype(float)


# deriv_lipschitz / grad_H_bound: dense-grid maxima over [-50, 50] x 1.05,
# from scripts/derive_activation_bounds.py.  Any activation with unbounded h
# (softplus) keeps value_bound = None; its grad-H constant is only valid for
# arguments within [-50, 50], which covers every estimator use at desk scale.
# A paired activation is an affine image of its base h_b, h = a h_b(b x) + c,
# so h' = a b h_b'(b x) and h'' = a b^2 h_b''(b x); each term is written out,
# since a factor 1.0 or a term + 0.0 would change the sign of a zero.
_BUILTINS = {
    "softplus": ActivationFunction(
        "softplus", _softplus, _sigmoid, _d_sigmoid,
        value_bound=None, deriv_lipschitz=0.2625, grad_H_bound=13.1355,
        claimed_c1=True),
    "sigmoid": ActivationFunction(
        "sigmoid", _sigmoid, _d_sigmoid, _d2_sigmoid,
        value_bound=1.0, deriv_lipschitz=0.101037, grad_H_bound=0.101034,
        claimed_c1=True),
    # (1 - e^-x) / (1 + e^-x) = tanh(x/2), the overflow-free form
    "sigmoid_symmetric": ActivationFunction(
        "sigmoid_symmetric", lambda x: np.tanh(0.5 * x),
        lambda x: 0.5 * _d_tanh(0.5 * x), lambda x: 0.25 * _d2_tanh(0.5 * x),
        value_bound=1.0, deriv_lipschitz=0.202073, grad_H_bound=0.2625,
        claimed_c1=True),
    "gaussian": ActivationFunction(
        "gaussian", _gauss, _d_gauss, _d2_gauss,
        value_bound=1.0, deriv_lipschitz=2.1, grad_H_bound=2.1,
        claimed_c1=True),
    "gaussian_symmetric": ActivationFunction(
        "gaussian_symmetric", lambda x: 2.0 * _gauss(x) - 1.0,
        lambda x: 2.0 * _d_gauss(x), lambda x: 2.0 * _d2_gauss(x),
        value_bound=1.0, deriv_lipschitz=4.2, grad_H_bound=4.2,
        claimed_c1=True),
    "elliot": ActivationFunction(
        "elliot", lambda x: 0.5 * _elliotsym(x) + 0.5,
        lambda x: 0.5 * _d_elliotsym(x), lambda x: 0.5 * _d2_elliotsym(x),
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
        "tanh", np.tanh, _d_tanh, _d2_tanh,
        value_bound=1.0, deriv_lipschitz=0.808291, grad_H_bound=1.05,
        claimed_c1=True),
    "linear": ActivationFunction(
        "linear", _linear, _d_linear, _zero,
        value_bound=None, deriv_lipschitz=0.0, grad_H_bound=1.05,
        claimed_c1=False),
    "relu": ActivationFunction(
        "relu", _relu, _d_relu, _zero,
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
