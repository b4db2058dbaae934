"""Activation bundles: derivative consistency, bounds, the numpy sigmoid's
contract, and the elliot pair's interval identity."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.integrate import quad
from scipy.special import expit

from twolayer_opt import (ACTIVATION_NAMES, PAPER_ACTIVATIONS,
                          builtin_activation, certify, make_realizable,
                          model)

# kinked at 0: exclude a neighbourhood of the kink from derivative grids
KINKED = {"elliot", "elliot_symmetric", "relu"}


def sample_grid(name, rng, n=1000, lo=-10.0, hi=10.0):
    x = rng.uniform(lo, hi, size=n)
    if name in KINKED:
        x = x[np.abs(x) > 1e-3]
    return x


def max_scaled_diff(approx, exact):
    return float(np.max(np.abs(approx - exact))) / max(1.0, float(np.max(np.abs(exact))))


def test_builtin_trivial_values():
    sig = builtin_activation("sigmoid")
    assert sig.eval(0.0) == pytest.approx(0.5)
    assert sig.deriv(0.0) == pytest.approx(0.25)

    tanh = builtin_activation("tanh")
    assert tanh.eval(0.0) == 0.0
    assert tanh.value_bound == 1.0

    soft = builtin_activation("softplus")
    assert soft.value_bound is None
    assert soft.eval(0.0) == pytest.approx(np.log(2.0))


def test_claimed_c1_flags():
    for name in PAPER_ACTIVATIONS:
        assert builtin_activation(name).claimed_c1
    assert not builtin_activation("linear").claimed_c1
    assert not builtin_activation("relu").claimed_c1
    assert len(PAPER_ACTIVATIONS) == 9


def test_unknown_name_raises():
    with pytest.raises(NameError):
        builtin_activation("swish")


def test_erf_scaling_against_quadrature():
    """The erf activation integrates exp(-t^2/2), not the usual exp(-t^2)."""
    a = builtin_activation("erf")
    for x in (-3.0, -0.7, 0.5, 1.0, 2.4):
        expected, _ = quad(lambda t: 2.0 / np.sqrt(np.pi) * np.exp(-0.5 * t * t), 0.0, x)
        assert a.eval(x) == pytest.approx(expected, rel=1e-12)
    assert a.value_bound == pytest.approx(np.sqrt(2.0))


class TestSigmoid:
    """The sigmoid, and softplus' derivative, are scipy.special.expit's
    formula on numpy: the same saturation, a few ulp of SIMD exp apart."""

    FUNCS = (builtin_activation("sigmoid").eval,
             builtin_activation("softplus").deriv)

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.float64, st.integers(1, 64),
                      elements=st.one_of(st.floats(-800.0, 40.0),
                                         st.floats(allow_nan=False))))
    def test_matches_expit(self, x):
        exact = expit(x)
        normal = exact >= np.finfo(float).tiny
        for f in self.FUNCS:
            y = f(x)
            # ulp distance of two non-negative doubles: their bit patterns'
            ulps = np.abs(y.view(np.int64) - exact.view(np.int64))
            assert np.all(ulps[normal] <= 4)
            assert np.all(y[exact == 0.0] == 0.0)

    @pytest.mark.parametrize("kind", ["eval", "deriv", "deriv2"])
    def test_no_warning_at_extremes(self, kind):
        f = getattr(builtin_activation("sigmoid"), kind)
        x = np.array([1e300, -1e300, 800.0, -800.0, np.inf, -np.inf, np.nan])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            y = f(x)
            scalars = [f(float(v)) for v in x]
        assert np.isnan(y[-1]) and np.all(np.isfinite(y[:-1]))
        np.testing.assert_array_equal(scalars, y)

    def test_float_in_float_out(self):
        for f in self.FUNCS:
            y = f(0.5)
            assert type(y) is type(expit(0.5)) and isinstance(y, float)

    @pytest.mark.parametrize("seed", range(10))
    def test_saturated_network_is_rank_deficient(self, seed):
        # every h'(w^T u) is exactly 0, so D is 0; a sigmoid floored above 0
        # (by clipping exp's argument) leaves ~1e-310 in D and certifies
        # seeds 0, 4 and 8 with a zero bound against residuals of 2.9 to 4.5
        params = model.random_params(np.random.default_rng(seed), 3,
                                     w_scale=1e160)
        cert = certify(params, builtin_activation("sigmoid"),
                       make_realizable(3, 9, seed=0))
        assert cert.verdict == "rank_deficient"


@pytest.mark.parametrize("name", ACTIVATION_NAMES)
def test_deriv_matches_finite_differences(name, rng):
    a = builtin_activation(name)
    x = sample_grid(name, rng)
    step = 1e-5
    fd = (a.eval(x + step) - a.eval(x - step)) / (2.0 * step)
    assert max_scaled_diff(fd, a.deriv(x)) <= 1e-6


@pytest.mark.parametrize("name", ACTIVATION_NAMES)
def test_deriv2_matches_finite_differences(name, rng):
    a = builtin_activation(name)
    x = sample_grid(name, rng)
    step = 1e-5
    fd = (a.deriv(x + step) - a.deriv(x - step)) / (2.0 * step)
    assert max_scaled_diff(fd, a.deriv2(x)) <= 1e-5


@pytest.mark.parametrize("name", ACTIVATION_NAMES)
def test_value_bound_holds(name, rng):
    a = builtin_activation(name)
    if a.value_bound is None:
        return
    x = rng.uniform(-10, 10, size=1000)
    assert np.max(np.abs(a.eval(x))) <= a.value_bound * (1 + 1e-12)


@pytest.mark.parametrize("name", ACTIVATION_NAMES)
def test_deriv_difference_quotients_below_lipschitz(name, rng):
    a = builtin_activation(name)
    if a.deriv_lipschitz is None:
        return
    x = np.sort(sample_grid(name, rng, n=2000))
    quotients = np.abs(np.diff(a.deriv(x))) / np.diff(x)
    if a.deriv_lipschitz == 0.0:
        assert np.max(quotients) == 0.0
    else:
        assert np.max(quotients) <= a.deriv_lipschitz * (1 + 1e-6)


@pytest.mark.parametrize("name", ACTIVATION_NAMES)
def test_grad_H_bound_holds(name, rng):
    a = builtin_activation(name)
    if a.grad_H_bound is None:
        return
    x1 = rng.uniform(-10, 10, size=10_000)
    x2 = rng.uniform(-10, 10, size=10_000)
    g2 = (a.deriv(x1) * a.deriv(x2)) ** 2 + (a.eval(x1) * a.deriv2(x2)) ** 2
    assert np.max(g2) <= a.grad_H_bound ** 2 * (1 + 1e-6)


# The elliot pair is listed with the good class, yet both satisfy
# (x+1) h'(x) + h(x) = 1 identically on x > 0 (and the mirrored relation on
# x < 0), so the class's interval condition fails for them.
@pytest.mark.parametrize("name", ["elliot", "elliot_symmetric"])
def test_elliot_family_interval_degeneracy(name):
    a = builtin_activation(name)
    x = np.linspace(0.2, 4.0, 200)
    relation = (x + 1) * a.deriv(x) + a.eval(x)
    np.testing.assert_allclose(relation, relation[0], rtol=0, atol=1e-14)
    mirrored = (-x - 1) * a.deriv(-x) + a.eval(-x)
    np.testing.assert_allclose(mirrored, mirrored[0], rtol=0, atol=1e-14)


# h' and h'' of the gaussian pair at |x| near the float64 maximum: the
# exponential underflows to 0, and no other intermediate may overflow
# (-2x and 4x do above 8.98e307 and 4.5e307, and inf * 0 is NaN)
@pytest.mark.parametrize("name", ["gaussian", "gaussian_symmetric"])
def test_gaussian_derivatives_vanish_near_float_max(name):
    a = builtin_activation(name)
    x = np.array([1e308, -1e308, 5e307, -5e307])
    with np.errstate(all="raise", under="ignore"):
        np.testing.assert_array_equal(a.deriv(x), 0.0)
        np.testing.assert_array_equal(a.deriv2(x), 0.0)
