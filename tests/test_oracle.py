"""The certificate's linear algebra against an exact oracle: sigma_min(D) > s
decided in rational arithmetic (conftest.sigma_min_exceeds), on D at the
iterates of short runs."""

from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from conftest import sigma_min_exceeds

from twolayer_opt import (RunConfig, builtin_activation, make_realizable, model,
                          optimizer, run)
from twolayer_opt.diagnostics import column_sigma_extremes

SIG = builtin_activation("sigmoid")
SHAPES = pytest.mark.parametrize("d, N", [(3, 9), (4, 8)], ids=["9x9", "16x8"])
REL = 1e-8   # the relative margin around the SVD's sigma_min


@lru_cache
def trained_rows(d, N):
    """(D, s, sigma_min_D) of each certified row of a short run: D and s as
    run's stationarity_system formed them, sigma_min_D from the trajectory."""
    systems, program = [], model.stationarity_system
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer, "stationarity_system",
                   lambda p, a, ds: systems.append(program(p, a, ds)) or systems[-1])
        _, rec = run(SIG, make_realizable(d, N, seed=1),
                     RunConfig(n_outer=11, n_inner=5, sigma=0.2, seed=1))
    return [(np.asarray(system.D), system.s, sigma)
            for system, sigma in zip(systems, rec.sigma_min_d.tolist())]


def test_oracle_is_exact():
    # singular values 3 and 2: D^T D - 4 I is singular, not positive definite
    D = np.array([[0.0, 2.0], [3.0, 0.0], [0.0, 0.0]])
    assert sigma_min_exceeds(D, np.nextafter(2.0, 0.0))
    assert not sigma_min_exceeds(D, 2.0)
    assert not sigma_min_exceeds(D.T, 0.0)   # a wide D: column rank 2 < 3


@SHAPES
def test_svd_sigma_min_is_within_rel(d, N):
    for D, _, sigma in trained_rows(d, N):
        assert sigma_min_exceeds(D, sigma * (1 - REL))
        assert not sigma_min_exceeds(D, sigma * (1 + REL))


@SHAPES
def test_full_rank_agrees_with_oracle(d, N):
    rows = trained_rows(d, N)
    for D, _, _ in rows:
        assert column_sigma_extremes(D).full_rank == sigma_min_exceeds(D, 0.0)
    D = rows[-1][0]
    repeated, zero = D.copy(), D.copy()
    repeated[:, 1] = D[:, 0]
    zero[:, 1] = 0.0
    for singular in (repeated, zero):
        assert not column_sigma_extremes(singular).full_rank
        assert not sigma_min_exceeds(singular, 0.0)


@SHAPES
def test_certificate_bound_holds_exactly(d, N):
    # ||s|| <= N ||g|| / s_lo with g = -D s / N in rationals, squared:
    # s_lo^2 ||s||^2 <= N^2 ||g||^2
    for D, s, sigma in trained_rows(d, N):
        s_q = [Fraction(x) for x in s.tolist()]
        g = [-sum(Fraction(x) * y for x, y in zip(row, s_q)) / N
             for row in D.tolist()]
        s_lo = Fraction(sigma * (1 - REL))
        assert s_lo ** 2 * sum(x * x for x in s_q) <= N ** 2 * sum(x * x for x in g)
