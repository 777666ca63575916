"""Monte Carlo constants: reproducibility, the sequential solve and the
scaling fit."""

import numpy as np
import pytest

from ristruct.analytic import mc
from ristruct.analytic.grid import (GridSpec, OperatorContext,
                                    QuadratureSpec, second_order_op)
from ristruct.config import numeric2d_sector
from ristruct.hopf import Hopf
from ristruct.renorm import IdentityMap
from ristruct.trees import X, noise, parse


@pytest.fixture(scope="module")
def setup():
    sector = numeric2d_sector()
    hopf = Hopf(sector.params)
    grid = GridSpec((32, 32), (2 * np.pi, 2 * np.pi), (1.0, 1.0))
    ctx = OperatorContext(grid, second_order_op(2), QuadratureSpec())
    return sector, hopf, ctx


def test_target_validation(setup):
    sector, hopf, ctx = setup
    with pytest.raises(ValueError):
        mc.constant_samples(sector, hopf, ctx, IdentityMap(), X((1, 0)),
                            3, 2, 0)          # positive degree
    with pytest.raises(ValueError):
        mc.constant_samples(sector, hopf, ctx, IdentityMap(),
                            parse("(H())", dim=2), 3, 2, 0)  # not in basis
    with pytest.raises(ValueError):
        mc.constant_samples(sector, hopf, ctx, IdentityMap(), noise(2),
                            3, 2, 0, mode="bogus")


def test_samples_deterministic(setup):
    sector, hopf, ctx = setup
    a = mc.constant_samples(sector, hopf, ctx, IdentityMap(), noise(2),
                            3, 4, 17)
    b = mc.constant_samples(sector, hopf, ctx, IdentityMap(), noise(2),
                            3, 4, 17)
    c = mc.constant_samples(sector, hopf, ctx, IdentityMap(), noise(2),
                            3, 4, 18)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_noise_constant_is_centered(setup):
    sector, hopf, ctx = setup
    samples = mc.constant_samples(sector, hopf, ctx, IdentityMap(),
                                  noise(2), 3, 32, 5)
    mean, stderr = mc.mean_stderr(samples)
    assert abs(mean) <= 3 * stderr


def test_mean_stderr():
    mean, stderr = mc.mean_stderr(np.array([1.0, 3.0]))
    assert mean == 2.0
    assert abs(stderr - 1.0) < 1e-14
    assert mc.mean_stderr(np.array([5.0])) == (5.0, 0.0)


def test_solve_bphz_self_consistency(setup):
    """After solving, a fresh-seed estimate of the renormalized constant
    is compatible with zero."""
    sector, hopf, ctx = setup
    c, info = mc.solve_bphz_c(sector, hopf, ctx, level=3, n_samples=48,
                              seed=11, mode="qbar")
    tau2 = parse("(O() K(O()))", dim=2)
    assert set(c.values) == {tau2}
    from ristruct.renorm import CounterTerms, RcMap
    prep = RcMap(CounterTerms(dict(c.values)), hopf, sector)
    fresh = mc.constant_samples(sector, hopf, ctx, prep, tau2, 3, 48, 900)
    mean, stderr = mc.mean_stderr(fresh)
    assert abs(mean) <= 3 * stderr + 1e-12


def test_solve_bphz_threshold(setup):
    sector, hopf, ctx = setup
    with pytest.raises(mc.ConvergenceError):
        mc.solve_bphz_c(sector, hopf, ctx, level=3, n_samples=8, seed=1,
                        stderr_threshold=1e-12)


def test_scaling_fit_synthetic():
    t_values = [2.0 ** (-j) for j in range(8, 2, -1)]
    series = [[t ** 0.5 for t in t_values] for _ in range(4)]
    slope, lo, hi = mc.scaling_fit(t_values, series, seed=0)
    assert abs(slope - 0.5) < 1e-12
    assert abs(lo - 0.5) < 1e-12 and abs(hi - 0.5) < 1e-12


def test_scaling_ensemble_deterministic(setup):
    sector, hopf, ctx = setup
    t_values = [0.25, 0.5]
    a = mc.scaling_ensemble(sector, hopf, ctx, noise(2), 3, 2, 23,
                            t_values, [(0, 0)])
    b = mc.scaling_ensemble(sector, hopf, ctx, noise(2), 3, 2, 23,
                            t_values, [(0, 0)])
    assert a == b
    assert len(a) == 2 and len(a[0]) == 2


def test_one_forward_transform_per_sample(setup, monkeypatch):
    """With the multipliers cached, a qbar sample of (O() K(O())) costs
    one forward and two inverse transforms (noise in; the noise field and
    its kernel field out), and a scaling sample of (O()) only the
    forward transform of its noise."""
    sector, hopf, ctx = setup
    tau2 = parse("(O() K(O()))", dim=2)
    t_values = [0.25, 0.5]

    def qbar(n):
        mc.constant_samples(sector, hopf, ctx, IdentityMap(), tau2, 3, n, 4)

    def scaling(n):
        mc.scaling_ensemble(sector, hopf, ctx, noise(2), 3, n, 4, t_values,
                            [(0, 0), (5, 9)])
    qbar(1)  # warm the multiplier and heat-kernel caches
    scaling(1)
    calls = []
    for name in ("rfftn", "irfftn"):
        original = getattr(np.fft, name)

        def counted(*a, _f=original, _name=name, **k):
            calls.append(_name)
            return _f(*a, **k)
        monkeypatch.setattr(np.fft, name, counted)
    qbar(4)
    assert sorted(calls) == ["irfftn"] * 8 + ["rfftn"] * 4
    calls.clear()
    scaling(4)
    assert calls == ["rfftn"] * 4
