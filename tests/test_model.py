"""Recentered interpretations on the grid: dual routes, comparison
across integrability cells, recentering characters and norms."""

from fractions import Fraction as F

import numpy as np
import pytest

from ristruct.analytic import mc
from ristruct.analytic.checks import (check_comparison,
                                      check_derivative_identity,
                                      check_recentering_consistency,
                                      check_route_equivalence, g_norm,
                                      qnorm_series, relative_error)
from ristruct.analytic.grid import (GridSpec, OperatorContext,
                                    QuadratureSpec, second_order_op)
from ristruct.analytic.model import Model
from ristruct.analytic.noise import smooth_field, white_noise
from ristruct.config import numeric2d_sector
from ristruct.hopf import Hopf
from ristruct.renorm import IdentityMap
from ristruct.trees import K, X, parse, plant_tree, unit

EPS = F(1, 100)


@pytest.fixture(scope="module")
def setup():
    sector = numeric2d_sector()
    hopf = Hopf(sector.params)
    grid = GridSpec((32, 32), (2 * np.pi, 2 * np.pi), (1.0, 1.0))
    ctx = OperatorContext(grid, second_order_op(2), QuadratureSpec())
    xi = smooth_field(grid, 21, 0, 0.7)
    h = smooth_field(grid, 21, 1, 0.7)
    model = Model(sector, hopf, ctx, xi, h, eps=EPS)
    return sector, hopf, ctx, xi, h, model


X0 = (10, 7)
Y0 = (3, 25)


def test_polynomial_recentering_exact(setup):
    _s, _h, _c, _xi, _hf, model = setup
    for k in ((0, 0), (1, 0), (0, 1), (1, 1)):
        expect = model.poly_field(k, X0)
        for invp in (F(0), F(1, 3)):
            assert relative_error(model.pi_x(X(k), X0, invp), expect) \
                < 1e-14
            assert relative_error(model.pi_x_hat(X(k), X0, invp), expect) \
                < 1e-14


def test_route_equivalence_all_members(setup):
    sector, _h, _c, _xi, _hf, model = setup
    for t in sector.members():
        for invp in (F(0), F(1, 3), F(1, 2)):
            assert check_route_equivalence(model, t, X0, invp) < 1e-12


def test_single_h_display_above_transition(setup):
    """Above the crossing the single-H tree recenters by a plain
    kernel-value subtraction."""
    _s, _h, ctx, xi, hf, model = setup
    t = parse("(O() K(H()))", dim=2)
    kh = ctx.kernel_apply(hf)
    expect = (kh - model.at(kh, X0)) * xi
    got = model.pi_x(t, X0, F(1, 20))   # p = 20 above the crossing 12.5
    assert relative_error(got, expect) < 1e-12


def test_single_h_display_below_transition(setup):
    """Below the crossing the first-order kernel correction appears."""
    _s, _h, ctx, xi, hf, model = setup
    t = parse("(O() K(H()))", dim=2)
    kh = ctx.kernel_apply(hf)
    expect = (kh - model.at(kh, X0)) * xi
    for j, e in enumerate(((1, 0), (0, 1))):
        dk = model.at(ctx.kernel_apply(hf, e), X0)
        expect = expect - dk * model.poly_field(e, X0) * xi
    got = model.pi_x(t, X0, F(1, 10))   # p = 10 below the crossing
    assert relative_error(got, expect) < 1e-12


def test_phase_points(setup):
    _s, _h, _c, _xi, _hf, model = setup
    pts = model.phase_points()
    assert F(25, 2) in pts
    assert all(p > 2 for p in pts)


def test_comparison_identity(setup):
    sector, _h, _c, _xi, _hf, model = setup
    bounds = [F(1, 2)] + sorted((1 / F(p) for p in model.phase_points()),
                                reverse=True) + [F(0)]
    cells = [(a + b) / 2 for a, b in zip(bounds, bounds[1:])]
    for t in sector.dot_basis:
        for invp in cells:
            assert check_comparison(model, t, X0, invp) < 1e-12


def test_lambda_gate(setup):
    _s, _h, _c, _xi, _hf, model = setup
    # H-free plantings have p-independent degree: the gate never opens
    mu = parse("(K(O()))", dim=2)
    assert model.lambda_x(mu, X0, F(1, 20)) == 0.0
    # a decorated single-H planting is gated open above the crossing
    mu2 = parse("(K^(1,0)(H()))", dim=2)
    assert model.lambda_x(mu2, X0, F(1, 20)) != 0.0
    assert model.lambda_x(mu2, X0, F(1, 3)) == 0.0


def test_recentering_consistency(setup):
    sector, _h, _c, _xi, _hf, model = setup
    for t in sector.members():
        assert check_recentering_consistency(model, t, X0, Y0, F(0)) \
            < 1e-11


def test_g_recentered_coordinates(setup):
    _s, _h, _c, _xi, _hf, model = setup
    xc = model.base_coord(X0)
    yc = model.base_coord(Y0)
    for j, e in enumerate(((1, 0), (0, 1))):
        got = model.g_recentered(X(e), X0, Y0, F(0))
        assert abs(got - (yc[j] - xc[j])) < 1e-14


def test_derivative_identity(setup):
    sector, hopf, ctx, xi, hf, _m = setup
    for t in sector.basis_o:
        err = check_derivative_identity(sector, hopf, ctx, xi, hf, t,
                                        X0, EPS)
        assert err < 1e-12


def test_qnorm_series_unit(setup):
    _s, _h, _c, _xi, _hf, model = setup
    ts = [2.0 ** (-j) for j in (6, 4, 2)]
    raw, weighted = qnorm_series(model, unit(2), [X0, Y0], ts, F(0))
    assert np.allclose(raw, 1.0, atol=1e-13)
    assert np.allclose(weighted, 1.0, atol=1e-13)


def test_g_norm_coordinate(setup):
    _s, _h, _c, _xi, _hf, model = setup
    offsets = [(1, 0), (0, 1), (2, 0), (1, 1)]
    val = g_norm(model, X((1, 0)), [X0, Y0], offsets, F(0))
    assert abs(val - 1.0) < 1e-12


# spectral point reads against full inverse transforms --------------------

def _heat_full(ctx, t):
    """exp(t P) on the full fftfreq grid, for the complex round trip."""
    return np.exp(-t * sum(l ** 2 for l in ctx.grid.freq_mesh()))


def test_kernel_edge_reads_match_full_field(setup):
    """f_x on a K edge reads one spectrum per (sub, x, 1/p) at every
    derivative order; it equals the value of the full kernel field."""
    _s, hopf, ctx, _xi, _hf, model = setup
    sub = parse("(H())", dim=2)
    invp = F(1, 20)
    seen = 0
    for x in (X0, Y0, (0, 0)):
        field = model.pi_x(sub, x, invp)
        for k in ((0, 0), (1, 0), (0, 1), (1, 1)):
            if hopf.planted_degree(K, k, sub, EPS, invp) <= 0:
                continue
            full = ctx.kernel_apply(field, k)
            got = model.f_x(K, k, sub, x, invp)
            assert abs(got - model.at(full, x)) \
                <= 1e-13 * np.max(np.abs(full))
            seen += 1
    assert seen >= 3


def test_oracle_route_reads_full_fields(setup, monkeypatch):
    """The Taylor-subtraction route never uses the spectral point read,
    so the route check compares two ways of reading point values."""
    sector, hopf, ctx, xi, hf, _m = setup

    def refuse(*_a):
        raise AssertionError("pi_x_hat used the spectral point read")
    monkeypatch.setattr(GridSpec, "point_value", refuse)
    model = Model(sector, hopf, ctx, xi, hf, eps=EPS)
    for t in sector.members():
        model.pi_x_hat(t, X0, F(1, 20))


def test_constant_samples_match_full_inverse(setup):
    sector, hopf, ctx, _xi, _hf, _m = setup
    tau2 = parse("(O() K(O()))", dim=2)
    got = mc.constant_samples(sector, hopf, ctx, IdentityMap(), tau2, 3, 4,
                              29)
    heat = _heat_full(ctx, 1.0)
    for i, value in enumerate(got):
        xi = ctx.mollify(white_noise(ctx.grid, 29, i), 3)
        model = Model(sector, hopf, ctx, xi, eps=0, prep=IdentityMap())
        field = np.fft.ifftn(np.fft.fftn(model.pi_x(tau2, (0, 0), 0))
                             * heat).real
        assert abs(value - field[0, 0]) <= 1e-12 * max(1.0, abs(value))


def test_qnorm_series_matches_full_inverse(setup):
    _s, _h, ctx, _xi, _hf, model = setup
    ts = [2.0 ** (-j) for j in (6, 4, 2)]
    points = [X0, Y0, (0, 0)]
    for tree, invp, p in ((parse("(O() K(O()))", dim=2), F(0), None),
                          (parse("(O() K(H()))", dim=2), F(1, 3), 3.0)):
        raw, _w = qnorm_series(model, tree, points, ts, invp)
        for tv, norm in zip(ts, raw):
            vals = []
            for x in points:
                field = np.fft.ifftn(np.fft.fftn(model.pi_x(tree, x, invp))
                                     * _heat_full(ctx, tv)).real
                vals.append(abs(field[x]))
            expect = (max(vals) if p is None
                      else np.mean([v ** p for v in vals]) ** (1.0 / p))
            assert abs(norm - expect) <= 1e-12 * expect
