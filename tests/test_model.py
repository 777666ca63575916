"""Recentered interpretations on the grid: dual routes, comparison
across integrability cells, recentering characters and norms."""

import random
from fractions import Fraction as F

import numpy as np
import pytest

from ristruct.analytic import mc
from ristruct.analytic.checks import (check_comparison,
                                      check_derivative_identity,
                                      check_route_equivalence,
                                      qnorm_series, relative_error)
from ristruct.analytic.grid import (GridSpec, OperatorContext,
                                    QuadratureSpec, fourth_order_op,
                                    second_order_op)
from ristruct.analytic.model import Model
from ristruct.analytic.noise import smooth_field, white_noise
from ristruct.hopf import Hopf
from ristruct.renorm import (CounterTerms, IdentityMap, RcMap,
                             negative_basis, verify_preparation)
from ristruct.sector import _derive
from ristruct.trees import K, LinComb, X, noise, parse, unit

from reference import (DictPreparationMap, Renormalizer, builtin_sector,
                       check_recentering_consistency, freq_mesh,
                       g_recentered)

EPS = F(1, 100)


@pytest.fixture(scope="module")
def setup():
    sector = builtin_sector("numeric2d")
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


def test_recentered_fields_are_fresh(setup):
    """Changing a returned recentered field changes no later result."""
    sector, hopf, ctx, xi, hf, _m = setup
    model = Model(sector, hopf, ctx, xi, hf, eps=EPS)
    t = parse("(O() K(H()))", dim=2)
    for route in (model.pi_x, model.pi_x_hat):
        f = route(t, X0, F(1, 10))
        first = f.copy()
        f[...] = 0
        assert np.array_equal(route(t, X0, F(1, 10)), first)


def test_cached_fields_are_read_only(setup):
    """interp and spectrum hand out their cached arrays read-only, so a
    write raises instead of changing later results; the caller's noise
    spectrum stays writable."""
    sector, hopf, ctx, xi, hf, _m = setup
    xi_hat = ctx.grid.rfft(xi)
    t = parse("(O() K(O()))", dim=2)
    for model in (Model(sector, hopf, ctx, xi, hf, eps=EPS),
                  Model(sector, hopf, ctx, h=hf, eps=EPS, xi_hat=xi_hat)):
        before = model.pi_x(t, X0, 0)
        for cached in (model.interp(t), model.spectrum(t),
                       model.interp(noise(2)), model.spectrum(noise(2))):
            with pytest.raises(ValueError):
                cached[...] = 0
        assert np.array_equal(model.pi_x(t, X0, 0), before)
    assert xi_hat.flags.writeable and xi.flags.writeable


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


def test_renormalised_model_matches_renormalizer(setup):
    """M^R = hat(M)^R R: Model(prep=R).interp(t) equals the sum of
    c_s Model().interp(s) over Renormalizer(R).apply(t) on every member
    of the numeric2d rule sector at maxEdges 7 / maxOmega 5.  The builtin
    three-edge sector is too small for this check: a model that skipped
    R inside kernel arguments would pass on it."""
    _s, hopf, ctx, xi, hf, _m = setup
    sector = builtin_sector("numeric2d", maxEdges=7, maxOmega=5)
    members = sector.members()
    assert len(members) == 29
    plain = Model(sector, hopf, ctx, xi, hf)
    rng = random.Random(5)
    for _ in range(3):
        values = {t: F(rng.randint(-20, 20), rng.randint(1, 9))
                  for t in negative_basis(sector)}
        R = RcMap(CounterTerms(values), hopf, sector, strict_sector=False)
        model = Model(sector, hopf, ctx, xi, hf, prep=R)
        M = Renormalizer(R)
        for t in members:
            expect = np.zeros(ctx.grid.sizes)
            for s, c in M.apply(t):
                expect += float(c) * plain.interp(s)
            assert relative_error(model.interp(t), expect) <= 1e-13


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
        got = g_recentered(model, X(e), X0, Y0, F(0))
        assert abs(got - (yc[j] - xc[j])) < 1e-14


def test_derivative_identity(setup):
    sector, hopf, ctx, xi, hf, _m = setup
    for t in sector.basis_o:
        err = check_derivative_identity(sector, hopf, ctx, xi, hf, t,
                                        X0, EPS)
        assert err < 1e-12


def test_derivative_memo_is_not_mutated(setup):
    """Sector.derive hands every caller the same LinComb per tree; the
    preparation checks and the derivative identity only read it."""
    sector, hopf, ctx, xi, hf, _m = setup
    rng = random.Random(11)
    for _ in range(3):
        values = {t: F(rng.randint(-20, 20), rng.randint(1, 9))
                  for t in negative_basis(sector)}
        R = RcMap(CounterTerms(values), hopf, sector)
        assert verify_preparation(R, sector, hopf).ok
    t = sector.basis_o[-1]
    assert check_derivative_identity(sector, hopf, ctx, xi, hf, t, X0,
                                     EPS) < 1e-12
    for t in sector.basis:
        assert sector.derive(t) == _derive(t)
    for t in sector.dot_basis:
        with pytest.raises(ValueError):
            sector.derive(t)
    for t, d in sector._derivatives.items():
        assert d == _derive(t)


def test_model_from_spectrum_matches_field(setup):
    """A model handed the noise spectrum agrees with one handed the field
    it stands for, on both recentering routes."""
    sector, hopf, ctx, _xi, hf, _m = setup
    xi_hat = ctx.grid.rfft(white_noise(ctx.grid, 33, 0)) \
        * ctx.mollify_multiplier(3)
    spec = Model(sector, hopf, ctx, h=hf, eps=EPS, xi_hat=xi_hat)
    field = Model(sector, hopf, ctx, ctx.grid.irfft(xi_hat), hf, eps=EPS)
    for t in sector.members():
        for x in (X0, (0, 0)):
            for invp in (F(0), F(1, 10)):
                assert relative_error(spec.pi_x(t, x, invp),
                                      field.pi_x(t, x, invp)) <= 1e-13
                assert relative_error(spec.pi_x_hat(t, x, invp),
                                      field.pi_x_hat(t, x, invp)) <= 1e-13
    # the noise spectrum is xi_hat itself, seen through a read-only view
    # that leaves the caller's own array writable
    view = spec.spectrum(noise(2))
    assert view.base is xi_hat and np.array_equal(view, xi_hat)
    assert not view.flags.writeable and xi_hat.flags.writeable


def test_noise_spectrum_follows_the_preparation_map(setup):
    """The given spectrum stands for the noise only while the preparation
    map leaves the noise alone; a map that rescales it is honoured."""
    sector, hopf, ctx, _xi, _hf, _m = setup
    xi_hat = ctx.grid.rfft(white_noise(ctx.grid, 34, 0)) \
        * ctx.mollify_multiplier(3)
    prep = DictPreparationMap({noise(2): LinComb.single(noise(2), 3)})
    spec = Model(sector, hopf, ctx, xi_hat=xi_hat, prep=prep)
    field = Model(sector, hopf, ctx, ctx.grid.irfft(xi_hat), prep=prep)
    tau2 = parse("(O() K(O()))", dim=2)
    assert relative_error(spec.pi_x(tau2, X0, F(0)),
                          field.pi_x(tau2, X0, F(0))) <= 1e-13
    assert spec.spectrum(noise(2)) is not xi_hat


def test_model_takes_exactly_one_noise(setup):
    sector, hopf, ctx, xi, _hf, _m = setup
    with pytest.raises(ValueError):
        Model(sector, hopf, ctx, xi, xi_hat=ctx.grid.rfft(xi))
    with pytest.raises(ValueError):
        Model(sector, hopf, ctx)


def test_qnorm_series_unit(setup):
    _s, _h, _c, _xi, _hf, model = setup
    ts = [2.0 ** (-j) for j in (6, 4, 2)]
    raw, weighted = qnorm_series(model, unit(2), [X0, Y0], ts, F(0))
    assert np.allclose(raw, 1.0, atol=1e-13)
    assert np.allclose(weighted, 1.0, atol=1e-13)


# spectral point reads against full inverse transforms --------------------

def _heat_full(ctx, t):
    """exp(t P) on the full fftfreq grid, for the complex round trip."""
    return np.exp(-t * sum(l ** 2 for l in freq_mesh(ctx.grid)))


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
    """The Taylor-subtraction route never uses the phased spectral read,
    so the route check compares two ways of reading point values."""
    sector, hopf, ctx, xi, hf, _m = setup

    def refuse(*_a):
        raise AssertionError("pi_x_hat used the phased read")
    for name in ("phased", "phased_point"):
        monkeypatch.setattr(OperatorContext, name, refuse)
    model = Model(sector, hopf, ctx, xi, hf, eps=EPS)
    for t in sector.members():
        for invp in (F(0), F(1, 20), F(1, 2)):
            model.pi_x_hat(t, X0, invp)
    assert model._kf2


def test_primary_route_reads_spectra(setup, monkeypatch):
    """The coproduct route never reads a field against a reflected
    kernel: that read belongs to the oracle."""
    sector, hopf, ctx, xi, hf, _m = setup

    def refuse(*_a):
        raise AssertionError("pi_x used the reflected-kernel read")
    for name in ("kernel_point", "kernel_field"):
        monkeypatch.setattr(OperatorContext, name, refuse)
    model = Model(sector, hopf, ctx, xi, hf, eps=EPS)
    for t in sector.members():
        for invp in (F(0), F(1, 20), F(1, 2)):
            model.pi_x(t, X0, invp)
    assert model._kf1


def test_taylor_coefficients_cost_no_transform(monkeypatch):
    """On a warm pam3d model, pi_x_hat at a new base point transforms
    only for the base kernel field of each K edge (one round trip each);
    its Taylor coefficients are dot products, cached as floats."""
    sector = builtin_sector("pam3d")
    hopf = Hopf(sector.params)
    grid = GridSpec((16, 16, 16), (2 * np.pi,) * 3, (1.0,) * 3)
    ctx = OperatorContext(grid, fourth_order_op(3), QuadratureSpec())
    model = Model(sector, hopf, ctx, smooth_field(grid, 5, 0, 0.7),
                  smooth_field(grid, 5, 1, 0.7), eps=EPS)
    invp = F(1, 5)
    for t in sector.members():  # warm the kernel fields
        model.pi_x_hat(t, (1, 2, 3), invp)
    calls = []
    for name in ("rfftn", "irfftn"):
        original = getattr(np.fft, name)

        def counted(*a, _f=original, _name=name, **k):
            calls.append(_name)
            return _f(*a, **k)
        monkeypatch.setattr(np.fft, name, counted)
    before_pl, before_kf = len(model._hat2_pl), len(model._kf2)
    for t in sector.members():
        model.pi_x_hat(t, (9, 4, 14), invp)
    k_edges = sum(key[0] == K for key in list(model._hat2_pl)[before_pl:])
    assert len(model._kf2) > before_kf  # Taylor coefficients were read
    assert sorted(calls) == ["irfftn"] * k_edges + ["rfftn"] * k_edges
    assert all(type(v) is float for v in model._kf2.values())


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
