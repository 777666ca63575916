"""Recentered interpretations on the grid: dual routes, comparison
across integrability cells, recentering characters and norms."""

import ctypes
import gc
import math
import random
import resource
import weakref
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
from ristruct.analytic import model as model_module
from ristruct.analytic.model import Model
from ristruct.analytic.noise import smooth_field, white_noise
from ristruct.config import NUMERIC2D
from ristruct.grading import GenericityError
from ristruct.hopf import Hopf, _Truncation
from ristruct.renorm import (CounterTerms, IdentityMap, RcMap,
                             negative_basis, verify_preparation)
from ristruct.sector import _derive
from ristruct.trees import H, K, LinComb, X, noise, parse, unit

from reference import (DictPreparationMap, Renormalizer, builtin_sector,
                       check_comparison_reference,
                       check_derivative_identity_reference,
                       check_recentering_consistency, freq_mesh,
                       g_recentered, pi_x_reference,
                       poly_field_reference, relative_error_reference,
                       weighted_sum_reference)

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


def test_route_equivalence_on_h_edge_taylor_terms():
    """At s0 = -1/2, r0 = -3/4 a bare H edge has positive degree at
    p = 2, so there the oracle route subtracts the Taylor terms of h at
    the base point, which no other test reaches; the routes agree on
    every member at each of the three p."""
    sector = builtin_sector("numeric2d", params={
        **NUMERIC2D, "s0": "-1/2", "r0": "-3/4"})
    hopf = Hopf(sector.params)
    grid = GridSpec((32, 32), (2 * np.pi, 2 * np.pi), (1.0, 1.0))
    ctx = OperatorContext(grid, second_order_op(2), QuadratureSpec())
    model = Model(sector, hopf, ctx, smooth_field(grid, 5, 0, 0.7),
                  smooth_field(grid, 5, 1, 0.7), eps=EPS)
    assert hopf.planted_degree(H, (0, 0), unit(2), EPS, F(1, 2)) > 0
    assert len(sector.members()) == 8
    for t in sector.members():
        for invp in (F(0), F(1, 5), F(1, 2)):
            assert check_route_equivalence(model, t, (3, 3), invp) < 1e-10


def test_h_free_recentering_is_shared_across_p():
    """1/p enters a degree only through H edges, so an H-free tree is
    recentered once for every 1/p: the fields agree bit for bit, a sweep
    over new exponents adds no phased spectrum of an H-free tree, and a
    1/p outside [0, 1/2] is still refused."""
    sector = builtin_sector("pam3d")
    grid = GridSpec((16,) * 3, (2 * np.pi,) * 3, (1.0,) * 3)
    ctx = OperatorContext(grid, fourth_order_op(3), QuadratureSpec())
    model = Model(sector, Hopf(sector.params), ctx,
                  smooth_field(grid, 5, 0, 0.7),
                  smooth_field(grid, 5, 1, 0.7), eps=EPS)
    x = (3, 5, 7)
    h_free = [t for t in sector.members() if not t.h_count()]
    assert len(h_free) == 8
    for invp in (F(0), F(1, 5), F(1, 2)):
        for t in sector.members():
            model.pi_x(t, x, invp)
            model.pi_x_hat(t, x, invp)
    for t in h_free:
        for route in (model.pi_x, model.pi_x_hat):
            at_inf = route(t, x, F(0))
            for invp in (F(1, 5), F(1, 2)):
                assert np.array_equal(route(t, x, invp), at_inf)

    def h_free_spectra():
        return {key for key in model._kf1 if not key[0].h_count()}
    before = h_free_spectra()
    assert before
    for invp in (F(1, 3), F(1, 4), F(1, 10)):
        for t in sector.members():
            model.pi_x(t, x, invp)
    assert h_free_spectra() == before
    tau = parse("(O() K(O()))", dim=3)
    for invp in (F(1), F(-1, 5), F(3, 5)):
        for read in (model.pi_x, model.pi_x_hat, model.phased_spectrum):
            with pytest.raises(ValueError):
                read(tau, x, invp)


def test_planted_h_edge_keeps_its_p():
    """A planted H edge has degree r + |s|/p: at s0 = -1/2, r0 = -3/4 it
    is positive at p = 2, where recentering subtracts h(x), and negative
    at p = infinity, where it leaves h alone."""
    sector = builtin_sector("numeric2d", params={
        **NUMERIC2D, "s0": "-1/2", "r0": "-3/4"})
    grid = GridSpec((32, 32), (2 * np.pi, 2 * np.pi), (1.0, 1.0))
    ctx = OperatorContext(grid, second_order_op(2), QuadratureSpec())
    h = smooth_field(grid, 5, 1, 0.7)
    model = Model(sector, Hopf(sector.params), ctx,
                  smooth_field(grid, 5, 0, 0.7), h, eps=EPS)
    planted_h, x = parse("(H())", dim=2), (3, 3)
    assert abs(model.pi_x(planted_h, x, F(1, 2))[x]) < 1e-12
    assert abs(model.pi_x(planted_h, x, F(0))[x] - h[x]) < 1e-12


def test_h_recentering_is_shared_within_a_truncation_cell():
    """The truncations inside an H tree read 1/p only through the H
    edges' planted degrees, so the 1/p of one cell share one
    recentering: the fields agree bit for bit, and after the first 1/p
    of a cell neither route adds a cached field; a 1/p of another cell
    does."""
    sector = builtin_sector("pam3d")
    grid = GridSpec((16,) * 3, (2 * np.pi,) * 3, (1.0,) * 3)
    ctx = OperatorContext(grid, fourth_order_op(3), QuadratureSpec())
    model = Model(sector, Hopf(sector.params), ctx,
                  smooth_field(grid, 5, 0, 0.7),
                  smooth_field(grid, 5, 1, 0.7), eps=EPS)
    x = (3, 5, 7)

    def cached():
        return len(model._kf1), len(model._hat2_pl)
    cells = {"(H() K(O()))": (F(0), F(1, 5), F(1, 2), F(21, 50),
                              F(31, 120), F(13, 75)),
             "(O() K(H()))": (F(1, 5), F(1, 2), F(21, 50), F(31, 120),
                              F(13, 75))}
    for text, cell in cells.items():
        t = parse(text, dim=3)
        first = model.pi_x(t, x, cell[0]), model.pi_x_hat(t, x, cell[0])
        before = cached()
        for invp in cell[1:]:
            assert np.array_equal(model.pi_x(t, x, invp), first[0])
            assert np.array_equal(model.pi_x_hat(t, x, invp), first[1])
        assert cached() == before
    # at p = infinity the K edge of (O() K(H())) keeps only its
    # undifferentiated Taylor term: another cell
    t = parse("(O() K(H()))", dim=3)
    before = cached()
    assert not np.array_equal(model.pi_x(t, x, F(0)),
                              model.pi_x(t, x, F(1, 5)))
    model.pi_x_hat(t, x, F(0))
    assert cached()[1] > before[1]


def test_tie_point_is_its_own_cell():
    """At 1/p = 19/50 the bare H planted degree is exactly 0: its floor
    is that of 1/2 and 2/5, but the integral degree makes it a cell of
    its own, where f_x vanishes and recentering refuses the tie."""
    sector = builtin_sector("numeric2d", params={
        **NUMERIC2D, "s0": "-1/2", "r0": "-3/4"})
    grid = GridSpec((16, 16), (2 * np.pi, 2 * np.pi), (1.0, 1.0))
    ctx = OperatorContext(grid, second_order_op(2), QuadratureSpec())
    h = smooth_field(grid, 5, 1, 0.7)
    hopf = Hopf(sector.params)
    model = Model(sector, hopf, ctx, smooth_field(grid, 5, 0, 0.7), h,
                  eps=EPS)
    planted_h, x, zero = parse("(H())", dim=2), (3, 3), (0, 0)
    tie = F(19, 50)
    assert hopf.planted_degree(H, zero, unit(2), EPS, tie) == 0
    for invp in (F(1, 2), F(2, 5)):
        model.pi_x(planted_h, x, invp)
        assert model.f_x(H, zero, unit(2), x, invp) == h[x]
    assert model.f_x(H, zero, unit(2), x, tie) == 0.0
    with pytest.raises(GenericityError):
        model.pi_x(planted_h, x, tie)


def test_used_model_is_freed_by_reference_counting(setup, monkeypatch):
    """A model holds no reference cycle after every check has run on it,
    nor do the perturbed models of the derivative check: each is freed
    when its last reference goes, with the cyclic collector off, so a
    sweep over many models holds the caches of one at a time.  Nor do
    their Hopf and its truncations, which hold the truncation cells: they
    are freed once the models are."""
    sector, _h, ctx, xi, hf, _m = setup
    hopf = Hopf(sector.params)
    made = weakref.WeakSet()
    init = Model.__init__

    def tracked(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.add(self)
    monkeypatch.setattr(Model, "__init__", tracked)
    gc.disable()
    try:
        model = Model(sector, hopf, ctx, xi, hf, eps=EPS)
        for t in sector.members():
            for invp in (F(0), F(1, 5), F(1, 2)):
                check_route_equivalence(model, t, X0, invp)
        for t in sector.dot_basis:
            for invp in (F(1, 20), F(1, 5)):
                check_comparison(model, t, X0, invp)
        for t in sector.basis_o:
            check_derivative_identity(sector, hopf, ctx, xi, hf, t, X0,
                                      EPS)
        assert len(made) == 1
        freed = weakref.ref(model)
        del model
        assert freed() is None
        assert not made
        assert hopf._cells
        truncations = {id(tr) for tr in hopf._truncations.values()}
        freed = weakref.ref(hopf)
        del hopf
        assert freed() is None
        assert not [o for o in gc.get_objects() if isinstance(o, _Truncation)
                    and id(o) in truncations]
    finally:
        gc.enable()


def test_recentered_fields_are_fresh(setup):
    """Changing a returned recentered field changes no later result:
    pi_x and pi_x_hat hand out their remembered field read-only, so a
    write raises, and a writable copy of it may be changed freely."""
    sector, hopf, ctx, xi, hf, _m = setup
    t = parse("(O() K(H()))", dim=2)
    for model in (Model(sector, hopf, ctx, xi, hf, eps=EPS),
                  Model(sector, hopf, ctx, h=hf, eps=EPS,
                        xi_hat=ctx.grid.rfft(xi))):
        for route in (model.pi_x, model.pi_x_hat):
            f = route(t, X0, F(1, 10))
            first = f.copy()
            with pytest.raises(ValueError):
                f[...] = 0
            mine = np.array(f)
            mine[...] = 0
            assert np.array_equal(route(t, X0, F(1, 10)), first)


def test_repeated_request_matches_a_cold_model(setup):
    """A repeated recentering request, also at another 1/p of the same
    cell, is served the remembered field itself, which equals the field
    of a cold model on a fresh Hopf bit for bit."""
    sector, hopf, ctx, xi, hf, _m = setup
    model = Model(sector, hopf, ctx, xi, hf, eps=EPS)
    t = parse("(O() K(H()))", dim=2)
    a, b = F(1, 10), F(1, 9)
    assert model._cell(a, t) is model._cell(b, t)
    for route, slot in ((model.pi_x, "_pi_x_last"),
                        (model.pi_x_hat, "_pi_x_hat_last")):
        first = route(t, X0, a)
        kept = getattr(model, slot)
        again = [route(t, X0, a), route(t, X0, b)]
        assert getattr(model, slot) is kept
        for invp, got in zip((a, a, b), [first] + again):
            cold = Model(sector, Hopf(sector.params), ctx, xi, hf, eps=EPS)
            assert np.array_equal(got, getattr(cold, route.__name__)(
                t, X0, invp))
        assert all(f is kept[1] for f in [first] + again)


def test_each_route_remembers_one_field(setup):
    """Over a sweep of trees, points and 1/p, each route holds at most
    one field it formed per slot: pi_x holds two, the one in its slot
    for 1/p = 1/2 and the one in its other slot, and pi_x_hat holds
    one."""
    sector, hopf, ctx, xi, hf, _m = setup
    model = Model(sector, hopf, ctx, xi, hf, eps=EPS)
    slots = {"pi_x": ("_pi_x_last", "_pi_x_half"),
             "pi_x_hat": ("_pi_x_hat_last",)}
    formed = {name: [] for name in slots}
    for x in (X0, Y0):
        for t in sector.members():
            for invp in (F(1, 2), F(1, 5), F(0)):
                for name in slots:
                    out = getattr(model, name)(t, x, invp)
                    held = [getattr(model, slot)[1] for slot in slots[name]]
                    # a request is served from a slot, at 1/2 from either
                    assert any(f is out for f in held)
                    formed[name] += [weakref.ref(f) for f in held
                                     if f is not None]
    for name, refs in formed.items():
        alive = {id(r()) for r in refs if r() is not None}
        held = {id(getattr(model, slot)[1]) for slot in slots[name]}
        assert alive == held
        assert len(held) == len(slots[name])


def test_comparison_sweep_forms_the_half_field_once(setup, monkeypatch):
    """check_comparison reads pi_x(t, x, 1/2) in every cell it is asked
    at.  Over a sweep of the cells of one (tree, point), on a fresh model
    per tree, that field is formed by one weighted_sum call and then
    served from its slot, while the other slot takes the fields at the
    cell's 1/p.  Every field pi_x serves to the checks equals a cold
    model's on a fresh Hopf, bit for bit."""
    sector, _h, ctx, xi, hf, model = setup
    bounds = [F(1, 2)] + sorted((1 / F(p) for p in model.phase_points()),
                                reverse=True) + [F(0)]
    cells = [(a + b) / 2 for a, b in zip(bounds, bounds[1:])]
    summed, served = [], []
    real_sum, real_pi_x = model_module.weighted_sum, Model.pi_x

    def counted_sum(terms, sizes):
        summed.append(real_sum(terms, sizes))
        return summed[-1]

    def recorded_pi_x(self, t, x, invp):
        out = real_pi_x(self, t, x, invp)
        if not isinstance(invp, _Truncation):
            served.append((t, invp, out))
        return out
    monkeypatch.setattr(model_module, "weighted_sum", counted_sum)
    monkeypatch.setattr(Model, "pi_x", recorded_pi_x)
    sweeps = []
    for t in sector.dot_basis:
        fresh = Model(sector, Hopf(sector.params), ctx, xi, hf, eps=EPS)
        summed.clear()
        served.clear()
        for invp in cells:
            check_comparison(fresh, t, X0, invp)
        half = [out for s, invp, out in served if (s, invp) == (t, F(1, 2))]
        assert len(half) == len(cells)
        assert all(out is half[0] for out in half)
        assert sum(f is half[0] for f in summed) == 1
        sweeps.append(list(served))
    monkeypatch.undo()
    for served in sweeps:
        for t, invp, out in served:
            cold = Model(sector, Hopf(sector.params), ctx, xi, hf, eps=EPS)
            assert out.tobytes() == cold.pi_x(t, X0, invp).tobytes()


def test_comparison_sweep_order_is_free(setup):
    """The comparison checks over the integrability cells give the same
    errors, bit for bit, swept forward and in reverse on fresh models,
    each on a fresh Hopf, so that neither sweep reuses the truncation
    cells of the other."""
    sector, _h, ctx, xi, hf, model = setup
    bounds = [F(1, 2)] + sorted((1 / F(p) for p in model.phase_points()),
                                reverse=True) + [F(0)]
    cells = [(a + b) / 2 for a, b in zip(bounds, bounds[1:])]
    sweeps = []
    for order in (cells, cells[::-1]):
        fresh = Model(sector, Hopf(sector.params), ctx, xi, hf, eps=EPS)
        sweeps.append({(t, invp): check_comparison(fresh, t, X0, invp)
                       for t in sector.dot_basis for invp in order})
    assert sweeps[0] == sweeps[1]


def test_models_on_one_hopf_share_its_cells(setup):
    """The truncation cells live on the Hopf: a second model on it,
    asked at 1/p = 1/9, gets the truncation of 1/10, which another model
    asked first in that cell of (O() K(H())); 1/p = 0, another cell, and
    eps = 0 get their own.  On both routes each field equals, bit for
    bit, that of a model on a fresh Hopf asked at that 1/p first."""
    sector, _h, ctx, xi, hf, _m = setup
    t = parse("(O() K(H()))", dim=2)
    hopf = Hopf(sector.params)
    Model(sector, hopf, ctx, xi, hf, eps=EPS).pi_x(t, X0, F(1, 10))
    for eps, invp, stands in ((EPS, F(1, 9), F(1, 10)), (EPS, F(0), F(0)),
                              (F(0), F(1, 9), F(1, 9))):
        model = Model(sector, hopf, ctx, xi, hf, eps=eps)
        assert model._cell(invp, t) is hopf.truncation(eps, stands)
        for route in ("pi_x", "pi_x_hat"):
            cold = Model(sector, Hopf(sector.params), ctx, xi, hf, eps=eps)
            assert np.array_equal(getattr(model, route)(t, X0, invp),
                                  getattr(cold, route)(t, X0, invp))


def test_comparison_exponent_is_found_once_per_planted_tree(setup,
                                                            monkeypatch):
    """lambda_x finds the evaluation 1/p of a planted tree once per
    model, however many cells and base points ask for it."""
    sector, hopf, ctx, xi, hf, model = setup
    calls = []
    original = model_module.p_transition

    def counted(mu, *a):
        calls.append(mu)
        return original(mu, *a)
    monkeypatch.setattr(model_module, "p_transition", counted)
    bounds = [F(1, 2)] + sorted((1 / F(p) for p in model.phase_points()),
                                reverse=True) + [F(0)]
    cells = [(a + b) / 2 for a, b in zip(bounds, bounds[1:])]
    fresh = Model(sector, hopf, ctx, xi, hf, eps=EPS)
    for x in (X0, Y0):
        for t in sector.dot_basis:
            for invp in cells:
                check_comparison(fresh, t, x, invp)
    assert calls
    assert len(calls) == len(set(calls))


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
    kh = ctx.kernel_apply(hf, (0, 0))
    expect = (kh - model.at(kh, X0)) * xi
    got = model.pi_x(t, X0, F(1, 20))   # p = 20 above the crossing 12.5
    assert relative_error(got, expect) < 1e-12


def test_single_h_display_below_transition(setup):
    """Below the crossing the first-order kernel correction appears."""
    _s, _h, ctx, xi, hf, model = setup
    t = parse("(O() K(H()))", dim=2)
    kh = ctx.kernel_apply(hf, (0, 0))
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


def _derivative_check_builds(monkeypatch, args):
    """check_derivative_identity on args, with the models it builds
    counted: (its value, how many it built, whether all are freed)."""
    built = []
    init = Model.__init__

    def tracked(self, *a, **k):
        init(self, *a, **k)
        built.append(weakref.ref(self))
    with monkeypatch.context() as patch:
        patch.setattr(Model, "__init__", tracked)
        err = check_derivative_identity(*args)
    return err, len(built), all(r() is None for r in built)


def test_derivative_check_reads_through_the_live_model(setup, monkeypatch):
    """On the inputs of a live model the derivative check takes that model
    as its unperturbed side and builds only the deg perturbed models,
    which it frees; a str eps finds the same model.  Its value equals
    the cold reference, which builds its own models, bit for bit."""
    sector, hopf, ctx, xi, hf, model = setup
    for eps in (EPS, "1/100"):
        assert model_module.live_model(sector, hopf, ctx, xi, hf, eps) \
            is model
    for t in sector.basis_o:
        args = (sector, hopf, ctx, xi, hf, t, Y0, EPS)
        err, built, freed = _derivative_check_builds(monkeypatch, args)
        assert (built, freed) == (t.omega_count(), True)
        assert model._x == Y0  # the live model moved to the check's point
        assert err.hex() == check_derivative_identity_reference(*args).hex()


def test_derivative_check_refuses_other_models(setup, monkeypatch):
    """The lookup takes only a live model built on the caller's own xi
    and h, at the caller's eps, with no xi_hat and no preparation map.
    In each other case the check builds its own unperturbed model, deg
    + 1 models in all, frees them, and equals the cold reference bit for
    bit: a copy of xi, another h, another eps, a model with a
    preparation map, one given xi_hat, and one already freed."""
    sector, hopf, ctx, xi, hf, model = setup
    values = {t: F(1, 3) for t in negative_basis(sector)}
    prep = RcMap(CounterTerms(values), hopf, sector)
    xi_p, h_p, xi_s, h_s, xi_f, h_f = (f.copy() for f in (xi, hf) * 3)
    held = [Model(sector, hopf, ctx, xi_p, h_p, eps=EPS, prep=prep),
            Model(sector, hopf, ctx, h=h_s, eps=EPS,
                  xi_hat=ctx.grid.rfft(xi_s))]
    freed = weakref.ref(Model(sector, hopf, ctx, xi_f, h_f, eps=EPS))
    assert freed() is None
    cases = [(xi.copy(), hf, EPS), (xi, hf.copy(), EPS), (xi, hf, F(1, 50)),
             (xi_p, h_p, EPS), (xi_s, h_s, EPS), (xi_f, h_f, EPS)]
    for xi_c, h_c, eps in cases:
        assert model_module.live_model(sector, hopf, ctx, xi_c, h_c,
                                       eps) is None
        for t in sector.basis_o:
            args = (sector, hopf, ctx, xi_c, h_c, t, X0, eps)
            err, built, gone = _derivative_check_builds(monkeypatch, args)
            assert (built, gone) == (t.omega_count() + 1, True)
            assert err.hex() \
                == check_derivative_identity_reference(*args).hex()
    assert len(held) == 2  # alive throughout


def test_derivative_check_refuses_a_model_whose_inputs_changed(
        setup, monkeypatch):
    """An in-place write to xi or h after a model is built on them makes
    the lookup refuse that model, though its caches are warm: the check
    builds its own unperturbed model and equals the cold reference bit
    for bit.  A model built on the changed arrays is live in its place."""
    sector, hopf, ctx, xi, hf, _m = setup
    t = max(sector.basis_o, key=lambda s: s.omega_count())
    for changed in (0, 1):
        xi_c, h_c = xi.copy(), hf.copy()
        model = Model(sector, hopf, ctx, xi_c, h_c, eps=EPS)
        args = (sector, hopf, ctx, xi_c, h_c, t, X0, EPS)
        check_derivative_identity(*args)  # through the model, warming it
        (xi_c, h_c)[changed][3, 5] += 0.5
        assert model_module.live_model(sector, hopf, ctx, xi_c, h_c,
                                       EPS) is None
        err, built, gone = _derivative_check_builds(monkeypatch, args)
        assert (built, gone) == (t.omega_count() + 1, True)
        assert err.hex() == check_derivative_identity_reference(*args).hex()
        again = Model(sector, hopf, ctx, xi_c, h_c, eps=EPS)
        assert model_module.live_model(sector, hopf, ctx, xi_c, h_c,
                                       EPS) is again


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
    raw = qnorm_series(model, unit(2), [X0, Y0], ts, F(0))
    assert np.allclose(raw, 1.0, atol=1e-13)


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


def _count_kernel_points(monkeypatch) -> list:
    """Record every OperatorContext.kernel_point call from now on."""
    calls = []
    original = OperatorContext.kernel_point

    def counted(self, *a):
        calls.append(a)
        return original(self, *a)
    monkeypatch.setattr(OperatorContext, "kernel_point", counted)
    return calls


def test_oracle_route_reads_full_fields(setup, monkeypatch):
    """The Taylor-subtraction route never uses the phased spectral read,
    so the route check compares two ways of reading point values."""
    sector, hopf, ctx, xi, hf, _m = setup

    def refuse(*_a):
        raise AssertionError("pi_x_hat used the phased read")
    for name in ("phased", "phased_point"):
        monkeypatch.setattr(OperatorContext, name, refuse)
    reads = _count_kernel_points(monkeypatch)
    model = Model(sector, hopf, ctx, xi, hf, eps=EPS)
    for t in sector.members():
        for invp in (F(0), F(1, 20), F(1, 2)):
            model.pi_x_hat(t, X0, invp)
    assert reads


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
    its Taylor coefficients are dot products."""
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
    reads = _count_kernel_points(monkeypatch)
    for t in sector.members():
        model.pi_x_hat(t, (9, 4, 14), invp)
    # the planted fields of the first point are gone: those in the cache
    # are the ones this sweep formed
    k_edges = sum(key[0] == K for key in model._hat2_pl)
    assert reads  # Taylor coefficients were read
    assert sorted(calls) == ["irfftn"] * k_edges + ["rfftn"] * k_edges


def test_per_point_caches_hold_one_base_point():
    """The phased spectra and the oracle's planted fields are kept for
    the last base point only, and a point swept again after another gets
    every field bit for bit as it got it the first time."""
    sector, model = _pam3d_model()
    x0, x1 = (1, 2, 3), (9, 4, 14)

    def sweep(x):
        return [route(t, x, invp).copy() for t in sector.members()
                for invp in (F(0), F(1, 5), F(1, 2))
                for route in (model.pi_x, model.pi_x_hat)]
    first = sweep(x0)
    sweep(x1)
    assert model._kf1 and model._hat2_pl
    assert all(key[1] == x1 for key in model._kf1)
    assert all(key[3] == x1 for key in model._hat2_pl)
    again = sweep(x0)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(first, again))


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
        raw = qnorm_series(model, tree, points, ts, invp)
        for tv, norm in zip(ts, raw):
            vals = []
            for x in points:
                field = np.fft.ifftn(np.fft.fftn(model.pi_x(tree, x, invp))
                                     * _heat_full(ctx, tv)).real
                vals.append(abs(field[x]))
            expect = (max(vals) if p is None
                      else np.mean([v ** p for v in vals]) ** (1.0 / p))
            assert abs(norm - expect) <= 1e-12 * expect


# sums through one buffer against a new array per term ---------------------

def _pam3d_model():
    """The pam3d model on a 16^3 grid with smooth noise and h."""
    sector = builtin_sector("pam3d")
    grid = GridSpec((16,) * 3, (2 * np.pi,) * 3, (1.0,) * 3)
    ctx = OperatorContext(grid, fourth_order_op(3), QuadratureSpec())
    return sector, Model(sector, Hopf(sector.params), ctx,
                         smooth_field(grid, 5, 0, 0.7),
                         smooth_field(grid, 5, 1, 0.7), eps=EPS)


def test_relative_error_matches_the_reference_bit_for_bit():
    """relative_error reads max|a| as max(max a, -min a) and forms only
    a - b; it gives the value of the formula over |a|, |b| and |a - b|
    bit for bit: on random 32^3 fields, on equal fields (+0.0, also from
    -0.0 - 0.0), on zero fields (the 1e-300 floor) and with NaN or an
    infinity in either field."""
    rng = np.random.default_rng(3)
    shape = (32, 32, 32)
    zero = np.zeros(shape)
    cases, equal = [], [(zero, zero.copy()), (zero, -zero), (-zero, zero)]
    for scale in (1e-3, 1.0, 1e3):
        a = scale * rng.standard_normal(shape)
        cases += [(a, a + 1e-9 * rng.standard_normal(shape)),
                  (a, rng.standard_normal(shape)), (a, zero), (zero, a)]
        equal.append((a, a.copy()))
    broken = []
    for bad in (np.nan, np.inf, -np.inf):
        odd = a.copy()
        odd[1, 2, 3] = bad
        broken += [(odd, a), (a, odd), (odd, odd.copy())]
    with np.errstate(invalid="ignore"):
        for u, v in cases + equal + broken:
            assert relative_error(u, v).hex() \
                == relative_error_reference(u, v).hex()
        assert all(math.isnan(relative_error(u, v)) for u, v in broken)
    assert {relative_error(u, v).hex() for u, v in equal} == {"0x0.0p+0"}
    assert relative_error(zero, a) == relative_error(a, zero) == 1.0


def test_sums_match_the_new_array_per_term_references():
    """pi_x and check_comparison add their terms through one buffer; on
    the pam3d 16^3 smooth model they equal the sums that form a new
    array per term, bit for bit, over the members, 1/p in {0, 1/5, 1/2}
    and two base points; 1/5 and 21/50 are asked second in the cells of
    some trees, whose values are computed at the first 1/p.
    check_comparison hands its 1/p on as given, so a str or a float
    names the same point as the Fraction the reference converts it to."""
    sector, model = _pam3d_model()
    for x in ((3, 5, 7), (12, 0, 9)):
        for invp in (F(0), F(1, 5), F(1, 2), F(21, 50)):
            for t in sector.members():
                assert model.pi_x(t, x, invp).tobytes() \
                    == pi_x_reference(model, t, x, invp).tobytes()
                assert check_comparison(model, t, x, invp).hex() \
                    == check_comparison_reference(model, t, x, invp).hex()
        for spelled in ("1/5", 0.2, 0.5, "1/2", 0):
            for t in sector.dot_basis:
                assert check_comparison(model, t, x, spelled).hex() \
                    == check_comparison_reference(model, t, x, spelled).hex()
    hopf = model.hopf
    seconds = [(parse("(H() K(O()))", dim=3), F(1, 5), F(0)),
               (parse("(O() K(H()))", dim=3), F(21, 50), F(1, 2))]
    for t, second, first in seconds:
        assert model._cell(second, t) is hopf.truncation(EPS, first)


def test_weighted_sum_matches_the_zeros_first_reference():
    """weighted_sum starts from its first term, with + 0.0, and equals
    the sum begun from zeros bit for bit, signs of zero included: on
    fields holding +0.0, -0.0, NaN and both infinities, at weights 1.0,
    -1.0 and 0.5, with one term and with three.  The result is
    read-only, and no term is written."""
    rng = np.random.default_rng(11)
    shape = (4, 8)
    fields = []
    for special in (0.0, -0.0, np.nan, np.inf, -np.inf):
        f = rng.standard_normal(shape)
        f[::2, ::3] = special
        f[1, 1], f[2, 5] = 0.0, -0.0
        fields.append(f)
    weights = (1.0, -1.0, 0.5)
    cases = [[(f, w)] for f in fields for w in weights]
    for w in weights:
        for i in range(len(fields)):
            trio = [fields[i], fields[(i + 1) % 5], fields[(i + 3) % 5]]
            cases.append([(f, w2) for f, w2 in zip(trio, (w, -w, 0.5))])
            cases.append([(f, w) for f in trio])
    cases.append([])
    with np.errstate(invalid="ignore"):
        for terms in cases:
            before = [f.tobytes() for f, _w in terms]
            got = model_module.weighted_sum(iter(terms), shape)
            assert got.tobytes() == weighted_sum_reference(
                terms, shape).tobytes()
            assert got.shape == shape and not got.flags.writeable
            assert [f.tobytes() for f, _w in terms] == before


@pytest.mark.parametrize("d", [2, 3])
def test_poly_field_matches_the_mesh_product(d):
    """poly_field builds y^k and (y - x)^k from the axis arrays; each
    equals, bit for bit, the product of powers of the full coordinate
    meshes, for k = 0, one-axis, two-axis and |k| = 3, at base points
    with coordinates zero and nonzero.  The field is read-only."""
    if d == 2:
        sector, grid = builtin_sector("numeric2d"), GridSpec(
            (32, 16), (2 * np.pi, 3.0), (1.0, 1.0))
        op = second_order_op(2)
        ks = [(0, 0), (1, 0), (0, 2), (1, 1), (2, 1), (0, 3), (3, 0)]
    else:
        sector, grid = builtin_sector("pam3d"), GridSpec(
            (16, 32, 16), (2 * np.pi, 2 * np.pi, 1.5), (1.0, 1.0, 1.0))
        op = fourth_order_op(3)
        ks = [(0, 0, 0), (0, 1, 0), (0, 0, 2), (1, 0, 1), (0, 2, 1),
              (1, 1, 1), (3, 0, 0), (0, 1, 2)]
    ctx = OperatorContext(grid, op, QuadratureSpec())
    model = Model(sector, Hopf(sector.params), ctx,
                  smooth_field(grid, 3, 0, 0.7), eps=EPS)
    for k in ks:
        for x in (None, (0,) * d, (5, 0, 11)[:d], (15, 3, 9)[:d]):
            got = model.poly_field(k, x)
            assert got.tobytes() == poly_field_reference(
                model, k, x).tobytes()
            assert got.shape == grid.sizes and not got.flags.writeable


def test_derivative_check_matches_the_new_array_per_term_reference():
    """check_derivative_identity sums through weighted_sum; on the pam3d
    16^3 smooth model it equals the sums that scale a new array per term,
    bit for bit, over the basis trees at two base points."""
    sector, model = _pam3d_model()
    for x in ((3, 5, 7), (12, 0, 9)):
        for t in sector.basis_o:
            args = (sector, model.hopf, model.ctx, model.xi, model.h, t, x,
                    EPS)
            assert check_derivative_identity(*args).hex() \
                == check_derivative_identity_reference(*args).hex()


def test_one_truncation_lookup_per_recentering_call(monkeypatch):
    """pi_x and pi_x_hat look their 1/p up once per call, on a cold model
    and a warm one: the recursion below them hands the truncation down."""
    sector, model = _pam3d_model()
    members = sector.members()
    calls = []
    original = Hopf.truncation

    def counted(self, eps, invp):
        calls.append(invp)
        return original(self, eps, invp)
    monkeypatch.setattr(Hopf, "truncation", counted)
    for _sweep in ("cold", "warm"):
        for x in ((3, 5, 7), (12, 0, 9)):
            for t in members:
                for invp in (F(0), F(1, 5), F(1, 2)):
                    for route in (model.pi_x, model.pi_x_hat):
                        calls.clear()
                        route(t, x, invp)
                        assert calls == [invp]


def _has_mallopt() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "mallopt")
    except (OSError, TypeError):
        return False


@pytest.mark.skipif(not _has_mallopt(), reason="no mallopt in the C library")
def test_cold_models_reuse_freed_pages():
    """A cold pam3d model on 32^3 takes one pi_x and is dropped, five
    times over: after the first, each build finds its field pages freed
    by the one before still in the process.  With glibc's default
    thresholds each build faulted about 560 pages in afresh."""
    sector = builtin_sector("pam3d")
    hopf = Hopf(sector.params)
    grid = GridSpec((32,) * 3, (2 * np.pi,) * 3, (1.0,) * 3)
    ctx = OperatorContext(grid, fourth_order_op(3), QuadratureSpec())
    xi, h = smooth_field(grid, 5, 0, 0.7), smooth_field(grid, 5, 1, 0.7)
    t = parse("(O() K(O() K(O())))", dim=3)
    faults = []
    for _build in range(5):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        Model(sector, hopf, ctx, xi, h, eps=EPS).pi_x(t, (3, 5, 7), F(0))
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                      - before)
    assert max(faults[1:]) < 64, faults
