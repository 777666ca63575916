"""Acceptance suite: one test per acceptance criterion.

Run ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
criterion.  The symbolic criteria are exact rational checks; the numeric
criteria run the grid pipelines at the stated tolerances."""

import json
from fractions import Fraction as F

import numpy as np
import pytest

from ristruct.analytic import mc
from ristruct.analytic.checks import (check_comparison,
                                      check_derivative_identity,
                                      check_route_equivalence)
from ristruct.analytic.grid import (GridSpec, OperatorContext,
                                    QuadratureSpec, fourth_order_op,
                                    second_order_op)
from ristruct.analytic.model import Model
from ristruct.analytic.noise import smooth_field
from ristruct.hopf import Hopf
from ristruct.renorm import (CounterTerms, RcMap, negative_basis,
                             verify_preparation)
from ristruct.sector import check_triangular
from ristruct.trees import (K, OMEGA, Tree, dot_noise, noise, parse,
                            plant_tree, unit)

from reference import builtin_sector

EPS = F(1, 100)


@pytest.fixture(scope="module")
def sector3():
    return builtin_sector("pam3d")


@pytest.fixture(scope="module")
def hopf3(sector3):
    return Hopf(sector3.params)


@pytest.fixture(scope="module")
def model3(sector3, hopf3):
    grid = GridSpec((32, 32, 32), (2 * np.pi,) * 3, (1.0,) * 3)
    ctx = OperatorContext(grid, fourth_order_op(3), QuadratureSpec())
    xi = smooth_field(grid, 31, 0, 0.7)
    h = smooth_field(grid, 31, 1, 0.7)
    return ctx, xi, h, Model(sector3, hopf3, ctx, xi, h, eps=EPS)


@pytest.fixture(scope="module")
def ctx2():
    grid = GridSpec((128, 128), (2 * np.pi, 2 * np.pi), (1.0, 1.0))
    return OperatorContext(grid, second_order_op(2), QuadratureSpec())


def test_criterion_01_coproduct_oracle(sector3, hopf3):
    """Graphical and recursive coproducts agree exactly on every tree of
    the three-dimensional sector (all have at most 3 noise edges)."""
    assert all(t.omega_count() <= 3 for t in sector3.basis_o)
    for t in sector3.members():
        for eps, invp in ((EPS, F(0)), (EPS, F(1, 5)), (EPS, F(1, 3)),
                          (EPS, F(1, 2)), (F(1, 10), F(0))):
            assert hopf3.coproduct(t, eps, invp) \
                == hopf3.coproduct_graphical(t, eps, invp)


def test_criterion_02_worked_coproduct_threshold(hopf3):
    """The displayed single-H tree coproduct has exactly the published
    term structure on both sides of the threshold p = 6/(1+2*eps).

    Sign convention: the recursive normalization used here produces the
    same term sets with all coefficients +1 where the display carries
    explicit minus signs in front of the non-leading terms."""
    t = parse("(O() K(H()))", dim=3)
    for eps in (F(0), F(1, 10)):
        threshold = F(6, 1 + 2 * eps)
        above = 1 / (threshold + 1)
        below = 1 / (threshold - 1)
        two = {
            (t, unit(3)),
            (noise(3), plant_tree(K, (0, 0, 0), dot_noise(3))),
        }
        cop_above = hopf3.coproduct(t, eps, above)
        assert set(cop_above.terms) == two
        assert all(abs(c) == 1 for c in cop_above.terms.values())
        extra = set()
        for j in range(3):
            e = tuple(1 if i == j else 0 for i in range(3))
            extra.add((Tree(e, ((OMEGA, (0, 0, 0), unit(3)),)),
                       plant_tree(K, e, dot_noise(3))))
        cop_below = hopf3.coproduct(t, eps, below)
        assert set(cop_below.terms) == two | extra
        assert all(abs(c) == 1 for c in cop_below.terms.values())


def test_criterion_03_hopf_suite(sector3, hopf3):
    """Coassociativity of the positive coproduct, the comodule identity
    and the antipode convolution identity hold exactly."""
    for invp in (F(0), F(1, 5)):
        for g in sector3.w_plus_generators(EPS, invp):
            assert hopf3.coassociativity_plus_check(g, EPS, invp)
            assert hopf3.convolution_check(g, EPS, invp)
        for t in sector3.members():
            assert hopf3.comodule_check(t, EPS, invp)


def test_criterion_04_triangularity(sector3, hopf3):
    """Every non-leading coproduct term strictly precedes, term by
    term, for every sector tree."""
    report = check_triangular(sector3, hopf3, EPS, F(0))
    assert report.ok, report.failures


def test_criterion_05_filtration(sector3):
    """The generated filtration levels reproduce the displayed spaces:
    V_i adds the noise trees in order, W_i pairs the previous level with
    the derivative trees."""
    o = noise(3)
    dot = dot_noise(3)
    chain2 = parse("(O() K(O()))", dim=3)
    wide = parse("(O() K(O()) K(O()))", dim=3)
    polys = set(sector3.polys)

    def v(i):
        return set(sector3.basis_prefix(i))

    def w(i):
        return set(sector3.basis_prefix(i - 1)) | set(sector3.dot_prefix(i))

    assert v(1) == polys | {o}
    assert v(2) == polys | {o, chain2}
    assert v(3) == polys | {o, chain2, wide}
    assert w(1) == polys | {dot}
    assert w(2) == polys | {o, dot,
                            parse("(O() K(H()))", dim=3),
                            parse("(H() K(O()))", dim=3)}
    assert w(3) == polys | {o, chain2, dot,
                            parse("(O() K(H()))", dim=3),
                            parse("(H() K(O()))", dim=3),
                            parse("(O() K(O()) K(H()))", dim=3),
                            parse("(H() K(O()) K(O()))", dim=3)}


def test_criterion_06_preparation_axioms():
    """verify_preparation passes for 20 random admissible counterterm
    choices (exact checks of all five axioms)."""
    import random
    sector = builtin_sector("numeric2d", maxOmega=4, maxEdges=5)
    hopf = Hopf(sector.params)
    rng = random.Random(2024)
    for _ in range(20):
        values = {t: F(rng.randint(-50, 50), rng.randint(1, 20))
                  for t in negative_basis(sector)}
        R = RcMap(CounterTerms(values), hopf, sector,
                  strict_sector=False)
        report = verify_preparation(R, sector, hopf)
        assert report.ok, report.failures


def test_criterion_07_comparison_formula(sector3, model3):
    """The cross-integrability comparison identity holds to 1e-9 for
    every derivative tree at each integrability cell."""
    _ctx, _xi, _h, model = model3
    bounds = [F(1, 2)] + sorted((1 / F(p) for p in model.phase_points()),
                                reverse=True) + [F(0)]
    cells = [(a + b) / 2 for a, b in zip(bounds, bounds[1:])]
    x = (10, 7, 21)
    worst = 0.0
    for t in sector3.dot_basis:
        for invp in cells:
            worst = max(worst, check_comparison(model, t, x, invp))
    assert worst <= 1e-9, worst


def test_criterion_08_derivative_identity(sector3, hopf3, model3):
    """The noise derivative of the interpretation matches the
    interpretation of the relabeled trees to 1e-9."""
    ctx, xi, h, _model = model3
    x = (10, 7, 21)
    worst = 0.0
    for t in sector3.basis_o:
        assert t.omega_count() <= 3
        worst = max(worst, check_derivative_identity(
            sector3, hopf3, ctx, xi, h, t, x, EPS))
    assert worst <= 1e-9, worst


def test_criterion_09_scaling_exponent():
    """For mollified 2D white noise on a 256^2 grid the fitted slope of
    the heat-smoothed noise norm lies within 0.1 of r0/ell."""
    sector = builtin_sector("numeric2d")
    hopf = Hopf(sector.params)
    grid = GridSpec((256, 256), (2 * np.pi, 2 * np.pi), (1.0, 1.0))
    ctx = OperatorContext(grid, second_order_op(2), QuadratureSpec())
    t_values = [2.0 ** (-j) for j in range(10, 1, -1)]
    series = mc.scaling_ensemble(sector, hopf, ctx, noise(2), 8, 64, 90,
                                 t_values, [(0, 0)])
    slope, lo, hi = mc.scaling_fit(t_values, series, seed=90)
    expected = float(sector.params.r0 / sector.params.ell)
    assert lo <= slope <= hi
    assert abs(slope - expected) <= 0.1, (slope, expected)


def test_criterion_10_bphz_divergence_and_renormalization(ctx2):
    """The naive constant of the 2-noise tree shows the log-divergence
    signature across mollification levels, and the solved counterterm
    re-centers it to zero within statistical error (N = 256)."""
    sector = builtin_sector("numeric2d")
    hopf = Hopf(sector.params)
    tau2 = parse("(O() K(O()))", dim=2)
    from ristruct.renorm import IdentityMap
    prep = IdentityMap()
    n_pairs = 96
    per_level = {n: mc.constant_samples(sector, hopf, ctx2, prep, tau2,
                                        n, n_pairs, 7)
                 for n in (2, 3, 4, 5)}
    diffs = {n: per_level[n] - per_level[n - 1] for n in (3, 4, 5)}
    stats = {n: mc.mean_stderr(d) for n, d in diffs.items()}
    d4, se4 = stats[4]
    d5, se5 = stats[5]
    # successive level differences stabilize ...
    assert abs(d5 - d4) <= 3 * (se4 + se5), stats
    # ... at a nonzero value: the divergence is real
    assert abs(d5) > 3 * se5, stats

    c, info = mc.solve_bphz_c(sector, hopf, ctx2, level=4, n_samples=256,
                              seed=7)
    prep = RcMap(CounterTerms(dict(c.values)), hopf, sector)
    fresh = mc.constant_samples(sector, hopf, ctx2, prep, tau2, 4, 256,
                                7000)
    mean, stderr = mc.mean_stderr(fresh)
    # the solved counterterm carries its own statistical error, which
    # propagates into the fresh estimate: compare against the combined one
    se_solve = info[tau2]["stderr"]
    combined = float(np.hypot(stderr, se_solve))
    assert abs(mean) <= 3 * combined, (mean, stderr, se_solve)


def test_criterion_11_route_equivalence(sector3, model3):
    """Coproduct-paired and multiplicative-factorization recentering
    agree to 1e-10 on all sector trees, for the naive 3D model and for
    a renormalized 2D model."""
    _ctx, _xi, _h, model = model3
    x = (10, 7, 21)
    worst = 0.0
    for t in sector3.members():
        for invp in (F(0), F(1, 5), F(1, 2)):
            worst = max(worst, check_route_equivalence(model, t, x, invp))
    assert worst <= 1e-10, worst

    sector2 = builtin_sector("numeric2d")
    hopf2 = Hopf(sector2.params)
    grid = GridSpec((32, 32), (2 * np.pi, 2 * np.pi), (1.0, 1.0))
    ctx = OperatorContext(grid, second_order_op(2), QuadratureSpec())
    xi = smooth_field(grid, 41, 0, 0.7)
    h = smooth_field(grid, 41, 1, 0.7)
    tau2 = parse("(O() K(O()))", dim=2)
    prep = RcMap(CounterTerms({tau2: F(-1, 3)}), hopf2, sector2)
    model2 = Model(sector2, hopf2, ctx, xi, h, eps=EPS, prep=prep)
    worst = 0.0
    for t in sector2.members():
        for invp in (F(0), F(1, 3), F(1, 2)):
            worst = max(worst, check_route_equivalence(model2, t, (5, 9),
                                                       invp))
    assert worst <= 1e-10, worst


def test_criterion_12_determinism(capsys, tmp_path):
    """Reduced runs of the numeric pipelines are byte-identical when
    repeated with the same configuration."""
    from ristruct.cli import main

    base = {"rule": "numeric2d", "grid": {"sizes": [32, 32]},
            "noise": {"kind": "smooth", "scale": 0.7}, "seed": 7,
            "eps": "1/100", "basePoints": [[10, 7]]}
    noisy = {"rule": "numeric2d", "grid": {"sizes": [32, 32]},
             "noise": {"kind": "white", "mollify": 3}, "seed": 3,
             "mollify": 3, "samples": 8,
             "tGrid": [2.0 ** (-j) for j in range(8, 2, -1)],
             "basePoints": [[0, 0]]}
    cfg_a = tmp_path / "a.json"
    cfg_a.write_text(json.dumps(base))
    cfg_b = tmp_path / "b.json"
    cfg_b.write_text(json.dumps(noisy))

    pipelines = [
        ["verify", "comparison", str(cfg_a)],
        ["verify", "dpidd", str(cfg_a)],
        ["bphz", "solve", str(cfg_b)],
        ["scaling", "fit", str(cfg_b), "(O())"],
    ]
    for k, argv in enumerate(pipelines):
        outputs = []
        for run in (0, 1):
            outdir = tmp_path / f"run{k}_{run}"
            code = main(["--out", str(outdir)] + argv)
            capsys.readouterr()
            assert code == 0
            outputs.append((
                (outdir / "output.json").read_bytes(),
                (outdir / "manifest.json").read_bytes()))
        assert outputs[0] == outputs[1], argv
