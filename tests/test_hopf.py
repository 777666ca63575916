"""Coproducts, Delta+, the antipode and their identities."""

from fractions import Fraction as F
from functools import cache

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from ristruct.config import PAM3D
from ristruct.grading import GenericityError, Params, degree
from ristruct.hopf import Hopf, pair_product
from ristruct.trees import (H, K, OMEGA, Tree, X, dot_noise, format_tree,
                            mi_zero, noise, parse, plant_tree, unit)

from reference import builtin_sector, lincomb
from test_trees import trees


@pytest.fixture(scope="module")
def hopf():
    return Hopf(Params.from_dict(PAM3D))


@pytest.fixture(scope="module")
def sector():
    return builtin_sector("pam3d")


def test_poly_coproduct_binomial(hopf):
    cop = hopf.coproduct(X((1, 1, 0)), 0, 0)
    expect = lincomb([
        ((unit(3), X((1, 1, 0))), 1),
        ((X((1, 0, 0)), X((0, 1, 0))), 1),
        ((X((0, 1, 0)), X((1, 0, 0))), 1),
        ((X((1, 1, 0)), unit(3)), 1),
    ])
    assert cop == expect


def test_threshold_example_above(hopf):
    """For p above the crossing 6/(1+2eps) the coproduct has two terms."""
    t = parse("(O() K(H()))", dim=3)
    cop = hopf.coproduct(t, 0, F(1, 7))
    expect = lincomb([
        ((t, unit(3)), 1),
        ((noise(3), plant_tree(K, (0, 0, 0), dot_noise(3))), 1),
    ])
    assert cop == expect


def test_threshold_example_below(hopf):
    """Below the crossing three derivative-decorated terms appear."""
    t = parse("(O() K(H()))", dim=3)
    cop = hopf.coproduct(t, 0, F(1, 5))
    expect = lincomb([
        ((t, unit(3)), 1),
        ((noise(3), plant_tree(K, (0, 0, 0), dot_noise(3))), 1),
    ])
    for j in range(3):
        e = tuple(1 if i == j else 0 for i in range(3))
        decorated_noise = Tree(e, ((OMEGA, (0, 0, 0), unit(3)),))
        expect.add((decorated_noise, plant_tree(K, e, dot_noise(3))), 1)
    assert cop == expect


def test_coproduct_constant_within_cell(hopf):
    """The truncation is a step function of p between phase points."""
    t = parse("(O() K(H()))", dim=3)
    assert hopf.coproduct(t, 0, F(1, 7)) == hopf.coproduct(t, 0, F(1, 8))
    assert hopf.coproduct(t, 0, F(1, 5)) == hopf.coproduct(t, 0, F(1, 4))
    assert hopf.coproduct(t, 0, F(1, 7)) != hopf.coproduct(t, 0, F(1, 5))


def test_genericity_refusal_at_threshold(hopf):
    t = parse("(O() K(H()))", dim=3)
    with pytest.raises(GenericityError):
        hopf.coproduct(t, 0, F(1, 6))


def test_genericity_refusal_in_antipode(hopf):
    """A planted factor of degree exactly zero stops the S+ recursion."""
    k_noise = plant_tree(K, (0, 0, 0), noise(3))   # degree 1/2 - eps
    with pytest.raises(GenericityError):
        hopf.antipode(k_noise, F(1, 2), 0)
    with pytest.raises(GenericityError):               # -3/2 + 3/p
        hopf.antipode(dot_noise(3), 0, F(1, 2))
    assert hopf.antipode(k_noise, F(1, 100), 0)


def _anisotropic():
    """Scaling (1/2, 3/2): the planted noise has degree 8/5 - eps."""
    from ristruct.grading import Params
    return Hopf(Params(d=2, scaling=(F(1, 2), F(3, 2)), r0=F(-2, 5),
                       beta0=F(2), ell=F(4), ell1=F(1), s0=F(-1)))


def test_genericity_ties_with_fractional_scaling():
    """Ties at eps = 1/10 and nonzero extra decorations l = (3, 0) and
    (0, 1), where |l|_s = 3/2."""
    h = _anisotropic()
    k_noise = plant_tree(K, (0, 0), noise(2))
    t = parse("(O() K(O()))", dim=2)
    assert h.planted_degree(K, (0, 0), noise(2), F(1, 7), 0) \
        == F(8, 5) - F(1, 7)
    with pytest.raises(GenericityError):
        h.coproduct(t, F(1, 10), 0)
    with pytest.raises(GenericityError):
        h.antipode(k_noise, F(1, 10), 0)
    for eps in (F(1, 20), F(1, 5)):
        assert h.coproduct(t, eps, 0) == h.coproduct_graphical(t, eps, 0)
        assert h.convolution_check(k_noise, eps, 0)
    # below the tie (3, 0) and (0, 1) join the decorations (0, 0)..(2, 0)
    assert len(h.coproduct(t, F(1, 20), 0)) \
        == len(h.coproduct(t, F(1, 5), 0)) + 2


def _assert_integer_degrees(h, trees, points):
    """Hopf.degree_num is M times grading.degree at each (eps, 1/p), and
    the planted degree of a planted tree is its degree."""
    for eps, invp in points:
        tr = h.truncation(eps, invp)
        for t in trees:
            deg = degree(t, h.params, eps, invp)
            assert F(h.degree_num(t, tr), tr.M) == deg
            if t.is_planted():
                (lab, k, sub), = t.children
                assert h.planted_degree(lab, k, sub, eps, invp) == deg


def test_integer_degree_matches_grading_pam3d_9_6():
    s = builtin_sector("pam3d", maxOmega=6, maxEdges=9)
    h = Hopf(s.params)
    trees = set(s.members())
    for invp in (F(0), F(1, 5)):
        trees.update(s.w_plus_generators(F(1, 100), invp))
    _assert_integer_degrees(h, trees, ((F(1, 100), F(0)),
                                       (F(1, 100), F(1, 5)),
                                       (F(0), F(1, 2))))


def test_integer_degree_with_fractional_scaling():
    h = _anisotropic()
    trees = [parse(s, dim=2) for s in (
        "(O())", "(H())", "(O() K(O()))", "(n=(1,0) O() K^(0,1)(O()))",
        "(K^(3,0)(O()))", "(K^(0,1)(H^(1,1)() O()))",
        "(n=(0,2) O() H() K^(1,1)(O() K^(2,0)(H())))")]
    trees += [plant_tree(K, (0, 0), t) for t in trees]
    _assert_integer_degrees(h, trees, ((F(1, 7), F(0)), (F(1, 10), F(0)),
                                       (F(1, 20), F(1, 3)),
                                       (F(0), F(1, 2))))


def test_weight_memo_belongs_to_one_hopf():
    """Two Hopfs on the pam3d parameters, with scalings (1, 1, 1) and
    (1, 1, 1/2), asked in turn for the same decorated plantings: each
    planted degree is that Hopf's own, so neither reads the other's w.k."""
    eps, invp = F(1, 100), F(1, 5)
    hopfs = [Hopf(Params.from_dict(dict(PAM3D, scaling=s)))
             for s in (["1", "1", "1"], ["1", "1", "1/2"])]
    plantings = [(H, unit(3))] + [(K, s) for s in (
        noise(3), dot_noise(3), parse("(O() K(H()))", dim=3))]
    for lab, sub in plantings:
        for k in ((0, 0, 0), (1, 0, 0), (0, 1, 1), (2, 0, 1), (0, 0, 2)):
            for h in hopfs:
                tr = h.truncation(eps, invp)
                assert h._planted_num(lab, k, sub, tr) == tr.M * degree(
                    plant_tree(lab, k, sub), h.params, eps, invp)


def test_truncation_resolves_equal_points_to_one_memo(hopf):
    t = parse("(O() K(H()))", dim=3)
    cop = hopf.coproduct(t, 0, 0)
    assert hopf.coproduct(t, F(0), F(0)) is cop
    assert hopf.coproduct(t, "0", "0") is cop
    assert hopf.truncation("0", "0") is hopf.truncation(0, 0)
    # each group spells one rational; its spellings share one _Truncation,
    # whose eps is a Fraction, asked as eps and (up to 1/2) as 1/p
    for group in ((True, 1), (np.int64(0), 0), (0.5, F(1, 2)),
                  ("1/100", F(1, 100))):
        for v in group:
            assert hopf.truncation(v, 0) is hopf.truncation(group[0], 0)
            assert type(hopf.truncation(v, 0).eps) is F
            if group[-1] <= F(1, 2):
                assert hopf.truncation(0, v) is hopf.truncation(0, group[0])


def test_out_of_range_invp_refused_on_every_call(hopf):
    for _ in range(2):
        with pytest.raises(ValueError, match="1/p"):
            hopf.coproduct(noise(3), 0, F(3, 5))
    # through each input type, and nothing is stored
    before = dict(hopf._truncations)
    for _ in range(2):
        for eps in (F(-1, 100), "-1/100", -0.01, -1, np.int64(-1)):
            with pytest.raises(ValueError, match="eps"):
                hopf.truncation(eps, 0)
        for invp in (F(3, 5), "3/5", 0.6, 1, True, np.int64(1)):
            with pytest.raises(ValueError, match="1/p"):
                hopf.truncation(0, invp)
    assert hopf._truncations == before


def test_graphical_oracle_agreement(hopf, sector):
    for t in sector.members():
        for eps, invp in ((F(1, 100), F(0)), (F(1, 100), F(1, 5)),
                          (F(1, 100), F(1, 3))):
            assert hopf.coproduct(t, eps, invp) \
                == hopf.coproduct_graphical(t, eps, invp)


def test_comodule_identity(hopf, sector):
    for t in sector.members():
        assert hopf.comodule_check(t, F(1, 100), F(0))
        assert hopf.comodule_check(t, F(1, 100), F(1, 5))


def test_coassociativity_plus(hopf, sector):
    for g in sector.w_plus_generators(F(1, 100), F(1, 5)):
        assert hopf.coassociativity_plus_check(g, F(1, 100), F(1, 5))


def test_antipode_convolution(hopf, sector):
    for g in sector.w_plus_generators(F(1, 100), F(0)):
        assert hopf.convolution_check(g, F(1, 100), F(0))


def test_antipode_on_polynomials(hopf):
    s = hopf.antipode(X((1, 0, 0)), 0, 0)
    assert s.terms == {X((1, 0, 0)): F(-1)}
    s2 = hopf.antipode(X((2, 0, 0)), 0, 0)
    assert s2.terms == {X((2, 0, 0)): F(1)}


def test_tensor_sum_algebra():
    a = lincomb([((noise(3), unit(3)), F(1, 2))])
    assert len(pair_product(a, a)) == 1
    assert "(x)" in repr(a)
    assert format_tree(noise(3)) in repr(a)


def test_two_sided_checks_see_a_dropped_term(monkeypatch):
    """Both identity checks reject a Delta+ that lost one term."""
    h = Hopf(Params.from_dict(PAM3D))
    real = h._coproduct

    def lossy(f, tr, plus=False):
        """Delta+ without its leading term f (x) 1 on non-unit forests;
        Delta is left as it is."""
        out = real(f, tr, plus)
        if plus and not f.is_unit():
            out = lincomb(out)
            out.add((f, unit(3)), -out.terms[(f, unit(3))])
        return out

    eps, invp = F(1, 100), F(1, 5)
    t = parse("(O() K(O()))", dim=3)
    g = plant_tree(K, (0, 0, 0), t)
    assert h.comodule_check(t, eps, invp)
    assert h.coassociativity_plus_check(g, eps, invp)
    monkeypatch.setattr(h, "_coproduct", lossy)
    assert not h.comodule_check(t, eps, invp)
    assert not h.coassociativity_plus_check(g, eps, invp)


@cache
def _pam3d_hopf(scaling):
    return Hopf(Params.from_dict(dict(PAM3D, scaling=scaling)))


# the pam3d parameters under scalings with common denominator D = 1, 2, 3
_SCALINGS = (("1", "1", "1"), ("1", "1", "1/2"), ("2/3", "1", "1/3"))


@settings(max_examples=40, deadline=None)
@given(trees(d=3, max_n=1, max_depth=2), st.sampled_from(_SCALINGS),
       st.integers(1, 40), st.integers(0, 50))
def test_hopf_identities_on_random_trees(t, scaling, e, q):
    """The four identities of verify hopf on a random decorated tree t at
    a generic (eps, 1/p): the oracle and the comodule identity on t, and
    Delta+ coassociativity and the antipode convolution on each planted
    factor of t of positive degree.  The latter two run factor by
    factor: the convolution of a product is the product of the
    convolutions, so a factor whose convolution is 0 would hide a wrong
    antipode on the others.

    A tree whose Delta has more than 128 terms is skipped: the comodule
    check grows with the square of that count, and decorations (1,1,1)
    on three nodes alone give 512 terms."""
    h = _pam3d_hopf(scaling)
    eps, invp = F(e, 401), F(q, 101)
    planted = [Tree(mi_zero(3), (c,)) for c in t.children]
    try:
        cop = h.coproduct(t, eps, invp)
        assume(len(cop) <= 128)
        checks = [cop == h.coproduct_graphical(t, eps, invp),
                  h.comodule_check(t, eps, invp)]
        for g in planted:
            if degree(g, h.params, eps, invp) > 0:
                checks += [h.coassociativity_plus_check(g, eps, invp),
                           h.convolution_check(g, eps, invp)]
    except GenericityError:
        assume(False)
    assert all(checks)
