"""Degree forms, integrability, phase sets and the generic band."""

from fractions import Fraction as F

import pytest

from ristruct.config import NUMERIC2D, PAM3D
from ristruct.grading import (DegreeForm, GenericityError, INF, Params,
                              degree, degree_form, epsilon0_from_forms,
                              from_invp, integrability, p_transition,
                              phase_sets, to_invp)
from ristruct.hopf import Hopf
from ristruct.trees import K, X, dot_noise, noise, parse, plant_tree

from reference import mi_weight


def test_params_validation():
    with pytest.raises(ValueError):
        Params(d=2, scaling=(1, 1), r0=F(-1), beta0=F(3), ell=F(2),
               ell1=F("1/20"))  # beta0 out of range
    with pytest.raises(ValueError):
        Params(d=2, scaling=(1, 1), r0=F("-1/2"), beta0=F(1), ell=F(2),
               ell1=F("1/20"))  # r0 not below -|s|/2 - s0
    with pytest.raises(ValueError):
        Params(d=2, scaling=(1, 1), r0=F(-2), beta0=F(1), ell=F(2),
               ell1=F("1/20"), s0=F(-2))  # s0 below -|s|/2


def test_label_degrees_pam3d():
    p = Params.from_dict(PAM3D)
    eps = F(1, 100)
    assert degree(noise(3), p, eps, 0) == p.r0 - eps
    assert degree(dot_noise(3), p, eps, F(1, 4)) \
        == p.r0 - eps + F(3, 4)
    k_planted = plant_tree(K, (0, 0, 0), noise(3))
    assert degree(k_planted, p, eps, 0) == p.r0 - eps + p.beta0


def test_worked_example_degree():
    """The three-edge single-H tree has degree -1 - 2eps + 3/p."""
    p = Params.from_dict(PAM3D)
    t = parse("( O() K (H()) )", dim=3)
    form = degree_form(t, p)
    for eps, invp in ((F(0), F(0)), (F(1, 10), F(1, 6))):
        expect = -1 - 2 * eps + 3 * invp
        assert degree(t, p, eps, invp) == expect


def test_polynomial_degree_is_weight():
    p = Params.from_dict(NUMERIC2D)
    assert degree(X((2, 1)), p, F(1, 3), F(1, 2)) == 3


def test_weights_match_the_scaling():
    """Params.weights is (D, D * scaling) with D the least common
    denominator, and a polynomial degree is the Fraction weight |k|_s."""
    p = Params.from_dict(dict(PAM3D, scaling=("2/3", "1", "1/6")))
    assert p.weights == (6, (4, 6, 1))
    assert Params.from_dict(PAM3D).weights == (1, (1, 1, 1))
    for k in ((0, 0, 0), (1, 0, 0), (2, 1, 5), (0, 3, 1)):
        assert degree(X(k), p, F(1, 3), F(1, 2)) == mi_weight(k, p.scaling)


def test_to_from_invp():
    assert to_invp(INF) == to_invp("infinity") == 0
    assert to_invp(4) == to_invp("4") == F(1, 4)
    assert to_invp(F(5)) == to_invp(5.0) == F(1, 5)
    assert from_invp(F(1, 4)) == 4
    assert from_invp(F(0)) == INF
    for bad in (1, "1/0", "x", None, [5], True, float("inf")):
        with pytest.raises(ValueError, match="p must"):
            to_invp(bad)


def test_range_check():
    """degree_consts refuses eps < 0 and a 1/p outside [0, 1/2], so
    every degree evaluation and every Hopf truncation does."""
    p = Params.from_dict(NUMERIC2D)
    for eps, invp, named in ((F(-1, 100), 0, "eps"), (0, F(3, 5), "1/p"),
                             (0, F(-1, 5), "1/p")):
        with pytest.raises(ValueError, match=named):
            degree(noise(2), p, eps, invp)
        with pytest.raises(ValueError, match=named):
            Hopf(p).truncation(eps, invp)


def test_integrability():
    assert integrability(noise(2), 5) == INF
    assert integrability(dot_noise(2), 5) == 5
    two_h = parse("(H() K(H() K(O())))", dim=2)
    with pytest.raises(ValueError):
        integrability(two_h, 5)


def test_p_transition_worked_example():
    """The derivative-kernel planting crosses zero at p = 6/(1+2eps)."""
    p = Params.from_dict(PAM3D)
    mu = plant_tree(K, (1, 0, 0), dot_noise(3))
    for eps in (F(0), F(1, 10), F(1, 4)):
        assert p_transition(mu, p, eps) == F(6, 1 + 2 * eps)


def test_p_transition_none_when_positive():
    p = Params.from_dict(PAM3D)
    mu = plant_tree(K, (0, 0, 0), dot_noise(3))
    # degree 1/2 - eps + 3/p stays positive on [2, inf]
    assert p_transition(mu, p, F(1, 100)) is None


def test_phase_sets():
    p = Params.from_dict(PAM3D)
    mu = plant_tree(K, (1, 0, 0), dot_noise(3))
    i_eps, _j_p = phase_sets([mu], p, F(0), F(0))
    assert i_eps == [F(6)]


def test_phase_sets_genericity_error():
    p = Params.from_dict(PAM3D)
    mu = plant_tree(K, (1, 0, 0), dot_noise(3))
    with pytest.raises(GenericityError):
        phase_sets([mu], p, F(0), F(1, 6))  # sits exactly on the line


def test_phase_sets_dedup():
    p = Params.from_dict(PAM3D)
    mu = plant_tree(K, (1, 0, 0), dot_noise(3))
    mu2 = plant_tree(K, (0, 1, 0), dot_noise(3))
    i_eps, _ = phase_sets([mu, mu2], p, F(0), F(0))
    assert i_eps == [F(6)]


def test_epsilon0_synthetic():
    p = Params.from_dict(NUMERIC2D)
    # two lines eps = c + |s|*invp*b meeting inside the strip
    f1 = DegreeForm(cR0=1, cInvP=1, cConst=F(1) - p.r0)
    f2 = DegreeForm(cR0=1, cConst=F(5, 4) - p.r0)
    # f1: eps = 1 + 2*invp; f2: eps = 5/4; meet at invp = 1/8
    assert epsilon0_from_forms([f1, f2], p) == 1


def test_epsilon0_boundary_only():
    p = Params.from_dict(NUMERIC2D)
    f = DegreeForm(cR0=1, cConst=F(3, 2) - p.r0)  # vertical line eps=3/2
    assert epsilon0_from_forms([f], p) == F(3, 2)


def test_epsilon0_genericity():
    p = Params.from_dict(NUMERIC2D)
    # two lines meeting exactly at (eps=0, invp=1/4) inside the strip
    f1 = DegreeForm(cR0=1, cInvP=1, cConst=-p.r0 - 2 * F(1, 4))
    f2 = DegreeForm(cR0=1, cInvP=-1, cConst=-p.r0 + 2 * F(1, 4))
    with pytest.raises(GenericityError):
        epsilon0_from_forms([f1, f2], p)


def test_epsilon0_interior_crossing_is_not_an_error():
    """A single line crossing eps = 0 inside the strip is an ordinary
    p-phase transition and must not be refused."""
    p = Params.from_dict(NUMERIC2D)
    f1 = DegreeForm(cR0=1, cInvP=1, cConst=-p.r0 - 2 * F(1, 4))
    f2 = DegreeForm(cR0=1, cConst=F(1, 3) - p.r0)
    assert epsilon0_from_forms([f1, f2], p) == F(1, 3)
