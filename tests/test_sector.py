"""Sector generation, the preorder, the filtration and the structural
checks."""

from fractions import Fraction as F
from itertools import product

import pytest

from ristruct.config import PAM3D, builtin_rule_config
from ristruct.grading import GenericityError, Params
from ristruct.hopf import Hopf
from ristruct.sector import (Rule, Sector, check_differentiable,
                             check_triangular, derive, epsilon0,
                             generate_from_rule, key_of, load_rule_config)
from ristruct.trees import (OMEGA, Tree, X, format_tree, mi_range,
                            mi_weight, noise, parse, plant_tree, unit)

from reference import builtin_sector


@pytest.fixture(scope="module")
def sector():
    return builtin_sector("pam3d")


@pytest.fixture(scope="module")
def hopf():
    return Hopf(Params.from_dict(PAM3D))


def test_generated_basis(sector):
    assert [format_tree(t) for t in sector.basis_o] == [
        "(O())",
        "(O() K(O()))",
        "(O() K(O()) K(O()))",
        "(O() K(O() K(O())))",
    ]
    assert len(sector.polys) == 4  # 1, X_1, X_2, X_3
    assert sector.mB == 5


@pytest.mark.parametrize("L", [F(2), F(7, 2)])
def test_polys_match_brute_force_anisotropic(L):
    """With scaling (1/2, 3/2) the polynomials are all X^k with
    k_1/2 + 3k_2/2 < L, in canonical order."""
    params = Params(d=2, scaling=(F(1, 2), F(3, 2)), r0=F(-2, 5),
                    beta0=F(2), ell=F(4), ell1=F(1), s0=F(-1))
    brute = sorted(X(k) for k in product(range(12), repeat=2)
                   if k[0] * F(1, 2) + k[1] * F(3, 2) < L)
    assert Sector(params, [noise(2)], L).polys == brute
    assert len(brute) == (5 if L == 2 else 12)


def _below_brute_force(scaling, bound):
    """Every k in a box wide enough for the bound with |k|_s < bound,
    through mi_weight, in mi_range order."""
    box = tuple(12 for _s in scaling)
    return [k for k in mi_range(box) if mi_weight(k, scaling) < bound]


@pytest.mark.parametrize("scaling,bounds", [
    ((F(1), F(1), F(1)), [F(2), F(5, 2), F(7, 3)]),
    ((F(1, 2), F(3, 2)), [F(2), F(7, 2), F(9, 4)]),
])
def test_below_matches_weight_brute_force(scaling, bounds):
    params = Params(d=len(scaling), scaling=scaling, r0=F(-5, 2),
                    beta0=F(2), ell=F(4), ell1=F(1), s0=F(-1))
    sector = Sector(params, [noise(len(scaling))], 0)
    for bound in bounds:
        assert sector._below(bound) == _below_brute_force(scaling, bound)


def test_below_excludes_a_bound_on_a_lattice_weight():
    """|k|_s < bound is strict: k with weight exactly the bound is out."""
    params = Params(d=2, scaling=(F(1, 2), F(3, 2)), r0=F(-2, 5),
                    beta0=F(2), ell=F(4), ell1=F(1), s0=F(-1))
    sector = Sector(params, [noise(2)], 0)
    bound = F(3, 2)  # the weight of (3, 0), (1, 1) and (0, 1)
    below = sector._below(bound)
    assert below == _below_brute_force(params.scaling, bound)
    assert not {(3, 0), (1, 1), (0, 1)} & set(below)
    assert (2, 0) in below


@pytest.mark.parametrize("bound", [F(0), F(-1, 3), F(-5)])
def test_below_non_positive_bound_is_empty(sector, bound):
    assert sector._below(bound) == []


def test_generated_dot_basis(sector):
    dots = {format_tree(t) for t in sector.dot_basis}
    assert dots == {
        "(H())",
        "(O() K(H()))", "(H() K(O()))",
        "(O() K(O()) K(H()))", "(H() K(O()) K(O()))",
        "(O() K(O() K(H())))", "(O() K(H() K(O())))",
        "(H() K(O() K(O())))",
    }


def test_derive_multiplicities():
    t = parse("(O() K(O()) K(O()))", dim=3)
    out = derive(t)
    assert out.terms == {
        parse("(H() K(O()) K(O()))", dim=3): F(1),
        parse("(O() K(O()) K(H()))", dim=3): F(2),
    }
    with pytest.raises(ValueError):
        derive(parse("(H())", dim=3))


def test_sector_derive_is_memoized(sector):
    """One LinComb per tree, equal to derive; H-containing trees are
    refused on every call and never stored."""
    for t in sector.basis:
        assert sector.derive(t) is sector.derive(t)
        assert sector.derive(t) == derive(t)
    h_tree = parse("(H())", dim=3)
    for _ in range(2):
        with pytest.raises(ValueError):
            sector.derive(h_tree)
    assert h_tree not in sector._derivatives


def test_preorder_key_and_precede(sector):
    p = sector.params
    a, b, c, d = sector.basis_o
    assert key_of(a, p) == (1, 1, F(-3, 2))
    assert key_of(a, p) < key_of(b, p) < key_of(c, p)
    assert key_of(c, p) == key_of(d, p) and c is not d


def test_filtration_prefixes(sector):
    assert sector.basis_prefix(0) == sector.polys
    assert sector.basis_prefix(2) == sector.polys + sector.basis_o[:2]
    assert sector.dot_prefix(1) == [parse("(H())", dim=3)]
    assert set(sector.dot_prefix(len(sector.basis_o))) \
        == set(sector.dot_basis)


def test_rule_closure_and_validation():
    r = load_rule_config(builtin_rule_config("numeric2d"))[0]
    z = (0, 0)
    assert () in r.for_k
    assert (("K", z),) in r.for_k
    assert (("K", z), ("O", z)) in r.for_k
    assert (("K", z), ("K", z), ("O", z)) in r.for_k
    assert (("K", z), ("K", z), ("K", z)) not in r.for_k
    with pytest.raises(ValueError):
        Rule.from_types(2, [[("O", z), ("O", z)]])
    with pytest.raises(ValueError):
        Rule.from_types(2, [[("O", (1, 0))]])
    with pytest.raises(ValueError):
        Rule.from_types(2, [[("H", z)]])


def test_load_rule_config_matches_builtin():
    rule, max_omega, L, params, max_edges = load_rule_config(
        builtin_rule_config("numeric2d"))
    s = generate_from_rule(rule, max_omega, L, params, max_edges)
    ref = builtin_sector("numeric2d")
    assert s.basis_o == ref.basis_o
    assert s.params == ref.params


def test_generation_bounds():
    with pytest.raises(ValueError):
        builtin_sector("pam3d", maxOmega=1)
    small = builtin_sector("pam3d", maxOmega=2, maxEdges=5)
    assert [format_tree(t) for t in small.basis_o] == ["(O())"]


def test_check_differentiable_passes(sector, hopf):
    report = check_differentiable(sector, hopf, F(1, 100), F(0))
    assert report.ok, report.failures


def test_check_differentiable_flags_missing_noise():
    params = Params.from_dict(PAM3D)
    bad = Sector(params, [parse("(O() K(O()))", dim=3)], F(2))
    report = check_differentiable(bad, Hopf(params), F(1, 100), F(0))
    assert not report.ok
    assert any(f["check"] == "a" for f in report.failures)


def test_check_differentiable_flags_decorated_noise():
    params = Params.from_dict(PAM3D)
    decorated = Tree((0, 0, 0), ((OMEGA, (1, 0, 0), unit(3)),))
    bad = Sector(params, [noise(3), decorated], F(2))
    report = check_differentiable(bad, Hopf(params), F(1, 100), F(0))
    assert any(f["check"] == "b" for f in report.failures)


def test_check_triangular_passes(sector, hopf):
    report = check_triangular(sector, hopf, F(1, 100), F(0))
    assert report.ok, report.failures


def test_epsilon0_values():
    s = builtin_sector("pam3d")
    with pytest.raises(GenericityError):
        epsilon0(s.w_plus_generators(0, F(1, 2)), s.params)
    s = builtin_sector("numeric2d")
    assert epsilon0(s.w_plus_generators(0, F(1, 2)), s.params) == F(7, 20)


def test_w_plus_generators(sector):
    w = sector.w_plus_generators(F(1, 100), F(1, 5))
    assert plant_tree("K", (0, 0, 0), noise(3)) in w
    assert plant_tree("K", (0, 0, 0), parse("(H())", dim=3)) in w
