"""Counterterms, extraction-contraction maps and renormalization.

The preparation-map layer works at the exponent pair (0, 2); the
three-dimensional demo parameters produce integer degree ties there, so
the tests exercising coproducts of larger trees use a two-dimensional
sector with generic rational parameters."""

from fractions import Fraction as F

import pytest

from ristruct.config import NUMERIC2D
from ristruct.grading import Params
from ristruct.hopf import Hopf
from ristruct.renorm import (CounterTerms, IdentityMap, RcMap, SectorEscape,
                             negative_basis, verify_preparation)
from ristruct.sector import Sector
from ristruct.trees import LinComb, X, format_tree, noise, parse, unit

from reference import (DictPreparationMap, Renormalizer, builtin_sector,
                       lincomb)


@pytest.fixture(scope="module")
def sector2():
    """Five-edge two-dimensional sector with generic degrees."""
    return builtin_sector("numeric2d", maxOmega=4, maxEdges=5)


@pytest.fixture(scope="module")
def hopf2(sector2):
    return Hopf(sector2.params)


def test_negative_basis():
    assert [format_tree(t) for t in negative_basis(builtin_sector("pam3d"))] == [
        "(O() K(O()))",
        "(O() K(O()) K(O()))",
        "(O() K(O() K(O())))",
    ]
    assert [format_tree(t) for t in negative_basis(builtin_sector("numeric2d"))] \
        == ["(O() K(O()))"]


def test_counterterm_support(sector2):
    tau2 = parse("(O() K(O()))", dim=2)
    CounterTerms({tau2: F(3, 7)}).check_support(sector2)
    with pytest.raises(ValueError):
        CounterTerms({noise(2): F(1)}).check_support(sector2)


def _refused(t, s):
    with pytest.raises(ValueError) as err:
        CounterTerms({t: F(2)}).check_support(s)
    assert str(err.value) == f"counterterm outside B_-: {t!r}"


def test_counterterm_support_refusals():
    """Each B_- condition refuses on its own: every refused tree below
    passes the other three tests."""
    params = Params.from_dict(NUMERIC2D)
    tau2 = parse("(O() K(O()))", dim=2)
    planted = parse("(K(O() O() O()))", dim=2)  # degree -5/4
    lone = parse("(n=(1,0) O())")  # degree -1/20
    positive = parse("(O() K(O()) K(O()))", dim=2)  # degree 13/20
    s = Sector(params, [tau2, planted, lone, positive], F(2))
    CounterTerms({tau2: F(1), planted: F(0), X((1, 0)): 0}).check_support(s)
    _refused(tau2, Sector(params, [noise(2)], F(2)))  # not a basis tree
    _refused(planted, s)
    _refused(lone, s)
    _refused(positive, s)


def test_rc_on_smallest_negative_tree():
    sector = builtin_sector("pam3d")
    hopf = Hopf(sector.params)
    tau2 = parse("(O() K(O()))", dim=3)
    R = RcMap(CounterTerms({tau2: F(3, 7)}), hopf, sector)
    assert R.apply(tau2).terms == {tau2: F(1), unit(3): F(3, 7)}


def test_rc_fixes_polys_noises_and_plantings(sector2, hopf2):
    tau2 = parse("(O() K(O()))", dim=2)
    R = RcMap(CounterTerms({tau2: F(1)}), hopf2, sector2)
    for t in sector2.polys + [noise(2), parse("(H())", dim=2)]:
        assert R.apply(t).terms == {t: F(1)}


def test_rc_extraction_in_larger_trees(sector2, hopf2):
    """Extracting the root copy of the 3-edge subtree leaves the planted
    remainder; the wide tree contains it through two symmetric cuts."""
    tau2 = parse("(O() K(O()))", dim=2)
    chain = parse("(O() K(O() K(O())))", dim=2)
    wide = parse("(O() K(O()) K(O()))", dim=2)
    remainder = parse("(K(O()))", dim=2)
    c = F(3, 7)
    R = RcMap(CounterTerms({tau2: c}), hopf2, sector2,
              strict_sector=False)
    assert R.apply(chain).terms == {chain: F(1), remainder: c}
    assert R.apply(wide).terms == {wide: F(1), remainder: 2 * c}


def test_verify_preparation_random_counterterms(sector2, hopf2):
    import random
    rng = random.Random(7)
    for _ in range(5):
        values = {t: F(rng.randint(-20, 20), rng.randint(1, 9))
                  for t in negative_basis(sector2)}
        R = RcMap(CounterTerms(values), hopf2, sector2,
                  strict_sector=False)
        report = verify_preparation(R, sector2, hopf2)
        assert report.ok, report.failures


def test_verify_preparation_rejects_scaled_noise(sector2, hopf2):
    bad = DictPreparationMap({noise(2): LinComb.single(noise(2), 2)})
    report = verify_preparation(bad, sector2, hopf2)
    assert not report.ok
    assert any(f["check"] in ("a", "b") for f in report.failures)


def test_verify_preparation_rejects_degree_losing_term(sector2, hopf2):
    tau2 = parse("(O() K(O()))", dim=2)
    wide = parse("(O() K(O()) K(O()))", dim=2)
    bad = DictPreparationMap({
        wide: lincomb([(wide, F(1)), (tau2, F(1))])})
    report = verify_preparation(bad, sector2, hopf2)
    assert not report.ok
    assert any(f["check"] == "b" for f in report.failures)


def _failures(R, s):
    report = verify_preparation(R, s, Hopf(s.params))
    return [(f["check"], format_tree(f["tree"]), f["detail"])
            for f in report.failures]


def test_verify_preparation_reports_only_d():
    """Two breaches of the coproduct axiom that every other axiom
    accepts: an extraction to X^(1,0) that forgets Delta X^(1,0) =
    X^(1,0) (x) 1 + 1 (x) X^(1,0), and a decorated noise outside the
    sector, a left factor of Delta (O() K(H())) only, sent to twice
    itself."""
    s = builtin_sector("numeric2d")
    tau2 = parse("(O() K(O()))", dim=2)
    left = parse("(n=(1,0) O())", dim=2)
    bad = DictPreparationMap({
        tau2: lincomb([(tau2, 1), (X((1, 0)), F(2, 3))]),
        left: LinComb.single(left, 2)})
    fails = "coproduct commutation fails"
    assert _failures(bad, s) == [("d", "(O() K(O()))", fails),
                                 ("d", "(O() K(H()))", fails)]


def test_verify_preparation_reports_only_e():
    """R_c for a counterterm on X^(1,0) O(), written out: that tree is a
    left factor of Delta (O() K(H())) but not of Delta (O() K(O())), so
    R commutes with Delta and fails only at the derivative of
    (O() K(O()))."""
    s = builtin_sector("numeric2d")
    dot = parse("(O() K(H()))", dim=2)
    left = parse("(n=(1,0) O())", dim=2)
    c = F(2, 3)
    bad = DictPreparationMap({
        dot: lincomb([(dot, 1), (parse("(K^(1,0)(H()))", dim=2), c)]),
        left: lincomb([(left, 1), (unit(2), c)])})
    assert _failures(bad, s) == [
        ("e", "(O() K(O()))", "derivative commutation fails")]


def test_verify_preparation_tree_missing_from_its_image():
    """R(tau) = c: (R - id) tau keeps -tau, so (d) fails; without it the
    two sides would agree on c 1 (x) 1."""
    s = builtin_sector("numeric2d")
    tau2 = parse("(O() K(O()))", dim=2)
    bad = DictPreparationMap({tau2: LinComb.single(unit(2), F(2, 3))})
    assert _failures(bad, s) == [
        ("b", "(O() K(O()))", "leading coefficient 0"),
        ("d", "(O() K(O()))", "coproduct commutation fails"),
        ("e", "(O() K(O()))", "derivative commutation fails")]


def test_dict_preparation_map_zero_image():
    """A table entry of zero is the zero map on that tree, not the
    identity, even though the zero LinComb is falsy."""
    s = builtin_sector("numeric2d")
    tau2 = parse("(O() K(O()))", dim=2)
    bad = DictPreparationMap({tau2: LinComb()})
    assert bad.apply(tau2) == LinComb()
    assert bad.apply(noise(2)) == LinComb.single(noise(2), 1)
    assert _failures(bad, s) == [
        ("b", "(O() K(O()))", "leading coefficient 0"),
        ("d", "(O() K(O()))", "coproduct commutation fails"),
        ("e", "(O() K(O()))", "derivative commutation fails")]


def test_renormalizer_identity(sector2, hopf2):
    M = Renormalizer(IdentityMap())
    for t in sector2.members():
        assert M.apply(t).terms == {t: F(1)}


def test_renormalizer_smallest_tree(sector2, hopf2):
    tau2 = parse("(O() K(O()))", dim=2)
    c = F(-2, 5)
    R = RcMap(CounterTerms({tau2: c}), hopf2, sector2)
    assert Renormalizer(R).apply(tau2).terms == {tau2: F(1), unit(2): c}


def test_renormalizer_passes_through_plantings(sector2, hopf2):
    """The hat map re-applies R inside kernel plantings; the inner
    extraction leaves a kernel planting of the unit, which dies in the
    ideal, so only the outer extraction survives."""
    tau2 = parse("(O() K(O()))", dim=2)
    chain = parse("(O() K(O() K(O())))", dim=2)
    remainder = parse("(K(O()))", dim=2)
    c = F(3, 7)
    R = RcMap(CounterTerms({tau2: c}), hopf2, sector2,
              strict_sector=False)
    out = Renormalizer(R).apply(chain)
    assert out.terms == {chain: F(1), remainder: c}


def test_sector_escape():
    s2 = builtin_sector("numeric2d")  # three-edge bound: larger trees escape
    h2 = Hopf(s2.params)
    tau2 = parse("(O() K(O()))", dim=2)
    R = RcMap(CounterTerms({tau2: F(1)}), h2, s2)
    with pytest.raises(SectorEscape):
        R.apply(parse("(O() K(O() K(O())))", dim=2))


def test_verify_preparation_genericity_pam3d_7_5():
    """At (0, 1/2) the pam3d 7/5 sector has a planted degree tie in Delta,
    which verify_preparation must refuse rather than truncate."""
    from ristruct.grading import GenericityError
    s = builtin_sector("pam3d", maxOmega=5, maxEdges=7)
    hopf = Hopf(s.params)
    with pytest.raises(GenericityError,
                       match=r"label K, k\+l=\(1, 0, 0\)"):
        verify_preparation(RcMap(CounterTerms({}), hopf, s), s, hopf)
