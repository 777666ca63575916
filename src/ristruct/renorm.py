"""Preparation maps, the extraction-contraction family R_c and axiom
verification."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .grading import degree
from .hopf import Hopf
from .sector import Report, Sector
from .trees import (K, OMEGA, LinComb, Tree, coeff_mul, dot_noise, mi_zero,
                    noise, plant)


def negative_basis(s: Sector):
    """B_-: noise trees of negative r_{0,inf} degree, neither the noise
    itself nor planted, in basis (preorder) order."""
    return [t for t in s.basis_o if _in_negative_basis(t, s.params)]


def _in_negative_basis(t: Tree, params) -> bool:
    """Whether a noise tree of the basis lies in B_-."""
    if t.is_planted():
        return False
    if len(t.children) == 1 and t.children[0][0] == OMEGA:
        return False
    return degree(t, params, 0, 0) < 0


@dataclass
class CounterTerms:
    """Scalar values on B_-; zero elsewhere."""
    values: dict

    def check_support(self, s: Sector) -> None:
        """Tests the support's own trees only, not all of B_-."""
        for t, v in self.values.items():
            if v and not (t in s.basis_o
                          and _in_negative_basis(t, s.params)):
                raise ValueError(f"counterterm outside B_-: {t!r}")


class SectorEscape(ValueError):
    """A renormalization product left the sector span."""


class PreparationMap:
    """Base class: linear maps given extensionally or by a formula."""

    def apply(self, t: Tree) -> LinComb:
        raise NotImplementedError


class IdentityMap(PreparationMap):
    def apply(self, t: Tree) -> LinComb:
        return LinComb.single(t, 1)


class RcMap(PreparationMap):
    """R_c tau = tau + (c (x) id) Delta_{0,2} tau.

    The extraction pairs counterterm values on left coproduct factors
    with the corresponding right forests; the formula extends beyond the
    basis, so subtrees reached during the M^R recursion are covered."""

    def __init__(self, c: CounterTerms, hopf: Hopf, sector: Sector,
                 strict_sector: bool = True):
        c.check_support(sector)
        self.c = c
        self.hopf = hopf
        self.sector = sector
        self.strict_sector = strict_sector
        self._members = set(sector.members())
        self._memo = {}
        self._tr = hopf.truncation(0, Fraction(1, 2))
        self._value = c.values.get

    def apply(self, t: Tree) -> LinComb:
        cached = self._memo.get(t)
        if cached is not None:
            return cached
        out = LinComb.single(t, 1)
        if not (t.is_poly() or t.is_planted()):
            value = self._value
            for (left, right), coeff in self.hopf._coproduct(t, self._tr):
                cv = value(left, 0)
                if cv:
                    if type(cv) is not int and type(cv) is not Fraction:
                        cv = Fraction(cv)
                    out.add(right, coeff_mul(cv, coeff))
        if self.strict_sector:
            # the formula extends beyond the basis, so the input itself
            # may sit outside; only extraction remainders must stay in
            for term in out.terms:
                if term is not t and term not in self._members:
                    raise SectorEscape(
                        f"R_c({t!r}) contains {term!r} outside the sector "
                        "span; the rule is not complete at these bounds")
        self._memo[t] = out
        return out


def verify_preparation(R: PreparationMap, s: Sector, hopf: Hopf)\
        -> Report:
    """Check the five preparation-map axioms over the sector basis.

    (a) polynomials and the two noises are fixed; (b) every non-leading
    term strictly gains degree at p in {2, inf} and loses Omega edges;
    (c) K-planted trees are fixed; (d) R commutes with Delta_{0,2};
    (e) R commutes with the derivative map.  Degrees are compared as the
    integers hopf.degree_num, so hopf must be built on s.params.

    (d) is checked in difference form: ((R - id) (x) id) Delta tau
    against Delta (R - id) tau.  Each side is the corresponding side of
    (R (x) id) Delta tau = Delta R tau less the same Delta tau, so in
    exact arithmetic the two tests agree, and left factors that R fixes,
    most of them, contribute nothing and are skipped.  (e) reads the
    derivatives from the sector's memo, s.derive."""
    report = Report()
    half = Fraction(1, 2)

    for t in s.polys:
        if R.apply(t) != LinComb.single(t, 1):
            report.fail("a", t, "polynomial not fixed")
    d = s.params.d
    for t in (noise(d), dot_noise(d)):
        if R.apply(t) != LinComb.single(t, 1):
            report.fail("a", t, "noise not fixed")

    truncations = [(invp, hopf.truncation(0, invp))
                   for invp in (Fraction(0), half)]
    for t in s.members():
        rt = R.apply(t)
        lead = rt.terms.get(t, 0)
        if lead != 1:
            report.fail("b", t, f"leading coefficient {lead}")
        t_nums = [hopf.degree_num(t, tr) for _invp, tr in truncations]
        for term, _c in rt:
            if term is t:
                continue
            if term.omega_count() >= t.omega_count():
                report.fail("b", t, f"term {term!r} does not drop the "
                            "Omega count")
            for (invp, tr), t_num in zip(truncations, t_nums):
                if not hopf.degree_num(term, tr) > t_num:
                    report.fail("b", t, f"term {term!r} does not gain "
                                f"degree at 1/p={invp}")

    for sub in s.basis_o + s.dot_basis:
        for planted, _c in plant(K, mi_zero(d), sub):
            if R.apply(planted) != LinComb.single(planted, 1):
                report.fail("c", planted, "planted tree not fixed")

    half_tr = truncations[-1][1]
    for t in s.members():
        lhs = LinComb()
        for (a, b), c in hopf._coproduct(t, half_tr):
            for a2, c2 in _minus_identity(R.apply(a), a):
                lhs.add((a2, b), coeff_mul(c, c2))
        rhs = LinComb()
        for term, c in _minus_identity(R.apply(t), t):
            for (a, b), c2 in hopf._coproduct(term, half_tr):
                rhs.add((a, b), coeff_mul(c, c2))
        if lhs != rhs:
            report.fail("d", t, "coproduct commutation fails")

    for t in s.basis:
        lhs = s.derive(t).map_trees(R.apply)
        rhs = R.apply(t).map_trees(s.derive)
        if lhs != rhs:
            report.fail("e", t, "derivative commutation fails")
    return report


def _minus_identity(rx: LinComb, x: Tree):
    """The terms of (R - id)x, given rx = R(x): those of rx other than x,
    then x with its coefficient less one unless that is zero.  Empty,
    without allocating, when R fixes x."""
    terms = rx.terms
    lead = terms.get(x, 0)
    if lead == 1 and len(terms) == 1:
        return ()
    out = [(y, c) for y, c in terms.items() if y is not x]
    if lead != 1:
        out.append((x, lead - 1))
    return out
