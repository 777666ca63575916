"""Exact degree maps, integrability exponents and phase geometry.

Degrees are affine forms in (r0, beta0, scaling, eps, 1/p).  The
integrability exponent p ranges over [2, infinity] and is represented by
1/p throughout, so p = infinity is the exact rational 0 and every
comparison stays exact.  ``to_invp`` is the one exponent reader and
``degree_consts`` the one range check, eps >= 0 and 1/p in [0, 1/2].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm
from operator import mul

from .config import json_array, json_integer, json_object, json_rational
from .trees import Tree


class GenericityError(ArithmeticError):
    """A degree evaluated to exactly zero on a non-unit tree.

    Concrete rational parameter choices can make a degree vanish where
    the theory assumes genericity; truncations would then branch on a
    tie, so the computation refuses instead of silently choosing."""


@dataclass(frozen=True)
class Params:
    d: int
    scaling: tuple
    r0: Fraction
    beta0: Fraction
    ell: Fraction
    ell1: Fraction
    s0: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "scaling",
                           tuple(Fraction(s) for s in self.scaling))
        for name in ("r0", "beta0", "ell", "ell1", "s0"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if len(self.scaling) != self.d:
            raise ValueError("scaling length must equal d")
        if any(s <= 0 for s in self.scaling):
            raise ValueError("scaling entries must be positive")
        if self.ell <= max(self.scaling):
            raise ValueError("ell must exceed max scaling entry")
        if not (0 < self.beta0 < self.ell - self.ell1):
            raise ValueError("beta0 must lie in (0, ell - ell1)")
        if self.s0 < -self.abs_scaling / 2:
            raise ValueError("s0 must be at least -|s|/2")
        if not self.r0 < -self.abs_scaling / 2 - self.s0:
            raise ValueError("r0 must be below -|s|/2 - s0")

    @classmethod
    def from_dict(cls, cfg: dict) -> "Params":
        """Parameters from the ``params`` mapping of a rule config;
        rationals may be strings."""
        cfg = json_object(cfg, "params")
        return cls(json_integer(cfg["d"], "params.d", 1),
                   tuple(json_rational(s, "params.scaling entry")
                         for s in json_array(cfg["scaling"],
                                             "params.scaling")),
                   *(json_rational(cfg[key], f"params.{key}")
                     for key in ("r0", "beta0", "ell", "ell1")),
                   json_rational(cfg.get("s0", 0), "params.s0"))

    @cached_property
    def abs_scaling(self) -> Fraction:
        return sum(self.scaling, Fraction(0))

    @cached_property
    def weights(self) -> tuple:
        """(D, w): the least common denominator D of the scaling and the
        integer weights w = D * scaling, so that |k|_s = (w . k) / D."""
        D = lcm(*(s.denominator for s in self.scaling))
        return D, tuple(s.numerator * (D // s.denominator)
                        for s in self.scaling)


@dataclass(frozen=True)
class DegreeForm:
    """r as cR0*(r0-eps) + cBeta0*beta0 + cInvP*|s|*(1/p) + cConst."""
    cR0: int = 0
    cBeta0: int = 0
    cInvP: int = 0
    cConst: Fraction = Fraction(0)


def degree_form(t: Tree, params: Params) -> DegreeForm:
    """The degree of t as an affine form, in O(1) per interned tree.

    Summing the label forms and decorations over the tree only needs
    the label counts (``t.stats()``: every Omega and H edge adds one
    r0, every H edge one |s|/p, every K edge one beta0) and the net
    decoration ``t.net()``, weighted once by ``params.weights``.  Both
    are cached on the tree and neither depends on params, so the same
    cache serves every parameter set."""
    omega, edges, h = t.stats()
    D, w = params.weights
    return DegreeForm(omega + h, edges - omega - h, h,
                      Fraction(sum(map(mul, w, t.net())), D))


def degree_consts(params: Params, eps, invp) -> tuple:
    """(r0 - eps, beta0, |s|/p): what cR0, cBeta0 and cInvP multiply;
    eps < 0 or a 1/p outside [0, 1/2] is a ValueError."""
    eps, invp = Fraction(eps), Fraction(invp)
    if eps < 0:
        raise ValueError(f"eps must be at least 0, not {eps}")
    if not 0 <= invp <= Fraction(1, 2):
        raise ValueError("1/p must lie in [0, 1/2]")
    return params.r0 - eps, params.beta0, params.abs_scaling * invp


def degree_eval(f: DegreeForm, params: Params, eps, invp) -> Fraction:
    """The value of f at (eps, 1/p), an exact rational."""
    r, beta0, s_invp = degree_consts(params, eps, invp)
    return f.cR0 * r + f.cBeta0 * beta0 + f.cInvP * s_invp + f.cConst


def degree(t: Tree, params: Params, eps, invp) -> Fraction:
    return degree_eval(degree_form(t, params), params, eps, invp)


INF = "inf"


def to_invp(p) -> Fraction:
    """1/p of an exponent p in [2, inf] given as "inf", "infinity" or a
    rational that ``json_rational`` reads."""
    if p in (INF, "infinity"):
        return Fraction(0)
    p = json_rational(p, "p")
    if p < 2:
        raise ValueError(f"p must be at least 2 or inf, not {p}")
    return 1 / p


def from_invp(invp: Fraction):
    return INF if invp == 0 else 1 / Fraction(invp)


def integrability(t: Tree, p):
    """Integrability exponent: infinity on H-free trees, p otherwise."""
    h = t.h_count()
    if h > 1:
        raise ValueError("tree has more than one H edge")
    return INF if h == 0 else p


def p_transition(mu: Tree, params: Params, eps):
    """The p where the degree of mu crosses zero, if it does on [2, inf].

    Requires exactly one H edge, so the degree is r_inf + |s|/p and the
    crossing is p = |s| / (-r_inf)."""
    if mu.h_count() != 1:
        raise ValueError("p_transition requires exactly one H edge")
    form = degree_form(mu, params)
    r_inf = degree_eval(form, params, eps, 0)
    r_two = degree_eval(form, params, eps, Fraction(1, 2))
    if r_inf >= 0 or r_two < 0:
        return None
    return params.abs_scaling / (-r_inf)


def phase_points(generators, params: Params, eps) -> list:
    """I_eps: the sorted p-crossings of the single-H generators whose
    degree changes sign across [2, inf]."""
    pts = set()
    for mu in generators:
        if mu.h_count() == 1:
            p = p_transition(mu, params, eps)
            if p is not None:
                pts.add(p)
    return sorted(pts)


def phase_sets(generators, params: Params, eps, invp):
    """Phase-transition exponents I_eps and epsilons J_p, as (I_eps, J_p).

    I_eps collects the p-crossings of the single-H generators whose
    degree changes sign across [2, inf]; J_p collects, at the given p,
    the nonnegative eps values where a generator degree vanishes.
    Raises GenericityError if some generator degree is exactly zero at
    the queried (eps, invp).  generators is read twice, so pass a
    sequence, not an iterator."""
    eps, invp = Fraction(eps), Fraction(invp)
    j_p = set()
    for mu in generators:
        form = degree_form(mu, params)
        if degree_eval(form, params, eps, invp) == 0 and not mu.is_unit():
            raise GenericityError(
                f"degree of {mu!r} vanishes at eps={eps}, 1/p={invp}")
        if form.cR0 > 0:
            eps_star = degree_eval(form, params, 0, invp) / form.cR0
            if eps_star >= 0:
                j_p.add(eps_star)
    return phase_points(generators, params, eps), sorted(j_p)


def epsilon0_from_forms(forms, params: Params) -> Fraction:
    """Least positive eps where two degree-zero lines meet in the strip.

    Each form defines the line {r_{eps,p} = 0} in the (eps, 1/p) strip
    [0, inf) x [0, 1/2].  Candidate abscissae are pairwise line
    intersections inside the strip and each line's hits on the
    boundaries 1/p = 0 and 1/p = 1/2.  A line may cross eps = 0 inside
    the strip: that is an ordinary p-phase transition, not a violation;
    only candidate abscissae landing exactly at eps = 0 are refused.
    A repeated form adds no candidate, so each is scanned once."""
    S = params.abs_scaling
    half = Fraction(1, 2)

    def eps_at(form: DegreeForm, invp: Fraction):
        # Solve cR0*(r0-eps) + cBeta0*beta0 + cInvP*|s|*invp + cConst = 0.
        if form.cR0 == 0:
            return None
        return degree_eval(form, params, 0, invp) / form.cR0

    candidates = []
    lines = [f for f in dict.fromkeys(forms) if f.cR0 != 0 or f.cInvP != 0]
    for f in lines:
        for invp in (Fraction(0), half):
            e = eps_at(f, invp)
            if e is not None:
                if e == 0:
                    raise GenericityError(
                        "a degree line passes through eps = 0")
                if e > 0:
                    candidates.append(e)
    for f, g in combinations(lines, 2):
        # f and g as a*eps + b*invp = c with a = cR0, b = -cInvP*|s|.
        a1, b1 = f.cR0, -f.cInvP * S
        c1 = degree_eval(f, params, 0, 0)
        a2, b2 = g.cR0, -g.cInvP * S
        c2 = degree_eval(g, params, 0, 0)
        det = a1 * b2 - a2 * b1
        if det == 0:
            continue
        e = (c1 * b2 - c2 * b1) / det
        q = (a1 * c2 - a2 * c1) / det
        if 0 <= q <= half:
            if e == 0:
                raise GenericityError("two degree lines meet at eps = 0")
            if e > 0:
                candidates.append(e)
    if not candidates:
        raise ValueError("no admissible intersection abscissa found")
    return min(candidates)
