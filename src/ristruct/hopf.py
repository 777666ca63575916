"""Truncated coproducts, the positive-degree projection, the antipode
and the Hopf identity checks.

A forest X^k * prod_i I_{k_i}^{l_i}(tau_i) is represented as a Tree
whose root decoration is k and whose children are the planted factors;
tree_product then doubles as the forest product.  Two independent
coproduct implementations are provided: the recursive one (primary) and
the graphical one enumerating root subtrees (oracle).  A coproduct is a
LinComb over (left, right) pairs of trees; pair_product multiplies two
of them componentwise.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import product as iproduct
from math import lcm

from .grading import GenericityError, Params, degree_consts
from .trees import (H, K, OMEGA, LinComb, Tree, X, coeff_mul, has_k_leaf,
                    integer_weights, mi_abs, mi_add, mi_binom, mi_factorial,
                    mi_range, mi_sub, mi_zero, plant_tree, tree_product,
                    unit)


def pair_product(x: LinComb, y: LinComb) -> LinComb:
    """Componentwise product of two sums over (left, right) pairs."""
    out = LinComb()
    for (a1, b1), c1 in x:
        for (a2, b2), c2 in y:
            out.add((tree_product(a1, a2), tree_product(b1, b2)),
                    coeff_mul(c1, c2))
    return out


class _Truncation:
    """What a Hopf instance keeps for one (eps, 1/p).

    The degree constants are integers over M, the least common
    denominator of r0 - eps, beta0, |s|/p and the scaling (whose own
    denominator is D, with m = M / D): M times the degree of a tree is
    an integer, so sign tests and decoration bounds need no Fraction.
    ``label`` maps an edge label to M times its degree form.  The memos
    of M times the degree and of Delta, Delta+ and S+ at this point are
    keyed by tree alone."""

    __slots__ = ("M", "m", "r", "beta0", "s_invp", "label", "degree",
                 "cop", "cop_plus", "antipode", "antipode_planted")

    def __init__(self, params: Params, D: int, eps, invp):
        consts = degree_consts(params, eps, invp)
        self.M = lcm(D, *(c.denominator for c in consts))
        self.m = self.M // D
        self.r, self.beta0, self.s_invp = (int(c * self.M) for c in consts)
        self.label = {OMEGA: self.r, H: self.r + self.s_invp,
                      K: self.beta0}
        self.degree, self.cop, self.cop_plus = {}, {}, {}
        self.antipode, self.antipode_planted = {}, {}


class Hopf:
    """Coproduct machinery for a fixed parameter set, with memoization.

    Degrees are evaluated as integers: the scaling is held as integer
    weights ``w`` over its common denominator D, and each (eps, 1/p)
    gets a _Truncation with its constants and memos."""

    def __init__(self, params: Params):
        self.params = params
        self.d = params.d
        self._D, self._w = integer_weights(params.scaling)
        self._truncations = {}
        self._lattices = {}

    def truncation(self, eps, invp) -> _Truncation:
        """The _Truncation at (eps, 1/p), built on first use.

        The arguments are tried as a key before they are converted, so
        a repeated point costs one lookup.  Only the converted key is
        stored: a 1/p outside [0, 1/2] is refused on every call."""
        tr = self._truncations.get((eps, invp))
        if tr is None:
            key = (Fraction(eps), Fraction(invp))
            tr = self._truncations.get(key)
            if tr is None:
                tr = self._truncations[key] = _Truncation(
                    self.params, self._D, *key)
        return tr

    def _dot(self, k) -> int:
        return sum(x * y for x, y in zip(k, self._w))

    def degree_num(self, t: Tree, tr: _Truncation) -> int:
        """M times the degree of t at the truncation tr, as an integer."""
        out = tr.degree.get(t)
        if out is None:
            omega, edges, h = t.stats()
            out = tr.degree[t] = (
                (omega + h) * tr.r + (edges - omega - h) * tr.beta0
                + h * tr.s_invp + tr.m * self._dot(t.net()))
        return out

    def _planted_num(self, lab: str, k, sub: Tree, tr: _Truncation) -> int:
        """M times the degree of the planted tree I_k^lab(sub)."""
        return (self.degree_num(sub, tr) + tr.label[lab]
                - tr.m * self._dot(k))

    def planted_degree(self, lab: str, k, sub: Tree, eps, invp) -> Fraction:
        """Degree of the planted tree I_k^lab(sub) at (eps, 1/p).

        Nothing in the package calls it; it stays because bench/tracing.py
        wraps it, and that module's _resolve raises on a missing target."""
        tr = self.truncation(eps, invp)
        return Fraction(self._planted_num(lab, k, sub, tr), tr.M)

    def _positive(self, lab: str, k, sub: Tree, tr: _Truncation) -> bool:
        """Whether I_k^lab(sub) survives P+; refuses a zero degree."""
        num = self._planted_num(lab, k, sub, tr)
        if num == 0:
            raise GenericityError("planted factor degree vanishes under P+")
        return num > 0

    def _lattice(self, cap: int):
        """(l, w.l, 1/l!) for all l with w.l <= cap, in mi_range order."""
        out = self._lattices.get(cap)
        if out is None:
            out = []
            for l in mi_range(tuple(cap // x for x in self._w)):
                wl = self._dot(l)
                if wl <= cap:
                    fact = mi_factorial(l)
                    out.append((l, wl, Fraction(1, fact) if fact > 1 else 1))
            self._lattices[cap] = out
        return out

    def _poly_coproduct(self, n) -> LinComb:
        out = LinComb()
        for l in mi_range(n):
            out.add((X(l), X(mi_sub(n, l))), mi_binom(n, l))
        return out

    def _decoration_candidates(self, lab, k, sub, tr: _Truncation):
        """Extra decorations l with I_{k+l}^lab(sub) of positive degree.

        Yields (l, 1/l!); raises GenericityError when some admissible l
        puts the degree exactly at zero.  Plantings that vanish in the
        K-leaf quotient produce no terms (and no genericity complaints).
        With base = D times the degree of I_k^lab(sub), l is admissible
        when the integer w.l is at most base, a tie when it equals it."""
        if lab == K and sub.is_poly():
            return
        num = self._planted_num(lab, k, sub, tr)
        if num < 0:
            return
        cap, rem = divmod(num, tr.m)  # base = cap + rem / m
        for l, wl, inv_fact in self._lattice(cap):
            if wl == cap and not rem:
                raise GenericityError(
                    f"planted degree vanishes: label {lab}, k+l={mi_add(k, l)}")
            yield l, inv_fact

    # recursive coproduct ------------------------------------------------

    def coproduct(self, t: Tree, eps, invp) -> LinComb:
        """Delta_{eps,p} via the recursive formula (primary route)."""
        return self._coproduct(t, self.truncation(eps, invp))

    def _coproduct(self, t: Tree, tr: _Truncation, plus=False) -> LinComb:
        """Delta (plus=False) or Delta+ (plus=True) of t at tr.

        The polynomial factor is left out when t.n is zero, since its
        coproduct is then the unit 1 (x) 1."""
        memo = tr.cop_plus if plus else tr.cop
        cached = memo.get(t)
        if cached is not None:
            return cached
        factors = [self._coproduct_planted(lab, e, sub, tr, plus)
                   for lab, e, sub in t.children]
        if any(t.n) or not factors:
            factors.insert(0, self._poly_coproduct(t.n))
        out = memo[t] = reduce(pair_product, factors)
        return out

    def _coproduct_planted(self, lab, k, sub, tr, plus: bool) -> LinComb:
        """Delta (plus=False) or Delta+ (plus=True) of I_k^lab(sub).

        They differ only in the planted left factors: Delta+ keeps those
        of positive degree.  A left factor planted along K on a bare
        polynomial lies in the K-leaf ideal and is dropped."""
        out = LinComb()
        for (sigma, forest), c in self._coproduct(sub, tr):
            if lab == K and sigma.is_poly():
                continue
            if not plus or self._positive(lab, k, sigma, tr):
                out.add((plant_tree(lab, k, sigma), forest), c)
        for l, inv_fact in self._decoration_candidates(lab, k, sub, tr):
            out.add((X(l), plant_tree(lab, mi_add(k, l), sub)), inv_fact)
        return out

    # graphical coproduct ------------------------------------------------

    def coproduct_graphical(self, t: Tree, eps, invp) -> LinComb:
        """Delta_{eps,p} by enumerating root subtrees (oracle route)."""
        tr = self.truncation(eps, invp)
        out = LinComb()
        for sigma, forest, excess, coeff in self._graph_node(t, tr):
            if has_k_leaf(sigma):
                continue
            out.add((sigma, tree_product(X(excess), forest)), coeff)
        return out

    def _graph_node(self, t: Tree, tr: _Truncation):
        """All ways to realize the root node of t inside a root subtree.

        Yields (sigma, boundary forest, polynomial excess, coefficient);
        cut edges contribute planted factors with an extra derivative
        decoration delta added at the parent node, kept edges recurse."""
        child_options = []
        for lab, e, sub in t.children:
            opts = []
            for delta, inv_fact in self._decoration_candidates(lab, e, sub,
                                                               tr):
                factor = plant_tree(lab, mi_add(e, delta), sub)
                opts.append((delta, None, factor, mi_zero(t.dim), inv_fact))
            for sig_sub, forest_sub, excess_sub, c_sub in self._graph_node(
                    sub, tr):
                opts.append((mi_zero(t.dim), (lab, e, sig_sub), forest_sub,
                             excess_sub, c_sub))
            child_options.append(opts)
        results = []
        for combo in iproduct(*child_options):
            delta_sum = mi_zero(t.dim)
            excess = mi_zero(t.dim)
            forest = unit(t.dim)
            coeff = 1
            sigma_children = []
            for delta, kept, factor_or_forest, excess_sub, c in combo:
                delta_sum = mi_add(delta_sum, delta)
                excess = mi_add(excess, excess_sub)
                coeff *= c
                forest = tree_product(forest, factor_or_forest)
                if kept is not None:
                    sigma_children.append(kept)
            for n_sigma in mi_range(t.n):
                sigma = Tree(mi_add(n_sigma, delta_sum),
                             tuple(sigma_children))
                results.append((
                    sigma, forest, mi_add(excess, mi_sub(t.n, n_sigma)),
                    coeff * mi_binom(t.n, n_sigma)))
        return results

    # Delta+ -------------------------------------------------------------

    def coproduct_plus(self, f: Tree, eps, invp) -> LinComb:
        """Delta+_{eps,p} on a forest in the P+ range.

        Nothing in the package calls it; it stays because bench/tracing.py
        wraps it, and that module's _resolve raises on a missing target."""
        return self._coproduct(f, self.truncation(eps, invp), True)

    # antipode -----------------------------------------------------------

    def antipode(self, f: Tree, eps, invp) -> LinComb:
        """S+_{eps,p} of a forest, as a LinComb of forests.

        Nothing in the package calls it; it stays because bench/tracing.py
        wraps it, and that module's _resolve raises on a missing target."""
        return self._antipode(f, self.truncation(eps, invp))

    def _antipode(self, f: Tree, tr: _Truncation) -> LinComb:
        """S+ of f at tr, multiplicative over the factors of f; the
        polynomial factor is left out when f.n is zero, as in Delta."""
        cached = tr.antipode.get(f)
        if cached is not None:
            return cached
        factors = [self._antipode_planted(lab, e, sub, tr)
                   for lab, e, sub in f.children]
        if any(f.n) or not factors:
            factors.insert(0, LinComb.single(X(f.n), (-1) ** mi_abs(f.n)))
        out = tr.antipode[f] = reduce(LinComb.product, factors)
        return out

    def _antipode_planted(self, lab, k, sub, tr: _Truncation) -> LinComb:
        key = (lab, k, sub)
        cached = tr.antipode_planted.get(key)
        if cached is not None:
            return cached
        out = LinComb()
        for (sigma, forest), c in self._coproduct(sub, tr):
            s_forest = None
            for l, inv_fact in self._decoration_candidates(lab, k, sigma,
                                                           tr):
                if s_forest is None:
                    s_forest = self._antipode(forest, tr)
                left = tree_product(X(l),
                                    plant_tree(lab, mi_add(k, l), sigma))
                coeff = coeff_mul(
                    inv_fact if mi_abs(l) % 2 else -inv_fact, c)
                for g, cg in s_forest:
                    out.add(tree_product(left, g), coeff_mul(coeff, cg))
        tr.antipode_planted[key] = out
        return out

    # identity checks ----------------------------------------------------

    def comodule_check(self, t: Tree, eps, invp) -> bool:
        """(Delta (x) id)Delta equals (id (x) Delta+)Delta on t."""
        return self._two_sided(False, t, self.truncation(eps, invp))

    def coassociativity_plus_check(self, f: Tree, eps, invp) -> bool:
        """(Delta+ (x) id)Delta+ equals (id (x) Delta+)Delta+ on f."""
        return self._two_sided(True, f, self.truncation(eps, invp))

    def _two_sided(self, plus: bool, t: Tree, tr: _Truncation) -> bool:
        """(cop (x) id)cop equals (id (x) Delta+)cop on t, where cop is
        Delta+ if plus else Delta, at tr."""
        lhs, rhs = LinComb(), LinComb()
        for (a, b), c in self._coproduct(t, tr, plus):
            for (a1, a2), c2 in self._coproduct(a, tr, plus):
                lhs.add((a1, a2, b), coeff_mul(c, c2))
            for (b1, b2), c2 in self._coproduct(b, tr, True):
                rhs.add((a, b1, b2), coeff_mul(c, c2))
        return lhs == rhs

    def convolution_check(self, f: Tree, eps, invp) -> bool:
        """M(S+ (x) id)Delta+ f is the unit when f is, and 0 otherwise."""
        tr = self.truncation(eps, invp)
        out = LinComb()
        for (f1, f2), c in self._coproduct(f, tr, True):
            for g, cg in self._antipode(f1, tr):
                out.add(tree_product(g, f2), coeff_mul(c, cg))
        expected = (LinComb.single(unit(self.d), 1) if f.is_unit()
                    else LinComb())
        return out == expected
