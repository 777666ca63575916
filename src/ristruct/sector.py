"""Rule-driven sector generation, the noise-derivative map, the preorder
and the filtration used by the inductive machinery.

A rule assigns to the K label a family of node types (multisets of
labeled, decorated outgoing edges); trees strongly conform when every
node realizes an allowed type.  Generation builds nodes only from the
types with an Omega edge, so every internal node carries its own noise
leaf, matching the bases the model construction iterates over."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .config import json_array, json_integer, json_object, json_rational
from .grading import Params, degree
from .hopf import Hopf
from .trees import (H, K, LABELS, OMEGA, LinComb, Tree, X, dot_noise,
                    mi_zero, noise, plant_tree, unit, weighted_range)


@dataclass(frozen=True)
class Rule:
    """Node types allowed below a K edge; the Omega label admits none.
    Each node type is a sorted tuple of (label, decoration) pairs."""
    for_k: frozenset

    @classmethod
    def from_types(cls, d: int, types) -> "Rule":
        """The rule allowing the given node types, lists of [letter,
        decoration] pairs as in a rule config's K, and their
        sub-multisets; the one place a rule is checked, since
        sub-multisets of a valid type are valid."""
        closed = set()
        for entries in json_array(types, "K", least=0):
            t = []
            for entry in json_array(entries, "K node type", least=0):
                letter, k = json_array(entry, "K node type entry", 2)
                lab = LABELS.get(letter) if type(letter) is str else None
                if lab not in (OMEGA, K):
                    raise ValueError(
                        f"rule node types may not contain label {letter}")
                t.append((lab, tuple(
                    json_integer(x, "K node type decoration entry")
                    for x in json_array(k, "K node type decoration", d))))
            omegas = [k for lab, k in t if lab == OMEGA]
            if len(omegas) > 1:
                raise ValueError("node type with more than one Omega edge")
            if omegas and any(omegas[0]):
                raise ValueError("Omega edge in a rule must carry zero "
                                 "decoration")
            t.sort()
            for r in range(len(t) + 1):
                closed.update(combinations(t, r))
        return cls(frozenset(closed))


def load_rule_config(cfg: dict):
    """Read a rule config: K node types, bounds and parameters."""
    cfg = json_object(cfg, "rule")
    params = Params.from_dict(cfg["params"])
    rule = Rule.from_types(params.d, cfg["K"])
    return (rule, json_integer(cfg["maxOmega"], "maxOmega"),
            json_rational(cfg["L"], "L"), params,
            json_integer(cfg.get("maxEdges", 5), "maxEdges"))


def load_sector(cfg: dict) -> "Sector":
    """The sector a rule config generates."""
    rule, max_omega, L, params, max_edges = load_rule_config(cfg)
    return generate_from_rule(rule, max_omega, L, params,
                              max_edges=max_edges)


def key_of(t: Tree, params: Params):
    """The preorder key (number of Omega edges, edge count, r_{0,inf})."""
    s = t.stats()
    return (s[0], s[1], degree(t, params, 0, 0))


def derive(t: Tree) -> LinComb:
    """Relabel one Omega edge to H, summed over all Omega edges."""
    if t.h_count() > 0:
        raise ValueError("derivative map is defined on H-free trees only")
    return _derive(t)


def _derive(t: Tree) -> LinComb:
    out = LinComb()
    for i, (lab, e, sub) in enumerate(t.children):
        rest = t.children[:i] + t.children[i + 1:]
        if lab == OMEGA:
            out.add(Tree(t.n, rest + ((H, e, sub),)), 1)
        for s2, c in _derive(sub):
            out.add(Tree(t.n, rest + ((lab, e, s2),)), c)
    return out


class Sector:
    """Ordered basis of noise trees with its derivative and filtration.

    ``derive`` memoizes the derivative map per tree for the sector's
    lifetime: the dot basis, the preparation axiom (e) and the model's
    derivative identity read the same derivatives many times.  The
    returned LinComb is shared by every caller, so it is read-only."""

    def __init__(self, params: Params, basis_o, poly_bound):
        self.params = params
        self._derivatives = {}
        self.basis_o = sorted(basis_o, key=self._order)
        self.polys = sorted(X(k) for k in self._below(Fraction(poly_bound)))
        self.basis = self.polys + self.basis_o
        self.dot_basis_by_index = [
            sorted({s for s, _c in self.derive(tau)}, key=self._order)
            for tau in self.basis_o]
        self.dot_basis = self.dot_prefix(len(self.basis_o))

    def _order(self, t: Tree):
        """The sort key of the sector's tree lists: the preorder key,
        with ties broken by the tree order."""
        return key_of(t, self.params) + (t._enc,)

    def derive(self, t: Tree) -> LinComb:
        """The memoized derive(t); read-only, see the class docstring."""
        out = self._derivatives.get(t)
        if out is None:
            out = self._derivatives[t] = derive(t)
        return out

    @property
    def mB(self) -> int:
        return max(t.edge_count() for t in self.basis_o)

    def members(self):
        return self.basis + self.dot_basis

    def basis_prefix(self, i: int):
        """B_i: the first i noise trees together with the polynomials."""
        return self.polys + self.basis_o[:i]

    def dot_prefix(self, i: int):
        """The derivative trees of the first i noise trees, in order."""
        return sorted({t for group in self.dot_basis_by_index[:i]
                       for t in group}, key=self._order)

    # generator sets -----------------------------------------------------

    def _below(self, bound):
        """All multi-indices k with |k|_s < bound, in mi_range order.

        With (D, w) the integer weights of ``Params.weights`` and bound =
        num / den, |k|_s < bound exactly when the integer w.k is below
        D * bound, that is at most ceil(D * bound) - 1 =
        (num * D - 1) // den, so the test runs in integers."""
        D, w = self.params.weights
        cap = (bound.numerator * D - 1) // bound.denominator
        return [k for k, _wk in weighted_range(w, cap)]

    def w_plus_generators(self, eps, invp):
        """W+ generators: the coordinates X_a, the derivative noises whose
        decoration lies below the H degree, and the plantings I_k(tau) of
        basis and derivative trees with |k|_s < deg(tau) + beta0."""
        params, d = self.params, self.params.d
        gens = [X(tuple(1 if j == a else 0 for j in range(d)))
                for a in range(d)]
        h_bound = degree(dot_noise(d), params, eps, invp)
        gens += [dot_noise(d, k) for k in self._below(h_bound)]
        for tau in self.basis_o + self.dot_basis:
            if not tau.is_poly():
                bound = degree(tau, params, eps, invp) + params.beta0
                gens += [plant_tree(K, k, tau) for k in self._below(bound)]
        return gens


def generate_from_rule(rule: Rule, max_omega: int, poly_bound, params: Params,
                       max_edges: int = 5) -> Sector:
    """Enumerate the strongly conforming noise trees up to the bounds.

    Nodes are built only from the node types with an Omega edge, so each
    internal node carries its own zero-decorated Omega leaf: no planted
    trees, and the basis aligned with the model induction.  Kept trees
    have fewer than max_omega Omega edges and at most max_edges edges."""
    if max_omega < 2:
        raise ValueError("maxOmega must be at least 2")
    d = params.d
    z = mi_zero(d)

    memo = {}

    def subtrees(budget: int):
        """Conforming trees with at least one edge, up to budget edges."""
        if budget <= 0:
            return []
        if budget in memo:
            return memo[budget]
        found = {}  # insertion-ordered, so deterministic without a sort
        for ntype in sorted(rule.for_k):
            own_edges = len(ntype)
            omega_slots = [k for lab, k in ntype if lab == OMEGA]
            if not omega_slots or own_edges > budget:
                continue
            k_slots = [k for lab, k in ntype if lab == K]
            remaining = budget - own_edges

            def assign(slot: int, left: int, acc: tuple):
                if slot == len(k_slots):
                    children = [(OMEGA, k, unit(d)) for k in omega_slots]
                    children += [(K, k_slots[j], acc[j])
                                 for j in range(len(acc))]
                    found[Tree(z, tuple(children))] = None
                    return
                slots_after = len(k_slots) - slot - 1
                for sub in subtrees(left - slots_after):
                    assign(slot + 1, left - sub.edge_count(), acc + (sub,))
            assign(0, remaining, ())
        out = memo[budget] = list(found)
        return out

    basis_o = [t for t in subtrees(max_edges)
               if t.omega_count() < max_omega]
    if not basis_o:
        raise ValueError("rule generates no admissible noise trees")
    return Sector(params, basis_o, poly_bound)


# The four checks of ``ristruct verify hopf`` as (name, tree set,
# predicate): the coproduct against its graphical oracle and the comodule
# identity on every member, Delta+ coassociativity and the antipode
# convolution on every W+ generator.  ``verify hopf`` walks the tree sets
# in the order of HOPF_TREE_SETS, running each tree's checks in turn.
HOPF_TREE_SETS = {
    "members": lambda s, eps, invp: s.members(),
    "w_plus_generators": lambda s, eps, invp: s.w_plus_generators(eps, invp)}
HOPF_CHECKS = (
    ("oracle", "members", lambda h, t, eps, invp:
        h.coproduct(t, eps, invp) == h.coproduct_graphical(t, eps, invp)),
    ("comodule", "members",
     lambda h, t, eps, invp: h.comodule_check(t, eps, invp)),
    ("coassociativity", "w_plus_generators",
     lambda h, t, eps, invp: h.coassociativity_plus_check(t, eps, invp)),
    ("antipode-convolution", "w_plus_generators",
     lambda h, t, eps, invp: h.convolution_check(t, eps, invp)))


# structural checks ------------------------------------------------------

@dataclass
class Report:
    """Failures of a structural check, each naming the check (a sector
    property or a preparation axiom), the tree and a detail."""
    ok: bool = True
    failures: list = field(default_factory=list)

    def fail(self, check: str, tree: Tree, detail: str):
        self.ok = False
        self.failures.append({"check": check, "tree": tree,
                              "detail": detail})


def _omega_leaves_ok(t: Tree) -> tuple:
    omega_here = 0
    for lab, e, sub in t.children:
        if lab == OMEGA:
            omega_here += 1
            if not sub.is_poly():
                return False, "Omega edge is not a leaf"
            if any(sub.n) or any(e):
                return False, "Omega edge carries a nonzero decoration"
        else:
            ok, msg = _omega_leaves_ok(sub)
            if not ok:
                return ok, msg
    if omega_here > 1:
        return False, "two Omega edges share a parent"
    return True, ""


def check_differentiable(s: Sector, hopf: Hopf, eps, invp) -> Report:
    """Verify the four defining sector properties at (eps, p).

    (a) basis shape, (b) noise edges are decorated-free leaves, one per
    node, (c) the coproduct of basis trees stays in V (x) V+, (d) the
    coproduct of derivative trees stays in W (x) W+."""
    report = Report()
    noise_tree = noise(s.params.d)
    if noise_tree not in set(s.basis_o):
        report.fail("a", noise_tree, "the noise tree is missing from the "
                    "basis")
    for t in s.basis_o:
        if t.omega_count() < 1:
            report.fail("a", t, "noise-free tree in the noise basis")
        ok, msg = _omega_leaves_ok(t)
        if not ok:
            report.fail("b", t, msg)

    b_set = set(s.basis)
    w_set = b_set | set(s.dot_basis)

    def right_ok(forest: Tree, allowed_args: set) -> str:
        for lab, e, sub in forest.children:
            if lab == OMEGA:
                return "Omega-planted factor survived the projection"
            if lab == H:
                if not sub.is_unit():
                    return "H-planted factor with a nontrivial argument"
            elif sub not in allowed_args or sub.is_poly():
                return f"K-planted argument outside the sector: {sub!r}"
        return ""

    for t, left_ok_set, allowed_args, prop in (
            [(t, b_set, b_set, "c") for t in s.basis]
            + [(t, w_set, w_set, "d") for t in s.members()]):
        for (left, right), _c in hopf.coproduct(t, eps, invp):
            if left not in left_ok_set:
                report.fail(prop, t, f"left factor outside the sector: "
                            f"{left!r}")
                break
            msg = right_ok(right, allowed_args)
            if msg:
                report.fail(prop, t, msg)
                break
    return report


def check_triangular(s: Sector, hopf: Hopf, eps, invp) -> Report:
    """Coproduct triangularity: all non-leading terms strictly precede."""
    report = Report()
    params = s.params
    members = set(s.members())
    for tau in s.members():
        kt = key_of(tau, params)
        for (left, right), c in hopf.coproduct(tau, eps, invp):
            if left is tau and right.is_unit():
                if c != 1:
                    report.fail("triangular", tau,
                                "leading coefficient is not 1")
                continue
            if not left.is_poly():
                if left not in members:
                    report.fail("triangular", tau,
                                f"left factor {left!r} not a sector member")
                    continue
                if not (key_of(left, params) <= kt and left is not tau):
                    report.fail("triangular", tau,
                                f"left factor {left!r} does not precede")
            for lab, _e, sub in right.children:
                if lab == K and not (key_of(sub, params) <= kt
                                     and sub is not tau):
                    report.fail("triangular", tau,
                                f"planted argument {sub!r} does not precede")
    return report
