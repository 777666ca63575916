"""References that the tests compare the package against.

Nothing in the command line, the benchmark or the scripts runs these, so
they live with the tests rather than in the installed package, and stay
independent of the code they check:

- ``Renormalizer``, the symbolic expansion M^R = hat(M)^R R of the
  renormalised model (BHZ), the oracle for ``Model(prep=R)``;
- ``DictPreparationMap``, a preparation map given by a table;
- ``check_recentering_consistency`` with the characters ``g_plain`` and
  ``g_recentered`` of a model;
- ``relative_error_reference``, ``pi_x_reference``,
  ``check_comparison_reference`` and
  ``check_derivative_identity_reference``, the relative error, the
  coproduct route, the comparison check and the derivative check summed
  with a new array per term, and ``weighted_sum_reference``, a weighted
  sum begun from zeros;
- the grid references ``heat_apply``, ``time_integral_reference``,
  ``time_integral_per_mode``, ``freq_mesh`` and ``coord_mesh``, and
  ``poly_field_reference``, a polynomial field formed on the full
  coordinate meshes;
- ``builtin_sector``, a builtin rule's sector at other generation
  bounds;
- ``mi_weight``, the scaled weight |k|_s in Fractions, the brute force
  that ``Params.weights`` and ``weighted_range`` are compared against;
- ``plant``, planting that vanishes on the K-leaf ideal, and
  ``lincomb``, a LinComb from (term, coefficient) pairs."""

import math
from fractions import Fraction

import numpy as np

from ristruct.analytic.checks import _derivative_weights, relative_error
from ristruct.analytic.model import Model
from ristruct.config import builtin_rule_config
from ristruct.renorm import PreparationMap
from ristruct.sector import load_sector
from ristruct.trees import K, LinComb, Tree, X, plant_tree


def plant(label: int, k, t: Tree) -> LinComb:
    """Graft t below a new root along a label edge with decoration k.

    Returns the zero combination when planting a bare polynomial along a
    K edge: such trees lie in the ideal of K-labeled leaves.
    """
    if label == K and t.is_poly():
        if len(k) != t.dim:
            raise ValueError("dimension mismatch")
        return LinComb()
    return LinComb.single(plant_tree(label, k, t))


def lincomb(terms) -> LinComb:
    """The LinComb of (term, coefficient) pairs, summed with ``add``."""
    out = LinComb()
    for t, c in terms:
        out.add(t, c)
    return out


def mi_weight(k, scaling) -> Fraction:
    """|k|_s = sum_j s_j k_j, summed in exact rationals."""
    return sum((Fraction(s) * x for s, x in zip(scaling, k)), Fraction(0))


def builtin_sector(name: str, **bounds):
    """The sector of the builtin rule ``name``, with rule-config keys
    (``maxEdges``, ``maxOmega``) overridden by ``bounds``."""
    cfg = builtin_rule_config(name)
    cfg.update(bounds)
    return load_sector(cfg)


# preparation maps and the renormalised model ----------------------------

class DictPreparationMap(PreparationMap):
    """Extensional table on the basis; identity off the table."""

    def __init__(self, action: dict):
        self.action = dict(action)

    def apply(self, t: Tree) -> LinComb:
        return self.action[t] if t in self.action else LinComb.single(t, 1)


class Renormalizer:
    """M^R = hat(M)^R R with hat(M)^R multiplicative and passing through
    K-planted factors after an inner application of R."""

    def __init__(self, R: PreparationMap):
        self.R = R
        self._hat = {}

    def hat(self, t: Tree) -> LinComb:
        cached = self._hat.get(t)
        if cached is not None:
            return cached
        out = LinComb.single(X(t.n), 1)
        for lab, e, sub in t.children:
            if lab == K:
                inner = self.R.apply(sub).map_trees(self.hat)
                factor = LinComb()
                for s2, c in inner:
                    for p, cp in plant(K, e, s2):
                        factor.add(p, c * cp)
            else:
                factor = LinComb.single(Tree((0,) * t.dim, ((lab, e, sub),)),
                                        1)
            out = out.product(factor)
        self._hat[t] = out
        return out

    def apply(self, t: Tree) -> LinComb:
        return self.R.apply(t).map_trees(self.hat)


# recentering characters ---------------------------------------------------

def g_plain(model, forest: Tree, x, invp) -> float:
    """The character g_x itself, via the antipode of the forest."""
    total = 0.0
    for g, c in model.hopf.antipode(forest, model.eps, invp):
        total += float(c) * model.g_inv(g, x, invp)
    return total


def g_recentered(model, mu: Tree, x, y, invp) -> float:
    """g_{yx}(mu) = (g_y x g_x^-1) applied to the positive coproduct."""
    total = 0.0
    for (f1, f2), c in model.hopf.coproduct_plus(mu, model.eps, invp):
        gi = model.g_inv(f2, x, invp)
        if gi:
            total += float(c) * g_plain(model, f1, y, invp) * gi
    return total


def check_recentering_consistency(model, t: Tree, x, y, invp) -> float:
    """pi_x(tau) against pi_y applied to the recentering of tau."""
    lhs = model.pi_x(t, x, invp)
    rhs = np.zeros(model.ctx.grid.sizes)
    for (sigma, forest), c in model.hopf.coproduct(t, model.eps,
                                                   Fraction(invp)):
        g = g_recentered(model, forest, x, y, invp)
        if g:
            rhs = rhs + (float(c) * g) * model.pi_x(sigma, y, invp)
    return relative_error(lhs, rhs)


# sums with a new array per term -----------------------------------------

def relative_error_reference(a, b) -> float:
    """Max deviation relative to the larger field magnitude, formed from
    the absolute values of a, b and a - b."""
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b))) / scale


def weighted_sum_reference(terms, sizes) -> np.ndarray:
    """The sum of w f over the (field, weight) pairs, begun from zeros,
    each term scaled into a new array and added."""
    out = np.zeros(sizes)
    for f, w in terms:
        out += np.multiply(f, w)
    return out


def pi_x_reference(model, t: Tree, x, invp) -> np.ndarray:
    """pi_x(t) as the sum over the public coproduct at 1/p of
    g_x^-1(forest) interp(sigma)."""
    out = np.zeros(model.ctx.grid.sizes)
    for (sigma, forest), c in model.hopf.coproduct(t, model.eps, invp):
        g = model.g_inv(forest, x, invp)
        if g:
            out += (float(c) * g) * model.interp(sigma)
    return out


def check_comparison_reference(model, t: Tree, x, invp) -> float:
    """``check_comparison``, each comparison term added as a new array."""
    invp = Fraction(invp)
    half = Fraction(1, 2)
    lhs = model.pi_x(t, x, invp)
    rhs = model.pi_x(t, x, half)
    for (sigma, forest), c in model.hopf.coproduct(t, model.eps, half):
        if forest.is_planted():
            lam = model.lambda_x(forest, x, invp)
            if lam:
                rhs = rhs + (float(c) * lam) * model.pi_x(sigma, x, invp)
    return relative_error_reference(lhs, rhs)


def check_derivative_identity_reference(sector, hopf, ctx, xi, h, t: Tree,
                                        x, eps) -> float:
    """``check_derivative_identity``, each term a new array scaled in
    place and added."""
    deg = t.omega_count()
    m = deg // 2
    nodes = list(range(-m, deg - m + 1))
    base = Model(sector, hopf, ctx, xi, h=h, eps=eps)
    lhs = np.zeros(ctx.grid.sizes)
    for j, w in zip(nodes, _derivative_weights(nodes)):
        if w == 0:
            continue
        pert = base if j == 0 else Model(sector, hopf, ctx,
                                         xi + float(j) * h, eps=eps)
        term = pert.pi_x(t, x, 0).copy()
        term *= float(w)
        lhs += term
    rhs = np.zeros(ctx.grid.sizes)
    for s, c in sector.derive(t):
        term = base.pi_x(s, x, 0).copy()
        term *= float(c)
        rhs += term
    return relative_error_reference(lhs, rhs)


# grid references ----------------------------------------------------------

def heat_apply(ctx, f, t: float, k=None):
    """exp(tP) f, differentiated by d^k when k is given."""
    mult = ctx.heat_multiplier(t)
    if k is not None and any(k):
        mult = mult * ctx.i_lambda_pow(k)
    return ctx.apply_multiplier(f, mult)


def time_integral_reference(ctx):
    """Closed form (exp(P) - 1)/P per mode of int_0^1 exp(tP) dt."""
    P = ctx.P
    out = np.ones_like(P)
    nz = P != 0
    out[nz] = np.expm1(P[nz]) / P[nz]
    return out


def time_integral_per_mode(ctx):
    """The quadrature of ``OperatorContext.time_integral`` run over every
    mode of the half spectrum, not once per distinct symbol value: S and
    the self-check error."""
    P = ctx.P
    pmax = float(np.max(np.abs(P)))
    J = max(1, math.ceil(math.log2(max(pmax, 1.0)))) + ctx.quad.extra_depth
    blocks = [(0.0, 2.0 ** -J)]
    blocks += [(2.0 ** (-j - 1), 2.0 ** -j) for j in range(J)]

    def quadrature(nodes):
        x, w = np.polynomial.legendre.leggauss(nodes)
        total = np.zeros(P.shape)
        for a, b in blocks:
            half = 0.5 * (b - a)
            mid = 0.5 * (b + a)
            for xi, wi in zip(x, w):
                total = total + (half * wi) * np.exp((mid + half * xi) * P)
        return total

    S = quadrature(ctx.quad.nodes_per_block)
    check = quadrature(ctx.quad.check_nodes)
    err = float(np.max(np.abs(S - check))
                / max(1.0, float(np.max(np.abs(check)))))
    return S, err


def freq_mesh(grid):
    """Angular frequency meshes over the full fftfreq layout."""
    return np.meshgrid(*grid.freqs(), indexing="ij")


def coord_mesh(grid):
    """Coordinate meshes over the grid (indexing='ij')."""
    return np.meshgrid(*grid.axes(), indexing="ij")


def poly_field_reference(model, k, x=None) -> np.ndarray:
    """The field y^k, or (y - x)^k, as all ones times one power of a full
    coordinate mesh per nonzero entry of k."""
    xc = model.base_coord(x) if x is not None else None
    out = np.ones(model.ctx.grid.sizes)
    for j, c in enumerate(coord_mesh(model.ctx.grid)):
        if k[j]:
            out = out * (c - xc[j] if xc else c) ** k[j]
    return out
