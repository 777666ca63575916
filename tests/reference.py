"""References that the tests compare the package against.

Nothing in the command line, the benchmark or the scripts runs these, so
they live with the tests rather than in the installed package, and stay
independent of the code they check:

- ``Renormalizer``, the symbolic expansion M^R = hat(M)^R R of the
  renormalised model (BHZ), the oracle for ``Model(prep=R)``;
- ``DictPreparationMap``, a preparation map given by a table;
- ``check_recentering_consistency`` with the characters ``g_plain`` and
  ``g_recentered`` of a model;
- the grid references ``heat_apply``, ``time_integral_reference`` and
  ``freq_mesh``;
- ``builtin_sector``, a builtin rule's sector at other generation
  bounds."""

from fractions import Fraction

import numpy as np

from ristruct.analytic.checks import relative_error
from ristruct.config import builtin_rule_config
from ristruct.renorm import PreparationMap
from ristruct.sector import load_sector
from ristruct.trees import K, LinComb, Tree, X, plant


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


def freq_mesh(grid):
    """Angular frequency meshes over the full fftfreq layout."""
    return np.meshgrid(*grid.freqs(), indexing="ij")
