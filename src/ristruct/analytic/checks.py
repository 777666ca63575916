"""Numerical verification of the model identities and model norms."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from ..grading import INF, integrability
from ..trees import Tree
from .model import _HALF, Model, weighted_sum


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Max deviation relative to the larger field magnitude.

    max|a| is read as max(max a, -min a), so a - b is the only array
    formed; its absolute value is taken in place."""
    scale = max(float(max(a.max(), -a.min())),
                float(max(b.max(), -b.min())), 1e-300)
    diff = a - b
    return float(np.abs(diff, out=diff).max()) / scale


def check_route_equivalence(model: Model, t: Tree, x, invp) -> float:
    """Coproduct-paired vs Taylor-subtraction recentering."""
    return relative_error(model.pi_x(t, x, invp),
                          model.pi_x_hat(t, x, invp))


def check_comparison(model: Model, t: Tree, x, invp) -> float:
    """Recentering at p against p = 2 plus the comparison-character sum."""
    invp = Fraction(invp)
    lhs = model.pi_x(t, x, invp)

    def rhs():  # lazy: listing the terms first faults in a field per call
        yield model.pi_x(t, x, _HALF), 1.0
        for (sigma, forest), c in model.hopf.coproduct(t, model.eps, _HALF):
            if forest.is_planted():
                lam = model.lambda_x(forest, x, invp)
                if lam:
                    yield model.pi_x(sigma, x, invp), float(c) * lam
    return relative_error(lhs, weighted_sum(rhs(), model.ctx.grid.sizes))


def _derivative_weights(nodes):
    """Exact first-derivative-at-zero weights on the given nodes.

    Lagrange interpolation through the integer nodes; exact rational
    arithmetic, so the weights differentiate polynomials of degree
    len(nodes)-1 without truncation error."""
    weights = []
    for i, ni in enumerate(nodes):
        w = Fraction(0)
        for j, nj in enumerate(nodes):
            if j == i:
                continue
            term = Fraction(1, ni - nj)
            for m, nm in enumerate(nodes):
                if m in (i, j):
                    continue
                term *= Fraction(0 - nm, ni - nm)
            w += term
        weights.append(w)
    return weights


def check_derivative_identity(sector, hopf, ctx, xi, h, t: Tree, x,
                              eps) -> float:
    """Noise derivative of the model against the derivative map.

    The perturbed interpretation is a polynomial of degree equal to the
    noise count of the tree in the perturbation parameter, so its exact
    derivative is a finite weighted sum of perturbed models; the right
    side interprets the relabeled trees at integrability infinity.  The
    tree is H-free, so the unperturbed model, which carries h, serves
    as the perturbed model at j = 0."""
    deg = t.omega_count()
    m = deg // 2
    nodes = list(range(-m, deg - m + 1))
    weights = _derivative_weights(nodes)
    base = Model(sector, hopf, ctx, xi, h=h, eps=eps)

    def perturbed(j):
        return base if j == 0 else Model(sector, hopf, ctx,
                                         xi + float(j) * h, eps=eps)
    lhs = weighted_sum(((perturbed(j).pi_x(t, x, 0), float(w))
                        for j, w in zip(nodes, weights) if w),
                       ctx.grid.sizes)
    rhs = weighted_sum(((base.pi_x(s, x, 0), float(c))
                        for s, c in sector.derive(t)), ctx.grid.sizes)
    return relative_error(lhs, rhs)


def qnorm_series(model: Model, t: Tree, base_points, t_values, invp):
    """Per-time heat-smoothed sizes of the recentered interpretation.

    The norm over base points is the max for integrability infinity and
    the p-mean otherwise."""
    invp = Fraction(invp)
    ip = integrability(t, INF if invp == 0 else 1 / invp)
    t_values = [float(tv) for tv in t_values]
    # one row per base point, one value per time
    rows = [model.ctx.heat_points(model.phased_spectrum(t, x, invp),
                                  t_values) for x in base_points]
    norms = []
    for col in zip(*rows):
        vals = [abs(v) for v in col]
        if ip == INF:
            norm = max(vals)
        else:
            pf = float(ip)
            norm = float(np.mean([v ** pf for v in vals]) ** (1.0 / pf))
        norms.append(norm)
    return norms
