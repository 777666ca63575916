"""Numerical verification of the model identities and model norms."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from ..grading import INF, degree, integrability
from ..trees import Tree
from .model import Model


def relative_error(a: np.ndarray, b: np.ndarray) -> float:
    """Max deviation relative to the larger field magnitude."""
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b))) / scale


def check_route_equivalence(model: Model, t: Tree, x, invp) -> float:
    """Coproduct-paired vs Taylor-subtraction recentering."""
    return relative_error(model.pi_x(t, x, invp),
                          model.pi_x_hat(t, x, invp))


def check_comparison(model: Model, t: Tree, x, invp) -> float:
    """Recentering at p against p = 2 plus the comparison-character sum."""
    invp = Fraction(invp)
    half = Fraction(1, 2)
    lhs = model.pi_x(t, x, invp)
    rhs = model.pi_x(t, x, half)
    for (sigma, forest), c in model.hopf.coproduct(t, model.eps, half):
        if forest.is_planted():
            lam = model.lambda_x(forest, x, invp)
            if lam:
                rhs = rhs + (float(c) * lam) * model.pi_x(sigma, x, invp)
    return relative_error(lhs, rhs)


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
    side interprets the relabeled trees at integrability infinity."""
    deg = t.omega_count()
    m = deg // 2
    nodes = list(range(-m, deg - m + 1))
    weights = _derivative_weights(nodes)
    lhs = np.zeros(ctx.grid.sizes)
    for j, w in zip(nodes, weights):
        if w == 0:
            continue
        pert = Model(sector, hopf, ctx, xi + float(j) * h, eps=eps)
        lhs = lhs + float(w) * pert.pi_x(t, x, 0)
    base = Model(sector, hopf, ctx, xi, h=h, eps=eps)
    rhs = np.zeros(ctx.grid.sizes)
    for s, c in sector.derive(t):
        rhs = rhs + float(c) * base.pi_x(s, x, 0)
    return relative_error(lhs, rhs)


def qnorm_series(model: Model, t: Tree, base_points, t_values, invp):
    """Per-time heat-smoothed sizes of the recentered interpretation.

    Returns (raw norms, weighted norms) where the weight divides out the
    expected power t^(r/ell); the norm over base points is the max for
    integrability infinity and the p-mean otherwise."""
    invp = Fraction(invp)
    r = degree(t, model.params, model.eps, invp)
    ell = model.params.ell
    p = INF if invp == 0 else 1 / invp
    ip = integrability(t, p)
    t_values = [float(tv) for tv in t_values]
    # one row per base point, one value per time
    rows = [model.ctx.heat_points(model.phased_spectrum(t, x, invp),
                                  t_values) for x in base_points]
    raw, weighted = [], []
    for tv, col in zip(t_values, zip(*rows)):
        vals = [abs(v) for v in col]
        if ip == INF:
            norm = max(vals)
        else:
            pf = float(ip)
            norm = float(np.mean([v ** pf for v in vals]) ** (1.0 / pf))
        raw.append(norm)
        weighted.append(norm * tv ** float(-r / ell))
    return raw, weighted
