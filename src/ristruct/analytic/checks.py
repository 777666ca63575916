"""Numerical verification of the model identities and model norms."""

from __future__ import annotations

import hashlib
from fractions import Fraction

import numpy as np

from ..grading import INF, degree, integrability
from ..sector import derive
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
    rhs = model.pi_x(t, x, half).copy()
    for (sigma, forest), c in model.hopf.coproduct(t, model.eps, half):
        if forest.is_planted():
            lam = model.lambda_x(forest, x, invp)
            if lam:
                rhs = rhs + (float(c) * lam) * model.pi_x(sigma, x, invp)
    return relative_error(lhs, rhs)


def check_recentering_consistency(model: Model, t: Tree, x, y, invp)\
        -> float:
    """pi_x(tau) against pi_y applied to the recentering of tau."""
    lhs = model.pi_x(t, x, invp)
    rhs = np.zeros(model.ctx.grid.sizes)
    for (sigma, forest), c in model.hopf.coproduct(t, model.eps,
                                                   Fraction(invp)):
        g = model.g_recentered(forest, x, y, invp)
        if g:
            rhs = rhs + (float(c) * g) * model.pi_x(sigma, y, invp)
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
                              eps, prep=None) -> float:
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
        pert = Model(sector, hopf, ctx, xi + float(j) * h, h=None,
                     eps=eps, prep=prep)
        lhs = lhs + float(w) * pert.pi_x(t, x, 0)
    base = Model(sector, hopf, ctx, xi, h=h, eps=eps, prep=prep)
    rhs = np.zeros(ctx.grid.sizes)
    for s, c in derive(t):
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
    raw, weighted = [], []
    grid = model.ctx.grid
    # recentered fields often coincide across base points (always for
    # trees with trivial recentering); transform each distinct field once
    groups = {}
    for x in base_points:
        f = model.pi_x(t, x, invp)
        dig = hashlib.blake2b(f.tobytes(), digest_size=16).digest()
        if dig not in groups:
            groups[dig] = (grid.rfft(f), [])
        groups[dig][1].append(x)
    for tv in t_values:
        mult = model.ctx.heat_multiplier(float(tv))
        vals = []
        for spec, xs in groups.values():
            smoothed = spec * mult
            vals.extend(abs(grid.point_value(smoothed, x)) for x in xs)
        if ip == INF:
            norm = max(vals)
        else:
            pf = float(ip)
            norm = float(np.mean([v ** pf for v in vals]) ** (1.0 / pf))
        raw.append(norm)
        weighted.append(norm * float(tv) ** float(-r / ell))
    return raw, weighted


def g_norm(model: Model, mu: Tree, base_points, offsets, invp) -> float:
    """Size of the recentering character on sampled point pairs.

    sup |g_{yx}(mu)| / |y - x|^r over base points x and index offsets."""
    invp = Fraction(invp)
    r = float(degree(mu, model.params, model.eps, invp))
    sizes = model.ctx.grid.sizes
    best = 0.0
    for x in base_points:
        xc = np.array(model.base_coord(x))
        for off in offsets:
            y = tuple((xi + oi) % n for xi, oi, n in zip(x, off, sizes))
            if y == tuple(x):
                continue
            yc = np.array(model.base_coord(y))
            dist = float(np.linalg.norm(yc - xc))
            val = abs(model.g_recentered(mu, x, y, invp))
            best = max(best, val / dist ** r)
    return best
