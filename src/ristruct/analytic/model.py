"""Recursive model construction on the periodic grid.

A model interprets sector trees as fields.  The translation-invariant
interpretation is multiplicative and sends noises to the supplied
fields and kernel edges to the integrated-kernel operator; the
renormalized version routes every tree through the preparation map
first.  Recentering at a base point is computed along two independent
routes: pairing the coproduct with the inverse character (primary), and
the multiplicative Taylor-subtraction recursion (oracle).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from ..grading import degree, p_transition, to_invp
from ..hopf import Hopf
from ..renorm import IdentityMap, PreparationMap
from ..sector import Sector
from ..trees import H, K, OMEGA, Tree, mi_add, mi_factorial
from .grid import OperatorContext


class Model:
    """Interpretation of a sector on a grid, with recentering caches.

    ``xi`` interprets the noise, ``h`` its derivative direction; both
    are real fields on the grid.  ``prep`` defaults to the identity
    (no renormalization).  Base points are grid index tuples; the
    integrability exponent enters as the exact rational 1/p."""

    def __init__(self, sector: Sector, hopf: Hopf, ctx: OperatorContext,
                 xi: np.ndarray, h: np.ndarray | None = None,
                 eps=Fraction(0), prep: PreparationMap | None = None):
        if ctx.grid.d != sector.params.d:
            raise ValueError("grid dimension does not match parameters")
        self.sector = sector
        self.hopf = hopf
        self.ctx = ctx
        self.params = sector.params
        self.eps = Fraction(eps)
        self.prep = prep if prep is not None else IdentityMap()
        self.xi = np.asarray(xi, dtype=float)
        self.h = (np.zeros(ctx.grid.sizes) if h is None
                  else np.asarray(h, dtype=float))
        self._axes = ctx.grid.axes()
        self._interp = {}
        self._ki = {}
        self._dh = {}
        self._pi1 = {}
        self._f = {}
        self._ginv_pl = {}
        self._kf1 = {}
        self._hat2 = {}
        self._hat2_pl = {}
        self._kf2 = {}
        self._i_eps = None

    # geometry -----------------------------------------------------------

    def base_coord(self, x):
        """Coordinates of the grid index tuple x."""
        return tuple(float(self._axes[j][x[j]]) for j in range(len(x)))

    def poly_field(self, k, x=None):
        """The field y^k, or (y - x)^k for a base point x."""
        out = np.ones(self.ctx.grid.sizes)
        xc = self.base_coord(x) if x is not None else None
        for j, kj in enumerate(k):
            if kj:
                c = self.ctx.coords()[j]
                out = out * (c - xc[j] if xc else c) ** kj
        return out

    @staticmethod
    def at(field, x) -> float:
        return float(field[tuple(x)])

    def _dhfield(self, k):
        k = tuple(k)
        out = self._dh.get(k)
        if out is None:
            out = self.ctx.derivative(self.h, k)
            self._dh[k] = out
        return out

    # translation-invariant interpretation -------------------------------

    def interp(self, t: Tree) -> np.ndarray:
        """The (renormalized) interpretation of a sector tree."""
        out = self._interp.get(t)
        if out is None:
            out = np.zeros(self.ctx.grid.sizes)
            for s, c in self.prep.apply(t):
                out = out + float(c) * self._interp_hat(s)
            self._interp[t] = out
        return out

    def _kernel_invariant(self, sub: Tree, e):
        key = (sub, tuple(e))
        out = self._ki.get(key)
        if out is None:
            out = self.ctx.kernel_apply(self.interp(sub), e)
            self._ki[key] = out
        return out

    def _interp_hat(self, t: Tree) -> np.ndarray:
        field = self.poly_field(t.n)
        for lab, e, sub in t.children:
            if lab == OMEGA:
                field = field * self.xi
            elif lab == H:
                field = field * self._dhfield(e)
            else:
                field = field * self._kernel_invariant(sub, e)
        return field

    # recentering, coproduct route ---------------------------------------

    def pi_x(self, t: Tree, x, invp) -> np.ndarray:
        """Recentered interpretation via (interp x g_x^-1) o coproduct."""
        invp = Fraction(invp)
        x = tuple(x)
        key = (t, x, invp)
        out = self._pi1.get(key)
        if out is None:
            out = np.zeros(self.ctx.grid.sizes)
            for (sigma, forest), c in self.hopf.coproduct(t, self.eps,
                                                          invp):
                g = self.g_inv(forest, x, invp)
                if g:
                    out = out + (float(c) * g) * self.interp(sigma)
            self._pi1[key] = out
        return out

    def g_inv(self, forest: Tree, x, invp) -> float:
        """The inverse character g_x^-1 on a forest."""
        xc = self.base_coord(x)
        val = 1.0
        for j, nj in enumerate(forest.n):
            if nj:
                val *= (-xc[j]) ** nj
        for lab, e, sub in forest.children:
            val *= self._g_inv_planted(lab, e, sub, x, invp)
            if not val:
                return 0.0
        return val

    def _g_inv_planted(self, lab, e, sub, x, invp) -> float:
        key = (lab, tuple(e), sub, tuple(x), Fraction(invp))
        out = self._ginv_pl.get(key)
        if out is None:
            xc = self.base_coord(x)
            out = 0.0
            for l, _c in self.hopf._decoration_candidates(
                    lab, e, sub, self.hopf.truncation(self.eps, invp)):
                w = 1.0
                for j, lj in enumerate(l):
                    if lj:
                        w *= (-xc[j]) ** lj
                out -= (w / mi_factorial(l)) * self.f_x(
                    lab, mi_add(e, l), sub, x, invp)
            self._ginv_pl[key] = out
        return out

    def f_x(self, lab, k, sub, x, invp) -> float:
        """The character f_x on the planted tree with the given data.

        Zero unless the planted degree is positive; then the k-th
        derivative of h at x for an H edge, or the kernel of the
        recentered interpretation of the argument at x for a K edge."""
        invp = Fraction(invp)
        key = (lab, tuple(k), sub, tuple(x), invp)
        out = self._f.get(key)
        if out is None:
            if self.hopf.planted_degree(lab, k, sub, self.eps, invp) <= 0:
                out = 0.0
            elif lab == H:
                out = self.at(self._dhfield(k), x)
            elif lab == K:
                out = self.ctx.grid.point_value(
                    self._recentered_spectrum(sub, x, invp)
                    * self.ctx.kernel_multiplier(k), x)
            else:
                raise ValueError("noise edges have negative degree")
            self._f[key] = out
        return out

    def _recentered_spectrum(self, sub: Tree, x, invp):
        """Half spectrum of pi_x(sub), shared by the kernel reads of every
        derivative order at x (the oracle route reads full fields)."""
        key = (sub, tuple(x), Fraction(invp))
        out = self._kf1.get(key)
        if out is None:
            out = self.ctx.grid.rfft(self.pi_x(sub, x, invp))
            self._kf1[key] = out
        return out

    # recentering, multiplicative route ----------------------------------

    def pi_x_hat(self, t: Tree, x, invp) -> np.ndarray:
        """Recentered interpretation via the Taylor-subtraction recursion."""
        invp = Fraction(invp)
        x = tuple(x)
        out = np.zeros(self.ctx.grid.sizes)
        for s, c in self.prep.apply(t):
            out = out + float(c) * self._hat_x(s, x, invp)
        return out

    def _hat_x(self, t: Tree, x, invp) -> np.ndarray:
        key = (t, x, invp)
        out = self._hat2.get(key)
        if out is None:
            out = self.poly_field(t.n, x)
            for lab, e, sub in t.children:
                out = out * self._hat_x_planted(lab, e, sub, x, invp)
            self._hat2[key] = out
        return out

    def _hat_x_planted(self, lab, e, sub, x, invp) -> np.ndarray:
        key = (lab, tuple(e), sub, x, invp)
        out = self._hat2_pl.get(key)
        if out is None:
            if lab == OMEGA:
                base = self.xi

                def point(k):
                    raise AssertionError("noise degree is negative")
            elif lab == H:
                base = self._dhfield(e)

                def point(k):
                    return self.at(self._dhfield(k), x)
            else:
                src = self.pi_x_hat(sub, x, invp)
                base = self.ctx.kernel_apply(src, e)

                def point(k):
                    kk = (sub, k, x, invp)
                    f = self._kf2.get(kk)
                    if f is None:
                        f = self.ctx.kernel_apply(src, k)
                        self._kf2[kk] = f
                    return self.at(f, x)
            out = base
            for l, _c in self.hopf._decoration_candidates(
                    lab, e, sub, self.hopf.truncation(self.eps, invp)):
                out = out - (self.poly_field(l, x) / mi_factorial(l)) \
                    * point(mi_add(e, l))
            self._hat2_pl[key] = out
        return out

    # the comparison character -------------------------------------------

    def phase_points(self):
        """Integrability exponents where some generator degree crosses 0."""
        if self._i_eps is None:
            pts = set()
            for mu in self.sector.w_plus_generators(self.eps,
                                                    Fraction(1, 2)):
                if mu.h_count() == 1:
                    p = p_transition(mu, self.params, self.eps)
                    if p is not None:
                        pts.add(p)
            self._i_eps = sorted(pts)
        return self._i_eps

    def lambda_x(self, mu: Tree, x, invp) -> float:
        """Comparison character: f_x just below mu's own crossing point.

        Nonzero only on planted trees whose degree is nonpositive at the
        model's p but positive at p = 2; the evaluation exponent is any
        generic point of the cell (floor(p(mu)), p(mu)), over which the
        construction is constant."""
        if not mu.is_planted():
            return 0.0
        invp = Fraction(invp)
        r_p = degree(mu, self.params, self.eps, invp)
        r_2 = degree(mu, self.params, self.eps, Fraction(1, 2))
        if not (r_p <= 0 < r_2):
            return 0.0
        p_mu = p_transition(mu, self.params, self.eps)
        lower = [q for q in self.phase_points() if q < p_mu]
        q = max([Fraction(2)] + lower)
        invp_cell = (to_invp(p_mu) + to_invp(q)) / 2
        (lab, k, sub), = mu.children
        return self.f_x(lab, k, sub, x, invp_cell)

    # plain characters ---------------------------------------------------

    def g_plain(self, forest: Tree, x, invp) -> float:
        """The character g_x itself, via the antipode of the forest."""
        total = 0.0
        for g, c in self.hopf.antipode(forest, self.eps, invp):
            total += float(c) * self.g_inv(g, x, invp)
        return total

    def g_recentered(self, mu: Tree, x, y, invp) -> float:
        """g_{yx}(mu) = (g_y x g_x^-1) applied to the positive coproduct."""
        total = 0.0
        for (f1, f2), c in self.hopf.coproduct_plus(mu, self.eps, invp):
            gi = self.g_inv(f2, x, invp)
            if gi:
                total += float(c) * self.g_plain(f1, y, invp) * gi
        return total
