"""Recursive model construction on the periodic grid.

A model interprets sector trees as fields.  The translation-invariant
interpretation is multiplicative and sends noises to the supplied
fields and kernel edges to the integrated-kernel operator; the
renormalized version routes every tree through the preparation map
first.  Recentering at a base point is computed along two independent
routes: pairing the coproduct with the inverse character (primary), and
the multiplicative Taylor-subtraction recursion (oracle).  The two read
kernel values at the base point in different ways: the primary route
its phased spectrum against the kernel multiplier, the oracle its real
field against the reflected kernel (see ``grid``).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from ..grading import p_transition, phase_points, to_invp
from ..hopf import Hopf
from ..renorm import IdentityMap, PreparationMap
from ..sector import Sector
from ..trees import (H, K, OMEGA, Tree, mi_add, mi_factorial, noise,
                     unit)
from .grid import OperatorContext, _read_only


def _product(factors, sizes) -> np.ndarray:
    """The pointwise product of the fields, left to right; all ones when
    there are none.  A leading all-ones factor would change no bit, so
    callers leave it out."""
    if not factors:
        return np.ones(sizes)
    out = factors[0]
    for f in factors[1:]:
        out = out * f
    return out


class Model:
    """Interpretation of a sector on a grid, with recentering caches.

    ``xi`` interprets the noise, ``h`` its derivative direction; both
    are real fields on the grid.  The noise may be given instead by its
    ``rfftn`` half spectrum ``xi_hat`` (exactly one of the two); the
    field is then built only when a real-space read needs it, and
    kernel edges on the noise multiply that spectrum directly.
    ``prep`` defaults to the identity (no renormalization).  Base points
    are grid index tuples; the integrability exponent enters as the
    exact rational 1/p.

    The model caches only what is costly to rebuild: results of a
    transform (``interp``, ``spectrum``, the kernel fields, the
    derivatives of h, the recentered planted fields of the oracle route
    and the phased spectra), and exact or scalar values (the characters
    f_x and g_x^-1 on planted trees, the oracle's Taylor coefficients).
    A weighted sum or product of cached fields is formed afresh on each
    call, so ``pi_x`` and ``pi_x_hat`` return new arrays the caller may
    change.  ``interp`` and ``spectrum`` hand out their cached arrays,
    which are read-only: a write into one raises ValueError instead of
    changing every later result built from it."""

    def __init__(self, sector: Sector, hopf: Hopf, ctx: OperatorContext,
                 xi: np.ndarray | None = None, h: np.ndarray | None = None,
                 eps=Fraction(0), prep: PreparationMap | None = None, *,
                 xi_hat: np.ndarray | None = None):
        if ctx.grid.d != sector.params.d:
            raise ValueError("grid dimension does not match parameters")
        if (xi is None) == (xi_hat is None):
            raise ValueError("give exactly one of xi and xi_hat")
        self.sector = sector
        self.hopf = hopf
        self.ctx = ctx
        self.params = sector.params
        self.eps = Fraction(eps)
        self.prep = prep if prep is not None else IdentityMap()
        self._xi = None if xi is None else np.asarray(xi, dtype=float)
        self._xi_hat = xi_hat
        self.h = (np.zeros(ctx.grid.sizes) if h is None
                  else np.asarray(h, dtype=float))
        self._axes = ctx.grid.axes()
        self._noise = noise(ctx.grid.d)
        self._unit = unit(ctx.grid.d)
        self._interp = {}
        self._spec = {}
        self._ki = {}
        self._dh = {}
        self._f = {}
        self._ginv_pl = {}
        self._kf1 = {}
        self._hat2_pl = {}
        self._kf2 = {}
        self._i_eps = None

    @property
    def xi(self) -> np.ndarray:
        """The noise field (built from ``xi_hat`` on first use)."""
        if self._xi is None:
            self._xi = self.ctx.grid.irfft(self._xi_hat)
        return self._xi

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
                out += float(c) * self._interp_hat(s)
            self._interp[t] = out = _read_only(out)
        return out

    def spectrum(self, t: Tree) -> np.ndarray:
        """Half spectrum of ``interp(t)``, transformed once per tree; for
        the noise it is a read-only view of ``xi_hat`` when that is given
        and the preparation map leaves the noise alone."""
        out = self._spec.get(t)
        if out is None:
            if (t is self._noise and self._xi_hat is not None
                    and self.prep.apply(t).terms == {t: 1}):
                out = self._xi_hat.view()
            else:
                out = self.ctx.grid.rfft(self.interp(t))
            self._spec[t] = out = _read_only(out)
        return out

    def _kernel_invariant(self, sub: Tree, e):
        key = (sub, tuple(e))
        out = self._ki.get(key)
        if out is None:
            out = self.ctx.grid.irfft(self.spectrum(sub)
                                      * self.ctx.kernel_multiplier(e))
            self._ki[key] = out
        return out

    def _interp_hat(self, t: Tree) -> np.ndarray:
        factors = [self.poly_field(t.n)] if any(t.n) else []
        for lab, e, sub in t.children:
            if lab == OMEGA:
                factors.append(self.xi)
            elif lab == H:
                factors.append(self._dhfield(e))
            else:
                factors.append(self._kernel_invariant(sub, e))
        return _product(factors, self.ctx.grid.sizes)

    # recentering, coproduct route ---------------------------------------

    def pi_x(self, t: Tree, x, invp) -> np.ndarray:
        """Recentered interpretation via (interp x g_x^-1) o coproduct."""
        invp = Fraction(invp)
        x = tuple(x)
        out = np.zeros(self.ctx.grid.sizes)
        for (sigma, forest), c in self.hopf.coproduct(t, self.eps, invp):
            g = self.g_inv(forest, x, invp)
            if g:
                out += (float(c) * g) * self.interp(sigma)
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
            tr = self.hopf.truncation(self.eps, invp)
            if self.hopf._planted_num(lab, k, sub, tr) <= 0:
                out = 0.0
            elif lab == H:
                out = self.at(self._dhfield(k), x)
            elif lab == K:
                out = self.ctx.phased_point(
                    self.phased_spectrum(sub, x, invp),
                    *self.ctx.kernel_parts(k))
            else:
                raise ValueError("noise edges have negative degree")
            self._f[key] = out
        return out

    def phased_spectrum(self, sub: Tree, x, invp):
        """The half spectrum of pi_x(sub) phased at x (see
        ``OperatorContext.phased``), formed once per (sub, x, 1/p) and
        shared by the kernel reads of every derivative order at x and by
        the heat reads of ``qnorm_series``; the oracle route reads real
        fields against reflected kernels instead.

        When Delta(sub) = sub (x) 1, pi_x(sub) is interp(sub) bit for bit,
        and the tree's own spectrum is phased."""
        invp = Fraction(invp)
        key = (sub, tuple(x), invp)
        out = self._kf1.get(key)
        if out is None:
            cop = self.hopf.coproduct(sub, self.eps, invp)
            if cop.terms == {(sub, self._unit): 1}:
                spec = self.spectrum(sub)
            else:
                spec = self.ctx.grid.rfft(self.pi_x(sub, x, invp))
            out = self._kf1[key] = self.ctx.phased(spec, x)
        return out

    # recentering, multiplicative route ----------------------------------

    def pi_x_hat(self, t: Tree, x, invp) -> np.ndarray:
        """Recentered interpretation via the Taylor-subtraction recursion."""
        invp = Fraction(invp)
        x = tuple(x)
        out = np.zeros(self.ctx.grid.sizes)
        for s, c in self.prep.apply(t):
            out += float(c) * self._hat_x(s, x, invp)
        return out

    def _hat_x(self, t: Tree, x, invp) -> np.ndarray:
        factors = [self.poly_field(t.n, x)] if any(t.n) else []
        factors += [self._hat_x_planted(lab, e, sub, x, invp)
                    for lab, e, sub in t.children]
        return _product(factors, self.ctx.grid.sizes)

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
                        f = self._kf2[kk] = self.ctx.kernel_point(src, k, x)
                    return f
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
            self._i_eps = phase_points(
                self.sector.w_plus_generators(self.eps, Fraction(1, 2)),
                self.params, self.eps)
        return self._i_eps

    def lambda_x(self, mu: Tree, x, invp) -> float:
        """Comparison character: f_x just below mu's own crossing point.

        Nonzero only on planted trees whose degree is nonpositive at the
        model's p but positive at p = 2; the evaluation exponent is any
        generic point of the cell (floor(p(mu)), p(mu)), over which the
        construction is constant."""
        if not mu.is_planted():
            return 0.0
        hopf = self.hopf
        r_p = hopf.degree_num(mu, hopf.truncation(self.eps, invp))
        r_2 = hopf.degree_num(mu, hopf.truncation(self.eps, Fraction(1, 2)))
        if not (r_p <= 0 < r_2):
            return 0.0
        p_mu = p_transition(mu, self.params, self.eps)
        lower = [q for q in self.phase_points() if q < p_mu]
        q = max([Fraction(2)] + lower)
        invp_cell = (to_invp(p_mu) + to_invp(q)) / 2
        (lab, k, sub), = mu.children
        return self.f_x(lab, k, sub, x, invp_cell)
