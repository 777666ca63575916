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

import weakref
from fractions import Fraction

import numpy as np

from ..grading import p_transition, phase_points, to_invp
from ..hopf import Hopf, _Truncation
from ..renorm import IdentityMap, PreparationMap
from ..sector import Sector
from ..trees import H, K, OMEGA, Tree, mi_add, mi_factorial, noise, unit
from .grid import OperatorContext, _read_only

_HALF = Fraction(1, 2)  # where the comparison formula reads every tree
# the live models on a caller's own xi and h, by (sector, hopf, ctx,
# id(xi), id(h), eps); see ``live_model``
_LIVE = weakref.WeakValueDictionary()


def _product(factors, sizes) -> np.ndarray:
    """The pointwise product of the fields, left to right; all ones when
    there are none.  A leading all-ones factor would change no bit, so
    callers leave it out.  A single factor is returned as it is, so the
    result may be a cached array."""
    if not factors:
        return np.ones(sizes)
    out = factors[0]
    if len(factors) > 1:
        out = out * factors[1]
        for f in factors[2:]:
            out *= f
    return out


def weighted_sum(terms, sizes) -> np.ndarray:
    """The read-only sum of w f over the (field, weight) pairs, which may
    be given lazily; no field is written.  It is the sum begun from zeros
    bit for bit: it starts from f w + 0.0 (f + 0.0 at w = 1.0), since
    0.0 + v is v + 0.0, which also turns -0.0 into +0.0."""
    out = term = None
    for f, w in terms:
        if out is None and w == 1.0:
            out = np.add(f, 0.0)
        elif out is None:
            out = np.multiply(f, w)
            out += 0.0
        else:
            term = np.multiply(f, w, out=term)
            out += term
    return _read_only(np.zeros(sizes) if out is None else out)


def _is_half(invp) -> bool:
    """Whether a request's 1/p is exactly 1/2; an int or a Fraction is
    read by its integer numerator and denominator, with no Fraction
    comparison, and a _Truncation handed down is never a request."""
    try:
        return invp.numerator == 1 and invp.denominator == 2
    except AttributeError:
        return not isinstance(invp, _Truncation) and invp == _HALF


def live_model(sector, hopf, ctx, xi, h, eps):
    """The live ``Model`` on these objects, or None: one built on the
    arrays xi and h themselves, at eps, with no ``xi_hat`` and the
    default preparation map, not yet freed, and whose xi and h still
    hold, bit for bit, the values it was built on."""
    m = _LIVE.get((sector, hopf, ctx, id(xi), id(h), Fraction(eps)))
    if m is None or m._xi is not xi or m.h is not h:
        return None
    return m if m._built_on == (xi.tobytes(), h.tobytes()) else None


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
    f_x and g_x^-1 on planted trees, and the truncation at which
    ``lambda_x`` evaluates each planted tree).
    The phased spectra and the oracle's planted fields depend on the
    base point and are kept for one point only: a request at another
    point drops them, so a caller that visits many points should finish
    each before the next.  Every other cache outlives a base point: the
    point-free fields, the scalars f_x and g_x^-1 (keyed by their point)
    and the truncations of ``lambda_x``.
    Each recentering value is computed once per truncation cell of its
    tree, or of its tree planted along a label, at the truncation that
    stands for the cell (``Hopf.cell``), and is keyed by that
    truncation; every model on one ``Hopf`` shares its cells.  A public
    method looks its 1/p up once (``Hopf.truncation``), and the
    recursion below it hands the cell's truncation down in place of
    1/p.  The preparation map must keep these cells: its terms of a tree
    may plant only decorated branches of that tree, as R_c's terms do.
    ``pi_x_hat`` keeps the last field it formed, with its tree, base
    point and cell, and ``pi_x`` the last one served at exactly 1/p = 1/2
    and the last one formed otherwise; a request with the same three, at
    any 1/p of that cell, gets that field itself, and no other is kept.
    Every array the model forms and hands out is read-only, and the
    model never writes into one, nor into the caller's ``xi``, ``h`` or
    ``xi_hat``: a write raises ValueError instead of changing every later
    result built from it.  Its sums go through ``weighted_sum``, and a
    one-factor product is the cached factor.
    A model built on the caller's ``xi`` and ``h`` arrays themselves,
    with no ``xi_hat`` and the default preparation map, is live while
    the caller holds it: ``check_derivative_identity`` on the same
    sector, Hopf, context, arrays and eps reads through it
    (``live_model``) instead of building its own, and so shares its
    caches and moves its base point.  The model keeps a copy of the
    values of ``xi`` and ``h`` it was built on, and the check takes it
    only while both arrays still hold them, so an in-place write makes
    the check build its own again.  The model itself reads the caller's
    arrays, so a caller must not change them in place while it uses the
    model."""

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
        self.h = (_read_only(np.zeros(ctx.grid.sizes)) if h is None
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
        # per-point caches, holding the entries of base point _x only
        self._x = None
        self._kf1 = {}
        self._hat2_pl = {}
        self._pi_x_last = self._pi_x_half = self._pi_x_hat_last = (None, None)
        # planted tree -> the _Truncation at which lambda_x evaluates it,
        # None when its degree at p = 2 is not positive
        self._lambda_tr = {}
        self._i_eps = None
        if (xi_hat is None and prep is None and h is not None
                and self._xi is xi and self.h is h
                and live_model(sector, hopf, ctx, xi, h, self.eps) is None):
            # the values built on: an in-place write to xi or h after
            # this makes ``live_model`` refuse this model
            self._built_on = (xi.tobytes(), h.tobytes())
            _LIVE[sector, hopf, ctx, id(xi), id(h), self.eps] = self

    @property
    def xi(self) -> np.ndarray:
        """The noise field (built from ``xi_hat`` on first use)."""
        if self._xi is None:
            self._xi = _read_only(self.ctx.grid.irfft(self._xi_hat))
        return self._xi

    # geometry -----------------------------------------------------------

    def base_coord(self, x):
        """Coordinates of the grid index tuple x."""
        return tuple(float(self._axes[j][x[j]]) for j in range(len(x)))

    def poly_field(self, k, x=None):
        """The field y^k, or (y - x)^k for a base point x, formed on the
        axes (1.0 v is v) and spread over the grid in one pass."""
        xc = self.base_coord(x) if x is not None else (0.0,) * len(k)
        out = 1.0
        for c, cj, kj in zip(np.ix_(*self._axes), xc, k):
            if kj:
                out = out * (c - cj) ** kj
        return _read_only(np.ascontiguousarray(
            np.broadcast_to(out, self.ctx.grid.sizes)))

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
            out = self._interp[t] = weighted_sum(
                [(self._interp_hat(s), float(c))
                 for s, c in self.prep.apply(t)], self.ctx.grid.sizes)
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

    def _truncation(self, invp) -> _Truncation:
        """The _Truncation at 1/p; one handed down the recursion is used
        as it is, so that 1/p is looked up once per outside call."""
        if isinstance(invp, _Truncation):
            return invp
        return self.hopf.truncation(self.eps, invp)

    def _cell(self, invp, sub: Tree, lab=None) -> _Truncation:
        """The truncation that stands for the cell of sub, or of sub
        planted along lab, that holds invp (a 1/p or a _Truncation)."""
        return self.hopf.cell(sub, lab, self._truncation(invp))

    def _at_point(self, x) -> None:
        """Drop the per-point caches when x is not the base point they
        hold.  Every call below a request passes the request's x, so
        nothing a request is building is dropped."""
        if x != self._x:
            self._kf1.clear()
            self._hat2_pl.clear()
            self._x = x

    def pi_x(self, t: Tree, x, invp) -> np.ndarray:
        """Recentered interpretation via (interp x g_x^-1) o coproduct."""
        tr = self._cell(invp, t)
        x = tuple(x)
        self._at_point(x)
        key = (t, x, tr)
        half = _is_half(invp)
        entry = next((e for e in (self._pi_x_last, self._pi_x_half)
                      if e[0] == key), None)
        if entry is None:
            # the weights first: g_inv may recurse into pi_x, and no
            # field of this call is held meanwhile
            weights = []
            for (sigma, forest), c in self.hopf._coproduct(t, tr):
                g = self.g_inv(forest, x, tr)
                if g:
                    weights.append((sigma, float(c) * g))
            fields = ((self.interp(sigma), w) for sigma, w in weights)
            entry = key, weighted_sum(fields, self.ctx.grid.sizes)
            if not half:
                self._pi_x_last = entry
        if half:
            self._pi_x_half = entry
        return entry[1]

    def g_inv(self, forest: Tree, x, invp) -> float:
        """The inverse character g_x^-1 on a forest."""
        tr = self._truncation(invp)
        xc = self.base_coord(x)
        val = 1.0
        for j, nj in enumerate(forest.n):
            if nj:
                val *= (-xc[j]) ** nj
        for lab, e, sub in forest.children:
            val *= self._g_inv_planted(lab, e, sub, x, tr)
            if not val:
                return 0.0
        return val

    def _g_inv_planted(self, lab, e, sub, x, tr) -> float:
        tr = self._cell(tr, sub, lab)
        key = (lab, tuple(e), sub, tuple(x), tr)
        out = self._ginv_pl.get(key)
        if out is None:
            xc = self.base_coord(x)
            out = 0.0
            for l, _c in self.hopf._decoration_candidates(lab, e, sub, tr):
                w = 1.0
                for j, lj in enumerate(l):
                    if lj:
                        w *= (-xc[j]) ** lj
                out -= (w / mi_factorial(l)) * self.f_x(
                    lab, mi_add(e, l), sub, x, tr)
            self._ginv_pl[key] = out
        return out

    def f_x(self, lab, k, sub, x, invp) -> float:
        """The character f_x on the planted tree with the given data.

        Zero unless the planted degree is positive; then the k-th
        derivative of h at x for an H edge, or the kernel of the
        recentered interpretation of the argument at x for a K edge."""
        tr = self._cell(invp, sub, lab)
        k = tuple(k)
        key = (lab, k, sub, tuple(x), tr)
        out = self._f.get(key)
        if out is None:
            if self.hopf._planted_num(lab, k, sub, tr) <= 0:
                out = 0.0
            elif lab == H:
                out = self.at(self._dhfield(k), x)
            elif lab == K:
                out = self.ctx.phased_point(
                    self.phased_spectrum(sub, x, tr),
                    *self.ctx.kernel_parts(k))
            else:
                raise ValueError("noise edges have negative degree")
            self._f[key] = out
        return out

    def phased_spectrum(self, sub: Tree, x, invp):
        """The half spectrum of pi_x(sub) phased at x (see
        ``OperatorContext.phased``), formed once per (sub, x, cell) and
        shared by the kernel reads of every derivative order at x and by
        the heat reads of ``qnorm_series``; the oracle route reads real
        fields against reflected kernels instead.

        When Delta(sub) = sub (x) 1, pi_x(sub) is interp(sub) bit for bit,
        and the tree's own spectrum is phased."""
        tr = self._cell(invp, sub)
        x = tuple(x)
        self._at_point(x)
        key = (sub, x, tr)
        out = self._kf1.get(key)
        if out is None:
            if self.hopf._coproduct(sub, tr).terms == {(sub, self._unit): 1}:
                spec = self.spectrum(sub)
            else:
                spec = self.ctx.grid.rfft(self.pi_x(sub, x, tr))
            out = self._kf1[key] = self.ctx.phased(spec, x)
        return out

    # recentering, multiplicative route ----------------------------------

    def pi_x_hat(self, t: Tree, x, invp) -> np.ndarray:
        """Recentered interpretation via the Taylor-subtraction recursion."""
        tr = self._cell(invp, t)
        x = tuple(x)
        self._at_point(x)
        key = (t, x, tr)
        last_key, out = self._pi_x_hat_last
        if last_key != key:
            # the fields first, as in pi_x
            out = weighted_sum([(self._hat_x(s, x, tr), float(c))
                                for s, c in self.prep.apply(t)],
                               self.ctx.grid.sizes)
            self._pi_x_hat_last = key, out
        return out

    def _hat_x(self, t: Tree, x, tr) -> np.ndarray:
        factors = [self.poly_field(t.n, x)] if any(t.n) else []
        factors += [self._hat_x_planted(lab, e, sub, x, tr)
                    for lab, e, sub in t.children]
        return _product(factors, self.ctx.grid.sizes)

    def _hat_x_planted(self, lab, e, sub, x, tr) -> np.ndarray:
        tr = self._cell(tr, sub, lab)
        key = (lab, tuple(e), sub, x, tr)
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
                src = self.pi_x_hat(sub, x, tr)
                base = self.ctx.kernel_apply(src, e)

                def point(k):
                    return self.ctx.kernel_point(src, k, x)
            out = base
            for l, _c in self.hopf._decoration_candidates(lab, e, sub, tr):
                out = out - (self.poly_field(l, x) / mi_factorial(l)) \
                    * point(mi_add(e, l))
            self._hat2_pl[key] = out
        return out

    # the comparison character -------------------------------------------

    def phase_points(self):
        """Integrability exponents where some generator degree crosses 0."""
        if self._i_eps is None:
            self._i_eps = phase_points(
                self.sector.w_plus_generators(self.eps, _HALF),
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
        if hopf.degree_num(mu, hopf.truncation(self.eps, invp)) > 0:
            return 0.0
        if mu not in self._lambda_tr:
            self._lambda_tr[mu] = self._lambda_truncation(mu)
        tr = self._lambda_tr[mu]
        if tr is None:
            return 0.0
        (lab, k, sub), = mu.children
        return self.f_x(lab, k, sub, x, tr)

    def _lambda_truncation(self, mu: Tree):
        """The _Truncation at which lambda_x evaluates mu, or None when
        mu's degree is not positive at p = 2."""
        hopf = self.hopf
        if hopf.degree_num(mu, hopf.truncation(self.eps, _HALF)) <= 0:
            return None
        p_mu = p_transition(mu, self.params, self.eps)
        lower = [q for q in self.phase_points() if q < p_mu]
        q = max([Fraction(2)] + lower)
        return hopf.truncation(self.eps, (to_invp(p_mu) + to_invp(q)) / 2)
