"""Periodic-grid spectral calculus: heat semigroup, time-integrated
kernels, derivatives and mollification.

All operators act as Fourier multipliers on real fields sampled on a
regular grid over a torus.  The time integral defining the kernel
operator is evaluated by composite Gauss-Legendre quadrature over
dyadic blocks, once per distinct value of the symbol P (on a 32^3
fourth-order grid 810 values among 17 408 half-spectrum modes), and
cached; each derivative multi-index multiplies the cached integral.
The tests hold a closed-form per-mode expression as an independent
reference, and the per-mode quadrature as a bit-for-bit one.

Fields are real, so every spectrum and multiplier is held in the
``rfftn`` half-spectrum layout: the full ``fftfreq`` layout on every axis
but the last, which keeps only its first n//2+1 modes (its Nyquist mode
keeps the negative frequency of the full layout).  A complex multiplier
m is stored as its Hermitian part (m(k) + conj(m(-k)))/2, which is what
the real part of the full complex round trip ``ifftn(fftn(f) m)`` sees;
it differs from m only at Nyquist modes, and only for symbols odd there.
Even real symbols (the operator, the cutoff, the time integral, the heat
kernel, the mollifier) are evaluated on the half grid directly.

A single grid value of a field under a multiplier is read without any
transform, by one of two point-read primitives:

- field against reflected kernel (``OperatorContext.kernel_point``,
  ``heat_point``): for a real field f and a real-space kernel
  G = irfft(m), cached per multiplier, one real dot product of f with
  the reflected kernel y -> G(x - y);
- phased spectrum against multiplier (``OperatorContext.phased`` and
  ``phased_point``): for a half spectrum, the spectrum times the
  weighted phase of x is formed once (last-axis bins 0 and n/2 count
  once, the others twice for their conjugate mirrors), then each
  multiplier m costs one or two real multiply-and-sums of its real and
  imaginary parts, Re . Re(m) - Im . Im(m), divided by the point count.

The two recentering routes of ``Model`` read kernel values d^k K(f)(x)
in different ways, so that their comparison checks one read against
the other: the Taylor-subtraction route (oracle) reads its real field
against the reflected kernel, the coproduct route (primary) its phased
spectrum against the kernel multiplier.  Heat-smoothed values
exp(tP)f(x) are read either way: ``heat_point`` (field against the
reflected heat kernel, for the Monte Carlo constants) and
``heat_points`` (phased spectrum against exp(tP), for the norms of
``checks.qnorm_series``).

Freed fields stay in the process.  glibc serves a 32^3 field (256 KiB)
with mmap or, once its dynamic threshold has grown, from the heap, and
gives the pages of a freed one back to the kernel, so the next cold
``Model`` faults the same pages in again.  The first ``OperatorContext``
therefore fixes M_MMAP_THRESHOLD at 32 MiB and M_TRIM_THRESHOLD at
64 MiB, the ceiling glibc's own threshold reaches on 64-bit and its 2x
trim rule, from the start; setting only the trim threshold would freeze
the mmap threshold, possibly at 128 KiB.  One recenter-3d run (seed 5)
made 59 359 minor faults in its ops before (dpidd 33 772, route 24 618,
comparison 969) and 11 848 after; a 32^3 ``rfftn`` made 104 per call
and makes none.  Where the C library has no ``mallopt`` nothing changes,
and no value is computed differently either way.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


class QuadratureError(RuntimeError):
    """The configured time quadrature failed its self-check."""


@dataclass(frozen=True)
class GridSpec:
    """Regular periodic grid: sizes per axis, period per axis, scaling."""

    sizes: tuple
    period: tuple
    scaling: tuple

    def __post_init__(self):
        object.__setattr__(self, "sizes", tuple(int(n) for n in self.sizes))
        object.__setattr__(self, "period",
                           tuple(float(p) for p in self.period))
        object.__setattr__(self, "scaling",
                           tuple(float(s) for s in self.scaling))
        if not (len(self.sizes) == len(self.period) == len(self.scaling)):
            raise ValueError("sizes, period and scaling lengths differ")
        for n in self.sizes:
            if n < 16 or n & (n - 1):
                raise ValueError("grid sizes must be powers of two >= 16")
        if any(p <= 0 for p in self.period):
            raise ValueError("periods must be positive")
        if any(s <= 0 for s in self.scaling):
            raise ValueError("scaling entries must be positive")

    @property
    def d(self) -> int:
        return len(self.sizes)

    @property
    def cell_volume(self) -> float:
        out = 1.0
        for n, p in zip(self.sizes, self.period):
            out *= p / n
        return out

    def axes(self):
        """Coordinate arrays, one per axis, in [0, period)."""
        return [np.arange(n) * (p / n)
                for n, p in zip(self.sizes, self.period)]

    def freqs(self):
        """Angular frequency arrays, one per axis (fftfreq layout)."""
        return [2.0 * np.pi * np.fft.fftfreq(n, d=p / n)
                for n, p in zip(self.sizes, self.period)]

    # the rfftn half spectrum --------------------------------------------

    @property
    def half_shape(self) -> tuple:
        """Shape of a half spectrum: the last axis cut to n//2+1 modes."""
        return self.sizes[:-1] + (self.sizes[-1] // 2 + 1,)

    def half_mesh(self, per_axis):
        """Broadcastable (sparse) mesh over the half spectrum of per-axis
        arrays given in the full fftfreq layout."""
        per_axis = list(per_axis)
        per_axis[-1] = per_axis[-1][: self.half_shape[-1]]
        return np.meshgrid(*per_axis, indexing="ij", sparse=True)

    def rfft(self, f):
        """Half spectrum of a real field."""
        return np.fft.rfftn(f)

    def irfft(self, spec):
        """The real field with the given half spectrum."""
        return np.fft.irfftn(spec, s=self.sizes, axes=tuple(range(self.d)))


@lru_cache(maxsize=64)
def _point_phases(sizes, x):
    """Per-axis phases exp(2 pi i k x_j / n_j) of grid index x over the
    half spectrum; the last axis carries the mirror weights (bins 0 and
    n/2 once, the others twice for their conjugate mirrors)."""
    out = []
    for j, (n, xj) in enumerate(zip(sizes, x)):
        m = n // 2 + 1 if j == len(sizes) - 1 else n
        # reduce k x mod n first, so the phase angle stays small
        phase = np.exp((2j * np.pi / n) * ((np.arange(m) * xj) % n))
        if j == len(sizes) - 1:
            phase[1:-1] *= 2.0
        out.append(_read_only(phase))
    return tuple(out)


def _sym_from(entries):
    out = []
    for k, c in entries:
        out.append((tuple(int(x) for x in k), complex(c)))
    return tuple(out)


@dataclass(frozen=True)
class OperatorSpec:
    """Constant-coefficient operator P(d) = sum_k a_k d^k with its order.

    ``symbol`` lists (multi-index, coefficient) pairs of P(i*lambda);
    ``cutoff_width`` sets the low-frequency cutoff scale."""

    symbol: tuple
    ell: float
    cutoff_width: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "symbol", _sym_from(self.symbol))
        object.__setattr__(self, "ell", float(self.ell))
        if self.ell <= 0:
            raise ValueError("ell must be positive")


def second_order_op(d: int, cutoff_width: float = 1.0) -> OperatorSpec:
    """The Laplacian: P(i*lambda) = -|lambda|^2, order 2."""
    sym = [(tuple(2 * (i == j) for i in range(d)), 1.0) for j in range(d)]
    return OperatorSpec(symbol=tuple(sym), ell=2.0,
                        cutoff_width=cutoff_width)


def fourth_order_op(d: int, cutoff_width: float = 1.0) -> OperatorSpec:
    """Minus the bi-Laplacian: P(i*lambda) = -|lambda|^4, order 4."""
    sym = []
    for j in range(d):
        sym.append((tuple(4 * (i == j) for i in range(d)), -1.0))
    for a in range(d):
        for b in range(a + 1, d):
            sym.append((tuple(2 * (i in (a, b)) for i in range(d)), -2.0))
    return OperatorSpec(symbol=tuple(sym), ell=4.0,
                        cutoff_width=cutoff_width)


@dataclass(frozen=True)
class QuadratureSpec:
    """Composite Gauss-Legendre over dyadic time blocks."""

    nodes_per_block: int = 12
    extra_depth: int = 2
    check_nodes: int = 18
    tol: float = 1e-10


@lru_cache(maxsize=None)
def _leggauss(n: int):
    return np.polynomial.legendre.leggauss(n)


# cached heat multipliers (one per time and derivative), heat kernels
# (one per time) and mollifiers (one per level); a sweep over more times
# evicts the least recently used
_MULT_CACHE_SIZE = 32


def _read_only(a):
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def _keep_freed_pages() -> None:
    """Fix glibc's mmap and trim thresholds, once per process (see the
    module docstring); nothing where the C library has no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD


def _dot(a, b) -> float:
    """The sum of a * b, without BLAS: its threaded dot product would
    make the value depend on the thread count."""
    return float(np.einsum("i,i->", a.ravel(), b.ravel()))


class OperatorContext:
    """Grid-bound spectral operators with cached multipliers, all held on
    the half spectrum (see the module docstring)."""

    def __init__(self, grid: GridSpec, op: OperatorSpec,
                 quad: QuadratureSpec | None = None):
        _keep_freed_pages()
        self.grid = grid
        self.op = op
        self.quad = quad or QuadratureSpec()
        if len(op.symbol[0][0]) != grid.d:
            raise ValueError("operator dimension does not match grid")
        self._lam = grid.half_mesh(grid.freqs())
        # the frequencies of the mirror mode -k: negated, except on the
        # Nyquist modes, which are their own mirrors
        nyq = grid.half_mesh([np.arange(n) == n // 2 for n in grid.sizes])
        self._lam_neg = [np.where(q, lam, -lam)
                         for lam, q in zip(self._lam, nyq)]
        self._ilam_pow = {}
        P = self._poly_at(op.symbol, self._lam)
        tol = 1e-12 * max(1.0, np.max(np.abs(P.real)))
        if np.max(np.abs(P.imag)) > tol or np.max(np.abs(
                P - self._poly_at(op.symbol, self._lam_neg))) > tol:
            raise ValueError(
                "operator symbol is not real and even on the lattice")
        self.P = P.real.copy()
        self._check_ellipticity()
        self._chi_hat = self._make_chi_hat()
        self._S = None
        self._kernel_mult = {}
        self._kernel_parts = {}
        self._kernel_field = {}
        self._heat_mult = {}
        self._heat_kernel = {}
        self._mollify_mult = {}

    # multiplier building blocks -----------------------------------------

    def _poly_at(self, entries, lam):
        """The polynomial sum_k c_k (i lam)^k on the given frequencies."""
        out = np.zeros(self.grid.half_shape, dtype=complex)
        for k, c in entries:
            term = c
            for l, kj in zip(lam, k):
                if kj:
                    term = term * (1j * l) ** kj
            out = out + term
        return out

    def _eval_poly(self, entries):
        """Hermitian part (p(k) + conj(p(-k)))/2 of the polynomial symbol
        p(i lambda) on the half spectrum; a real array when it is real."""
        out = 0.5 * (self._poly_at(entries, self._lam)
                     + np.conj(self._poly_at(entries, self._lam_neg)))
        return out if out.imag.any() else out.real.copy()

    def i_lambda_pow(self, k):
        k = tuple(int(x) for x in k)
        out = self._ilam_pow.get(k)
        if out is None:
            out = _read_only(self._eval_poly(((k, 1.0),)))
            self._ilam_pow[k] = out
        return out

    def scaled_freq_sq(self):
        """The anisotropic frequency weight sum_j |lambda_j|^(2/s_j)."""
        out = np.zeros(self.grid.half_shape)
        for lam, s in zip(self._lam, self.grid.scaling):
            out = out + np.abs(lam) ** (2.0 / s)
        return out

    def _check_ellipticity(self):
        ns = self.scaled_freq_sq() ** 0.5
        nonzero = ns > 0
        ratio = self.P[nonzero] / ns[nonzero] ** self.op.ell
        worst = float(np.max(ratio))
        if worst >= 0:
            raise ValueError(
                f"ellipticity fails on the frequency lattice (max ratio "
                f"{worst:.3e} >= 0)")

    def _make_chi_hat(self):
        sigma = self.op.cutoff_width * 2.0 * np.pi / max(self.grid.period)
        return np.exp(-self.scaled_freq_sq() / (2.0 * sigma ** 2))

    @staticmethod
    def _cached(cache, key, build):
        """Bounded cache: on a miss beyond the bound the least recently
        used entry goes."""
        out = cache.pop(key, None)
        if out is None:
            out = _read_only(build())
            if len(cache) >= _MULT_CACHE_SIZE:
                del cache[next(iter(cache))]
        cache[key] = out
        return out

    # transforms ---------------------------------------------------------

    def apply_multiplier(self, f, mult):
        return self.grid.irfft(self.grid.rfft(f) * mult)

    def derivative(self, f, k):
        if not any(k):
            return f
        return self.apply_multiplier(f, self.i_lambda_pow(k))

    def heat_multiplier(self, t: float):
        """exp(tP), cached per time."""
        return self._cached(self._heat_mult, float(t),
                            lambda: np.exp(t * self.P))

    def _reflected(self, field):
        """The field y -> field(-y)."""
        axes = tuple(range(self.grid.d))
        return np.roll(np.flip(field, axes), 1, axes)

    def _field_point(self, f, reflected, x) -> float:
        """sum_y f(y) G(x - y) for the reflected kernel y -> G(-y): the
        value at grid index x of f under the multiplier rfft(G)."""
        if any(x):
            reflected = np.roll(reflected, tuple(x),
                                tuple(range(self.grid.d)))
        return _dot(f, reflected)

    def heat_kernel(self, t: float):
        """The reflected heat kernel y -> G_t(-y), G_t = irfft(exp(tP)),
        so that exp(tP) f at the origin is its dot product with f."""
        return self._cached(
            self._heat_kernel, float(t),
            lambda: self._reflected(self.grid.irfft(self.heat_multiplier(t))))

    def heat_point(self, f, t: float, x) -> float:
        """exp(tP) f at grid index x, read from the real field f by one
        dot product with the shifted reflected heat kernel."""
        if t <= 0:
            raise ValueError("heat time must be positive")
        return self._field_point(f, self.heat_kernel(t), x)

    def phased(self, spec, x):
        """The half spectrum times the weighted phase of grid index x, the
        read-only form that ``phased_point`` and ``heat_points`` read."""
        sizes = self.grid.sizes
        for j, phase in enumerate(_point_phases(sizes, tuple(x))):
            spec = spec * phase.reshape((-1,) + (1,) * (len(sizes) - 1 - j))
        return _read_only(spec)

    def phased_point(self, phased, re_mult, im_mult=None) -> float:
        """The value of ``irfft(spec * m)`` at x, for phased = phased(spec,
        x) and m = re_mult + i im_mult (a part given as None is zero):
        Re . Re(m) - Im . Im(m), divided by the point count.  When m is
        real, the real part of the phased spectrum may stand for it."""
        out = 0.0 if re_mult is None else _dot(phased.real, re_mult)
        if im_mult is not None:
            out -= _dot(phased.imag, im_mult)
        return out / math.prod(self.grid.sizes)

    def heat_points(self, phased, times) -> list:
        """exp(tP) irfft(spec) at x for each t, read from phased =
        phased(spec, x): one real multiply-and-sum against exp(tP) per
        t."""
        if any(t <= 0 for t in times):
            raise ValueError("heat time must be positive")
        # one contiguous copy of the real part serves every t
        re = np.ascontiguousarray(phased.real)
        return [self.phased_point(re, self.heat_multiplier(t))
                for t in times]

    # time-integrated kernel ---------------------------------------------

    def _block_depth(self) -> int:
        pmax = float(np.max(np.abs(self.P)))
        return max(1, math.ceil(math.log2(max(pmax, 1.0)))) \
            + self.quad.extra_depth

    def _time_integral(self, nodes: int, P):
        """int_0^1 exp(t P) dt by Gauss-Legendre over dyadic blocks, for
        each entry of the symbol values P."""
        x, w = _leggauss(nodes)
        J = self._block_depth()
        total = np.zeros(P.shape)
        blocks = [(0.0, 2.0 ** -J)]
        blocks += [(2.0 ** (-j - 1), 2.0 ** -j) for j in range(J)]
        for a, b in blocks:
            half = 0.5 * (b - a)
            mid = 0.5 * (b + a)
            for xi, wi in zip(x, w):
                total = total + (half * wi) * np.exp((mid + half * xi) * P)
        return total

    def time_integral(self):
        """Cached S(lambda) = int_0^1 exp(t P(i lambda)) dt.

        Each mode's value depends on P alone, which repeats heavily on
        the lattice, so both quadratures run over the distinct values
        of P and S is scattered back; every entry goes through the same
        operations as a per-mode evaluation, so S is bit-equal to it."""
        if self._S is None:
            values, where = np.unique(self.P, return_inverse=True)
            S = self._time_integral(self.quad.nodes_per_block, values)
            check = self._time_integral(self.quad.check_nodes, values)
            err = float(np.max(np.abs(S - check))
                        / max(1.0, float(np.max(np.abs(check)))))
            if err > self.quad.tol:
                raise QuadratureError(
                    f"time quadrature self-check disagrees by {err:.3e}")
            self.quad_self_check = err
            self._S = S[where.reshape(self.P.shape)]
        return self._S

    def kernel_multiplier(self, k):
        k = tuple(int(x) for x in k)
        mult = self._kernel_mult.get(k)
        if mult is None:
            # (i lambda)^k built afresh, not through i_lambda_pow, whose
            # cache would hold a second array per k next to this product
            mult = _read_only((1.0 - self._chi_hat)
                              * self._eval_poly(((k, 1.0),))
                              * self.time_integral())
            self._kernel_mult[k] = mult
        return mult

    def kernel_apply(self, f, k):
        """The integrated kernel: d^k int_0^1 (1-chi)(d) Q_t f dt.

        Annihilates the constant mode exactly."""
        return self.apply_multiplier(f, self.kernel_multiplier(k))

    def kernel_parts(self, k):
        """Re and Im of ``kernel_multiplier(k)`` as contiguous real arrays
        for ``phased_point``, each None where it vanishes: the multiplier
        is real for even |k| and imaginary for odd |k|."""
        k = tuple(int(x) for x in k)
        out = self._kernel_parts.get(k)
        if out is None:
            mult = self.kernel_multiplier(k)
            if not np.iscomplexobj(mult):
                out = (mult, None)
            else:
                out = tuple(_read_only(np.ascontiguousarray(part))
                            if part.any() else None
                            for part in (mult.real, mult.imag))
            self._kernel_parts[k] = out
        return out

    def kernel_field(self, k):
        """The reflected kernel y -> G_k(-y), G_k = irfft(kernel_multiplier
        (k)), cached per k."""
        k = tuple(int(x) for x in k)
        out = self._kernel_field.get(k)
        if out is None:
            out = _read_only(self._reflected(
                self.grid.irfft(self.kernel_multiplier(k))))
            self._kernel_field[k] = out
        return out

    def kernel_point(self, f, k, x) -> float:
        """``kernel_apply(f, k)`` at grid index x, read from the real field
        f by one dot product with the shifted reflected kernel."""
        return self._field_point(f, self.kernel_field(k), x)

    # mollification ------------------------------------------------------

    def mollify_multiplier(self, n: int):
        return self._cached(
            self._mollify_mult, int(n),
            lambda: np.exp(-self.scaled_freq_sq() * (0.5 * 4.0 ** (-n))))

    def mollify(self, f, n: int):
        """Convolve with the scale-2^(-n) Gaussian mollifier."""
        return self.apply_multiplier(f, self.mollify_multiplier(n))
