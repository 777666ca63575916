"""Spectral operators: semigroup, integrated kernel, mollification and
reproducible noise."""

import numpy as np
import pytest

from ristruct.analytic.grid import (GridSpec, OperatorContext, OperatorSpec,
                                    QuadratureError, QuadratureSpec,
                                    fourth_order_op, second_order_op)
from ristruct.analytic.noise import (generator, random_fourier_series,
                                     smooth_field, white_noise)

from reference import (coord_mesh, freq_mesh, heat_apply,
                       time_integral_per_mode, time_integral_reference)


@pytest.fixture(scope="module")
def grid():
    return GridSpec((32, 32), (2 * np.pi, 2 * np.pi), (1.0, 1.0))


@pytest.fixture(scope="module")
def ctx(grid):
    return OperatorContext(grid, second_order_op(2), QuadratureSpec())


def rel(a, b):
    scale = max(np.max(np.abs(a)), np.max(np.abs(b)), 1e-300)
    return float(np.max(np.abs(a - b))) / scale


def test_grid_validation():
    with pytest.raises(ValueError):
        GridSpec((24, 32), (1.0, 1.0), (1.0, 1.0))  # not a power of two
    with pytest.raises(ValueError):
        GridSpec((8, 8), (1.0, 1.0), (1.0, 1.0))    # too small
    with pytest.raises(ValueError):
        GridSpec((32, 32), (0.0, 1.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        GridSpec((32, 32), (1.0, 1.0), (1.0,))


def test_semigroup_property(ctx, grid):
    f = smooth_field(grid, 11, 0, 0.5)
    a = heat_apply(ctx, heat_apply(ctx, f, 0.3), 0.45)
    b = heat_apply(ctx, f, 0.75)
    assert rel(a, b) < 1e-13


def test_heat_eigenfunction(ctx, grid):
    x, _y = coord_mesh(grid)
    f = np.sin(x)
    out = heat_apply(ctx, f, 0.2)
    assert rel(out, np.exp(-0.2) * f) < 1e-13


def test_heat_derivative_mode(ctx, grid):
    x, _y = coord_mesh(grid)
    out = ctx.derivative(np.sin(x), (1, 0))
    assert rel(out, np.cos(x)) < 1e-13
    out2 = heat_apply(ctx, np.sin(x), 0.2, k=(1, 0))
    assert rel(out2, np.exp(-0.2) * np.cos(x)) < 1e-13


def test_time_integral_matches_closed_form(ctx):
    quad = ctx.time_integral()
    ref = time_integral_reference(ctx)
    assert np.max(np.abs(quad - ref)) < 1e-12
    assert ctx.quad_self_check < 1e-12


@pytest.mark.parametrize("sizes, period, order", [
    ((32, 32), (2 * np.pi, 2 * np.pi), 2),
    ((16, 16, 16), (2 * np.pi,) * 3, 4),
    ((64,), (2 * np.pi,), 2),       # no mirrored duplicates in 1-D
    ((32, 64), (1.0, 3.0), 2),      # unequal periods
])
def test_time_integral_is_bit_equal_per_mode(sizes, period, order):
    """The quadrature runs once per distinct symbol value; every mode
    gets the bits of the per-mode evaluation."""
    d = len(sizes)
    op = second_order_op(d) if order == 2 else fourth_order_op(d)
    ctx = OperatorContext(GridSpec(sizes, period, (1.0,) * d), op,
                          QuadratureSpec())
    S, err = time_integral_per_mode(ctx)
    out = ctx.time_integral()
    assert out.shape == S.shape
    assert np.array_equal(out.view(np.int64), S.view(np.int64))
    assert ctx.quad_self_check == err


def test_quadrature_self_check_failure(grid):
    coarse = OperatorContext(
        grid, second_order_op(2),
        QuadratureSpec(nodes_per_block=2, extra_depth=0, check_nodes=3,
                       tol=1e-12))
    with pytest.raises(QuadratureError):
        coarse.time_integral()


def test_kernel_annihilates_constants(ctx, grid):
    out = ctx.kernel_apply(np.ones(grid.sizes), (0, 0))
    assert np.max(np.abs(out)) == 0.0


def test_kernel_linearity(ctx, grid):
    f = smooth_field(grid, 3, 0, 0.6)
    g = smooth_field(grid, 3, 1, 0.6)
    lhs = ctx.kernel_apply(2.0 * f - 0.5 * g, (0, 0))
    rhs = (2.0 * ctx.kernel_apply(f, (0, 0))
           - 0.5 * ctx.kernel_apply(g, (0, 0)))
    assert rel(lhs, rhs) < 1e-13


def test_kernel_single_mode(ctx, grid):
    """On a single Fourier mode the kernel is an explicit scalar."""
    x, _y = coord_mesh(grid)
    f = np.cos(x)
    lam2 = -1.0
    s = np.expm1(lam2) / lam2                 # int_0^1 e^{t*P} dt at P=-1
    # the cutoff weight exp(-|lambda|^2 / (2 sigma^2)) at the (1, 0) mode
    sigma = ctx.op.cutoff_width * 2.0 * np.pi / max(grid.period)
    w = 1.0 - np.exp(-grid.freqs()[0][1] ** 2 / (2.0 * sigma ** 2))
    out = ctx.kernel_apply(f, (0, 0))
    assert rel(out, w * s * f) < 1e-12


def test_ellipticity_violation(grid):
    bad = OperatorSpec(symbol=(((2, 0), -1.0), ((0, 2), -1.0)), ell=2.0)
    with pytest.raises(ValueError):
        OperatorContext(grid, bad, QuadratureSpec())


def test_fourth_order_symbol():
    op = fourth_order_op(3)
    lam = (1.3, -0.7, 2.1)
    val = sum(c * np.prod([(1j * l) ** k for l, k in zip(lam, mi)])
              for mi, c in op.symbol)
    assert abs(val.real + sum(l ** 2 for l in lam) ** 2) < 1e-12
    assert abs(val.imag) < 1e-12


def test_mollify_heat_commute(ctx, grid):
    f = white_noise(grid, 5, 0)
    a = ctx.mollify(heat_apply(ctx, f, 0.1), 3)
    b = heat_apply(ctx, ctx.mollify(f, 3), 0.1)
    assert rel(a, b) < 1e-12


def test_mollify_levels_converge(ctx, grid):
    f = smooth_field(grid, 9, 0, 0.8)
    errs = [rel(ctx.mollify(f, n), f) for n in (2, 4, 6)]
    assert errs[0] > errs[1] > errs[2]


def test_noise_determinism(grid):
    a = white_noise(grid, 42, 0)
    b = white_noise(grid, 42, 0)
    c = white_noise(grid, 42, 1)
    d = white_noise(grid, 43, 0)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)
    assert generator(1, 2).integers(0, 100) == generator(1, 2).integers(0, 100)


def test_white_noise_scaling(grid):
    samples = np.concatenate(
        [white_noise(grid, 100 + i, 0).ravel() for i in range(4)])
    var = float(np.var(samples))
    expect = 1.0 / grid.cell_volume
    assert abs(var - expect) / expect < 0.05


def test_random_fourier_series_is_real_and_shaped(grid):
    f = random_fourier_series(grid, lambda m: np.exp(-m), 7, 0)
    assert f.dtype == np.float64
    spec = np.abs(np.fft.fftn(f))
    # high modes are strongly suppressed relative to low modes
    assert spec[16, 16] < 1e-3 * spec[1, 0]


# the half-spectrum path against the full complex round trip -------------

HALF_GRIDS = [(32, 32), (32, 16), (16, 32), (16, 16, 16)]


def _grid(sizes):
    return GridSpec(sizes, (2 * np.pi,) * len(sizes), (1.0,) * len(sizes))


def _ctx(sizes):
    d = len(sizes)
    op = fourth_order_op(d) if d == 3 else second_order_op(d)
    return OperatorContext(_grid(sizes), op, QuadratureSpec())


def _full_poly(lam, entries):
    """sum_k c_k (i lambda)^k on the full fftfreq mesh."""
    out = np.zeros(lam[0].shape, dtype=complex)
    for k, c in entries:
        term = np.full(lam[0].shape, complex(c))
        for l, kj in zip(lam, k):
            term = term * (1j * l) ** kj
        out = out + term
    return out


def _unfold_even(grid, half):
    """The full-grid array of a symbol even in k, from its half spectrum."""
    n = grid.sizes[-1]
    full = np.empty(grid.sizes)
    full[..., : n // 2 + 1] = half
    mirror = half
    for ax in range(grid.d - 1):        # k -> -k on the leading axes
        mirror = np.roll(np.flip(mirror, ax), 1, ax)
    full[..., n // 2 + 1:] = mirror[..., n - np.arange(n // 2 + 1, n)]
    return full


def _reference(f, mult):
    """The complex round trip ifftn(fftn(f) m) on the full grid."""
    return np.fft.ifftn(np.fft.fftn(f) * mult).real


def _full_multipliers(ctx):
    lam = freq_mesh(ctx.grid)
    P = _full_poly(lam, ctx.op.symbol).real
    sigma = ctx.op.cutoff_width * 2.0 * np.pi / max(ctx.grid.period)
    chi = np.exp(-sum(np.abs(l) ** (2.0 / s)
                      for l, s in zip(lam, ctx.grid.scaling))
                 / (2.0 * sigma ** 2))
    S = _unfold_even(ctx.grid, ctx.time_integral())

    def ilam(k):
        return _full_poly(lam, [(k, 1.0)])

    def kernel(k):
        return (1.0 - chi) * ilam(k) * S
    return P, ilam, kernel


def _orders(d):
    return [(1,) + (0,) * (d - 1), (0,) * (d - 1) + (1,), (1,) * d,
            (2,) + (0,) * (d - 2) + (1,), (0,) * (d - 1) + (3,),
            (2,) + (0,) * (d - 1)]


@pytest.mark.parametrize("sizes", HALF_GRIDS)
def test_half_spectrum_matches_complex_round_trip(sizes):
    """White noise populates every Nyquist mode, where the Hermitian part
    of an odd symbol differs from the symbol."""
    ctx = _ctx(sizes)
    f = white_noise(ctx.grid, 17, 0)
    P, ilam, kernel = _full_multipliers(ctx)
    for k in _orders(ctx.grid.d):
        assert rel(ctx.derivative(f, k), _reference(f, ilam(k))) \
            < 1e-13
        for t in (0.01, 0.3):
            assert rel(heat_apply(ctx, f, t, k),
                       _reference(f, np.exp(t * P) * ilam(k))) < 1e-13
        assert rel(ctx.kernel_apply(f, k),
                   _reference(f, kernel(k))) < 1e-13
    zero = (0,) * ctx.grid.d
    assert rel(heat_apply(ctx, f, 0.3), _reference(f, np.exp(0.3 * P))) \
        < 1e-13
    assert rel(ctx.kernel_apply(f, zero), _reference(f, kernel(zero))) \
        < 1e-13


def _points(grid):
    """The origin, the Nyquist index, the last index and an off-axis
    point."""
    return [(0,) * grid.d, tuple(n // 2 for n in grid.sizes),
            tuple(n - 1 for n in grid.sizes),
            tuple((5 * j + 3) % n for j, n in enumerate(grid.sizes))]


def _parts(mult):
    """Re and Im of a multiplier as contiguous arrays, for phased_point."""
    if not np.iscomplexobj(mult):
        return mult, None
    return np.ascontiguousarray(mult.real), np.ascontiguousarray(mult.imag)


@pytest.mark.parametrize("sizes", HALF_GRIDS)
def test_point_value_matches_full_field_read(sizes):
    """The phased read of a spectrum against a multiplier gives the value
    of the full field at the point."""
    ctx = _ctx(sizes)
    grid = ctx.grid
    f = white_noise(grid, 23, 0)
    spec = grid.rfft(f)
    points = _points(grid)
    phased = [ctx.phased(spec, x) for x in points]
    k = (1,) * grid.d
    for mult in (ctx.heat_multiplier(0.05),
                 ctx.heat_multiplier(0.05) * ctx.i_lambda_pow(k),
                 ctx.kernel_multiplier(k), ctx.i_lambda_pow(k)):
        field = ctx.apply_multiplier(f, mult)
        scale = np.max(np.abs(field))
        for x, ph in zip(points, phased):
            got = ctx.phased_point(ph, *_parts(mult))
            assert isinstance(got, float)
            assert abs(got - field[x]) <= 1e-13 * scale


@pytest.mark.parametrize("sizes", [(32, 32), (32, 16), (16, 16, 16)])
def test_kernel_reads_match_full_field(sizes):
    """kernel_point reads the field against the reflected kernel, the
    phased read the spectrum against the kernel multiplier; both give
    kernel_apply(f, k) at the point, for even, odd and mixed k."""
    ctx = _ctx(sizes)
    grid = ctx.grid
    f = white_noise(grid, 37, 0)
    points = _points(grid)
    phased = [ctx.phased(grid.rfft(f), x) for x in points]
    d = grid.d
    for k in [(0,) * d, (1,) + (0,) * (d - 1), (0,) * (d - 1) + (3,),
              (1, 1) + (0,) * (d - 2), (1,) * d]:
        field = ctx.apply_multiplier(f, ctx.kernel_multiplier(k))
        scale = np.max(np.abs(field))
        re, im = ctx.kernel_parts(k)
        # real for even |k|, imaginary for odd |k|
        assert (re is None) == (sum(k) % 2 == 1)
        assert (im is None) == (sum(k) % 2 == 0)
        for x, ph in zip(points, phased):
            for got in (ctx.kernel_point(f, k, x),
                        ctx.phased_point(ph, re, im)):
                assert isinstance(got, float)
                assert abs(got - field[x]) <= 1e-13 * scale


def test_kernel_reads_are_cached_read_only(ctx):
    g = ctx.kernel_field((1, 0))
    parts = ctx.kernel_parts((1, 0))
    assert ctx.kernel_field((1, 0)) is g
    assert ctx.kernel_parts((1, 0)) is parts
    re, im = ctx.kernel_parts((1, 1))
    assert re is ctx.kernel_multiplier((1, 1)) and im is None
    phased = ctx.phased(ctx.grid.rfft(white_noise(ctx.grid, 3, 0)), (5, 9))
    for arr in (g, parts[1], phased):
        assert not arr.flags.writeable
        assert arr.flags.c_contiguous


@pytest.mark.parametrize("sizes", [(32, 32), (32, 16), (16, 16, 16)])
def test_heat_reads_match_complex_round_trip(sizes):
    """heat_point reads the field against the reflected heat kernel,
    heat_points the spectrum against the heat multipliers; both give the
    complex round trip ifftn(fftn(f) exp(tP)) at and off the origin."""
    ctx = _ctx(sizes)
    grid = ctx.grid
    f = white_noise(grid, 31, 0)
    P, _ilam, _kernel = _full_multipliers(ctx)
    times = (0.01, 0.3, 1.0)
    fields = [_reference(f, np.exp(t * P)) for t in times]
    for x in ((0,) * grid.d,
              tuple((5 * j + 3) % n for j, n in enumerate(grid.sizes))):
        got = ctx.heat_points(ctx.phased(grid.rfft(f), x), times)
        assert len(got) == len(times)
        for t, value, field in zip(times, got, fields):
            scale = np.max(np.abs(field))
            assert isinstance(value, float)
            assert abs(value - field[x]) <= 1e-13 * scale
            assert abs(ctx.heat_point(f, t, x) - field[x]) <= 1e-13 * scale


def test_heat_reads_refuse_nonpositive_times(ctx, grid):
    f = white_noise(grid, 3, 0)
    with pytest.raises(ValueError):
        ctx.heat_point(f, 0.0, (0, 0))
    with pytest.raises(ValueError):
        ctx.heat_points(ctx.phased(grid.rfft(f), (0, 0)), [0.5, -1.0])


@pytest.mark.parametrize("sizes", HALF_GRIDS)
def test_noise_matches_complex_formula(sizes):
    grid = _grid(sizes)
    base = white_noise(grid, 7, 0)
    mag = np.sqrt(sum(a ** 2 for a in freq_mesh(grid)))
    ref = np.fft.ifftn(np.fft.fftn(base) * np.exp(-mag)).real
    assert rel(random_fourier_series(grid, lambda m: np.exp(-m), 7, 0),
               ref) < 1e-13


def test_multipliers_are_cached_and_bounded(ctx):
    a = ctx.heat_multiplier(0.25)
    assert ctx.heat_multiplier(0.25) is a
    m = ctx.mollify_multiplier(3)
    assert ctx.mollify_multiplier(3) is m
    g = ctx.heat_kernel(0.25)
    assert ctx.heat_kernel(0.25) is g
    for arr in (a, m, g, ctx.kernel_multiplier((1, 0)),
                ctx.i_lambda_pow((1, 0))):
        assert not arr.flags.writeable
    # a sweep over many times evicts the oldest entries instead of growing
    for j in range(1, 200):
        ctx.heat_multiplier(j / 1000.0)
    again = ctx.heat_multiplier(0.25)
    assert again is not a and np.array_equal(again, a)
    for j in range(1, 40):
        ctx.heat_kernel(j / 1000.0)
    assert len(ctx._heat_kernel) <= 32
    assert ctx.heat_kernel(0.25) is not g


def test_symbol_must_be_even(grid):
    """A real but odd symbol part has no half-spectrum heat semigroup
    matching the complex round trip, so it is refused."""
    odd = OperatorSpec(symbol=(((2, 0), 1.0), ((0, 2), 1.0),
                               ((1, 0), 0.5j)), ell=2.0)
    with pytest.raises(ValueError):
        OperatorContext(grid, odd, QuadratureSpec())
