"""Monte Carlo estimation of renormalization constants and scaling fits."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from ..grading import degree
from ..hopf import Hopf
from ..renorm import CounterTerms, RcMap, negative_basis
from ..sector import Sector
from ..trees import Tree
from .grid import OperatorContext
from .model import Model
from .noise import generator, white_noise
from .checks import qnorm_series

MODES = ("qbar", "pointwise")


class ConvergenceError(RuntimeError):
    """A Monte Carlo estimate missed its standard-error threshold."""


def _check_target(sector: Sector, tree: Tree) -> None:
    if tree not in set(sector.basis):
        raise ValueError("constant target must be a basis tree")
    if degree(tree, sector.params, 0, 0) > 0:
        raise ValueError("constant target must have nonpositive degree")


def constant_samples(sector: Sector, hopf: Hopf, ctx: OperatorContext,
                     prep, tree: Tree, level: int, n_samples: int,
                     seed: int, mode: str = "qbar")\
        -> np.ndarray:
    """Per-sample estimates of the constant attached to a tree.

    qbar mode: the heat-smoothed recentered interpretation at time one,
    read at the origin.  pointwise mode: the spatial mean of the plain
    interpretation.  Sample i uses the mollified white noise keyed by
    (seed, i), so values are reproducible and pairable across levels."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    _check_target(sector, tree)
    origin = (0,) * ctx.grid.d
    out = np.empty(n_samples)
    for i in range(n_samples):
        model = Model(sector, hopf, ctx, prep=prep,
                      xi_hat=_noise_spectrum(ctx, level, seed, i))
        if mode == "qbar":
            out[i] = ctx.heat_point(model.pi_x(tree, origin, 0), 1.0, origin)
        else:
            out[i] = float(np.mean(model.interp(tree)))
    return out


def _noise_spectrum(ctx: OperatorContext, level: int, seed: int, i: int):
    """Half spectrum of sample i's white noise mollified at the level.

    The noise is drawn through this module's ``white_noise``, first
    thing in every sample."""
    return (ctx.grid.rfft(white_noise(ctx.grid, seed, i))
            * ctx.mollify_multiplier(level))


def mean_stderr(samples: np.ndarray):
    n = len(samples)
    mean = float(np.mean(samples))
    stderr = float(np.std(samples, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return mean, stderr


def solve_bphz_c(sector: Sector, hopf: Hopf, ctx: OperatorContext,
                 level: int, n_samples: int, seed: int,
                 mode: str = "qbar", stderr_threshold: float | None = None):
    """Counterterms canceling the negative-tree constants, in order.

    Walks the negative basis along the preorder; with all earlier
    counterterms fixed, the extraction contributes the new value times
    the interpretation of the unit, so the update is the negated current
    estimate.  Returns the counterterms and per-tree diagnostics."""
    values = {}
    info = {}
    for t in negative_basis(sector):
        prep = RcMap(CounterTerms(dict(values)), hopf, sector)
        mean, stderr = mean_stderr(constant_samples(
            sector, hopf, ctx, prep, t, level, n_samples, seed,
            mode=mode))
        if stderr_threshold is not None and stderr > stderr_threshold:
            raise ConvergenceError(
                f"estimate for {t!r} did not converge (stderr {stderr:.3e})")
        values[t] = Fraction(-mean).limit_denominator(10 ** 12)
        info[t] = {"mean": mean, "stderr": stderr}
    return CounterTerms(values), info


def scaling_ensemble(sector: Sector, hopf: Hopf, ctx: OperatorContext,
                     tree: Tree, level: int, n_samples: int, seed: int,
                     t_values, base_points, invp=0, eps=Fraction(0)):
    """Per-sample heat-smoothed norm series for a tree."""
    series = []
    for i in range(n_samples):
        model = Model(sector, hopf, ctx, eps=eps,
                      xi_hat=_noise_spectrum(ctx, level, seed, i))
        series.append(qnorm_series(model, tree, base_points, t_values,
                                   invp))
    return series


def scaling_fit(t_values, series, seed: int = 0):
    """Log-log slope of the ensemble-averaged norms, with a 95 % CI from
    200 bootstrap resamples of the ensemble."""
    logt = np.log(np.asarray(t_values, dtype=float))
    logs = np.log(np.asarray(series, dtype=float))
    n = logs.shape[0]

    def fit(rows):
        mean = np.mean(logs[rows], axis=0)
        return float(np.polyfit(logt, mean, 1)[0])

    slope = fit(np.arange(n))
    if n > 1:
        rng = generator(seed, 0xB007)
        boots = [fit(rng.integers(0, n, size=n)) for _ in range(200)]
        lo, hi = np.percentile(boots, [2.5, 97.5])
    else:
        lo = hi = slope
    return slope, float(lo), float(hi)
