"""Reproducible noise sampling on the periodic grid.

All randomness is counter-based: a (seed, stream) pair keys a Philox
generator directly, so any sample can be regenerated independently of
scheduling order.
"""

from __future__ import annotations

import numpy as np

from .grid import GridSpec


def generator(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator keyed by (seed, stream)."""
    key = np.array([np.uint64(seed), np.uint64(stream)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def white_noise(grid: GridSpec, seed: int, stream: int = 0) -> np.ndarray:
    """Grid white noise: i.i.d. N(0, 1/cell_volume) samples."""
    rng = generator(seed, stream)
    return rng.standard_normal(grid.sizes) / np.sqrt(grid.cell_volume)


def random_fourier_series(grid: GridSpec, amplitude, seed: int,
                          stream: int = 0) -> np.ndarray:
    """Stationary Gaussian field with spectral amplitude profile.

    ``amplitude`` maps the array of Euclidean frequency magnitudes to
    per-mode amplitudes; the sample is real by construction: a real
    white-noise field is shaped on its half spectrum."""
    base = white_noise(grid, seed, stream)
    mag = np.sqrt(sum(a ** 2 for a in grid.half_mesh(grid.freqs())))
    return grid.irfft(grid.rfft(base) * amplitude(mag))


def smooth_field(grid: GridSpec, seed: int, stream: int = 0,
                 scale: float = 1.0) -> np.ndarray:
    """Smooth random field: Gaussian spectral decay at the given scale."""
    return random_fourier_series(
        grid, lambda mag: np.exp(-0.5 * (scale * mag) ** 2), seed, stream)


def truncate_modes(grid: GridSpec, f: np.ndarray, n: int) -> np.ndarray:
    """Keep only the Fourier modes with integer index norm <= n."""
    idx = grid.half_mesh([np.fft.fftfreq(m) * m for m in grid.sizes])
    keep = sum(a ** 2 for a in idx) <= float(n) ** 2
    return grid.irfft(grid.rfft(f) * keep)
