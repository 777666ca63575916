"""Periodic-grid numerical backend."""

from .grid import (GridSpec, OperatorContext, OperatorSpec,  # noqa: F401
                   QuadratureError, QuadratureSpec, fourth_order_op,
                   second_order_op)
from .model import Model  # noqa: F401
from .noise import (generator, random_fourier_series,  # noqa: F401
                    smooth_field, white_noise)
