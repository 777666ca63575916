"""Symbolic Hopf algebra of decorated trees for regularity-integrability
structures, with a periodic-grid numerical model backend."""

__version__ = "0.1.0"

from .grading import DegreeForm, GenericityError, Params  # noqa: F401
from .trees import LinComb, Tree, X, parse, format_tree  # noqa: F401
