"""Symbolic Hopf algebra of decorated trees for regularity-integrability
structures, with a periodic-grid numerical model backend."""

__version__ = "0.1.0"
