"""Periodic-grid numerical backend."""
