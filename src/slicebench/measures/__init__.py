"""Complexity measures for labeled functions on slices and cubes."""

from .report import MEASURES, compute_measures, verify_entry

__all__ = ["MEASURES", "compute_measures", "verify_entry"]
