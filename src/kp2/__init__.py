"""Exact localization engine for local P2 stable-quotient invariants."""

__version__ = "0.1.0"

__all__ = ["ConsistencyError", "__version__"]


class ConsistencyError(Exception):
    """An internal exact identity failed (fatal: signals a bug, not bad input)."""
