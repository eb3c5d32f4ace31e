"""Small numeric helpers used across modules."""

from __future__ import annotations

import numpy as np


def relative_gap(a, b) -> float:
    """Largest componentwise difference between two arrays, scaled by the
    larger overall magnitude (0.0 when both arrays are exactly zero).
    """
    a = np.asarray(a, dtype=float).ravel()
    b = np.asarray(b, dtype=float).ravel()
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    if a.size == 0:
        return 0.0
    diff = float(np.max(np.abs(a - b)))
    denom = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    if denom == 0.0:
        return 0.0
    return diff / denom


def format_float(value) -> str:
    """Shortest decimal string that round-trips the double exactly."""
    return repr(float(value))
