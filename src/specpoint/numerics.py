"""The chunk size and the unit points of the numpy engines.

`homog2d` sweeps, inserts, evaluates and bands CHUNK array entries at a
time, so that memory does not grow with a curve or a grid, and evaluates
a map on the unit points of its angles.  The scans of `bifurcate` need no
numpy: `planar` has them on floats.
"""
from __future__ import annotations

import numpy as np

CHUNK = 1 << 18  # array entries per chunk of every batched kernel


def unit_points(thetas: np.ndarray) -> np.ndarray:
    return np.stack([np.cos(thetas), np.sin(thetas)], axis=-1)
