"""Minimal dense 2D-array numerics shared by the rest of the package.

Arrays are plain numpy ndarrays with float32 storage semantics: float32
inputs produce float32 results, but sums inside matmul accumulate in
float64 so results are stable and bit-reproducible from run to run.
float64 inputs stay float64 (used by the gradient-check shadow path).
"""

import numpy as np

__all__ = ["ShapeError", "matmul"]


class ShapeError(ValueError):
    """Operands have incompatible or non-2D shapes."""


def _as_2d(a, name):
    a = np.asarray(a)
    if a.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {a.shape}")
    return a


def matmul(a, b):
    """Matrix product with float64 accumulation over the inner dimension.

    The inner-dimension summation runs in a fixed order for a given shape,
    so repeated calls are bit-identical. An empty inner dimension yields
    zeros.
    """
    a = _as_2d(a, "a")
    b = _as_2d(b, "b")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"cannot multiply {a.shape} by {b.shape}")
    out = a.astype(np.float64, copy=False) @ b.astype(np.float64, copy=False)
    if a.dtype == np.float32 and b.dtype == np.float32:
        return out.astype(np.float32)
    return out

