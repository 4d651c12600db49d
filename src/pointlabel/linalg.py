"""Minimal dense 2D-array numerics shared by the rest of the package.

Arrays are plain numpy ndarrays with float32 storage semantics: float32
inputs produce float32 results. The exact product accumulates float32
operands in float64 and rounds once, so a row's result does not depend on
the other rows of its product; the fast one is a plain float32 BLAS
product. float64 inputs stay float64 in both (the gradient-check shadow
path).
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


def matmul(a, b, exact=True):
    """Matrix product; an empty inner dimension yields zeros.

    With `exact` (the default), float32 operands are multiplied in float64
    and the result rounded once to float32, so each output row is the
    same bits whichever rows share the call. Without it, two float32
    operands give the float32 BLAS product `a @ b`: about twice as fast
    and as repeatable from run to run for the same shapes, but a row's
    bits may change with the number of rows. Other dtypes take the exact
    path either way.
    """
    a = _as_2d(a, "a")
    b = _as_2d(b, "b")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"cannot multiply {a.shape} by {b.shape}")
    single = a.dtype == np.float32 and b.dtype == np.float32
    if single and not exact:
        return a @ b
    out = a.astype(np.float64, copy=False) @ b.astype(np.float64, copy=False)
    return out.astype(np.float32) if single else out
