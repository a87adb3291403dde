"""Per-thread scratch buffers for the batched numeric kernels.

The policy survey scores thousands of batches of the same few shapes, and
the survey's estimator transforms one batch after another.  Allocating
their ``(rows, n)`` temporaries afresh for every batch lets the C heap
hand the pages back to the kernel between batches and fault them in
again on the next one, so the loops' speed depends on what else ran in
between.  :func:`borrow` lends a view of a flat buffer kept per thread
and per ``(role, dtype)`` instead; the buffer grows to the largest
request seen and is then reused.

A borrowed view is valid until the same thread borrows the same role
again, so it must never leave the borrowing function: results are
reductions or copies of it.  A request larger than :data:`MAX_KEPT_BYTES`
gets a fresh array that nothing keeps.
"""

from __future__ import annotations

import math
import threading

import numpy as np

__all__ = ["borrow"]

#: Largest buffer kept between calls, in bytes.
MAX_KEPT_BYTES: int = 32 * 2**20

_local = threading.local()


def borrow(role: str, shape: tuple[int, ...], dtype: type | np.dtype) -> np.ndarray:
    """An uninitialised C-contiguous ``shape`` array of ``dtype`` for ``role``.

    Two roles never share memory, and neither do two threads.
    """
    dtype = np.dtype(dtype)
    size = math.prod(shape)
    if size * dtype.itemsize > MAX_KEPT_BYTES:
        return np.empty(shape, dtype)
    buffers: dict[tuple[str, np.dtype], np.ndarray] = _local.__dict__.setdefault("buffers", {})
    flat = buffers.get((role, dtype))
    if flat is None or flat.size < size:
        flat = buffers[(role, dtype)] = np.empty(size, dtype)
    return flat[:size].reshape(shape)
