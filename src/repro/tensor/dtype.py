"""Data type descriptors used across the stack.

The paper evaluates fp32 inference (INT8 is listed as future work).  We keep
a tiny dtype registry so that the cost model can reason about element sizes
and SIMD lane counts without importing numpy in analytical-only code paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

__all__ = ["DType", "float32", "float64", "int32", "int8", "dtype_from_name"]


@dataclass(frozen=True)
class DType:
    """A scalar element type.

    Attributes:
        name: canonical name (``"float32"``).
        bits: storage width in bits.
        numpy_dtype: the numpy dtype to use for concrete arrays.
    """

    name: str
    bits: int

    @property
    def bytes(self) -> int:
        return self.bits // 8

    @property
    def numpy_dtype(self) -> np.dtype:
        return np.dtype(self.name)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


float32 = DType("float32", 32)
float64 = DType("float64", 64)
int32 = DType("int32", 32)
int8 = DType("int8", 8)

_REGISTRY: Dict[str, DType] = {
    d.name: d for d in (float32, float64, int32, int8)
}


def dtype_from_name(name: str) -> DType:
    """Look up a :class:`DType` by name.

    Raises:
        KeyError: if the dtype is not registered.
    """
    try:
        return _REGISTRY[name]
    except KeyError as exc:
        raise KeyError(f"unknown dtype {name!r}; known: {sorted(_REGISTRY)}") from exc
