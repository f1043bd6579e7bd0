"""Outcome spaces: finite alphabets and a nested dyadic interval hierarchy.

Real-valued series are reduced to finite symbol streams by quantizing each
outcome at a resolution level ``k``.  Level ``k`` tiles ``[-k, k)`` with
half-open intervals of width ``2**-k`` and adds two unbounded tail cells,
so the cell count is ``2*k*2**k + 2``.  Levels are nested: every cell at
level ``k`` is a union of cells at level ``k + 1``, which is what lets
pattern matches at a fine level imply matches at every coarser level.

Finite alphabets bypass all of this: quantization is the identity on
symbol indices at every level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError

__all__ = [
    "Alphabet",
    "IntervalFieldHierarchy",
    "OutcomeSpace",
]


@dataclass(frozen=True)
class Alphabet:
    """A finite alphabet of ``size`` symbols, addressed by index.

    Paths over a finite alphabet store the indices directly; numeric
    values, where a source has them, live on the source.
    """

    size: int

    def __post_init__(self):
        if self.size < 2:
            raise InputError("an alphabet needs at least two symbols")

    @classmethod
    def of_size(cls, m: int) -> "Alphabet":
        return cls(int(m))

    def atom_count(self, k: int) -> int:
        return self.size

    def quantize(self, x, k: int) -> int:
        """Identity on symbol indices; ``k`` is ignored by construction."""
        try:
            i = int(x)
            if i == x and 0 <= i < self.size:
                return i
        except (TypeError, ValueError, OverflowError):
            pass
        raise InputError(f"{x!r} is not a symbol index in [0, {self.size})")

    def encode(self, xs, k: int) -> np.ndarray:
        """Symbol indices as int64; integer input may come back as itself.

        An integer array needs only the range check: a ``uint64`` value
        above ``2**63`` wraps negative in the cast and fails it.  A float
        that is not an int64 (NaN, say) casts silently to a code that the
        equality check refuses.
        """
        arr = np.asarray(xs)
        try:
            with np.errstate(invalid="ignore"):
                codes = arr.astype(np.int64, copy=False)
        except (TypeError, ValueError, OverflowError):
            raise InputError("path values must be symbol indices for this alphabet") from None
        if (arr.dtype.kind not in "iu" and not np.array_equal(codes, arr)) or (
            codes.size and (codes.min() < 0 or codes.max() >= self.size)
        ):
            raise InputError("path values must be symbol indices for this alphabet")
        return codes



@dataclass(frozen=True)
class IntervalFieldHierarchy:
    """Nested dyadic interval cells on the real line.

    Cell ids at level ``k``: 0 is the left tail ``(-inf, -k)``, ids
    ``1 .. 2*k*2**k`` are the finite half-open cells left to right, and
    ``2*k*2**k + 1`` is the right tail ``[k, inf)``.
    """

    max_level: int = 32

    def __post_init__(self):
        if not 1 <= self.max_level <= 48:
            raise InputError("max_level must be in [1, 48]")

    def _check_level(self, k: int) -> int:
        if not isinstance(k, (int, np.integer)) or not 1 <= k <= self.max_level:
            raise InputError(f"level must be an int in [1, {self.max_level}], got {k!r}")
        return int(k)

    def atom_count(self, k: int) -> int:
        k = self._check_level(k)
        return 2 * k * 2**k + 2

    def quantize(self, x, k: int) -> int:
        """Return the id of the level-``k`` cell containing ``x``."""
        k = self._check_level(k)
        xf = float(x)
        if not math.isfinite(xf):
            raise InputError(f"cannot quantize non-finite value {x!r}")
        interior = 2 * k * 2**k
        if xf < -k:
            return 0
        if xf >= k:
            return interior + 1
        idx = math.floor((xf + k) * 2.0**k)
        return 1 + min(max(idx, 0), interior - 1)

    def encode(self, xs, k: int) -> np.ndarray:
        """Vectorized :meth:`quantize` over an array of outcomes."""
        k = self._check_level(k)
        arr = np.asarray(xs, dtype=np.float64)
        if arr.size and not np.isfinite(arr).all():
            raise InputError("cannot quantize non-finite values")
        interior = 2 * k * 2**k
        # Clipped first, so neither the scaling nor the cast overflows.
        idx = np.floor((np.clip(arr, -k, k) + k) * 2.0**k).astype(np.int64)
        idx = np.clip(idx, 0, interior - 1) + 1
        return np.where(arr < -k, 0, np.where(arr >= k, interior + 1, idx))


OutcomeSpace = Alphabet | IntervalFieldHierarchy
