"""Immutable container for paired bivariate observations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputFormatError


@dataclass(frozen=True, eq=False)
class PairedSample:
    """n paired observations (x_i, y_i), immutable after construction.

    Arrays are copied to float64 and frozen (writeable flag cleared), so a
    sample can be shared without a defensive copy.
    """

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        xs = np.array(self.xs, dtype=float, copy=True).reshape(-1)
        ys = np.array(self.ys, dtype=float, copy=True).reshape(-1)
        if xs.shape != ys.shape:
            raise InputFormatError(
                f"coordinate arrays differ in length: {xs.size} vs {ys.size}")
        if xs.size < 2:
            raise InputFormatError(
                f"need at least 2 paired observations, got {xs.size}")
        bad = ~(np.isfinite(xs) & np.isfinite(ys))
        if bad.any():
            raise InputFormatError(
                f"non-finite observation at index {int(np.flatnonzero(bad)[0])}")
        xs.flags.writeable = False
        ys.flags.writeable = False
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @property
    def n(self) -> int:
        return int(self.xs.size)
