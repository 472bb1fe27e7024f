"""Immutable container for paired bivariate observations."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputFormatError


@dataclass(frozen=True, eq=False)
class PairedSample:
    """n paired observations (x_i, y_i), immutable after construction.

    Arrays are copied to float64 and frozen (writeable flag cleared), so a
    sample can be shared without a defensive copy.  A law's sample adopts
    its draw buffers instead, which nothing else holds: see :meth:`_adopt`.
    """

    xs: np.ndarray
    ys: np.ndarray

    def __post_init__(self):
        self._hold(np.array(self.xs, dtype=float), np.array(self.ys, dtype=float))

    @staticmethod  # not a classmethod: perfbench's tracer stands in a function for the class
    def _adopt(xs: np.ndarray, ys: np.ndarray) -> PairedSample:
        """A sample of the caller's float64 ``xs`` and ``ys``: checked and frozen, not copied."""
        sample = object.__new__(PairedSample)
        sample._hold(xs, ys)
        return sample

    def _hold(self, xs: np.ndarray, ys: np.ndarray) -> None:
        xs, ys = xs.reshape(-1), ys.reshape(-1)
        if xs.shape != ys.shape:
            raise InputFormatError(
                f"coordinate arrays differ in length: {xs.size} vs {ys.size}")
        if xs.size < 2:
            raise InputFormatError(
                f"need at least 2 paired observations, got {xs.size}")
        ok = np.isfinite(xs) & np.isfinite(ys)
        if not ok.all():
            raise InputFormatError(
                f"non-finite observation at index {int(np.flatnonzero(~ok)[0])}")
        xs.flags.writeable = False
        ys.flags.writeable = False
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @property
    def n(self) -> int:
        return int(self.xs.size)
