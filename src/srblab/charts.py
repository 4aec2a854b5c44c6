"""Charts: the coordinate patches systems are written in.

Two kinds of axis are supported: periodic (circle of given period, with
coordinates from 0) and box (interval with hard bounds).  The chart metric
is the product metric; the exponential map is the identity, so geodesics
are straight lines in coordinates and displacements are plain coordinate
differences (wrapped on periodic axes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# the largest coordinate below a unit period
_BELOW_ONE = float(np.nextafter(1.0, 0.0))


@dataclass(frozen=True)
class Chart:
    """A product chart: each axis is either periodic or a bounded interval.

    Parameters
    ----------
    chart_id : str
        Name of the chart.
    lower, upper : tuple of float
        Per-axis bounds, lower < upper.  A periodic axis runs from 0 to its
        period: its lower bound is 0 and its upper bound is the period.
    periodic : tuple of bool
        Which axes wrap.
    """

    chart_id: str
    lower: tuple
    upper: tuple
    periodic: tuple

    def __post_init__(self):
        if not (len(self.lower) == len(self.upper) == len(self.periodic)):
            raise ValueError("chart axis descriptions must have equal length")
        lo, hi = np.asarray(self.lower, float), np.asarray(self.upper, float)
        periodic = np.asarray(self.periodic, bool)
        if not np.all(lo < hi):
            raise ValueError("every chart axis needs lower < upper, got "
                             f"{self.lower} and {self.upper}")
        if np.any(lo[periodic] != 0.0):
            raise ValueError("a periodic chart axis runs from 0, got lower "
                             f"bounds {self.lower}")
        # periodic axes with their periods, and box axes with their bounds
        # padded by contains' 1e-9, cached outside the dataclass fields so
        # equality and hashing still see only the fields
        per, box = np.flatnonzero(periodic), np.flatnonzero(~periodic)
        object.__setattr__(self, "_per", per)
        object.__setattr__(self, "_per_w", hi[per])
        # the largest coordinate below each period
        object.__setattr__(self, "_per_top", np.nextafter(hi[per], 0.0))
        object.__setattr__(self, "_box", box)
        object.__setattr__(self, "_box_lo", lo[box] - 1e-9)
        object.__setattr__(self, "_box_hi", hi[box] + 1e-9)
        # a unit torus folds the whole array at once
        object.__setattr__(self, "_unit", bool(np.all(periodic & (hi == 1.0))))

    @property
    def dim(self):
        return len(self.lower)

    @property
    def widths(self):
        return np.asarray(self.upper, float) - np.asarray(self.lower, float)

    @property
    def diameter(self):
        """Diameter of the chart in the product metric."""
        w = self.widths
        per = np.asarray(self.periodic)
        spans = np.where(per, w / 2.0, w)
        return float(np.sqrt(np.sum(spans ** 2)))

    def wrap(self, coords):
        """Fold coordinates back into the fundamental domain: each periodic
        axis into [0, period).  A value just below a period boundary folds
        to the period in float arithmetic, so the fold is clamped below it.
        On a unit period, t - floor(t) is np.mod(t, 1.0) bit for bit."""
        out = np.array(coords, dtype=float)
        if self._unit:
            out -= np.floor(out)
            return np.minimum(out, _BELOW_ONE, out=out)
        p = self._per
        out[..., p] = np.minimum(np.mod(out[..., p], self._per_w),
                                 self._per_top)
        return out

    def displacement(self, a, b):
        """Minimal displacement b - a in the chart metric (wrapped per axis)."""
        out = np.asarray(b, float) - np.asarray(a, float)
        if self._unit:
            out += 0.5
            out -= np.floor(out)
            out -= 0.5
            return out
        p, w = self._per, self._per_w
        out[..., p] = np.mod(out[..., p] + w / 2.0, w) - w / 2.0
        return out

    def distance(self, a, b):
        """Chart-metric distance; broadcasts over leading axes."""
        return np.linalg.norm(self.displacement(a, b), axis=-1)

    def contains(self, coords):
        """True where box axes respect their bounds to within 1e-9 (periodic
        axes always do)."""
        c = np.asarray(coords, float)[..., self._box]
        return np.all((c >= self._box_lo) & (c <= self._box_hi), axis=-1)


def torus_chart(dim):
    """The flat dim-torus with unit periods, coordinates in [0, 1)."""
    return Chart(f"torus{dim}", (0.0,) * dim, (1.0,) * dim, (True,) * dim)
