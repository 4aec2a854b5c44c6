"""Charts: the coordinate patches systems are written in.

Two kinds of axis are supported: periodic (circle of given period) and box
(interval with hard bounds).  The chart metric is the product metric; the
exponential map is the identity, so geodesics are straight lines in
coordinates and displacements are plain coordinate differences (wrapped on
periodic axes).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Chart:
    """A product chart: each axis is either periodic or a bounded interval.

    Parameters
    ----------
    chart_id : str
        Name of the chart.
    lower, upper : tuple of float
        Per-axis bounds.  For a periodic axis the period is upper - lower.
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
        # periodic axes with their lower bounds and periods, and box axes with
        # their bounds padded by contains' 1e-9, cached outside the dataclass
        # fields so equality and hashing still see only the fields
        per = np.flatnonzero(np.asarray(self.periodic, bool))
        box = np.flatnonzero(~np.asarray(self.periodic, bool))
        lo, hi = np.asarray(self.lower, float), np.asarray(self.upper, float)
        object.__setattr__(self, "_per", per)
        object.__setattr__(self, "_per_lo", lo[per])
        object.__setattr__(self, "_per_w", self.widths[per])
        # the largest coordinate below each periodic axis's upper bound
        object.__setattr__(self, "_per_top", np.nextafter(hi[per], lo[per]))
        object.__setattr__(self, "_box", box)
        object.__setattr__(self, "_box_lo", lo[box] - 1e-9)
        object.__setattr__(self, "_box_hi", hi[box] + 1e-9)
        # a unit torus with one lower and one upper bound folds the whole
        # array at once
        unit = (all(self.periodic) and np.all(self.widths == 1.0)
                and len(set(self.lower)) == len(set(self.upper)) == 1)
        object.__setattr__(self, "_unit_lo",
                           float(self.lower[0]) if unit else None)
        object.__setattr__(self, "_unit_top",
                           float(np.nextafter(hi[0], lo[0])) if unit else None)

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
        axis into [lower, upper).  A value just below a period boundary
        folds to upper in float arithmetic, so the fold is clamped below
        upper."""
        out = np.array(coords, dtype=float)
        if self._unit_lo is not None:
            return np.minimum(_fold_unit(out, self._unit_lo), self._unit_top,
                              out=out)
        p, lo = self._per, self._per_lo
        out[..., p] = np.minimum(np.mod(out[..., p] - lo, self._per_w) + lo,
                                 self._per_top)
        return out

    def displacement(self, a, b):
        """Minimal displacement b - a in the chart metric (wrapped per axis)."""
        out = np.asarray(b, float) - np.asarray(a, float)
        if self._unit_lo is not None:
            return _fold_unit(out, -0.5)
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


def _fold_unit(t, lo):
    """t folded into [lo, lo + 1] in place.  For period 1, t - floor(t)
    equals np.mod(t, 1.0) bit for bit, so this is the per-axis fold.  It is
    never -0.0, so from lo = 0 no shift is needed."""
    if lo == 0.0:
        t -= np.floor(t)
        return t
    t -= lo
    t -= np.floor(t)
    t += lo
    return t


def torus_chart(dim):
    """The flat dim-torus with unit periods, coordinates in [0, 1)."""
    return Chart(f"torus{dim}", (0.0,) * dim, (1.0,) * dim, (True,) * dim)

