"""Exception vocabulary shared across the toolkit.

Every failure mode that callers are expected to catch gets its own class;
plain ValueError is reserved for garbage arguments (wrong shapes, negative
radii and the like).
"""


class SrbLabError(Exception):
    """Base class for all toolkit-specific failures."""


class DimensionMismatch(SrbLabError):
    """Operands live in incompatible dimensions."""


class OrbitEscaped(SrbLabError):
    """An orbit left the region the system is defined on."""

    def __init__(self, step, coords):
        self.step = step
        self.coords = coords
        super().__init__(f"orbit left the region at step {step}: {coords}")


class HypothesisViolated(SrbLabError):
    """A stated precondition fails; message names the first offending index."""


class DegenerateSplitting(SrbLabError):
    """E and F are numerically non-transverse at the query point."""


class EmptyRadius(SrbLabError):
    """No positive robustness radius is certifiable at the grid resolution."""


class ChartOverflow(SrbLabError):
    """Requested geometry does not fit inside a single chart."""


class ResolutionExhausted(SrbLabError):
    """Adjacent disk samples spread beyond the trust ceiling."""

    def __init__(self, step, gap, ceiling):
        self.step = step
        self.gap = gap
        self.ceiling = ceiling
        super().__init__(
            f"adjacent samples spread to {gap:.6g} > ceiling {ceiling:.6g} "
            f"at step {step}; refine the disk and retry"
        )


class CarvingFailed(SrbLabError):
    """Pulled-back component collapsed below 3 samples per axis."""


class DegenerateTangent(SrbLabError):
    """A tangent plane left the width-1 cone over the reference tangent."""


class ConstantsInvalid(SrbLabError):
    """Measured curvature constants violate their stated product bounds."""


class ChainInfeasible(SrbLabError):
    """No constant chain 0 < l1 < l1*e^eps0 < l2 < l3 < 1 exists for the data."""


class ConstructionFailed(SrbLabError):
    """Model parameters do not produce a valid system."""


class ConfigInvalid(SrbLabError):
    """Experiment configuration failed validation; message names the field."""
