"""Exception types shared across the package."""


class ShadowDofError(Exception):
    """Base class for all package-specific errors."""


class OrderingUndefinedError(ShadowDofError):
    """Transmitter and receiver parts interleave along the illumination direction."""


class SpheresOverlapError(ShadowDofError):
    """Sphere separation is not larger than the sum of the radii."""


class PanelsTooCloseError(ShadowDofError):
    """Panel pair too close for the midpoint rule; refine the mesh."""


class EmptySamplingError(ShadowDofError):
    """No sample point fell inside the region at the requested spacing."""


class CoincidentPointsError(ShadowDofError):
    """Green's function evaluated at zero separation."""


class NearFieldCutoffError(ShadowDofError):
    """Dyadic kernel evaluated below the near-field cutoff kR."""


class RegionsTooCloseError(ShadowDofError):
    """Transmitter and receiver sample sets closer than the sampling spacing."""


class TooLargeForDenseError(ShadowDofError):
    """A planned allocation would exceed the fixed cap, ``channel.DENSE_CAP_ENTRIES``.

    Raised before anything is allocated, by ``channel.refuse_above_cap``: for
    the dense route's Gram matrix and block, a randomized sketch's N x P
    buffer with its Gram matrix, a materialized H, or the grid box a part is
    sampled on.  ``plan`` is the refused ``spectra.SpectrumPlan``, or None
    where no spectrum was planned.
    """

    def __init__(self, message: str, plan=None):
        super().__init__(message)
        self.plan = plan


class AllZeroSpectrumError(ShadowDofError):
    """All spectrum values are zero."""


class AllZeroEfficienciesError(ShadowDofError):
    """No positive modal efficiency to allocate power to."""


class NotSPDError(ShadowDofError):
    """Constraint matrix is not symmetric positive definite."""


class ScenarioError(ShadowDofError):
    """Invalid or inconsistent scenario configuration."""
