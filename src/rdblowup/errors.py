"""Exception types shared across the package."""


class RdBlowupError(Exception):
    """Base class for all package-specific errors."""


class BoundRefused(RdBlowupError):
    """A bound does not apply to this input: the report names the reason in
    place of the bound, and the run goes on."""


# geometry
class BallMeshUnsupported(RdBlowupError):
    """Ball domains are analytic-only; they cannot be meshed."""


class ResolutionTooCoarse(RdBlowupError):
    """Fewer than 4 cells along some axis."""


class NonFiniteSample(RdBlowupError):
    """A quadrature sample is NaN or infinite."""


# nonlinearity
class BadExponent(RdBlowupError):
    """Exponent outside the admissible range for the family."""


class EvalAtZeroU(RdBlowupError):
    """Homogeneous-family evaluators require u > 0."""


class NotGradientSystem(RdBlowupError):
    """Operation requires a nonlinearity with a potential F."""


class NegativeInitialData(BoundRefused):
    """Initial data must be nonnegative and not identically zero."""


# functionals
class NegativeField(RdBlowupError):
    """Field violates the nonnegativity requirement."""


# bounds
class HypothesisFailed(BoundRefused):
    """A required hypothesis check did not hold on the declared box."""

    def __init__(self, which, witness=None, margin=None):
        self.which = which
        self.witness = witness
        self.margin = margin
        super().__init__(f"hypothesis {which} failed (witness={witness}, margin={margin})")


class NonpositiveJ0(BoundRefused):
    """J(0) <= 0: the upper-bound argument does not apply."""


class NonpositiveE0(BoundRefused):
    """Initial energy must be positive."""


class ConstantOutOfRange(BoundRefused):
    """A lower-bound constant beta, K1 or K2 is not a positive finite float."""


class DimensionNot3(BoundRefused):
    """The lower bound is only available in three dimensions."""


# solver
class NonFiniteField(RdBlowupError):
    """Field values overflowed or became NaN."""


class InsufficientSamples(RdBlowupError):
    """Not enough trace samples to fit a blow-up estimate."""


class ConfigError(RdBlowupError):
    """Experiment configuration file is invalid."""
