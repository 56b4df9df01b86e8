"""Exception hierarchy shared by all modules."""


class VertexDualError(Exception):
    """Base class for all domain errors raised by this package."""


class SingularSpectralPoint(VertexDualError):
    """Spectral parameter hit a lattice singularity (sinh vanishes)."""


class GeneralPositionViolated(VertexDualError):
    """Coordinates or inhomogeneities too close to a degenerate configuration."""


class DegenerateSpectrum(VertexDualError):
    """Joint diagonalization could not resolve the spectrum after retries."""


class SingularConfiguration(VertexDualError):
    """Bethe roots collide with inhomogeneities or with each other."""


class CollisionDetected(VertexDualError):
    """Two particles approached closer than the collision threshold."""


class StepSizeUnderflow(VertexDualError):
    """The adaptive integrator could not proceed at the requested tolerance."""


class ZeroGValue(VertexDualError):
    """A G eigenvalue vanished; momenta cannot be extracted."""


class MatchFailed(VertexDualError):
    """Multiset matching error exceeded the hard failure threshold."""


class DrawFailed(VertexDualError, RuntimeError):
    """A seeded draw found no general-position sample within its attempt cap."""


class CrossCheckFailed(VertexDualError, ArithmeticError):
    """Two independent builds of one quantity disagree beyond their bound."""


class ConfigError(VertexDualError):
    """A run configuration is malformed or violates its schema."""
