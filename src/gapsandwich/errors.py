"""Exception types shared across the package."""


class GapSandwichError(Exception):
    """Base class for all package errors."""


class EmptySamples(GapSandwichError):
    """An estimator received zero samples."""


class NonPositiveSample(GapSandwichError):
    """A sample was zero, negative, or non-finite."""


class ShapeMismatch(GapSandwichError):
    """Paired sample vectors are not one-dimensional or differ in length."""


class LengthNotDivisible(GapSandwichError):
    """Raw sample length is not a multiple of the averaging count k."""


class InvalidK(GapSandwichError):
    """Averaging count k is not a positive integer."""


class EmptyGrid(GapSandwichError):
    """A grid argument was empty."""


class InvalidParams(GapSandwichError):
    """Distribution parameters outside their valid domain."""


class ParseError(GapSandwichError):
    """A textual spec (distribution string, policy, config) failed to parse."""


class SourceFailure(GapSandwichError):
    """A sample source raised while drawing."""


class NonFiniteParams(GapSandwichError):
    """Model parameters contain NaN or infinity."""


class DivergenceDetected(GapSandwichError):
    """Training produced a non-finite loss or parameter vector."""


class CheckpointError(GapSandwichError):
    """Checkpoint file is missing, truncated, or has a bad magic/header."""
