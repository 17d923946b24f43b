"""Exception types shared across the package."""


class PhononQramError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(PhononQramError):
    """A physical or numerical parameter is out of its valid range."""


class ConfigError(PhononQramError):
    """A run configuration (CLI parameter file, sweep spec) is malformed."""


class NumericalFailureError(PhononQramError):
    """A numerical routine failed to converge or hit a resolution floor."""


class ResolutionError(NumericalFailureError):
    """Integration grid too coarse for the requested coupling rate."""
