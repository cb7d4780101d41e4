"""Exception hierarchy. Every failure mode raised by the library lives here."""


class MeixnerError(Exception):
    """Base class for all library errors."""


class ParameterError(MeixnerError, ValueError):
    """Model parameters violate a validity bound."""


class NonPositiveBeta(ParameterError):
    """beta must be strictly positive."""


class NonPositiveC(ParameterError):
    """Every rate parameter c_j must be strictly positive."""


class CMassNotBelowOne(ParameterError):
    """sum(c) must lie strictly below 1 for the weight to be summable."""


class DegenerateParameters(MeixnerError):
    """Coincident c values: the hypergeometric construction does not apply."""


class ConstraintViolation(MeixnerError):
    """A spectral constraint residual exceeded its gate (upstream solver failure)."""


class TruncationBoundary(MeixnerError):
    """Operator application needs a lattice point outside the truncation."""


class SingularGenfun(MeixnerError):
    """A factor of the generating function vanishes at the requested t."""


class TailTooLarge(MeixnerError):
    """Lattice truncation too small for the requested summation accuracy."""


class NegativeTime(MeixnerError, ValueError):
    """Transition probabilities are defined for t >= 0 only."""


class ConfigError(MeixnerError, ValueError):
    """Run configuration file is malformed or has an invalid field."""
