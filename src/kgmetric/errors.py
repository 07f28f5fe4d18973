"""Exception types raised by kgmetric operations.

Every failure mode of the numerical contracts has its own class so callers
can react to the precise condition instead of parsing messages.
"""


class KgMetricError(Exception):
    """Base class for all kgmetric errors."""


class InvalidParameterError(KgMetricError, ValueError):
    """A model parameter or argument lies outside its allowed values."""


class DimensionMismatchError(KgMetricError):
    """Operands do not share the required shape."""


class NotHermitianError(KgMetricError):
    """Matrix fails the Hermiticity test at the requested tolerance."""


class NoConvergenceError(KgMetricError):
    """The LAPACK eigensolver failed to converge."""


class NonPositiveSpectrumError(KgMetricError):
    """Operation requires a strictly positive spectrum."""


class ZeroLambdaError(KgMetricError):
    """The packing constant lambda must be nonzero."""


class LambdaMismatchError(KgMetricError):
    """Two-component states carry different packing constants."""


class SingularGaugeError(KgMetricError):
    """Gauge factor is not invertible."""


class LengthMismatchError(KgMetricError):
    """Coefficient sequence length does not match the mode count."""


class NonPositiveCoefficientError(KgMetricError):
    """Inner-product coefficients must be strictly positive."""


class UnpairedComplexEigenvalueError(KgMetricError):
    """A complex eigenvalue appears without its conjugate partner."""


class MissingSignError(KgMetricError):
    """Sign assignment does not cover every real-eigenvalue label."""


class SingularPropagatorError(KgMetricError):
    """Propagator is numerically singular and cannot be inverted."""


class OutOfFamilyError(KgMetricError):
    """Parameter leaves the positive-definite family."""


class NonFiniteStateError(KgMetricError):
    """Evolution produced a non-finite or blown-up state."""


class ZeroStepsError(KgMetricError):
    """Step count must be a positive integer."""


class NonPositiveAError(KgMetricError):
    """Oscillator coefficients A+ and A- must be strictly positive."""


class ConfigError(KgMetricError):
    """Command-line configuration is invalid."""
