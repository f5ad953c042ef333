"""Exception types shared across the package."""


class FinvarError(Exception):
    """Base class for all package errors."""


class ConfigError(FinvarError):
    """Invalid descriptor, configuration file, or argument."""


class DomainError(FinvarError):
    """Base point lies outside (or too close to the boundary of) a metric's domain."""


class DegenerateVelocity(FinvarError):
    """Velocity is zero or the metric value collapsed below the positivity floor."""


class SingularMetric(FinvarError):
    """Metric tensor g is not numerically positive definite at the evaluation
    point: singular or indefinite (strong convexity fails)."""


class DegenerateAngularMetric(FinvarError):
    """Angular metric has rank deficit >= 2 (kernel larger than the velocity line)."""


class IntegratorStall(FinvarError):
    """Adaptive step size shrank below the hard floor without making progress."""


class NonReversibleBackward(FinvarError):
    """Backward-time integration requested for a non-reversible metric."""


class OracleConditioning(FinvarError):
    """Interpolation system too ill-conditioned to trust as an oracle."""


class OracleScopeExceeded(FinvarError):
    """Brute-force oracle invoked outside its supported dimension range."""
