"""Exception types shared across the package."""


class FinvarError(Exception):
    """Base class for all package errors.

    An error can say where it happened: ``metric`` is the name of the
    metric being evaluated, and ``point`` the index of the first failing
    point when the evaluation ran over a stack of points. Both are part of
    the message.
    """

    def __init__(self, message: str = "", *, metric: str | None = None,
                 point: int | None = None):
        super().__init__(message)
        self.metric = metric
        self.point = point

    def __str__(self) -> str:
        text = super().__str__()
        if self.metric is not None:
            text = f"{self.metric}: {text}"
        if self.point is not None:
            text = f"{text} (point {self.point})"
        return text


class ConfigError(FinvarError):
    """Invalid descriptor, configuration file, or argument."""


class DomainError(FinvarError):
    """Base point lies outside (or too close to the boundary of) a metric's domain."""


class DegenerateVelocity(FinvarError):
    """Velocity is zero or the metric value collapsed below the positivity floor."""


class SingularMetric(FinvarError):
    """Metric tensor g is not numerically positive definite at the evaluation
    point: singular or indefinite (strong convexity fails), or its
    determinant leaves the floating-point range."""


class NonFiniteResult(FinvarError):
    """A metric's value or derivatives, or a quantity formed from them,
    overflowed to inf or NaN."""


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
