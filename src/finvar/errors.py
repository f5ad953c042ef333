"""Exception types shared across the package."""


class FinvarError(Exception):
    """Base class for all package errors.

    An error can say where it happened: ``metric`` is the name of the
    metric being evaluated, ``point`` the index of the first failing point
    when the evaluation ran over a stack of points, and ``trajectory`` the
    index of the geodesic whose integration or samples failed. All are part
    of the message.
    """

    def __init__(self, message: str = "", *, metric: str | None = None,
                 point: int | None = None):
        super().__init__(message)
        self.metric = metric
        self.point = point
        self.trajectory: int | None = None

    def __str__(self) -> str:
        text = super().__str__()
        if self.metric is not None:
            text = f"{self.metric}: {text}"
        where = [f"{name} {index}" for name, index in
                 (("trajectory", self.trajectory), ("point", self.point))
                 if index is not None]
        if where:
            text = f"{text} ({', '.join(where)})"
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
    """H lost its kernel: the constant term of det(H + Lambda I) is not ~0."""


class IntegratorStall(FinvarError):
    """Adaptive step size shrank below its floor short of ``t_end``, with no
    domain boundary hit since the last accepted step."""


class NonReversibleBackward(FinvarError):
    """Backward-time integration requested for a non-reversible metric."""


class OracleScopeExceeded(FinvarError):
    """Brute-force oracle invoked outside its supported dimension range."""
