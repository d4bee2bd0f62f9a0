"""Exception types shared across the package."""


class GeometryError(Exception):
    """Base class for all mapgeom errors."""


class ChartBoundaryError(GeometryError):
    """A point or finite-difference stencil left the chart domain."""


class OffManifoldError(GeometryError):
    """An ambient point violates the embedding constraint beyond tolerance."""


class FieldMismatchError(GeometryError):
    """Fields do not share a quadrature domain, base map, or manifold."""


class DomainExitError(GeometryError):
    """A geodesic or curve left the valid domain during integration.

    Carries the integration time of the exit, for field operations the
    index of the offending sample, and for a geodesic the reason (left the
    chart domain, a step too long, a non-finite state) with its time.
    """

    def __init__(self, message, time=None, sample=None, reason=None):
        super().__init__(message)
        self.time = time
        self.sample = sample
        self.reason = reason


class NotVerticalError(GeometryError):
    """Vertical projection applied to a non-vertical second tangent."""


class ShootingError(GeometryError):
    """Log-map shooting failed to converge.

    Carries the index of the sample that failed (None for point ops).
    """

    def __init__(self, message, sample=None):
        super().__init__(message)
        self.sample = sample


class MeasureError(GeometryError):
    """A discrete measure violates a transport precondition."""


class LiftError(GeometryError):
    """A pointwise map failed on one sample of a field.

    Carries the index of the sample where the callback raised.
    """

    def __init__(self, message, sample=None):
        super().__init__(message)
        self.sample = sample
