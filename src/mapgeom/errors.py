"""Exception types shared across the package."""


class GeometryError(Exception):
    """Base class for all mapgeom errors."""


class ChartBoundaryError(GeometryError):
    """A point or finite-difference stencil left the chart domain."""


class OffManifoldError(GeometryError):
    """An ambient point violates the embedding constraint beyond tolerance."""


class FieldMismatchError(GeometryError):
    """Fields do not share a quadrature domain, base map, or manifold."""


LISTED = 10  # the most samples an error message lists one by one


def _listing(samples, details=None) -> str:
    """The text "sample i (detail)", or "samples i (detail), j (detail), ..." for several,
    the first ``LISTED`` of them listed and then their total; without details, the indices."""
    items = [f"{i}" if details is None else f"{i} ({details[k]})" for k, i in enumerate(samples)]
    more = f" and {len(items) - LISTED} more, {len(items)} in all" if len(items) > LISTED else ""
    return f"sample{'s' if len(items) > 1 else ''} {', '.join(items[:LISTED])}{more}"


class DomainExitError(GeometryError):
    """A geodesic or curve left the valid domain during integration.

    Built from ``exits``, records of the exits in order (a
    :class:`mapgeom.manifold.DomainExit`: sample, step, step count, and
    why: left the chart domain, a step too long, a non-finite state), of
    which it keeps each sample's first.  One exit reads "geodesic of
    sample i" (or "geodesic", for a point) and its reason; several,
    "geodesics of" and their :func:`_listing`.  The message starts with
    ``head``.  ``time``, ``sample`` (None for a point) and ``reason`` are
    those of the first exit.
    """

    def __init__(self, exits, head: str = ""):
        firsts = {}
        for e in exits:
            firsts.setdefault(e.sample, e)
        first, *others = self.exits = tuple(firsts.values())
        samples = _listing([e.sample for e in self.exits], [e.reason for e in self.exits])
        of = "" if first.sample is None else f" of sample {first.sample}"
        super().__init__(head + (f"geodesics of {samples}" if others else
                                 f"geodesic{of} {first.reason}"))
        self.head = head
        self.time, self.sample, self.reason = first.time, first.sample, first.reason

    def __reduce__(self):  # so that a copy, or the error of a worker process, is rebuilt
        return type(self), (self.exits, self.head)


class NotVerticalError(GeometryError):
    """Vertical projection applied to a non-vertical second tangent."""


class ShootingError(GeometryError):
    """Log-map shooting failed.

    The message is ``head``, then "at" and the :func:`_listing` of the
    samples ``bad`` with their ``details``, then ``tail``.  ``sample`` is
    the first of them (None for point ops, which pass no ``bad``).
    """

    def __init__(self, head: str, bad=(), details=None, tail: str = ""):
        super().__init__(f"{head} at {_listing(bad, details)}{tail}" if len(bad) else head)
        self.sample = int(bad[0]) if len(bad) else None


class MeasureError(GeometryError):
    """A discrete measure violates a transport precondition."""


class LiftError(GeometryError):
    """A pointwise map failed on one sample of a field.

    Carries the index of the sample where the callback raised.
    """

    def __init__(self, message, sample=None):
        super().__init__(message)
        self.sample = sample
