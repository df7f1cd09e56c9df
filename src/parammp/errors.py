"""Exception hierarchy shared by all parammp modules."""

from __future__ import annotations


class ParammpError(Exception):
    """Base class for all library errors."""


class QueryValidationError(ParammpError):
    """An input query (or problem document) violates a structural invariant.

    Carries the full list of violations, not just the first one found.
    """

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


class ModeUnsupportedError(ParammpError):
    """Requested frame mode is not available for the given dimension/obstacle count."""


class DimensionMismatchError(ParammpError):
    """A point does not have the expected number of coordinates."""


class NotGenericError(ParammpError):
    """Operation requires all robot projections to be pairwise distinct and
    distinct from every obstacle projection."""


class InvalidOrderingPairError(ParammpError):
    """An ordering pair is malformed: an entry appears twice, the two
    orderings hold different entries, two obstacle blocks share an obstacle,
    or the blocks come in different orders."""


class InternalConsistencyError(ParammpError):
    """The construction produced something that violates its own contract
    (discontinuous chaining, failed post-conditions).  Indicates a bug or a
    numerically pathological input, never a user error."""


class RegionCrossingError(ParammpError):
    """A continuity probe perturbation left the continuity region of the base
    query; the probe is inconclusive rather than failed."""
