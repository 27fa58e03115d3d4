"""Exception hierarchy for the :mod:`repro` library.

Every error raised on purpose by this library derives from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing programming errors such as :class:`TypeError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class SequenceError(ReproError):
    """Raised for malformed sequences, windows, or databases."""


class AlphabetError(SequenceError):
    """Raised when a symbol is not part of the expected alphabet."""


class DistanceError(ReproError):
    """Raised when a distance cannot be computed for the given inputs."""


class IncompatibleSequencesError(DistanceError):
    """Raised when two sequences cannot be compared.

    Typical causes are mismatched dimensionality (a 2-D trajectory compared
    with a scalar time series) or mismatched lengths for lockstep distances
    such as the Euclidean and Hamming distances.
    """


class IndexError_(ReproError):
    """Raised for invalid operations on a metric index.

    The trailing underscore avoids shadowing the built-in
    :class:`IndexError`, which has a completely different meaning.
    """


class ItemNotFoundError(IndexError_):
    """Raised when deleting or looking up an item absent from an index."""


class InvariantViolationError(IndexError_):
    """Raised when a structural invariant of an index is violated.

    The reference net exposes a ``check_invariants`` method used by the
    test-suite; a violation means the structure was corrupted by a bug,
    never by user input.
    """


class ConfigurationError(ReproError):
    """Raised for invalid framework configuration (lambda, lambda0, ...)."""


class QueryError(ReproError):
    """Raised when a query cannot be answered with the given parameters."""


class StorageError(ReproError):
    """Raised when persisting or loading library objects fails.

    That includes a matcher snapshot built with an index this build no
    longer offers: it must be rebuilt as ``reference-net`` or
    ``linear-scan``.
    """
