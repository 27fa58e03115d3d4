"""The :class:`Sequence` type: one model for strings, time series, and trajectories.

The paper's framework makes no distinction between strings and time series
other than the alphabet and distance employed: a sequence is an ordered list
of elements drawn from an alphabet ``Sigma``, which may be a finite set of
characters, the reals, or a multi-dimensional vector space.  This module
mirrors that abstraction with a single numpy-backed class.
"""

from __future__ import annotations

import enum
from hashlib import blake2b
from typing import Iterable, Optional, Sequence as TypingSequence, Union

import numpy as np

from repro.exceptions import SequenceError
from repro.sequences.alphabet import Alphabet


class SequenceKind(enum.Enum):
    """Broad families of sequences handled by the framework."""

    #: A string over a finite alphabet; elements are integer symbol codes.
    STRING = "string"
    #: A scalar time series; elements are real numbers.
    TIME_SERIES = "time_series"
    #: A multi-dimensional time series (e.g. a 2-D trajectory).
    TRAJECTORY = "trajectory"


#: Size of :attr:`Sequence.content_key` in bytes.
CONTENT_KEY_BYTES = 16

#: What each kind contributes to the content key ahead of the element bytes.
_KIND_TAGS = {kind: f"{kind.value}/".encode("ascii") for kind in SequenceKind}

ArrayLike = Union[np.ndarray, TypingSequence[float], TypingSequence[TypingSequence[float]]]


class Sequence:
    """An immutable sequence of elements with optional identity and alphabet.

    Parameters
    ----------
    values:
        A 1-D array for strings and scalar time series, or a 2-D array of
        shape ``(length, dim)`` for trajectories.
    kind:
        Which :class:`SequenceKind` this sequence belongs to.
    seq_id:
        Optional stable identifier.  Windows extracted from this sequence
        carry the identifier so that matches can be traced back to their
        source sequence.
    alphabet:
        For :attr:`SequenceKind.STRING` sequences, the alphabet used to
        encode them; required to decode the sequence back into text.

    Attributes
    ----------
    content_key:
        A fixed-size fingerprint of the content: a
        :data:`CONTENT_KEY_BYTES`-byte BLAKE2b digest over the kind, the
        trailing dimension and the raw element bytes (the kind fixes the
        dtype), so equal content always yields equal keys whatever object,
        id or offset it was cut from.  This is what the distance cache keys
        on -- comparing two keys never touches the arrays -- and it is
        computed once, here, so reading it is a plain attribute load.
        Distinct contents collide with probability about ``n**2 / 2**129``
        over ``n`` distinct sequences (under ``1e-26`` for a million), which
        the cache treats as identity; ``==`` stays an exact comparison.

    Notes
    -----
    The underlying numpy array is kept read-only.  Subsequence extraction
    returns views where possible, so extracting every window of a long
    database sequence is cheap.
    """

    __slots__ = ("_values", "_kind", "_seq_id", "_alphabet", "content_key")

    def __init__(
        self,
        values: ArrayLike,
        kind: SequenceKind,
        seq_id: Optional[str] = None,
        alphabet: Optional[Alphabet] = None,
    ) -> None:
        array = np.asarray(values)
        if array.size == 0:
            raise SequenceError("a sequence must contain at least one element")
        if kind is SequenceKind.STRING:
            if array.ndim != 1:
                raise SequenceError("string sequences must be one-dimensional")
            array = array.astype(np.int64, copy=False)
        elif kind is SequenceKind.TIME_SERIES:
            if array.ndim != 1:
                raise SequenceError("scalar time series must be one-dimensional")
            array = array.astype(np.float64, copy=False)
        elif kind is SequenceKind.TRAJECTORY:
            if array.ndim != 2:
                raise SequenceError(
                    "trajectories must be two-dimensional arrays of shape (length, dim)"
                )
            array = array.astype(np.float64, copy=False)
        else:  # pragma: no cover - defensive, enum is closed
            raise SequenceError(f"unknown sequence kind: {kind!r}")
        array = np.ascontiguousarray(array)
        array.setflags(write=False)
        self._values = array
        self._kind = kind
        self._seq_id = seq_id
        self._alphabet = alphabet
        trailing = array.shape[1] if array.ndim == 2 else 0
        digest = blake2b(_KIND_TAGS[kind] + b"%d/" % trailing, digest_size=CONTENT_KEY_BYTES)
        digest.update(array)
        self.content_key: bytes = digest.digest()

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_string(
        cls, text: str, alphabet: Alphabet, seq_id: Optional[str] = None
    ) -> "Sequence":
        """Build a :attr:`SequenceKind.STRING` sequence from text."""
        if not text:
            raise SequenceError("cannot build a sequence from an empty string")
        return cls(alphabet.encode(text), SequenceKind.STRING, seq_id, alphabet)

    @classmethod
    def from_values(
        cls, values: Iterable[float], seq_id: Optional[str] = None
    ) -> "Sequence":
        """Build a scalar :attr:`SequenceKind.TIME_SERIES` sequence."""
        return cls(np.asarray(list(values), dtype=np.float64), SequenceKind.TIME_SERIES, seq_id)

    @classmethod
    def from_points(
        cls, points: ArrayLike, seq_id: Optional[str] = None
    ) -> "Sequence":
        """Build a :attr:`SequenceKind.TRAJECTORY` sequence from 2-D points."""
        return cls(np.asarray(points, dtype=np.float64), SequenceKind.TRAJECTORY, seq_id)

    # ------------------------------------------------------------------ #
    # Basic protocol
    # ------------------------------------------------------------------ #
    @property
    def values(self) -> np.ndarray:
        """The read-only numpy array of elements."""
        return self._values

    @property
    def kind(self) -> SequenceKind:
        """The :class:`SequenceKind` of this sequence."""
        return self._kind

    @property
    def seq_id(self) -> Optional[str]:
        """The identifier given at construction, if any."""
        return self._seq_id

    @property
    def alphabet(self) -> Optional[Alphabet]:
        """The alphabet for string sequences, ``None`` otherwise."""
        return self._alphabet

    @property
    def dim(self) -> int:
        """Dimensionality of each element (1 for strings and scalar series)."""
        if self._values.ndim == 1:
            return 1
        return int(self._values.shape[1])

    def __len__(self) -> int:
        return int(self._values.shape[0])

    def __iter__(self):
        return iter(self._values)

    def __getitem__(self, item):
        if isinstance(item, slice):
            return self.subsequence(*item.indices(len(self))[:2])
        return self._values[item]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return (
            self._kind is other._kind
            and self._values.shape == other._values.shape
            and bool(np.array_equal(self._values, other._values))
        )

    def __hash__(self) -> int:
        return hash(self.content_key)

    def __repr__(self) -> str:
        ident = f", seq_id={self._seq_id!r}" if self._seq_id else ""
        return f"Sequence(kind={self._kind.value}, length={len(self)}{ident})"

    # ------------------------------------------------------------------ #
    # Subsequences
    # ------------------------------------------------------------------ #
    def subsequence(self, start: int, stop: int) -> "Sequence":
        """Return the contiguous subsequence ``self[start:stop]``.

        ``start`` is inclusive, ``stop`` exclusive, both zero-based, matching
        Python slicing conventions (the paper uses one-based inclusive
        indices; the conversion is handled by callers that report results).
        """
        if not 0 <= start < stop <= len(self):
            raise SequenceError(
                f"invalid subsequence bounds [{start}, {stop}) for length {len(self)}"
            )
        return Sequence(self._values[start:stop], self._kind, self._seq_id, self._alphabet)

    def prefix(self, length: int) -> "Sequence":
        """Return the first ``length`` elements as a sequence."""
        return self.subsequence(0, length)

    def suffix(self, length: int) -> "Sequence":
        """Return the last ``length`` elements as a sequence."""
        return self.subsequence(len(self) - length, len(self))

    def concat(self, other: "Sequence") -> "Sequence":
        """Concatenate two sequences of the same kind."""
        if self._kind is not other._kind:
            raise SequenceError(
                f"cannot concatenate {self._kind.value} with {other._kind.value}"
            )
        values = np.concatenate([self._values, other._values], axis=0)
        return Sequence(values, self._kind, self._seq_id, self._alphabet)

    # ------------------------------------------------------------------ #
    # Conversions
    # ------------------------------------------------------------------ #
    def to_string(self) -> str:
        """Decode a string sequence back into text."""
        if self._kind is not SequenceKind.STRING:
            raise SequenceError("only string sequences can be decoded to text")
        if self._alphabet is None:
            raise SequenceError("this string sequence carries no alphabet")
        return self._alphabet.decode(self._values)

    def to_list(self) -> list:
        """Return the elements as a plain Python list."""
        return self._values.tolist()
