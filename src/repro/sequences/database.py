"""A small in-memory sequence database.

The database is intentionally simple: it stores named sequences of a single
kind, exposes iteration and lookup, and produces the tumbling-window view the
subsequence-matching framework indexes.  Persistence is handled by
:mod:`repro.storage.persistence`.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional

from repro.exceptions import SequenceError
from repro.sequences.sequence import Sequence, SequenceKind
from repro.sequences.windows import Window, tumbling_windows


class SequenceDatabase:
    """A keyed collection of sequences of a single :class:`SequenceKind`.

    Parameters
    ----------
    kind:
        The kind every stored sequence must have.  Mixing strings and
        trajectories in one database would make no sense to the distance
        functions, so the database enforces homogeneity.
    name:
        Optional human-readable database name.
    """

    def __init__(self, kind: SequenceKind, name: str = "db") -> None:
        self._kind = kind
        self.name = name
        self._sequences: Dict[str, Sequence] = {}

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #
    def add(self, sequence: Sequence, seq_id: Optional[str] = None) -> str:
        """Add ``sequence`` under ``seq_id`` (or its own id) and return the id.

        A sequence with no id at all is named ``<name>-<n>``, ``n`` being
        the first number from the current size up whose name is not taken.
        """
        if sequence.kind is not self._kind:
            raise SequenceError(
                f"database {self.name!r} stores {self._kind.value} sequences, "
                f"got {sequence.kind.value}"
            )
        key = seq_id if seq_id is not None else sequence.seq_id
        if key is None:
            # ``name-<count>`` names a live sequence once a delete has shrunk
            # the count, so walk on to the first number that is free.
            number = len(self._sequences)
            while (key := f"{self.name}-{number}") in self._sequences:
                number += 1
        if key in self._sequences:
            raise SequenceError(f"sequence id {key!r} already exists in {self.name!r}")
        if sequence.seq_id != key:
            sequence = Sequence(sequence.values, sequence.kind, key, sequence.alphabet)
        self._sequences[key] = sequence
        return key

    def add_all(self, sequences: Iterable[Sequence]) -> List[str]:
        """Add many sequences; returns the assigned ids in order."""
        return [self.add(sequence) for sequence in sequences]

    def remove(self, seq_id: str) -> Sequence:
        """Remove and return the sequence stored under ``seq_id``."""
        try:
            return self._sequences.pop(seq_id)
        except KeyError:
            raise SequenceError(f"no sequence with id {seq_id!r} in {self.name!r}") from None

    # ------------------------------------------------------------------ #
    # Access
    # ------------------------------------------------------------------ #
    @property
    def kind(self) -> SequenceKind:
        """The kind of the sequences stored in this database."""
        return self._kind

    def __len__(self) -> int:
        return len(self._sequences)

    def __contains__(self, seq_id: object) -> bool:
        return seq_id in self._sequences

    def __iter__(self) -> Iterator[Sequence]:
        return iter(self._sequences.values())

    def __getitem__(self, seq_id: str) -> Sequence:
        try:
            return self._sequences[seq_id]
        except KeyError:
            raise SequenceError(f"no sequence with id {seq_id!r} in {self.name!r}") from None

    def get(self, seq_id: str, default: Optional[Sequence] = None) -> Optional[Sequence]:
        """Return the sequence under ``seq_id`` or ``default``."""
        return self._sequences.get(seq_id, default)

    def ids(self) -> List[str]:
        """All sequence ids, in insertion order."""
        return list(self._sequences.keys())

    @property
    def total_length(self) -> int:
        """Sum of the lengths of all stored sequences."""
        return sum(len(sequence) for sequence in self._sequences.values())

    def __repr__(self) -> str:
        return (
            f"SequenceDatabase(name={self.name!r}, kind={self._kind.value}, "
            f"sequences={len(self)}, total_length={self.total_length})"
        )

    # ------------------------------------------------------------------ #
    # Window view
    # ------------------------------------------------------------------ #
    def windows(self, window_length: int) -> List[Window]:
        """Tumbling windows of every stored sequence (the paper's step 1)."""
        extracted: List[Window] = []
        for seq_id, sequence in self._sequences.items():
            extracted.extend(tumbling_windows(sequence, window_length, source_id=seq_id))
        return extracted

    def window_count(self, window_length: int) -> int:
        """Number of tumbling windows without materialising them."""
        return sum(len(sequence) // window_length for sequence in self._sequences.values())
