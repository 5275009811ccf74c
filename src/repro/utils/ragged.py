"""Ragged batches: per-query arrays as one flat array plus offsets (CSR).

A workload's per-query sets — covering clusters, proportions, sampled
clusters, requested (query, cluster) pairs — all have a different length per
query.  They travel as one ``flat`` array and ``offsets``: query ``i`` owns
``flat[offsets[i]:offsets[i + 1]]``.  The vectorised passes read and write
the flat array directly; :class:`Ragged` is the same pair seen as a sequence
of per-query views for callers that want one query's slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

__all__ = ["Ragged", "segment_ids", "segment_lengths", "segment_offsets"]


def segment_offsets(counts: np.ndarray | Sequence[int]) -> np.ndarray:
    """Offsets ``[0, c0, c0 + c1, ...]`` of segments with the given sizes."""
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets


def segment_lengths(offsets: np.ndarray) -> np.ndarray:
    """Size of every segment (``np.diff`` without its per-call overhead)."""
    return offsets[1:] - offsets[:-1]


def segment_ids(offsets: np.ndarray) -> np.ndarray:
    """The owning segment of every flat entry: ``[0, 0, ..., 1, 1, ...]``."""
    return np.arange(offsets.size - 1, dtype=np.int64).repeat(segment_lengths(offsets))


@dataclass(frozen=True, eq=False)
class Ragged(Sequence):
    """A read-only sequence of arrays stored as ``flat`` + ``offsets``.

    ``ragged[i]`` is a view of segment ``i``; ``len(ragged)`` is the number
    of segments (queries), not of entries.
    """

    flat: np.ndarray
    offsets: np.ndarray

    @classmethod
    def from_arrays(cls, arrays: Sequence[np.ndarray], dtype) -> "Ragged":
        """Join per-query arrays (any may be empty, and so may the list)."""
        arrays = [np.asarray(array, dtype=dtype) for array in arrays]
        return cls(
            np.concatenate([*arrays, np.zeros(0, dtype=dtype)]),
            segment_offsets([array.size for array in arrays]),
        )

    @property
    def counts(self) -> np.ndarray:
        """Length of every segment."""
        return segment_lengths(self.offsets)

    def __len__(self) -> int:
        return self.offsets.size - 1

    def __getitem__(self, index: int) -> np.ndarray:
        size = len(self)
        if not -size <= index < size:
            raise IndexError(f"segment {index} of a ragged batch of {size}")
        index %= size
        return self.flat[self.offsets[index] : self.offsets[index + 1]]

    def __iter__(self) -> Iterator[np.ndarray]:
        bounds = self.offsets.tolist()
        return (
            self.flat[start:stop] for start, stop in zip(bounds[:-1], bounds[1:])
        )
