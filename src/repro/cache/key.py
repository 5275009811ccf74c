"""Canonical cache keys for released DP artifacts.

A release is reusable only for a query that is *semantically identical* to
the one it was computed for, at *exactly* the privacy budget it was released
under.  The key functions here encode both requirements:

* :func:`query_fingerprint` canonicalises a :class:`~repro.query.model.RangeQuery`
  into a hashable value that is independent of predicate ordering — two
  queries with the same aggregation and the same per-dimension intervals map
  to the same fingerprint regardless of how their ``ranges`` mappings were
  built.
* :func:`summary_key` / :func:`answer_key` extend the fingerprint with the
  per-phase epsilons (and, for answers, the granted sample size), so a cache
  hit is only possible when serving the stored bytes is pure post-processing
  of the original release.

Layout staleness is deliberately **not** part of the key: the store tracks a
layout epoch per entry (see :class:`~repro.cache.store.ReleaseCache`), which
lets a provider invalidate everything it cached with one epoch bump when its
clustering changes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing-only (import cycle guard)
    from ..core.accounting import QueryBudget
    from ..query.model import RangeQuery

__all__ = [
    "query_fingerprint",
    "summary_key",
    "answer_key",
    "key_query_ranges",
    "key_delta_watermark",
    "release_survives_fold",
]


def query_fingerprint(query: RangeQuery) -> tuple:
    """Canonical hashable form of a range query.

    Parameters
    ----------
    query:
        The (schema-clipped) query to fingerprint.

    Returns
    -------
    tuple
        ``(aggregation, ((dimension, low, high), ...))`` with dimensions in
        sorted order, suitable as a dictionary key.

    The fingerprint is memoised on the (frozen) query object: the planner
    peek and every provider's summary and answer key ask for it, and
    ``clipped_to`` returns the same object when nothing clips, so one sort
    serves all of them.  The memo is not a dataclass field — equality, the
    wire codec and ``dataclasses.replace`` never see it.
    """
    fingerprint = query.__dict__.get("_fingerprint")
    if fingerprint is None:
        ranges = tuple(
            sorted(
                (name, interval.low, interval.high)
                for name, interval in query.ranges.items()
            )
        )
        fingerprint = (query.aggregation.value, ranges)
        query.__dict__["_fingerprint"] = fingerprint
    return fingerprint


def summary_key(query: RangeQuery, epsilon_allocation: float) -> tuple:
    """Key of a released allocation summary ``(Ñ^Q, ~Avg(R̂))``.

    The summary depends only on the query predicate and the phase budget
    ``eps_O`` it was noised under, so those are exactly the key components.
    """
    return ("summary", query_fingerprint(query), float(epsilon_allocation))


def answer_key(
    query: RangeQuery,
    budget: QueryBudget,
    sample_size: int,
    *,
    delta_watermark: int = 0,
) -> tuple:
    """Key of a released local estimate.

    The estimate depends on the predicate, the sampling and estimation phase
    budgets (``eps_S``, ``eps_E`` and the smooth-sensitivity ``delta``), and
    the sample size the aggregator granted — a different allocation draws a
    different Exponential-Mechanism sample, so it is part of the key.  When
    every provider's summary is served from cache the allocation solve is
    deterministic, which is what makes repeated workloads hit this key.

    ``delta_watermark`` is the ingestion snapshot the answer was evaluated
    at (:mod:`repro.ingest`): an answer that included delta rows is only
    reusable at exactly the same watermark — more (or fewer) visible delta
    rows change the released value's data, not just its noise.
    """
    return (
        "answer",
        query_fingerprint(query),
        float(budget.epsilon_sampling),
        float(budget.epsilon_estimation),
        float(budget.delta),
        int(sample_size),
        int(delta_watermark),
    )


def key_query_ranges(key: tuple) -> tuple:
    """The ``((dimension, low, high), ...)`` ranges embedded in a release key.

    Used by compaction-time cache retention to decide whether a cached
    release could observe a re-clustered region of the table.
    """
    return key[1][1]


def key_delta_watermark(key: tuple) -> int:
    """The ingestion watermark embedded in a release key (0 for summaries).

    Summary releases never read the delta buffer, so they carry no
    watermark; answer keys embed the snapshot they were evaluated at.
    """
    return int(key[6]) if key[0] == "answer" else 0


def release_survives_fold(key: tuple, changed_bounds: dict) -> bool:
    """Is a cached release still exact after a compaction fold?

    ``changed_bounds`` is the fold's changed region
    (:func:`repro.ingest.compaction.changed_bounds`).  Two staleness sources
    compose:

    * an answer evaluated at a non-zero delta watermark embedded rows
      that are now part of the clustered table — its key can never be
      probed again (post-fold watermarks restart at zero), so it is
      dropped rather than risking a collision with a future delta of
      the same length;
    * a release whose query box intersects the changed region on every
      dimension could observe a re-clustered or freshly added cluster —
      a fresh release might differ, so it is dropped.  Everything else
      would be re-released bit-identically (same covering positions,
      proportions, and ``Q(C)`` values) and is retained.
    """
    if key_delta_watermark(key) > 0:
        return False
    for name, (changed_low, changed_high) in changed_bounds.items():
        for range_name, low, high in key_query_ranges(key):
            if range_name == name and (high < changed_low or low > changed_high):
                return True
    return False
