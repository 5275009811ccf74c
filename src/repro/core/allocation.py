"""Aggregator-side allocation of per-provider sample sizes (Eq. 4 and 6).

The aggregator receives, from each provider ``i``, the DP-noised number of
covering clusters ``Ñ^Q_i`` and the DP-noised average proportion
``Avg(R̂)_i``, and must pick integer sample sizes ``s_i`` that

* maximise ``sum_i Avg(R̂)_i * s_i``,
* sum to ``sr * sum_i Ñ^Q_i`` (the global sample budget), and
* respect ``min_allocation <= s_i <= Ñ^Q_i`` per provider.

This is a linear objective over a box with one equality constraint, so the
optimum is the greedy waterfill: give every provider its lower bound, then
hand the remaining budget to providers in decreasing ``Avg(R̂)`` order until
each hits its upper bound.  DP noise can make the reported values negative or
the budget infeasible; the solver clamps to the feasible region and degrades
gracefully (documented per-branch below) instead of failing the query.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import AllocationError

__all__ = [
    "AllocationProblem",
    "AllocationResult",
    "solve_allocation",
    "solve_allocation_batch",
]

# Largest |noisy cluster count| the batch solver takes: far beyond any real
# cluster count plus Laplace noise, and small enough that every provider's
# capacity — and their sum — is an exact int64.
_MAX_NOISY_COUNT = 2.0**50


@dataclass(frozen=True)
class AllocationProblem:
    """One provider's (noisy) view entering the allocation optimisation."""

    provider_id: str
    noisy_cluster_count: float
    noisy_avg_proportion: float


@dataclass(frozen=True)
class AllocationResult:
    """The allocation decided for one provider."""

    provider_id: str
    sample_size: int


def solve_allocation(
    problems: Sequence[AllocationProblem],
    sampling_rate: float,
    *,
    min_allocation: int = 1,
) -> list[AllocationResult]:
    """Solve the allocation problem of Equation 6.

    Parameters
    ----------
    problems:
        One entry per participating provider (noisy ``N^Q`` and ``Avg(R̂)``).
    sampling_rate:
        The end user's requested sampling rate ``sr``.
    min_allocation:
        Lower bound on every provider's sample size (the paper requires at
        least one sampled cluster per provider so that every provider
        participates and its silence leaks nothing).
    """
    if not problems:
        raise AllocationError("at least one provider is required")
    if not 0 < sampling_rate < 1:
        raise AllocationError(f"sampling_rate must be in (0, 1), got {sampling_rate}")
    if min_allocation < 1:
        raise AllocationError(f"min_allocation must be >= 1, got {min_allocation}")

    # Noise can push the reported cluster counts below the feasible minimum;
    # clamp each provider's capacity to at least ``min_allocation`` so the
    # greedy fill always has a feasible box to work in.
    capacities = [
        max(min_allocation, int(round(problem.noisy_cluster_count))) for problem in problems
    ]
    total_clusters = sum(capacities)
    budget = int(round(sampling_rate * total_clusters))
    # The global budget must at least cover every provider's lower bound and
    # never exceed the summed capacities.
    budget = max(budget, min_allocation * len(problems))
    budget = min(budget, total_clusters)

    allocations = [min_allocation] * len(problems)
    remaining = budget - min_allocation * len(problems)

    # Greedy: providers with the largest (noisy) average proportion first.
    order = sorted(
        range(len(problems)),
        key=lambda i: problems[i].noisy_avg_proportion,
        reverse=True,
    )
    for index in order:
        if remaining <= 0:
            break
        headroom = capacities[index] - allocations[index]
        grant = min(headroom, remaining)
        allocations[index] += grant
        remaining -= grant

    return [
        AllocationResult(provider_id=problem.provider_id, sample_size=allocations[i])
        for i, problem in enumerate(problems)
    ]


def solve_allocation_batch(
    noisy_cluster_counts: np.ndarray,
    noisy_avg_proportions: np.ndarray,
    sampling_rate: float,
    *,
    min_allocation: int = 1,
) -> np.ndarray:
    """:func:`solve_allocation` for a whole workload at once.

    Both inputs are ``(queries, providers)`` float matrices — row ``q``
    holds the noisy summaries every provider released for query ``q`` — and
    the result is the ``(queries, providers)`` int64 matrix of sample sizes,
    row for row what the scalar solver (the reference the property tests
    compare against, and what the reuse planner's per-query preview calls)
    returns.  The greedy waterfill becomes a stable descending ``argsort``
    per row (ties keep provider order, like ``sorted(..., reverse=True)``)
    and a clipped running sum of the headrooms.

    Raises :class:`~repro.errors.AllocationError` for a non-finite count or
    one beyond ``2**50`` in magnitude, where the scalar solver would fail on
    ``int(round(nan))`` or keep computing with integers no int64 holds.
    """
    counts = np.asarray(noisy_cluster_counts, dtype=float)
    averages = np.asarray(noisy_avg_proportions, dtype=float)
    if counts.ndim != 2 or counts.shape != averages.shape or counts.shape[1] == 0:
        raise AllocationError(
            "summaries must be two aligned (queries, providers) matrices with "
            "at least one provider"
        )
    if not 0 < sampling_rate < 1:
        raise AllocationError(f"sampling_rate must be in (0, 1), got {sampling_rate}")
    if min_allocation < 1:
        raise AllocationError(f"min_allocation must be >= 1, got {min_allocation}")
    if not np.all(np.abs(counts) < _MAX_NOISY_COUNT):
        raise AllocationError(
            "noisy cluster counts must be finite and below 2**50 in magnitude"
        )
    floor = min_allocation * counts.shape[1]
    # np.rint and Python's round() both round halves to even.
    capacities = np.maximum(min_allocation, np.rint(counts).astype(np.int64))
    totals = capacities.sum(axis=1)
    budgets = np.rint(sampling_rate * totals).astype(np.int64)
    budgets = np.minimum(np.maximum(budgets, floor), totals)
    order = np.argsort(-averages, axis=1, kind="stable")
    rows = np.arange(counts.shape[0])[:, None]
    headrooms = (capacities - min_allocation)[rows, order]
    granted_before = np.cumsum(headrooms, axis=1) - headrooms
    grants = np.minimum(np.maximum((budgets - floor)[:, None] - granted_before, 0), headrooms)
    allocations = np.empty_like(capacities)
    allocations[rows, order] = min_allocation + grants
    return allocations
