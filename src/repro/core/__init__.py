"""The paper's primary contribution: the private federated AQP protocol.

This package wires the substrates together:

* :mod:`~repro.core.sensitivity` — the paper-specific sensitivity analysis
  (Theorems 5.1-5.4 and Appendices A/B),
* :mod:`~repro.core.allocation` — the aggregator's allocation optimisation
  (Equations 4 and 6),
* :mod:`~repro.core.accounting` — the per-query budget split and the
  end-user budget ledger (Section 5.4),
* :mod:`~repro.core.result` — query results with full execution traces,
* :mod:`~repro.core.system` — :class:`FederatedAQPSystem`, the public facade
  that builds a federation from tables and answers queries end to end.
"""

from .accounting import QueryBudget, split_query_budget
from .allocation import AllocationProblem, AllocationResult, solve_allocation
from .result import (
    BatchResult,
    ExecutionTrace,
    ProviderDiagnostics,
    ProviderRelease,
    QueryResult,
)
from .sensitivity import (
    avg_proportion_sensitivity,
    delta_r,
    dominant_scenario,
    estimator_smooth_sensitivity,
    local_sensitivity_at_k,
    sampling_probability_sensitivity,
)
from .system import FederatedAQPSystem

__all__ = [
    "FederatedAQPSystem",
    "QueryResult",
    "BatchResult",
    "ProviderRelease",
    "ProviderDiagnostics",
    "ExecutionTrace",
    "QueryBudget",
    "split_query_budget",
    "AllocationProblem",
    "AllocationResult",
    "solve_allocation",
    "delta_r",
    "avg_proportion_sensitivity",
    "sampling_probability_sensitivity",
    "dominant_scenario",
    "local_sensitivity_at_k",
    "estimator_smooth_sensitivity",
]
