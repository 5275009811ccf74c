"""Per-query cost estimation for the serving layer's scheduler.

The paper's protocol makes query cost *predictable before execution*: the
covering set ``C^Q`` and the covered-vs-straddler split are known from the
offline metadata (zone maps + occupancy) without touching a row.
:class:`CostModel` turns those statistics into a scalar per-query work
estimate the :class:`~repro.service.scheduler.SessionScheduler` packs
drain chunks with (see
:func:`~repro.federation.partitioning.work_balanced_chunks`):

* **Structural units** — per provider, a query costs a constant protocol
  overhead (summary, allocation, estimate round-trips and noise draws) plus
  per-cluster work for every cluster of its covering set plus per-row work
  for the rows the executor actually inspects: straddler rows and the
  provider's unfolded delta buffer (covered clusters short-circuit to
  precomputed segment sums).
* **Online calibration** — structural units only *rank* queries; the
  mapping to wall-clock is machine-dependent, so the scheduler
  feeds every executed chunk's ``(predicted units, measured seconds)`` back
  into :meth:`CostModel.observe`.  An EWMA of the implied seconds-per-unit
  converges the scale, and an EWMA of the relative prediction error is
  exposed through :class:`~repro.service.scheduler.ServiceStats` so
  operators can see how trustworthy the packing currently is.

Estimates are only as fresh as the layout they were read from — compaction
rewrites zone maps and occupancy, an ingest grows the delta every query
scans — so nobody keeps one: the scheduler estimates each drain's admitted
workload in one :meth:`CostModel.estimate` call, under its drain lock, right
before packing it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from ..query.model import RangeQuery

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (system -> service)
    from ..core.system import FederatedAQPSystem

__all__ = ["CostEstimate", "CostModel"]

# Structural unit weights.  Only the *ratios* matter for packing (the online
# EWMA owns the absolute scale): a cluster visit amortises to roughly a
# hundred row operations' worth of per-cluster overhead in the vectorised
# kernels, and each query carries a fixed protocol overhead per provider
# (session bookkeeping, noise draws, message accounting).
UNITS_PER_QUERY = 200.0
UNITS_PER_CLUSTER = 100.0
UNITS_PER_ROW = 1.0

#: Seconds-per-unit prior used until the first chunk has been observed.
DEFAULT_SECONDS_PER_UNIT = 2e-7

#: Smoothing factor of the calibration EWMAs: heavy enough that one outlier
#: chunk does not whipsaw the packing, light enough to converge in a handful
#: of drains.
EWMA_ALPHA = 0.3


@dataclass(frozen=True)
class CostEstimate:
    """One query's predicted work, summed across the federation."""

    units: float
    clusters_touched: int
    clusters_covered: int
    straddler_rows: int


class CostModel:
    """Estimates per-query drain cost and calibrates itself online.

    Thread-safety: :meth:`estimate` reads provider metadata and must run
    where provider state is quiescent.  The scheduler calls it from
    :meth:`~repro.service.scheduler.SessionScheduler.drain` only, under the
    drain lock — never from ``submit``, which runs beside a drain that may
    be compacting.  :meth:`observe` and the properties touch only the
    model's own scalars.
    """

    def __init__(self, system: "FederatedAQPSystem") -> None:
        self.system = system
        self._seconds_per_unit: float | None = None
        self._error_ewma: float | None = None
        self._observations = 0

    # -- estimation -------------------------------------------------------------

    def layout_signature(self) -> tuple[tuple[int, int], ...]:
        """Per-provider ``(layout_epoch, delta_watermark)`` freshness stamp.

        Two estimates of one query agree when taken under the same
        signature; once it moves — a compaction rewrote the zone maps, or
        ingested rows changed the scan volume every query pays — an older
        estimate describes a layout that is gone.
        """
        return tuple(
            (provider.layout_epoch, provider.delta_watermark)
            for provider in self.system.providers
        )

    def estimate(self, queries: Sequence[RangeQuery]) -> list[CostEstimate]:
        """Predict each query's work units against the current layout."""
        if not queries:
            return []
        totals = [0.0] * len(queries)
        clusters = [0] * len(queries)
        covered = [0] * len(queries)
        straddler_rows = [0] * len(queries)
        for provider in self.system.providers:
            delta_rows = provider.delta_rows
            for index, stats in enumerate(provider.cost_stats_batch(queries)):
                clusters[index] += stats.clusters_touched
                covered[index] += stats.clusters_covered
                straddler_rows[index] += stats.straddler_rows
                # Covered clusters short-circuit to metadata sums; only
                # straddler rows (and the unfolded delta buffer, which every
                # query scans) cost row work.
                rows = stats.straddler_rows + delta_rows
                totals[index] += (
                    UNITS_PER_QUERY
                    + UNITS_PER_CLUSTER * stats.clusters_touched
                    + UNITS_PER_ROW * rows
                )
        return [
            CostEstimate(
                units=totals[index],
                clusters_touched=clusters[index],
                clusters_covered=covered[index],
                straddler_rows=straddler_rows[index],
            )
            for index in range(len(queries))
        ]

    def predicted_seconds(self, units: float) -> float:
        """Map work units to wall-clock with the calibrated scale."""
        return units * self.seconds_per_unit

    # -- calibration ------------------------------------------------------------

    def observe(self, predicted_units: float, actual_seconds: float) -> None:
        """Fold one executed chunk's measurement into the calibration.

        ``predicted_units`` is the chunk's estimated unit sum at dispatch;
        ``actual_seconds`` its measured execution wall-clock.  The relative
        prediction error is recorded against the *pre-update* scale — it
        measures how wrong the packing's prediction actually was.
        """
        if predicted_units <= 0 or actual_seconds < 0:
            return
        predicted = self.predicted_seconds(predicted_units)
        if predicted > 0:
            error = abs(predicted - actual_seconds) / predicted
            self._error_ewma = (
                error
                if self._error_ewma is None
                else (1.0 - EWMA_ALPHA) * self._error_ewma + EWMA_ALPHA * error
            )
        ratio = actual_seconds / predicted_units
        self._seconds_per_unit = (
            ratio
            if self._seconds_per_unit is None
            else (1.0 - EWMA_ALPHA) * self._seconds_per_unit + EWMA_ALPHA * ratio
        )
        self._observations += 1

    @property
    def seconds_per_unit(self) -> float:
        """The calibrated unit scale (the prior until first observation)."""
        if self._seconds_per_unit is None:
            return DEFAULT_SECONDS_PER_UNIT
        return self._seconds_per_unit

    @property
    def prediction_error(self) -> float:
        """EWMA of relative ``|predicted - actual| / predicted`` per chunk."""
        return 0.0 if self._error_ewma is None else self._error_ewma

    @property
    def observations(self) -> int:
        """Number of chunk measurements folded in so far."""
        return self._observations
