"""Dataset scenarios: ready-to-query federated systems for the experiments.

A scenario bundles a synthetic dataset (Adult-like or Amazon-like count
tensor), the federation configuration (4 providers, shared cluster size,
privacy budget split), and the workload generator for that schema.  Every
experiment and benchmark builds its systems through these helpers so the
evaluation parameters live in exactly one place and scale knobs are uniform.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import PrivacyConfig, SamplingConfig, SystemConfig
from ..core.system import FederatedAQPSystem
from ..datasets.adult import ADULT_TENSOR_DIMENSIONS, AdultSyntheticGenerator
from ..datasets.amazon import AMAZON_TENSOR_DIMENSIONS, AmazonReviewSyntheticGenerator
from ..federation.provider import DataProvider
from ..storage.table import Table
from ..utils.rng import derive_rng
from ..workloads.generator import WorkloadGenerator

__all__ = ["DatasetScenario", "adult_scenario", "amazon_scenario", "build_system"]


@dataclass
class DatasetScenario:
    """A dataset plus the federation built on top of it."""

    name: str
    tensor: Table
    system: FederatedAQPSystem
    queryable_dimensions: tuple[str, ...]
    default_sampling_rate: float

    def fresh_system(self) -> FederatedAQPSystem:
        """A new, identically-seeded federation over this scenario's data.

        The shared :attr:`system` accumulates RNG history from everything
        executed against it — including variable-round benchmark loops — so
        analyses that run on it are not reproducible across processes.  The
        experiment runners execute on a fresh system instead, making their
        draw sequences a function of the scenario seed alone.

        Providers are rebuilt from the existing providers' own partitions
        and settings (clustering policy, sort keys, ``n_min``, cache
        config), so the fresh federation matches
        :attr:`system` exactly even for scenarios built with non-default
        provider options.
        """
        config = self.system.config
        providers = [
            DataProvider(
                provider_id=provider.provider_id,
                table=provider.table,
                cluster_size=provider.cluster_size,
                n_min=provider.n_min,
                clustering_policy=provider.clustering_policy,
                sort_by=provider.sort_by,
                intra_sort_by=provider.intra_sort_by,
                cache_config=provider.cache_config,
                ingest_config=provider.ingest_config,
                rng=derive_rng(config.seed, "provider", index),
            )
            for index, provider in enumerate(self.system.providers)
        ]
        return FederatedAQPSystem(providers=providers, config=config, rng=config.seed)

    def workload_generator(self, seed: int = 0) -> WorkloadGenerator:
        """A workload generator over this scenario's queryable dimensions."""
        return WorkloadGenerator(
            schema=self.tensor.schema,
            dimensions=self.queryable_dimensions,
            min_coverage=0.35,
            max_coverage=0.85,
            rng=seed,
        )

    def acceptance_predicate(self, *, min_selectivity: float = 0.02):
        """Workload acceptance rule used by the figure experiments.

        Mirrors the paper's setup ("ran only those [queries] that lead to the
        approximation on all data providers") and additionally requires the
        metadata-estimated answer to exceed ``min_selectivity`` of the total
        measure, so that at simulator scale the reported relative errors are
        not dominated by queries whose true answer is smaller than the
        calibrated noise (the paper runs at 4M-924M rows where this does not
        occur).  The selectivity test uses the providers' own Algorithm-1
        metadata (sum of ``R̂ * S`` over covering clusters), so screening a
        candidate query costs microseconds instead of a full exact scan.
        """
        total_measure = sum(
            provider.clustered.total_measure() for provider in self.system.providers
        )
        floor = min_selectivity * total_measure

        def accept(query) -> bool:
            estimated_answer = 0.0
            for provider in self.system.providers:
                clipped = query.clipped_to(provider.clustered.schema)
                ranges = clipped.range_tuples()
                covering = provider.metadata.covering_cluster_ids(ranges)
                if len(covering) < provider.n_min:
                    return False
                proportions = provider.metadata.proportions(covering, ranges)
                estimated_answer += float(proportions.sum()) * provider.cluster_size
            return estimated_answer >= floor

        return accept

    def batch_acceptance_predicate(self, *, min_selectivity: float = 0.02):
        """Batched form of :meth:`acceptance_predicate`.

        Screens a whole chunk of candidate queries with one dense-index pass
        per provider (covering sets and proportions for every candidate at
        once); agrees with the scalar predicate query-for-query, so the
        generated workloads are identical.
        """
        total_measure = sum(
            provider.clustered.total_measure() for provider in self.system.providers
        )
        floor = min_selectivity * total_measure

        def accept_batch(queries) -> list[bool]:
            queries = list(queries)
            estimated = [0.0] * len(queries)
            alive = [True] * len(queries)
            for provider in self.system.providers:
                schema = provider.clustered.schema
                ranges_list = [
                    query.clipped_to(schema).range_tuples() for query in queries
                ]
                covering_lists = provider.metadata.covering_cluster_ids_batch(ranges_list)
                for index, covering in enumerate(covering_lists):
                    if len(covering) < provider.n_min:
                        alive[index] = False
                proportions_list = provider.metadata.proportions_batch(
                    covering_lists, ranges_list
                )
                for index, proportions in enumerate(proportions_list):
                    estimated[index] += float(proportions.sum()) * provider.cluster_size
            return [
                alive[index] and estimated[index] >= floor
                for index in range(len(queries))
            ]

        return accept_batch


def build_system(
    tensor: Table,
    *,
    cluster_size: int,
    num_providers: int = 4,
    epsilon: float = 1.0,
    delta: float = 1e-3,
    sampling_rate: float = 0.1,
    n_min: int = 4,
    seed: int = 0,
    use_smc_for_result: bool = False,
) -> FederatedAQPSystem:
    """Build a federated system over ``tensor`` with the paper's defaults.

    The privacy split follows Section 6.1: ``eps_O = 0.1 eps``,
    ``eps_S = 0.1 eps``, ``eps_E = 0.8 eps``.
    """
    config = SystemConfig(
        cluster_size=cluster_size,
        num_providers=num_providers,
        privacy=PrivacyConfig(epsilon=epsilon, delta=delta),
        sampling=SamplingConfig(
            sampling_rate=sampling_rate, min_clusters_for_approximation=n_min
        ),
        use_smc_for_result=use_smc_for_result,
        seed=seed,
    )
    return FederatedAQPSystem.from_table(tensor, config=config, n_min=n_min)


def adult_scenario(
    *,
    num_rows: int = 400_000,
    cluster_size: int | None = None,
    num_providers: int = 4,
    sampling_rate: float = 0.2,
    epsilon: float = 1.0,
    seed: int = 0,
) -> DatasetScenario:
    """Adult-like scenario (paper default: sr = 20%, cluster size = 1% of a partition)."""
    tensor = AdultSyntheticGenerator(num_rows=num_rows, seed=seed).count_tensor()
    partition_rows = max(1, tensor.num_rows // num_providers)
    size = cluster_size or max(50, partition_rows // 100)
    system = build_system(
        tensor,
        cluster_size=size,
        num_providers=num_providers,
        sampling_rate=sampling_rate,
        epsilon=epsilon,
        seed=seed,
    )
    return DatasetScenario(
        name="adult_synth",
        tensor=tensor,
        system=system,
        queryable_dimensions=ADULT_TENSOR_DIMENSIONS,
        default_sampling_rate=sampling_rate,
    )


def amazon_scenario(
    *,
    num_rows: int = 800_000,
    cluster_size: int | None = None,
    num_providers: int = 4,
    sampling_rate: float = 0.05,
    epsilon: float = 1.0,
    seed: int = 0,
) -> DatasetScenario:
    """Amazon-like scenario (paper default: sr = 5%, cluster size = 0.5% of a partition)."""
    tensor = AmazonReviewSyntheticGenerator(num_rows=num_rows, seed=seed).count_tensor()
    partition_rows = max(1, tensor.num_rows // num_providers)
    size = cluster_size or max(50, partition_rows // 200)
    system = build_system(
        tensor,
        cluster_size=size,
        num_providers=num_providers,
        sampling_rate=sampling_rate,
        epsilon=epsilon,
        seed=seed,
    )
    return DatasetScenario(
        name="amazon",
        tensor=tensor,
        system=system,
        queryable_dimensions=AMAZON_TENSOR_DIMENSIONS,
        default_sampling_rate=sampling_rate,
    )
