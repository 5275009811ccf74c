"""The provider's flat (array + offsets) DP math vs its per-query references.

Every function of :mod:`repro.federation.dpmath` must give a query the same
bits whether it runs alone or inside a batch — that is what keeps the
released answers (and the benchmark's ``answers_digest``) unchanged by
batching — and must agree with the scalar implementation it replaced.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.sensitivity import delta_r, estimator_smooth_sensitivities
from repro.federation.dpmath import (
    dedup_pairs,
    draw_selections,
    em_selection_distributions,
    hansen_hurwitz,
    segment_sums_exact,
    segment_sums_pairwise,
)
from repro.sampling.em_sampler import EMClusterSampler
from repro.utils.ragged import Ragged, segment_ids, segment_offsets

N_MIN = 3
EPSILON = 0.1


def _ragged(rng, lengths):
    """Random proportions with awkward segments: zeros, one all-zero query."""
    segments = [rng.random(length) * rng.choice([1.0, 1e-9, 1e3]) for length in lengths]
    segments[1][:] = 0.0  # the uniform fallback
    segments[2][::2] = 0.0  # floored probabilities
    return segments


@pytest.fixture
def batch():
    rng = np.random.default_rng(11)
    lengths = [3, 9, 40, 200, 7, 131]  # on both sides of the pairwise-sum block sizes
    segments = _ragged(rng, lengths)
    offsets = segment_offsets(lengths)
    flat = np.concatenate(segments)
    sizes = np.array([1, 4, 12, 60, 7, 2], dtype=np.int64)
    return segments, flat, offsets, sizes


def test_ragged_is_a_sequence_of_views():
    ragged = Ragged.from_arrays([[1, 2], [], [3, 4, 5]], np.int64)
    assert len(ragged) == 3 and ragged.counts.tolist() == [2, 0, 3]
    assert [segment.tolist() for segment in ragged] == [[1, 2], [], [3, 4, 5]]
    assert ragged[-1].tolist() == [3, 4, 5] and ragged[1].dtype == np.int64
    assert np.shares_memory(ragged[2], ragged.flat)
    for index in (3, -4):
        with pytest.raises(IndexError):
            ragged[index]
    empty = Ragged.from_arrays([], float)
    assert len(empty) == 0 and list(empty) == [] and empty.flat.dtype == float


def test_segment_helpers_handle_empty_segments():
    offsets = segment_offsets([2, 0, 3, 0])
    assert offsets.tolist() == [0, 2, 2, 5, 5] and offsets.dtype == np.int64
    assert segment_ids(offsets).tolist() == [0, 0, 2, 2, 2]
    values = np.array([5, 7, 1, 2, 3])
    assert segment_sums_exact(values, offsets).tolist() == [12, 0, 6, 0]
    assert segment_sums_pairwise(values.astype(float), offsets) == [12.0, 0.0, 6.0, 0.0]
    assert segment_offsets([]).tolist() == [0]
    assert segment_sums_exact(np.zeros(0, dtype=np.int64), segment_offsets([0])).tolist() == [0]


def test_pairwise_totals_are_each_slices_own_sum(batch):
    segments, flat, offsets, _ = batch
    totals = segment_sums_pairwise(flat, offsets)
    assert totals == [float(segment.sum()) for segment in segments]
    # Trap 1: the segmented ufunc rounds differently on long segments, which
    # is why the totals are not computed with it.
    sequential = np.add.reduceat(flat, offsets[:-1])
    assert any(a != b for a, b in zip(totals, sequential.tolist()))


def test_selection_distribution_batch_equals_singles_and_class_sampler(batch):
    segments, flat, offsets, sizes = batch
    totals = np.array(segment_sums_pairwise(flat, offsets))
    selection = em_selection_distributions(flat, offsets, totals, sizes, EPSILON, N_MIN)
    sampler = EMClusterSampler(epsilon=EPSILON, n_min=N_MIN)
    for index, segment in enumerate(segments):
        mine = selection[offsets[index] : offsets[index + 1]]
        alone = em_selection_distributions(
            segment,
            segment_offsets([segment.size]),
            totals[index : index + 1],
            sizes[index : index + 1],
            EPSILON,
            N_MIN,
        )
        assert mine.tobytes() == alone.tobytes()
        # The class sampler normalises with ``.sum()`` (first element plus the
        # pairwise sum of the rest), the flat pass with a left-to-right
        # ``reduceat`` — the association the released answers were recorded
        # with — so the two agree to the last few ulps, not bit for bit.
        reference = sampler.selection_distribution(segment, int(sizes[index]))
        assert mine == pytest.approx(reference.tolist(), rel=1e-12)
        assert mine.sum() == pytest.approx(1.0)


def test_draws_batch_equals_singles_and_the_per_query_loop(batch):
    segments, flat, offsets, sizes = batch
    totals = np.array(segment_sums_pairwise(flat, offsets))
    selection = em_selection_distributions(flat, offsets, totals, sizes, EPSILON, N_MIN)
    generators = [np.random.default_rng([5, index]) for index in range(len(segments))]
    drawn = draw_selections(selection, offsets, sizes, generators)
    draw_offsets = segment_offsets(sizes)
    assert drawn.dtype == np.int64 and drawn.size == draw_offsets[-1]
    for index, segment in enumerate(segments):
        mine = drawn[draw_offsets[index] : draw_offsets[index + 1]]
        assert np.all((0 <= mine) & (mine < segment.size))
        # The loop the flat form replaced: 1-D cumsum, own stream, own bisect.
        probabilities = selection[offsets[index] : offsets[index + 1]]
        cdf = np.cumsum(probabilities)
        rng = np.random.default_rng([5, index])
        expected = np.minimum(
            np.searchsorted(cdf, rng.random(int(sizes[index])) * cdf[-1], side="right"),
            segment.size - 1,
        )
        assert mine.tolist() == expected.tolist()
        # ... and the stream advanced exactly as far.
        assert generators[index].random() == rng.random()
        alone = draw_selections(
            probabilities,
            segment_offsets([segment.size]),
            sizes[index : index + 1],
            [np.random.default_rng([5, index])],
        )
        assert mine.tolist() == alone.tolist()


def test_row_wise_cumsum_equals_slice_cumsum_but_global_cumsum_does_not():
    """Trap 2, demonstrated: what draw_selections may and may not do."""
    rng = np.random.default_rng(3)
    lengths = [50, 300, 17]
    offsets = segment_offsets(lengths)
    flat = rng.random(offsets[-1]) / 3.0
    padded = np.zeros((len(lengths), max(lengths)))
    rows = segment_ids(offsets)
    padded[rows, np.arange(flat.size) - offsets[rows]] = flat
    by_row = np.cumsum(padded, axis=1)
    running = np.cumsum(flat)
    shifted_differs = False
    for index, length in enumerate(lengths):
        segment = flat[offsets[index] : offsets[index + 1]]
        assert by_row[index, :length].tobytes() == np.cumsum(segment).tobytes()
        shifted = running[offsets[index] : offsets[index + 1]] - (
            running[offsets[index] - 1] if index else 0.0
        )
        shifted_differs |= shifted.tobytes() != np.cumsum(segment).tobytes()
    assert shifted_differs


def test_dedup_pairs_equals_per_query_unique_and_searchsorted():
    rng = np.random.default_rng(9)
    num_clusters, num_owners = 37, 6
    sizes = [5, 0, 12, 1, 30, 0]  # owners 1 and 5 need nothing
    owners = np.repeat(np.arange(num_owners), sizes)
    positions = rng.integers(0, num_clusters, owners.size)
    order = rng.permutation(owners.size)  # the input need not be grouped
    pair_positions, pair_offsets, inverse = dedup_pairs(
        owners[order], positions[order], num_owners, num_clusters
    )
    assert pair_offsets.size == num_owners + 1
    for owner in range(num_owners):
        expected = np.unique(positions[owners == owner])
        mine = pair_positions[pair_offsets[owner] : pair_offsets[owner + 1]]
        assert mine.tolist() == expected.tolist()
    # values[inverse] maps per-pair values back onto the input entries.
    pair_owner = segment_ids(pair_offsets)
    assert pair_owner[inverse].tolist() == owners[order].tolist()
    assert pair_positions[inverse].tolist() == positions[order].tolist()
    empty = dedup_pairs(np.zeros(0, np.int64), np.zeros(0, np.int64), 3, num_clusters)
    assert empty[0].size == 0 and empty[1].tolist() == [0, 0, 0, 0]


def test_hansen_hurwitz_batch_equals_singles_and_the_replaced_arithmetic():
    rng = np.random.default_rng(21)
    sizes = [1, 6, 25, 140]
    offsets = segment_offsets(sizes)
    total = int(offsets[-1])
    values = rng.integers(0, 500, total)
    weights = rng.random(total) * 0.2 + 1e-4
    proportions = rng.random(total) * rng.choice([0.0, 1.0], total)  # some zero R̂
    proportion_sums = rng.random(len(sizes)) * 5
    delta_rs = np.array([delta_r(100, dims) for dims in (1, 2, 3, 3)])
    kwargs = dict(cluster_size=100, epsilon=0.8, delta=1e-3)
    means, smooths = hansen_hurwitz(
        values, weights, proportions, offsets,
        proportion_sums=proportion_sums, delta_r_values=delta_rs, **kwargs,
    )
    for index, size in enumerate(sizes):
        segment = slice(offsets[index], offsets[index + 1])
        alone = hansen_hurwitz(
            values[segment], weights[segment], proportions[segment],
            segment_offsets([size]),
            proportion_sums=proportion_sums[index : index + 1],
            delta_r_values=delta_rs[index : index + 1],
            **kwargs,
        )
        assert (means[index], smooths[index]) == (alone[0][0], alone[1][0])
        # What the provider computed per query before the lift.
        ratios = values[segment].astype(float) / weights[segment]
        assert means[index] == np.add.reduceat(ratios, [0])[0] / size
        per_cluster = estimator_smooth_sensitivities(
            values[segment].astype(float),
            np.maximum(proportions[segment], 1.0 / 100),
            weights[segment],
            sum_proportions=proportion_sums[index],
            delta_r_value=delta_rs[index],
            epsilon=0.8,
            delta=1e-3,
        )
        assert smooths[index] == np.add.reduceat(per_cluster, [0])[0] / size
