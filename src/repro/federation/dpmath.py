"""Array math of the provider's approximate path, over ragged batches.

A batch's per-query sets — covering clusters, selection distributions,
sampled clusters — are *ragged*: every query owns a different number of
entries.  Each travels as one flat array plus ``offsets`` (CSR form, see
:mod:`repro.utils.ragged`): query ``i`` owns
``flat[offsets[i]:offsets[i + 1]]``.  The functions here are pure — arrays
(and, where something is drawn, the per-query generators) in, arrays out,
no provider state — so the provider, the sharded provider and a statistical
audit call the very same code.

Every function is written so that a query's outputs depend only on that
query's own segment: a batch of ``n`` equals ``n`` batches of one, bit for
bit.  Three floating-point traps constrain how segments may be reduced —
each was measured to change the last ulp of a released answer:

1. **Per-query totals are the pairwise sum of the query's own slice.**
   ``flat[start:stop].sum()`` uses NumPy's pairwise summation; a
   ``np.add.reduceat`` or a masked row sum adds strictly left to right (or
   regroups) and rounds differently.  The callers compute ``R̂`` totals
   with :func:`segment_sums_pairwise` and pass them in; the reductions that
   *were* sequential (``reduceat`` below) stay sequential.
2. **Row-wise ``cumsum`` on a zero-padded C-contiguous matrix equals the
   1-D ``cumsum`` of each slice**, so :func:`draw_selections` builds all
   CDFs in one call.  A single global ``cumsum`` minus each segment's
   starting value does *not*: the subtraction reassociates the additions.
3. **Each query still draws ``generator.random(size)`` from its own stream
   and bisects its own CDF row.**  A 3-D broadcast compare of all draws
   against all CDFs was measured slower (5.7 vs 4.7 ms per 64-query op on
   four providers) and a composite-key ``searchsorted`` over one global
   CDF is not exact.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.sensitivity import (
    estimator_smooth_sensitivities,
    sampling_probability_sensitivity,
)
from ..utils.ragged import segment_ids, segment_lengths, segment_offsets

__all__ = [
    "dedup_pairs",
    "draw_selections",
    "em_selection_distributions",
    "hansen_hurwitz",
    "sample_clusters",
    "segment_sums_exact",
    "segment_sums_pairwise",
]


# -- per-segment totals ----------------------------------------------------------


def segment_sums_pairwise(flat: np.ndarray, offsets: np.ndarray) -> list[float]:
    """Each segment's ``slice.sum()`` — NumPy's pairwise sum, 0.0 when empty.

    Deliberately one reduction per segment (trap 1 of the module docstring):
    no segmented ufunc reproduces the pairwise rounding.
    """
    bounds = offsets.tolist()
    return [
        float(flat[start:stop].sum()) if stop > start else 0.0
        for start, stop in zip(bounds[:-1], bounds[1:])
    ]


def segment_sums_exact(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment sums of an *integer* array (order-free, empty segments 0)."""
    prefix = np.zeros(values.size + 1, dtype=np.int64)
    np.cumsum(values, out=prefix[1:])
    return prefix[offsets[1:]] - prefix[offsets[:-1]]


# -- Algorithm 2: Exponential-Mechanism cluster selection ----------------------------


def em_selection_distributions(
    proportions: np.ndarray,
    offsets: np.ndarray,
    totals: np.ndarray,
    sample_sizes: np.ndarray,
    epsilon_sampling: float,
    n_min: int,
) -> np.ndarray:
    """Every query's Exponential-Mechanism selection distribution, flat.

    Segment ``i`` of the result is what
    :meth:`repro.sampling.em_sampler.EMClusterSampler.selection_distribution`
    returns for ``proportions[offsets[i]:offsets[i + 1]]`` and
    ``sample_sizes[i]``: the pps probabilities ``R̂ / sum(R̂)`` (uniform
    when the metadata found no matching row, floored at ``1e-12`` and
    renormalised), scored under the per-selection budget
    ``epsilon_sampling / sample_size`` with sensitivity ``Δp`` (Theorem
    5.2).  These are also the Hansen-Hurwitz weights.

    ``totals`` are the segments' pairwise sums
    (:func:`segment_sums_pairwise`).  Every segment must be non-empty —
    approximating queries have at least ``n_min >= 1`` covering clusters —
    because ``reduceat`` mis-handles empty segments; it reduces a segment
    left to right, so each query's distribution depends on its own slice
    only.
    """
    lengths = segment_lengths(offsets)
    starts = offsets[:-1]
    pps = proportions / np.where(totals > 0.0, totals, 1.0).repeat(lengths)
    for i in np.flatnonzero(totals <= 0.0):
        # Uniform fallback: the metadata approximation found no matching
        # rows in any covering cluster.
        pps[offsets[i] : offsets[i + 1]] = 1.0 / float(lengths[i])
    pps = np.maximum(pps, 1e-12)
    pps = pps / np.add.reduceat(pps, starts).repeat(lengths)
    delta_p = sampling_probability_sensitivity(n_min)
    exponents = (
        pps * (epsilon_sampling / sample_sizes).repeat(lengths) / (2.0 * delta_p)
    )
    exponents -= np.maximum.reduceat(exponents, starts).repeat(lengths)
    weights = np.exp(exponents)
    return weights / np.add.reduceat(weights, starts).repeat(lengths)


def draw_selections(
    selection: np.ndarray,
    offsets: np.ndarray,
    sample_sizes: np.ndarray,
    generators: Sequence[np.random.Generator],
) -> np.ndarray:
    """With-replacement draws from every query's distribution, flat.

    Query ``i`` takes ``generators[i].random(sample_sizes[i])`` — its only
    draw here, so its stream advances exactly as a batch of one would
    advance it — scales the uniforms by its CDF's last entry and bisects its
    own CDF (inverse-CDF sampling).  Returns the drawn indices *local to the
    query's segment*, ragged by ``sample_sizes``.

    All CDFs come from one row-wise ``cumsum`` over the zero-padded
    ``(queries, longest segment)`` matrix (trap 2 of the module docstring);
    the padding sits after the data and never enters a prefix.
    """
    lengths = segment_lengths(offsets)
    num_queries = lengths.size
    rows = segment_ids(offsets)
    padded = np.zeros((num_queries, int(lengths.max())), dtype=float)
    padded[rows, np.arange(selection.size, dtype=np.int64) - offsets[rows]] = selection
    cdfs = np.cumsum(padded, axis=1)
    draw_bounds = segment_offsets(sample_sizes).tolist()
    selected = np.empty(draw_bounds[-1], dtype=np.int64)
    for i, (generator, length, size) in enumerate(
        zip(generators, lengths.tolist(), sample_sizes.tolist())
    ):
        cdf = cdfs[i, :length]
        draws = generator.random(size)
        draws *= cdf[-1]
        selected[draw_bounds[i] : draw_bounds[i + 1]] = cdf.searchsorted(
            draws, side="right"
        )
    # A draw that rounds up to the CDF's last entry bisects past the end.
    return np.minimum(selected, (lengths - 1).repeat(sample_sizes))


def sample_clusters(
    proportions: np.ndarray,
    offsets: np.ndarray,
    totals: np.ndarray,
    requested: np.ndarray,
    epsilon_sampling: float,
    n_min: int,
    generators: Sequence[np.random.Generator],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Algorithm 2 for a batch: DP cluster sampling of every approximating query.

    ``requested`` are the granted allocations; each is clamped to
    ``[1, N^Q]``.  Returns ``(sizes, drawn, weights)``: the clamped sample
    sizes, and — ragged by them — the drawn clusters as indices into the
    flat covering arrays (``proportions`` and whatever else is aligned with
    it) with the probability each was drawn with, its Hansen-Hurwitz weight.
    """
    sizes = np.maximum(1, np.minimum(requested, segment_lengths(offsets)))
    selection = em_selection_distributions(
        proportions, offsets, totals, sizes, epsilon_sampling, n_min
    )
    drawn = draw_selections(selection, offsets, sizes, generators)
    drawn += offsets[:-1].repeat(sizes)
    return sizes, drawn, selection[drawn]


def dedup_pairs(
    owners: np.ndarray, positions: np.ndarray, num_owners: int, num_clusters: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct (query, cluster) pairs of a flat list, grouped by query.

    One ``np.unique`` over the composite key ``owner * num_clusters +
    position`` replaces a per-query ``np.unique``: the sorted keys come out
    grouped by owner with ascending positions inside each group.  Returns
    ``(pair_positions, pair_offsets, inverse)`` — the distinct positions as
    a ragged array over ``num_owners`` queries, and for every input entry
    the index of its pair, so ``values[inverse]`` maps per-pair values back
    onto the input order.
    """
    keys, inverse = np.unique(owners * num_clusters + positions, return_inverse=True)
    pair_owners = keys // num_clusters
    return (
        keys - pair_owners * num_clusters,
        segment_offsets(np.bincount(pair_owners, minlength=num_owners)),
        inverse,
    )


# -- Algorithm 3: Hansen-Hurwitz estimate and its smooth sensitivity -----------------


def hansen_hurwitz(
    values: np.ndarray,
    weights: np.ndarray,
    proportions: np.ndarray,
    offsets: np.ndarray,
    *,
    proportion_sums: np.ndarray,
    delta_r_values: np.ndarray,
    cluster_size: int,
    epsilon: float,
    delta: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-query Hansen-Hurwitz estimates and smooth sensitivities.

    The three flat inputs are aligned on the sampled clusters (ragged by
    ``offsets``, every segment non-empty): the exact ``Q(C)``, the
    probability the cluster was drawn with, and its approximate proportion
    ``R̂``.  The estimate is the mean of ``Q(C) / p`` over the query's draws
    and the smooth sensitivity the mean of the per-cluster Theorem-5.4
    bounds (Equation 9); both means are a left-to-right ``reduceat`` over
    the query's own segment divided by its length.

    The weights must be the distribution the clusters were actually drawn
    from (the DP selection distribution), otherwise near-zero approximate
    proportions blow the estimate up; see the estimator-consistency note in
    DESIGN.md.  A selected cluster holding matching rows has a true
    proportion of at least one row over ``S``; flooring ``R̂`` there keeps
    the scenario-1 local sensitivity finite when the independence
    approximation returned zero.
    """
    lengths = segment_lengths(offsets)
    starts = offsets[:-1]
    values = values.astype(float)
    smooth = estimator_smooth_sensitivities(
        values,
        np.maximum(proportions, 1.0 / cluster_size),
        weights,
        sum_proportions=proportion_sums.repeat(lengths),
        delta_r_value=delta_r_values.repeat(lengths),
        epsilon=epsilon,
        delta=delta,
    )
    return (
        np.add.reduceat(values / weights, starts) / lengths,
        np.add.reduceat(smooth, starts) / lengths,
    )
