"""Vectorized columnar kernels and the predicate-mask cache.

Execution of a compiled :class:`~repro.plan.ir.LogicalPlan` over a relation
is *mask -> selection vector -> gather -> reduce*:

* **predicate evaluation** — one boolean mask per canonical predicate,
  cached by predicate in :class:`MaskCache` (whose entries are one
  :class:`~repro.lru.LRUCache`, like every cache in the system), except
  ``IN``: its mask is the bitwise OR of its in-domain codes' cached
  equality masks (one bitmap per value, as a text index keeps one postings
  list per term), so the cache holds at most one mask per domain value
  plus the ordered predicates' masks.  A conjunction is the bitwise AND of
  its predicates' masks.  ORs and ANDs are computed when asked for and not
  kept;
* **selection** — a kernel call resolves its mask once to the sorted row ids
  it keeps (``mask.nonzero()[0]``, transient) and gathers bins, weights and
  each distinct measure through ``take(rows)``;
* **group-by** — packed-key group codes (ascending code order) over the
  encoded key columns (memoized per relation) plus ``np.bincount``
  scatter-adds of the gathered weights;
* **scalar aggregates** — pairwise sums over the gathered weights, never
  materializing a filtered relation.

Every kernel is bit-identical to the historical filter-then-reduce engine:
the gather holds exactly the rows ``Relation.filter_mask`` kept, in the same
order, so each float reduction performs the same operations on the same
operands.

The reductions come in a **partitioned** form (:class:`RowPartition`): the
relation is several relations stacked in order — the Bayesian network's
``K`` generated samples — and one pass yields every part's answer, each
bit-identical to running the kernel over that part alone.  Without a
partition the relation is one part: the weighted sample's executor takes
each kernel's part ``0``, and :func:`fused_group_columns` is that case of
:func:`partitioned_group_columns`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..exceptions import QueryError
from ..lru import LRUCache
from ..query.ast import Comparison
from ..schema import Relation
from .ir import CanonicalPredicate


#: How many predicate masks one relation's cache keeps (LRU beyond that).
MASK_CACHE_CAPACITY = 512


def _mask_bytes(mask: np.ndarray) -> int:
    return int(mask.nbytes) + 96


class MaskCache:
    """Cached boolean predicate masks for one relation (LRU-capped).

    Entries are keyed by the canonical predicate triple.  A cache belongs to
    one relation, and relations are immutable, so a mask can never go stale:
    a refit weights a new relation and builds a new cache.  Only
    single-predicate masks are cached: they are what a statement stream
    repeats, while its conjunctions are mostly one-offs that would push the
    repeating masks out to save an AND cheaper than a conjunction's cache
    key.  An ``IN`` predicate is not cached either: its buckets are as
    diverse as conjunctions, so it is the OR of its admitted codes'
    equality masks, each cached under the ``(attribute, "=", code)`` key an
    ``=`` predicate on that code has, and each lookup counts in
    :attr:`hits` / :attr:`misses`.  The masks live in :attr:`lru`, bounded
    like every other cache: each mask costs ``n_rows`` bytes, and a diverse
    predicate stream must not grow a long-lived session without limit.
    """

    def __init__(self, relation: Relation):
        self._relation = relation
        #: The masks by predicate key; what a governor governs.
        self.lru = LRUCache(MASK_CACHE_CAPACITY, size=_mask_bytes)

    @property
    def relation(self) -> Relation:
        """The relation masks are evaluated over."""
        return self._relation

    @property
    def hits(self) -> int:
        """Predicate lookups served from the cache."""
        return self.lru.statistics.hits

    @property
    def misses(self) -> int:
        """Predicate lookups that evaluated a mask."""
        return self.lru.statistics.misses

    def __len__(self) -> int:
        return len(self.lru)

    def predicate_mask(self, predicate: CanonicalPredicate) -> np.ndarray:
        """The boolean mask of one canonical predicate (read-only).

        Bit-identical to ``predicate.mask(relation)``.  An ``IN`` answers
        with the OR of its codes' cached equality masks (codes outside the
        domain admit no row): one code's mask itself, several ORed into a
        fresh array that is not kept, none an all-false array.
        """
        if predicate.comparison is not Comparison.IN:
            mask = self.lru.get(predicate.key)
            if mask is None:
                mask = predicate.mask(self._relation)
                self.lru.put(predicate.key, mask)
            return mask
        attribute = predicate.attribute
        size = self._relation.schema[attribute].size
        codes = [code for code in predicate.bucket if code < size]
        if not codes:
            return np.zeros(self._relation.n_rows, dtype=bool)
        mask = self._equality_mask(attribute, codes[0])
        if len(codes) > 1:
            mask = mask | self._equality_mask(attribute, codes[1])
            for code in codes[2:]:
                mask |= self._equality_mask(attribute, code)
        return mask

    def _equality_mask(self, attribute: str, code: int) -> np.ndarray:
        """The cached mask of ``attribute = code``, under that predicate's key
        (``"="`` is ``Comparison.EQ.value``, spelled out: an enum member's
        ``.value`` costs as much as the dictionary lookup)."""
        key = (attribute, "=", code)
        mask = self.lru.get(key)
        if mask is None:
            mask = self._relation.column(attribute) == code
            self.lru.put(key, mask)
        return mask

    def conjunction_mask(
        self, predicates: tuple[CanonicalPredicate, ...]
    ) -> np.ndarray | None:
        """The AND of several predicates' cached masks (``None`` when empty).

        ``None`` (rather than an all-true mask) lets the kernels skip the
        gather entirely on unfiltered plans.  One predicate answers with
        its cached mask itself; several are ANDed into a fresh array that is
        not kept.
        """
        if not predicates:
            return None
        mask = self.predicate_mask(predicates[0])
        if len(predicates) > 1:
            mask = mask & self.predicate_mask(predicates[1])
            for predicate in predicates[2:]:
                mask &= self.predicate_mask(predicate)
        return mask

    def statistics(self) -> dict[str, int | float]:
        """Hit/miss/eviction counters plus the number of cached masks."""
        return {**self.lru.statistics.as_dict(), "cached_masks": len(self.lru)}

    def reset_statistics(self) -> None:
        """Zero the counters without touching the cached masks."""
        self.lru.statistics.reset()


class StackedMasks:
    """The masks of relations stacked in order: the parts' cached
    conjunction masks, concatenated into a fresh array that is not kept."""

    def __init__(self, caches: Sequence[MaskCache]):
        self._caches = tuple(caches)

    @property
    def hits(self) -> int:
        return sum(cache.hits for cache in self._caches)

    @property
    def misses(self) -> int:
        return sum(cache.misses for cache in self._caches)

    def conjunction_mask(self, predicates) -> np.ndarray | None:
        if not predicates:
            return None
        return np.concatenate([cache.conjunction_mask(predicates) for cache in self._caches])


# ----------------------------------------------------------------------
# Reduction kernels (the executor's, over one part or several)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RowPartition:
    """Contiguous row ranges of one relation — several relations stacked.

    ``offsets`` holds the ``n_parts + 1`` row boundaries (part ``k`` is rows
    ``offsets[k]:offsets[k + 1]``) and ``ids`` the part of every row.  The
    partitioned kernels reduce each part separately in one pass.
    """

    ids: np.ndarray
    offsets: np.ndarray

    @classmethod
    def of_sizes(cls, sizes: list[int]) -> "RowPartition":
        """The partition of parts with the given row counts, in order."""
        sizes = np.asarray(sizes, dtype=np.int64)
        offsets = np.concatenate([np.zeros(1, dtype=np.int64), np.cumsum(sizes)])
        return cls(np.repeat(np.arange(sizes.shape[0], dtype=np.int64), sizes), offsets)

    @property
    def n_parts(self) -> int:
        """Number of parts."""
        return self.offsets.shape[0] - 1


def numeric_column(relation: Relation, attribute: str) -> np.ndarray:
    """Decoded numeric values of a column, as a float array.

    Equivalent to ``np.asarray(relation.decoded_column(attribute), float)``
    but computed as one gather through the float-converted domain, so it is
    cheap enough to evaluate over the full relation and mask afterwards.
    """
    domain = relation.schema[attribute].domain
    try:
        lookup = np.asarray(domain.values, dtype=float)
    except (TypeError, ValueError):
        raise QueryError(
            f"attribute {attribute!r} is not numeric; cannot SUM/AVG over it"
        ) from None
    return lookup[relation.column(attribute)]


#: The one part of an unpartitioned relation: every (masked) row.
_WHOLE = (slice(None),)


def _part_bounds(partition: RowPartition, rows: np.ndarray | None) -> list[int]:
    """The ``n_parts + 1`` boundaries of the parts' contiguous slices of the
    selected rows (``rows`` sorted, every row when ``None``): part ``k``'s
    selected rows are ``rows[bounds[k]:bounds[k + 1]]``."""
    if rows is None:
        return partition.offsets.tolist()
    return np.searchsorted(rows, partition.offsets).tolist()


def partitioned_scalar_reduce(
    relation: Relation,
    mask: np.ndarray | None,
    specs: list[tuple[str, np.ndarray | None]],
    partition: RowPartition | None = None,
) -> list[list[float]]:
    """Masked weighted scalar aggregates, one value per spec per part.

    ``specs`` is a list of ``(function, measure)`` pairs (``measure`` is the
    decoded numeric column, ``None`` for COUNT).  The selection vector, the
    gathered weights, their per-part totals, each measure gather, and each
    weighted sum are computed once per distinct operand and shared across
    the family — bit-identical to reducing each spec over its own gather.

    Parts are reduced as *contiguous slices* of the one gathered vector: a
    slice holds exactly the operands the part's own gather would, so
    numpy's pairwise summation adds them in the same order.  (A
    ``np.add.reduceat`` or a bincount over part ids would add sequentially
    and drift in the last bits.)
    """
    rows = None if mask is None else mask.nonzero()[0]
    weights = relation.weights if rows is None else relation.weights.take(rows)
    if partition is None:
        slices = _WHOLE
    else:
        bounds = _part_bounds(partition, rows)
        slices = [slice(low, high) for low, high in zip(bounds, bounds[1:])]
    totals: list[float] | None = None
    weighted_sums: dict[int, list[float]] = {}

    def weight_totals() -> list[float]:
        nonlocal totals
        if totals is None:
            totals = [float(weights[part].sum()) for part in slices]
        return totals

    def weighted_sum(measure: np.ndarray) -> list[float]:
        key = id(measure)
        if key not in weighted_sums:
            products = weights * (measure if rows is None else measure.take(rows))
            weighted_sums[key] = [float(np.sum(products[part])) for part in slices]
        return weighted_sums[key]

    results: list[list[float]] = []
    for function, measure in specs:
        if function == "count":
            results.append(weight_totals())
            continue
        assert measure is not None
        if function == "sum":
            results.append(weighted_sum(measure))
        elif function == "avg":
            results.append(
                [
                    value / total if total > 0 else 0.0
                    for value, total in zip(weighted_sum(measure), weight_totals())
                ]
            )
        else:
            raise QueryError(f"unsupported aggregate function {function}")
    return results


def fused_group_columns(
    relation: Relation,
    keys: tuple[str, ...],
    mask: np.ndarray | None,
    specs: list[tuple[str, np.ndarray | None]],
) -> tuple[np.ndarray, np.ndarray, list[tuple[Any, ...]], list[np.ndarray]]:
    """The one-part case of :func:`partitioned_group_columns`, resolved to
    its positive-weight groups (as the executor's group-by unit resolves it).

    Returns ``(positive, codes, decoded, per_spec)``: the full-bin row
    indexes of positive-weight groups, their encoded key rows (packed-key
    group codes (ascending code order), one row per surviving group), the
    decoded group tuples in that same order, and one *full-bin* value array
    per spec.
    """
    weight_totals, per_spec = partitioned_group_columns(relation, keys, mask, specs)
    positive = np.nonzero(weight_totals[0] > 0)[0]
    codes = relation.group_codes(keys)[1][positive]
    decoded = relation.group_tuples(keys, positive)
    return positive, codes, decoded, [values[0] for values in per_spec]


def partitioned_group_columns(
    relation: Relation,
    keys: tuple[str, ...],
    mask: np.ndarray | None,
    specs: list[tuple[str, np.ndarray | None]],
    partition: RowPartition | None = None,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """One scatter-add per distinct measure over ``(part, group)`` bins.

    Returns ``(weight_totals, per_spec)``, every array shaped
    ``(n_parts, n_groups)`` over the relation's memoized ``group_codes``
    rows: the masked weight total of each group in each part, and one value
    array per ``(function, measure)`` spec.  Row ``k`` is bit-identical to
    the pass over part ``k`` alone: ``np.bincount`` adds a bin's weights in
    row order, and bin ``k * n_groups + g`` holds exactly the rows — in the
    same order — that group ``g`` holds in part ``k``; AVG's division is
    elementwise.
    """
    rows = None if mask is None else mask.nonzero()[0]
    bins, shape = _part_group_bins(relation, keys, partition, rows)
    n_bins = shape[0] * shape[1]
    weights = relation.weights if rows is None else relation.weights.take(rows)
    weight_totals = np.bincount(bins, weights=weights, minlength=n_bins)

    weighted_sums: dict[int, np.ndarray] = {}

    def sums_for(measure: np.ndarray) -> np.ndarray:
        key = id(measure)
        sums = weighted_sums.get(key)
        if sums is None:
            selected = measure if rows is None else measure.take(rows)
            sums = np.bincount(bins, weights=weights * selected, minlength=n_bins)
            weighted_sums[key] = sums
        return sums

    per_spec: list[np.ndarray] = []
    for function, measure in specs:
        if function == "count":
            per_spec.append(weight_totals)
            continue
        assert measure is not None
        sums = sums_for(measure)
        if function == "sum":
            per_spec.append(sums)
        elif function == "avg":
            with np.errstate(divide="ignore", invalid="ignore"):
                per_spec.append(np.where(weight_totals > 0, sums / weight_totals, 0.0))
        else:
            raise QueryError(f"unsupported aggregate function {function}")
    return weight_totals.reshape(shape), [values.reshape(shape) for values in per_spec]


def _part_group_bins(
    relation: Relation,
    keys: tuple[str, ...],
    partition: RowPartition | None,
    rows: np.ndarray | None,
) -> tuple[np.ndarray, tuple[int, int]]:
    """The scatter-add bin ``part * n_groups + group`` of each selected row
    (``rows`` sorted, every row when ``None``) over the relation's memoized
    ``group_codes``, and the ``(n_parts, n_groups)`` shape of the bins.

    Gathers the group ids at ``rows`` once, so a filter pays for its
    selected rows only, then adds ``k * n_groups`` in place over part
    ``k``'s contiguous slice of them (:func:`_part_bounds`) instead of
    gathering a part id per row: the bins are the same integers in the
    same row order as ``partition.ids * n_groups + group_index`` gathered
    at ``rows``."""
    group_index, unique_rows = relation.group_codes(keys)
    n_groups = unique_rows.shape[0]
    if partition is None:
        bins = group_index if rows is None else group_index.take(rows)
        return bins, (1, n_groups)
    # A copy when every row is selected: the memoized codes are read-only.
    bins = group_index.copy() if rows is None else group_index.take(rows)
    bounds = _part_bounds(partition, rows)
    for part in range(1, partition.n_parts):
        bins[bounds[part] : bounds[part + 1]] += part * n_groups
    return bins, (partition.n_parts, n_groups)


def fused_group_reduce(
    relation: Relation,
    keys: tuple[str, ...],
    mask: np.ndarray | None,
    specs: list[tuple[str, np.ndarray | None]],
) -> list[dict[tuple[Any, ...], float]]:
    """Several GROUP BY aggregates over one shared scatter-add pass.

    The fusion kernel behind multi-query group-by fusion: every aggregate in
    ``specs`` shares the ``(Scan, Filter, Group)`` prefix, so the group-code
    gather, the masked weight scatter-add, and the per-group key decoding run
    **once** for the whole family; each member only adds its own stacked
    reduction column (one extra ``np.bincount`` per distinct measure).
    Bit-identical to one pass per spec: the shared intermediates are the
    exact arrays each individual pass would compute.  Groups with no
    positive weight are dropped.
    """
    positive, _codes, decoded, per_spec = fused_group_columns(relation, keys, mask, specs)
    return [dict(zip(decoded, values[positive].tolist())) for values in per_spec]


def partitioned_grouped_weight_totals(
    relation: Relation,
    keys: tuple[str, ...],
    masks: Sequence[np.ndarray | None],
    partition: RowPartition | None = None,
) -> list[list[dict[tuple[Any, ...], float]]]:
    """Join sides' ``(join key, group)`` weight totals, per side per part.

    The fusion kernel behind join-side fusion: every side in ``masks`` groups
    over the same ``keys`` columns, so the group codes are built once
    (memoized) and each side only gathers its own rows' bins and adds its
    own stacked reduction columns (one weight bincount plus one presence
    bincount over ``(part, group)`` bins).
    Unlike :func:`partitioned_group_columns` this keeps zero-weight groups
    whose tuples matched the mask (``Relation.value_counts`` semantics),
    because the join merge enumerates *present* groups, not positive-weight
    ones.  Bit-identical to one pass per mask per part: each part's totals
    and presence come from exactly the rows its own pass would add, in the
    same order, and present groups are emitted in ascending group-row
    order.
    """
    all_weights = relation.weights

    per_side: list[list[dict[tuple[Any, ...], float]]] = []
    for mask in masks:
        rows = None if mask is None else mask.nonzero()[0]
        side_bins, (n_parts, n_groups) = _part_group_bins(
            relation, keys, partition, rows
        )
        n_bins = n_parts * n_groups
        weights = all_weights if rows is None else all_weights.take(rows)
        totals = np.bincount(side_bins, weights=weights, minlength=n_bins)
        present = np.flatnonzero(np.bincount(side_bins, minlength=n_bins))
        part_of, group_of = np.divmod(present, max(n_groups, 1))
        parts: list[dict[tuple[Any, ...], float]] = [{} for _ in range(n_parts)]
        for part, group, total in zip(
            part_of.tolist(),
            relation.group_tuples(keys, group_of),
            totals[present].tolist(),
        ):
            parts[part][group] = total
        per_side.append(parts)
    return per_side


def merge_join_sides(
    left_counts: dict[tuple[Any, ...], float],
    right_counts: dict[tuple[Any, ...], float],
) -> dict[tuple[Any, ...], float]:
    """Merge two join sides' ``(join key, group)`` weight totals.

    The joined weight of a pair of groups is ``sum_{i,j} w_i * w_j`` over
    matching tuple pairs — the natural plug-in estimator for a weighted
    sample.  Shared by the columnar executor and the tests' per-sample
    reference, so the two run the identical float operations in the
    identical order.
    """
    results: dict[tuple[Any, ...], float] = {}
    if not left_counts or not right_counts:
        return results
    right_by_key: dict[Any, list[tuple[Any, float]]] = {}
    for (join_value, group_value), weight in right_counts.items():
        right_by_key.setdefault(join_value, []).append((group_value, weight))
    for (join_value, left_group_value), left_weight in left_counts.items():
        for right_group_value, right_weight in right_by_key.get(join_value, []):
            key = (left_group_value, right_group_value)
            results[key] = results.get(key, 0.0) + left_weight * right_weight
    return results
