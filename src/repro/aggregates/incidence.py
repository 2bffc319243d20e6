"""Incidence matrix ``G_{0/1}`` between aggregate groups and sample tuples.

Both reweighting techniques (Sec. 4.1) are driven by the same structure: a
0/1 matrix with one row per aggregate group (constraint) and one column per
sample tuple, where entry ``(r, c)`` is one iff tuple ``c`` belongs to the
group described by row ``r``.  The stacked count vector ``y`` holds the
population counts of each group.  The matrix is stored as one index list per
row; the dense form exists only while a caller holds it.

Alg. 1 (IPF) visits the rows one by one, but a tuple belongs to exactly one
group of each aggregate, so the occupied rows of one aggregate ("cells")
touch disjoint tuples: rescaling one cell changes no other cell's sum.  The
cells of one aggregate can therefore be raked in one vectorized step, and
:meth:`IncidenceSystem.aggregate_cells` lays each aggregate out for it
(:class:`AggregateCells`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from ..exceptions import AggregateError
from ..schema import Relation
from .aggregate import AggregateQuery, AggregateSet


@dataclass(frozen=True)
class ConstraintRow:
    """Metadata describing one row of the incidence matrix."""

    aggregate_index: int
    attributes: tuple[str, ...]
    values: tuple[Any, ...]
    count: float


@dataclass(frozen=True, eq=False)
class AggregateCells:
    """One aggregate's occupied groups (cells), laid out for one raking step.

    ``gather`` lists every cell's member rows end to end, each cell prefixed
    by the index ``n_tuples``: the weights are read from a copy one slot
    longer whose last slot holds ``-0.0``, and ``starts`` marks the
    prefixes.  ``np.add.reduceat`` sums a segment as its first element plus
    the pairwise sum of the rest, and ``-0.0 + x == x``, so
    ``np.add.reduceat(padded[gather], starts)[j]`` is exactly
    ``weights[rows_j].sum()``, the sum Alg. 1 takes cell by cell.  Without
    the prefix the first member would sit outside the pairwise sum and the
    last bits would move.

    Attributes
    ----------
    counts:
        The population count of each cell.
    sizes:
        The number of member rows of each cell.
    gather:
        The prefixed member rows, cell after cell.
    starts:
        Where each cell's segment (its prefix) starts in ``gather``.
    cell_of_row:
        Per sample row, its cell, or ``len(counts)`` for a row in no
        occupied cell of this aggregate.
    """

    counts: np.ndarray
    sizes: np.ndarray
    gather: np.ndarray
    starts: np.ndarray
    cell_of_row: np.ndarray


class IncidenceSystem:
    """The linear system ``G_{0/1} w = y`` induced by a sample and aggregates.

    ``G_{0/1}`` is kept sparse: per constraint, the ascending row indices of
    its member tuples.  A tuple belongs to exactly one group of each
    aggregate, so the lists hold ``n_aggregates * n_sample_rows`` indices in
    all, where the dense matrix holds ``n_constraints * n_sample_rows``
    floats (64 MB for 268 groups over a 30,000-row sample).

    Parameters
    ----------
    sample:
        The biased sample ``S``.
    aggregates:
        The population aggregate set ``Γ``.

    Attributes
    ----------
    members:
        One ``int64`` array per constraint: the sample rows in its group.
    counts:
        The stacked population counts ``y``.
    rows:
        Per-row metadata (:class:`ConstraintRow`).
    """

    def __init__(self, sample: Relation, aggregates: AggregateSet):
        if len(aggregates) == 0:
            raise AggregateError("cannot build an incidence system without aggregates")
        for aggregate in aggregates:
            for name in aggregate.attributes:
                if name not in sample.schema:
                    raise AggregateError(
                        f"aggregate attribute {name!r} is not in the sample schema"
                    )
        self._sample = sample
        self._aggregates = aggregates
        members, self.rows = self._build()
        self.counts = np.asarray([row.count for row in self.rows], dtype=float)
        # All member lists end to end, ``members`` as views into them, and
        # where each occupied one starts: the segments ``np.add.reduceat``
        # sums in :meth:`achieved`.
        sizes = np.asarray([len(rows) for rows in members])
        ends = np.cumsum(sizes)
        self._member_rows = np.concatenate(members)
        self.members = np.split(self._member_rows, ends[:-1])
        self._sizes = sizes
        self._occupied = sizes > 0
        self._first = ends - sizes
        self._starts = self._first[self._occupied]
        self._aggregate_of = np.asarray([row.aggregate_index for row in self.rows])

    @property
    def sample(self) -> Relation:
        """The sample the system was built from."""
        return self._sample

    @property
    def aggregates(self) -> AggregateSet:
        """The aggregate set the system was built from."""
        return self._aggregates

    @property
    def n_constraints(self) -> int:
        """Number of constraint rows (``sum_i M_i``)."""
        return len(self.rows)

    @property
    def n_tuples(self) -> int:
        """Number of sample tuples (columns)."""
        return self._sample.n_rows

    @property
    def matrix(self) -> np.ndarray:
        """Dense 0/1 float array of shape ``(n_constraints, n_sample_rows)``.

        Built on every access and not kept: only the regression reweighter
        (``G X_S``) needs it.
        """
        matrix = np.zeros((self.n_constraints, self.n_tuples), dtype=float)
        for row, members in zip(matrix, self.members):
            row[members] = 1.0
        return matrix

    def _build(self) -> tuple[list[np.ndarray], list[ConstraintRow]]:
        sample = self._sample
        members: list[np.ndarray] = []
        rows: list[ConstraintRow] = []
        nobody = np.zeros(0, dtype=np.int64)
        for aggregate_index, aggregate in enumerate(self._aggregates):
            attributes = aggregate.attributes
            # One stable sort per aggregate lists every sample group's rows in
            # ascending order; an aggregate group then finds its rows by code.
            group_index, unique_rows = sample.group_codes(attributes)
            by_group = np.split(
                np.argsort(group_index, kind="stable"),
                np.cumsum(np.bincount(group_index, minlength=len(unique_rows)))[:-1],
            )
            sample_group = dict(zip(map(tuple, unique_rows.tolist()), by_group))
            for codes, (values, count) in zip(
                aggregate.encode(sample.schema).tolist(), aggregate.items()
            ):
                members.append(sample_group.get(tuple(codes), nobody))
                rows.append(
                    ConstraintRow(
                        aggregate_index=aggregate_index,
                        attributes=attributes,
                        values=tuple(values),
                        count=float(count),
                    )
                )
        return members, rows

    # ------------------------------------------------------------------
    # Diagnostics
    # ------------------------------------------------------------------
    def empty_constraints(self) -> np.ndarray:
        """Indices of constraints with no participating sample tuple.

        These are the groups present in the population aggregates but missing
        from the sample; IPF skips them and linear regression drops them.
        """
        return np.nonzero(~self._occupied)[0]

    def supported_totals(self) -> np.ndarray:
        """Per aggregate, in aggregate order, the population count of its
        occupied groups.

        An aggregate whose supported total falls short of its full total has
        population mass that no reweighting of the sample can reach; when the
        aggregates' supported totals differ, no weighting meets them all.
        """
        return np.bincount(
            self._aggregate_of[self._occupied],
            weights=self.counts[self._occupied],
            minlength=len(self._aggregates),
        )

    def aggregate_cells(self) -> list[AggregateCells]:
        """Per aggregate with an occupied group, in aggregate order, its
        cells laid out for one raking step (:class:`AggregateCells`).

        An aggregate's constraint rows are consecutive, so its members are
        one slice of the end-to-end member lists; its empty groups hold no
        row and are left out.
        """
        n_tuples = self.n_tuples
        cells: list[AggregateCells] = []
        for index in range(len(self._aggregates)):
            occupied = np.flatnonzero(self._occupied & (self._aggregate_of == index))
            if not occupied.size:
                continue
            sizes = self._sizes[occupied]
            first = self._first[occupied]
            rows = self._member_rows[first[0] : first[-1] + sizes[-1]]
            offsets = first - first[0]
            n_cells = occupied.size
            cell_of_row = np.full(n_tuples, n_cells, dtype=np.intp)
            cell_of_row[rows] = np.repeat(np.arange(n_cells), sizes)
            cells.append(
                AggregateCells(
                    counts=self.counts[occupied],
                    sizes=sizes,
                    gather=np.insert(rows, offsets, n_tuples),
                    starts=offsets + np.arange(n_cells),
                    cell_of_row=cell_of_row,
                )
            )
        return cells

    def achieved(self, weights: np.ndarray) -> np.ndarray:
        """Per-constraint weighted member counts ``G w``."""
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (self.n_tuples,):
            raise AggregateError(
                f"weights must have shape ({self.n_tuples},), got {weights.shape}"
            )
        totals = np.zeros(self.n_constraints, dtype=float)
        if self._starts.size:
            totals[self._occupied] = np.add.reduceat(
                weights[self._member_rows], self._starts
            )
        return totals

    def residuals(self, weights: np.ndarray) -> np.ndarray:
        """Per-constraint residuals ``G w - y`` for a candidate weight vector."""
        return self.achieved(weights) - self.counts

    def max_relative_violation(self, weights: np.ndarray) -> float:
        """Largest relative constraint violation, ignoring empty constraints."""
        if not self._starts.size:
            return 0.0
        violations = np.abs(self.residuals(weights)) / np.maximum(np.abs(self.counts), 1.0)
        return float(violations[self._occupied].max())


def build_incidence(
    sample: Relation, aggregates: AggregateSet | AggregateQuery
) -> IncidenceSystem:
    """Convenience constructor accepting a single aggregate or a set."""
    if isinstance(aggregates, AggregateQuery):
        aggregates = AggregateSet([aggregates])
    return IncidenceSystem(sample, aggregates)
