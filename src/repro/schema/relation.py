"""Encoded, weighted relations.

A :class:`Relation` is the storage substrate of this reproduction: an
immutable column store where every attribute is integer-coded against its
active domain, plus an optional per-tuple weight column.  Both the population
``P`` and the sample ``S`` of the paper are represented as relations; sample
reweighting simply attaches a new weight vector.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from typing import Any

import numpy as np

from ..exceptions import SchemaError, UnknownAttributeError
from .attribute import Attribute, Domain, Schema


class Relation:
    """An immutable, integer-coded, optionally weighted relation.

    Parameters
    ----------
    schema:
        The relation schema.
    columns:
        Mapping from attribute name to a numpy integer array of domain codes.
        Every column must have the same length.
    weights:
        Optional per-tuple weights (``w(t)`` in the paper).  ``None`` means
        every tuple has weight one.

    Notes
    -----
    Relations are treated as immutable: all transforming methods return new
    relations that share the underlying column arrays when possible.
    """

    __slots__ = (
        "_schema",
        "_columns",
        "_weights",
        "_n_rows",
        "_group_codes_cache",
        "_group_tuples_cache",
    )

    def __init__(
        self,
        schema: Schema,
        columns: Mapping[str, np.ndarray],
        weights: np.ndarray | None = None,
    ):
        if not isinstance(schema, Schema):
            raise SchemaError("schema must be a Schema instance")
        self._schema = schema
        prepared: dict[str, np.ndarray] = {}
        n_rows: int | None = None
        for attribute in schema:
            name = attribute.name
            if name not in columns:
                raise SchemaError(f"missing column for attribute {name!r}")
            column = np.asarray(columns[name], dtype=np.int64)
            if column.ndim != 1:
                raise SchemaError(f"column {name!r} must be one-dimensional")
            if n_rows is None:
                n_rows = column.shape[0]
            elif column.shape[0] != n_rows:
                raise SchemaError(
                    f"column {name!r} has {column.shape[0]} rows, expected {n_rows}"
                )
            if column.size and (column.min() < 0 or column.max() >= attribute.size):
                raise SchemaError(
                    f"column {name!r} contains codes outside the domain "
                    f"[0, {attribute.size})"
                )
            prepared[name] = column
        assert n_rows is not None
        self._columns = prepared
        self._n_rows = int(n_rows)
        self._group_codes_cache: dict[tuple[str, ...], tuple[np.ndarray, np.ndarray]] = {}
        self._group_tuples_cache: dict[tuple[str, ...], tuple[np.ndarray, np.ndarray]] = {}
        if weights is None:
            self._weights = None
        else:
            weights = np.asarray(weights, dtype=float)
            if weights.shape != (self._n_rows,):
                raise SchemaError(
                    f"weights must have shape ({self._n_rows},), got {weights.shape}"
                )
            if np.any(weights < 0):
                raise SchemaError("weights must be non-negative")
            self._weights = weights

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(
        cls,
        schema: Schema,
        rows: Iterable[Sequence[Any]],
        weights: Sequence[float] | None = None,
    ) -> "Relation":
        """Build a relation from decoded row tuples ordered as the schema."""
        rows = list(rows)
        names = schema.names
        columns: dict[str, list[int]] = {name: [] for name in names}
        for row in rows:
            if len(row) != len(names):
                raise SchemaError(
                    f"row has {len(row)} values but schema has {len(names)} attributes"
                )
            for name, value in zip(names, row):
                columns[name].append(schema[name].domain.encode(value))
        coded = {
            name: np.asarray(values, dtype=np.int64) for name, values in columns.items()
        }
        weight_array = None if weights is None else np.asarray(weights, dtype=float)
        return cls(schema, coded, weight_array)

    @classmethod
    def from_dicts(
        cls,
        schema: Schema,
        records: Iterable[Mapping[str, Any]],
        weights: Sequence[float] | None = None,
    ) -> "Relation":
        """Build a relation from dict records keyed by attribute name."""
        rows = [[record[name] for name in schema.names] for record in records]
        return cls.from_rows(schema, rows, weights)

    @classmethod
    def from_value_columns(
        cls,
        columns: Mapping[str, Sequence[Any]],
        schema: Schema | None = None,
        weights: Sequence[float] | None = None,
    ) -> "Relation":
        """Build a relation from decoded value columns.

        When ``schema`` is omitted, each attribute's domain is inferred from
        the observed values (sorted when comparable).
        """
        if schema is None:
            attributes = [
                Attribute(name, Domain.from_values(values))
                for name, values in columns.items()
            ]
            schema = Schema(attributes)
        coded = {
            name: schema[name].domain.encode_many(columns[name])
            for name in schema.names
        }
        weight_array = None if weights is None else np.asarray(weights, dtype=float)
        return cls(schema, coded, weight_array)

    @classmethod
    def empty(cls, schema: Schema) -> "Relation":
        """An empty relation over ``schema``."""
        columns = {name: np.zeros(0, dtype=np.int64) for name in schema.names}
        return cls(schema, columns)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def schema(self) -> Schema:
        """The relation schema."""
        return self._schema

    @property
    def n_rows(self) -> int:
        """Number of stored tuples."""
        return self._n_rows

    def __len__(self) -> int:
        return self._n_rows

    @property
    def attribute_names(self) -> tuple[str, ...]:
        """Attribute names in schema order."""
        return self._schema.names

    @property
    def has_weights(self) -> bool:
        """Whether an explicit weight column is attached."""
        return self._weights is not None

    @property
    def weights(self) -> np.ndarray:
        """Per-tuple weights (all ones when no weights were attached)."""
        if self._weights is None:
            return np.ones(self._n_rows, dtype=float)
        return self._weights

    def total_weight(self) -> float:
        """Sum of the tuple weights (estimated population size when reweighted)."""
        return float(self.weights.sum()) if self._n_rows else 0.0

    def column(self, name: str) -> np.ndarray:
        """Integer-coded column for attribute ``name``."""
        if name not in self._columns:
            raise UnknownAttributeError(name, self.attribute_names)
        return self._columns[name]

    def decoded_column(self, name: str) -> list[Any]:
        """Column values decoded back through the attribute domain."""
        domain = self._schema[name].domain
        return domain.decode_many(self.column(name))

    def row(self, index: int) -> tuple[Any, ...]:
        """Decoded values of one row, in schema order."""
        return tuple(
            self._schema[name].domain.decode(self._columns[name][index])
            for name in self._schema.names
        )

    def iter_rows(self) -> Iterable[tuple[Any, ...]]:
        """Iterate over decoded rows in schema order."""
        for index in range(self._n_rows):
            yield self.row(index)

    def __repr__(self) -> str:
        return (
            f"Relation(n_rows={self._n_rows}, attributes={list(self.attribute_names)},"
            f" weighted={self.has_weights})"
        )

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def with_weights(self, weights: Sequence[float]) -> "Relation":
        """Return a copy of this relation carrying the given weight column.

        The copy shares this relation's group-code memo: the columns are the
        same immutable arrays, and group codes never depend on weights.
        """
        relation = Relation(self._schema, self._columns, np.asarray(weights, dtype=float))
        relation._group_codes_cache = self._group_codes_cache
        relation._group_tuples_cache = self._group_tuples_cache
        return relation

    def without_weights(self) -> "Relation":
        """Return a copy of this relation without any weight column."""
        return Relation(self._schema, self._columns, None)

    def project(self, names: Sequence[str]) -> "Relation":
        """Project onto ``names`` (keeping all rows and weights)."""
        schema = self._schema.project(names)
        columns = {name: self._columns[name] for name in names}
        return Relation(schema, columns, self._weights)

    def take(self, indices: Sequence[int] | np.ndarray) -> "Relation":
        """Return the relation restricted to the given row indices."""
        indices = np.asarray(indices, dtype=np.int64)
        columns = {name: column[indices] for name, column in self._columns.items()}
        weights = None if self._weights is None else self._weights[indices]
        return Relation(self._schema, columns, weights)

    def filter_mask(self, mask: np.ndarray) -> "Relation":
        """Return the relation restricted to rows where ``mask`` is true."""
        mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self._n_rows,):
            raise SchemaError(
                f"mask must have shape ({self._n_rows},), got {mask.shape}"
            )
        return self.take(np.nonzero(mask)[0])

    def mask_equal(self, assignment: Mapping[str, Any]) -> np.ndarray:
        """Boolean mask of rows matching an attribute-value assignment."""
        mask = np.ones(self._n_rows, dtype=bool)
        for name, value in assignment.items():
            domain = self._schema[name].domain
            code = domain.code_of(value)
            if code is None:
                return np.zeros(self._n_rows, dtype=bool)
            mask &= self.column(name) == code
        return mask

    def filter_equal(self, assignment: Mapping[str, Any]) -> "Relation":
        """Restrict to rows matching an attribute-value assignment."""
        return self.filter_mask(self.mask_equal(assignment))

    def concat(self, *others: "Relation") -> "Relation":
        """Append the rows of ``others``, in order (schemas must match).

        One ``np.concatenate`` per column, however many relations stack.
        """
        relations = (self, *others)
        if any(other.schema != self._schema for other in others):
            raise SchemaError("cannot concatenate relations with different schemas")
        columns = {
            name: np.concatenate([relation._columns[name] for relation in relations])
            for name in self._schema.names
        }
        if all(relation._weights is None for relation in relations):
            weights = None
        else:
            weights = np.concatenate([relation.weights for relation in relations])
        return Relation(self._schema, columns, weights)

    # ------------------------------------------------------------------
    # Aggregation helpers
    # ------------------------------------------------------------------
    def count(self, assignment: Mapping[str, Any], weighted: bool = False) -> float:
        """Count (optionally weighted) tuples matching ``assignment``."""
        mask = self.mask_equal(assignment)
        if weighted:
            return float(self.weights.take(mask.nonzero()[0]).sum())
        return float(mask.sum())

    def contains(self, assignment: Mapping[str, Any]) -> bool:
        """Whether any tuple matches the attribute-value assignment."""
        return bool(self.mask_equal(assignment).any())

    def group_codes(self, names: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(group_index, unique_code_rows)`` over the given attributes.

        ``group_index[i]`` is the row index into ``unique_code_rows`` of tuple
        ``i``'s group.  ``unique_code_rows`` has one row per distinct group and
        one column per attribute in ``names``, in ascending (lexicographic)
        code order.

        Packed-key group codes (ascending code order): each row's codes fold
        into one ``int64`` key, most significant attribute first.  Codes lie
        in ``[0, size)``, so key order is lexicographic row order.  When the
        next fold could pass ``2**62`` the keys are first re-ranked densely,
        which keeps their order.  The groups are then found one of two ways,
        by the key space's ``bound`` (the product of the domain sizes, or the
        re-ranked count times the sizes still to fold):

        * ``bound <= 4 * n_rows + 1024`` (the key space is not much wider
          than the relation): one ``np.bincount`` over the keys marks the
          keys present, and the running count of present keys below each
          key is its group, so no sort runs;
        * wider key spaces: one 1-D ``np.unique`` over the keys.

        Both give the groups in ascending key order, so the result does not
        depend on the branch.

        The result is memoized per attribute tuple: relations are immutable,
        and repeated GROUP BY queries over the same columns (the serving
        layer's batched workloads, the BN evaluator's stacked generated
        samples) would otherwise recompute the same keys every time.  The
        memo is shared with :meth:`with_weights` copies.  Callers must treat
        the returned arrays as read-only.

        >>> from repro.schema import Attribute, Schema, Relation
        >>> schema = Schema([Attribute("a", ["x", "y"]), Attribute("b", [1, 2])])
        >>> relation = Relation.from_rows(schema, [("y", 1), ("x", 2), ("y", 1)])
        >>> group_index, unique_rows = relation.group_codes(["a", "b"])
        >>> unique_rows.tolist()
        [[0, 1], [1, 0]]
        >>> group_index.tolist()
        [1, 0, 1]
        """
        if not names:
            raise SchemaError("group_codes needs at least one attribute")
        key = tuple(names)
        cached = self._group_codes_cache.get(key)
        if cached is not None:
            return cached
        columns = [self.column(name) for name in names]
        packed = columns[0]
        bound = self._schema[names[0]].size
        for name, column in zip(names[1:], columns[1:]):
            size = self._schema[name].size
            if bound * size > 2**62:
                _, packed = np.unique(packed, return_inverse=True)
                bound = int(packed.max(initial=0)) + 1
            packed = packed * size + column
            bound *= size
        if bound <= 4 * self._n_rows + 1024:
            present = np.bincount(packed, minlength=bound) > 0
            n_groups = int(np.count_nonzero(present))
            group_index = (np.cumsum(present) - 1)[packed]
        else:
            # Without ``return_index`` the sort need not be stable (~2x faster).
            distinct, group_index = np.unique(packed, return_inverse=True)
            n_groups = distinct.size
        # Every row of a group carries the group's codes, so scatter them.
        unique_rows = np.empty((n_groups, len(names)), dtype=np.int64)
        unique_rows[group_index] = np.stack(columns, axis=1)
        result = group_index.astype(np.int64, copy=False), unique_rows
        self._group_codes_cache[key] = result
        return result

    def group_tuples(self, names: Sequence[str], rows: np.ndarray) -> list[tuple[Any, ...]]:
        """Decoded key tuples of the given :meth:`group_codes` rows, in order.

        ``rows`` indexes ``unique_code_rows``.  Each group's tuple is decoded
        through the attribute domains the first time any caller asks for it
        and memoized beside the group codes (relations are immutable), so
        the Python-loop half of a GROUP BY is paid once per group per
        relation instead of once per query.
        """
        key = tuple(names)
        memo = self._group_tuples_cache.get(key)
        if memo is None:
            n_groups = self.group_codes(key)[1].shape[0]
            memo = np.empty(n_groups, dtype=object), np.zeros(n_groups, dtype=bool)
            self._group_tuples_cache[key] = memo
        tuples, decoded = memo
        missing = rows[~decoded[rows]]
        if missing.size:
            unique_rows = self.group_codes(key)[1]
            domains = [self._schema[name].domain for name in key]
            for row in missing.tolist():
                tuples[row] = tuple(
                    domain.decode(code) for domain, code in zip(domains, unique_rows[row])
                )
            decoded[missing] = True
        return tuples[rows].tolist()

    def value_counts(
        self, names: Sequence[str], weighted: bool = False
    ) -> dict[tuple[Any, ...], float]:
        """Counts of distinct value combinations over ``names``.

        Returns a mapping from decoded value tuples to (weighted) counts.
        """
        if self._n_rows == 0:
            return {}
        group_index, unique_rows = self.group_codes(names)
        values = self.weights if weighted else np.ones(self._n_rows, dtype=float)
        totals = np.bincount(group_index, weights=values, minlength=unique_rows.shape[0])
        domains = [self._schema[name].domain for name in names]
        counts: dict[tuple[Any, ...], float] = {}
        for row, total in zip(unique_rows, totals):
            key = tuple(domain.decode(code) for domain, code in zip(domains, row))
            counts[key] = float(total)
        return counts

    def marginal_distribution(
        self, names: Sequence[str], weighted: bool = True
    ) -> dict[tuple[Any, ...], float]:
        """Normalized (weighted) value counts over ``names``."""
        counts = self.value_counts(names, weighted=weighted)
        total = sum(counts.values())
        if total <= 0:
            return {key: 0.0 for key in counts}
        return {key: value / total for key, value in counts.items()}

    def distinct(self, names: Sequence[str]) -> set[tuple[Any, ...]]:
        """Distinct decoded value tuples over ``names``."""
        return set(self.value_counts(names).keys())
