"""One-hot encoding of relations.

The linear-regression reweighter of Sec. 4.1.1 represents the sample ``S`` as
an ``n_S x m_{0/1}`` one-hot design matrix ``X_S`` where
``m_{0/1} = sum_i N_i + 1`` (an intercept column of ones plus one indicator
column per attribute value).  This module builds that matrix and keeps track
of which column corresponds to which (attribute, value) pair.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import Any

import numpy as np

from ..exceptions import SchemaError
from .relation import Relation


@dataclass(frozen=True)
class OneHotColumn:
    """Description of one column of a one-hot design matrix."""

    attribute: str | None
    value: Any
    index: int


class OneHotEncoder:
    """One-hot encode a relation over a subset of its attributes.

    Parameters
    ----------
    relation:
        Any relation whose schema defines the attribute domains.
    attributes:
        The attributes to encode.  Defaults to all attributes covered by the
        relation's schema.
    add_intercept:
        Whether to prepend a column of ones (the paper's formulation does).

    Examples
    --------
    >>> from repro.schema import Attribute, Domain, Schema, Relation
    >>> schema = Schema([Attribute("a", Domain(["x", "y"]))])
    >>> rel = Relation.from_rows(schema, [("x",), ("y",), ("x",)])
    >>> OneHotEncoder(rel).matrix().shape
    (3, 3)
    """

    def __init__(
        self,
        relation: Relation,
        attributes: Sequence[str] | None = None,
        add_intercept: bool = True,
    ):
        self._relation = relation
        names = tuple(attributes) if attributes is not None else relation.attribute_names
        for name in names:
            if name not in relation.schema:
                raise SchemaError(f"attribute {name!r} not in relation schema")
        if not names:
            raise SchemaError("one-hot encoding needs at least one attribute")
        self._names = names
        self._add_intercept = add_intercept
        self._columns = self._build_columns()

    def _build_columns(self) -> list[OneHotColumn]:
        columns: list[OneHotColumn] = []
        index = 0
        if self._add_intercept:
            columns.append(OneHotColumn(attribute=None, value=1, index=index))
            index += 1
        for name in self._names:
            domain = self._relation.schema[name].domain
            for value in domain.values:
                columns.append(OneHotColumn(attribute=name, value=value, index=index))
                index += 1
        return columns

    @property
    def columns(self) -> list[OneHotColumn]:
        """Descriptions of the design-matrix columns, in order."""
        return list(self._columns)

    @property
    def n_columns(self) -> int:
        """Width of the design matrix (``m_{0/1}`` when intercept is included)."""
        return len(self._columns)

    @property
    def attribute_names(self) -> tuple[str, ...]:
        """The encoded attributes, in order."""
        return self._names

    def column_index(self, attribute: str, value: Any) -> int:
        """Index of the indicator column for ``attribute = value``."""
        domain = self._relation.schema[attribute].domain
        code = domain.encode(value)
        offset = 1 if self._add_intercept else 0
        for name in self._names:
            if name == attribute:
                return offset + code
            offset += self._relation.schema[name].size
        raise SchemaError(f"attribute {attribute!r} is not encoded")

    def matrix(self, relation: Relation | None = None) -> np.ndarray:
        """Build the one-hot design matrix for ``relation`` (default: the fitted one).

        The matrix has one row per tuple and one column per
        ``(attribute, value)`` pair, plus the optional leading intercept
        column of ones.
        """
        relation = relation if relation is not None else self._relation
        n_rows = relation.n_rows
        matrix = np.zeros((n_rows, self.n_columns), dtype=float)
        offset = 0
        if self._add_intercept:
            matrix[:, 0] = 1.0
            offset = 1
        for name in self._names:
            size = self._relation.schema[name].size
            codes = relation.column(name)
            matrix[np.arange(n_rows), offset + codes] = 1.0
            offset += size
        return matrix

    def encode_assignment(self, assignment: dict[str, Any]) -> np.ndarray:
        """One-hot encode a single attribute-value assignment as a row vector."""
        row = np.zeros(self.n_columns, dtype=float)
        if self._add_intercept:
            row[0] = 1.0
        for name, value in assignment.items():
            row[self.column_index(name, value)] = 1.0
        return row
