"""A small SQL parser for the query shapes Themis supports.

The data scientist in the motivating example interacts with Themis through
SQL (Sec. 2).  The parser covers the paper's query shapes plus the richer
analytic surface layered on top of them:

* point queries — ``SELECT COUNT(*) FROM R WHERE A = v AND B = w``
* aggregate / GROUP BY queries with ``COUNT(*)``, ``SUM(x)``, ``AVG(x)``,
  equality / ordered / IN predicates, and an optional GROUP BY clause;
* multi-aggregate select lists, ``AS`` aliases, ``HAVING``, ``ORDER BY ...
  [ASC|DESC]``, ``LIMIT n``, and window expressions — ``RANK() OVER
  (PARTITION BY ... ORDER BY ...)`` / ``SUM(x) OVER (...)`` — which lower
  to :class:`~repro.query.ast.AnalyticQuery`.

It is a proper tokenizer + recursive-descent parser (the original regex
grammar could not see through string literals), and it produces the AST
objects of :mod:`repro.query.ast`.  A statement whose only features are the
paper's shapes still parses to the legacy AST types — point, scalar, and
single-aggregate GROUP BY queries are untouched — so every existing caller
sees exactly the queries it always has.  :class:`AnalyticQuery` is emitted
only when a *rich* feature appears: two or more aggregates, HAVING, ORDER
BY, LIMIT, a window expression, or an aggregate alias on a grouped query
(the alias becomes the output column's label, which only a table-shaped
result can surface).
"""

from __future__ import annotations

import re
from typing import Any

from ..exceptions import QueryError, SQLSyntaxError
from ..query.ast import (
    AggregateFunction,
    AggregateSpec,
    AnalyticQuery,
    Comparison,
    GroupByQuery,
    HavingPredicate,
    OrderKey,
    PointQuery,
    Predicate,
    ScalarAggregateQuery,
    WindowFunction,
    WindowSpec,
)

_AGGREGATES = {function.value: function for function in AggregateFunction}
#: Comparison operators by spelling; ``IN`` is a keyword, not an operator token.
_OPERATORS = {
    "<>": Comparison.NE,
    **{c.value: c for c in Comparison if c is not Comparison.IN},
}


class ParsedQuery:
    """The outcome of parsing one SQL statement."""

    def __init__(
        self,
        table: str,
        query: "PointQuery | GroupByQuery | ScalarAggregateQuery | AnalyticQuery",
        select_attributes: tuple[str, ...],
        aggregate: AggregateSpec,
    ):
        self.table = table
        self.query = query
        self.select_attributes = select_attributes
        #: The first (for legacy shapes: only) aggregate in the select list.
        self.aggregate = aggregate

    def __repr__(self) -> str:
        return f"ParsedQuery(table={self.table!r}, query={self.query!r})"


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------
_TOKEN_RE = re.compile(
    r"""\s*(?:
    (?P<string>'[^']*'|"[^"]*")
  | (?P<number>\d+(?:\.\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9.]*)
  | (?P<op><=|>=|!=|<>|=|<|>)
  | (?P<punct>[(),;*\-])
  | (?P<end>\Z)
  | (?P<bad>.)
    )""",
    re.VERBOSE,
)


def _tokenize(sql: str) -> list[tuple]:
    """All of a statement's tokens, the last one of kind ``"end"``.

    A token is the plain tuple ``(kind, text, position, word)``: ``kind``
    names the alternative of ``_TOKEN_RE`` that matched, ``position`` is
    where ``text`` starts, and ``word`` is the text lower-cased when it is an
    identifier (what keywords are compared against), ``None`` otherwise.

    One ``match`` per token: the pattern skips leading blanks itself, matches
    the end of input as a token, and never fails (what no other alternative
    takes is one ``bad`` character, reported here).
    """
    tokens: list[tuple] = []
    match = _TOKEN_RE.match
    position = 0
    while True:
        found = match(sql, position)
        kind = found.lastgroup
        text = found.group(kind)
        position = found.end()
        if kind == "ident":
            tokens.append((kind, text, position - len(text), text.lower()))
        elif kind == "end":
            tokens.append((kind, text, position, None))
            return tokens
        elif kind == "bad":
            position -= 1
            if text in "'\"":
                raise SQLSyntaxError(
                    f"unterminated string literal starting at position {position}: "
                    f"{sql[position:position + 20]!r}"
                )
            raise SQLSyntaxError(f"unexpected character {text!r} at position {position}")
        else:
            tokens.append((kind, text, position - len(text), None))


# ---------------------------------------------------------------------------
# Recursive-descent parser
# ---------------------------------------------------------------------------
def _strip_alias(name: str) -> str:
    """Drop a leading table alias, e.g. ``t.origin_state`` -> ``origin_state``."""
    return name.split(".")[-1].strip()


class _SelectItem:
    """One parsed select-list entry (column, aggregate, or window)."""

    __slots__ = ("column", "aggregate", "window")

    def __init__(self, column=None, aggregate=None, window=None):
        self.column = column
        self.aggregate = aggregate
        self.window = window


class _Parser:
    def __init__(self, sql: str):
        self._tokens = _tokenize(sql)
        self._index = 0

    # -- token helpers --------------------------------------------------
    def _peek(self) -> tuple:
        return self._tokens[self._index]

    def _advance(self) -> tuple:
        token = self._tokens[self._index]
        if token[0] != "end":
            self._index += 1
        return token

    def _at_keyword(self, *words: str) -> bool:
        return self._tokens[self._index][3] in words

    def _take_keyword(self, *words: str) -> bool:
        if self._tokens[self._index][3] in words:
            self._index += 1
            return True
        return False

    def _take_punct(self, char: str) -> bool:
        # A quoted string keeps its quotes, so only the punctuation token
        # itself has this text.
        if self._tokens[self._index][1] == char:
            self._index += 1
            return True
        return False

    def _at_aggregate_call(self) -> bool:
        """An aggregate name is only an aggregate when followed by '(' —
        otherwise it is a plain column named e.g. "count"."""
        tokens, index = self._tokens, self._index
        return tokens[index][3] in _AGGREGATES and tokens[index + 1][1] == "("

    def _expect_keyword(self, word: str) -> None:
        _, text, position, found = self._advance()
        if found != word:
            raise SQLSyntaxError(
                f"expected {word.upper()!r} but found {text or 'end of input'!r} "
                f"at position {position}"
            )

    def _expect_punct(self, char: str) -> None:
        _, text, position, _ = self._advance()
        if text != char:
            raise SQLSyntaxError(
                f"expected {char!r} but found {text or 'end of input'!r} "
                f"at position {position}"
            )

    def _expect_ident(self, what: str) -> str:
        kind, text, position, _ = self._advance()
        if kind != "ident":
            raise SQLSyntaxError(
                f"expected {what} but found {text or 'end of input'!r} "
                f"at position {position}"
            )
        return text

    def _expect_operator(self, where: str) -> Comparison:
        kind, text, position, _ = self._advance()
        if kind != "op":
            raise SQLSyntaxError(
                f"expected a comparison operator {where} but found "
                f"{text or 'end of input'!r} at position {position}"
            )
        return _OPERATORS[text]

    # -- literals -------------------------------------------------------
    def _literal(self) -> Any:
        kind, text, position, word = self._advance()
        if kind == "string":
            return text[1:-1]
        if kind == "number":
            return self._number_value(text)
        if text == "-":
            kind, text, _, _ = self._advance()
            if kind != "number":
                raise SQLSyntaxError(
                    f"expected a number after '-' at position {position}"
                )
            return -self._number_value(text)
        if kind == "ident":
            if word == "true":
                return True
            if word == "false":
                return False
            # Bare-word literal (legacy behavior): WHERE state = CA.
            return text
        raise SQLSyntaxError(
            f"expected a literal but found {text or 'end of input'!r} "
            f"at position {position}"
        )

    @staticmethod
    def _number_value(text: str) -> int | float:
        return float(text) if "." in text else int(text)

    # -- grammar --------------------------------------------------------
    def parse(self) -> ParsedQuery:
        self._expect_keyword("select")
        items = self._select_list()
        self._expect_keyword("from")
        table = self._expect_ident("a table name")

        predicates: tuple[Predicate, ...] = ()
        group_by: tuple[str, ...] = ()
        having: tuple[HavingPredicate, ...] = ()
        order_by: tuple[OrderKey, ...] = ()
        limit: int | None = None
        explicit_group = False

        if self._take_keyword("where"):
            predicates = self._conjunction()
        if self._take_keyword("group"):
            self._expect_keyword("by")
            group_by = tuple(self._name_list())
            explicit_group = True
        if self._take_keyword("having"):
            having = self._having_list()
        if self._take_keyword("order"):
            self._expect_keyword("by")
            order_by = tuple(self._order_list())
        if self._take_keyword("limit"):
            kind, text, position, _ = self._advance()
            if kind != "number" or "." in text:
                raise SQLSyntaxError(
                    f"LIMIT expects an integer, found {text or 'end of input'!r} "
                    f"at position {position}"
                )
            limit = int(text)
        # Optional trailing semicolon, then nothing else.
        self._take_punct(";")
        kind, text, position, word = self._peek()
        if kind != "end":
            hint = ""
            if word in ("where", "group", "having", "order", "limit"):
                hint = f" (duplicate or misplaced {text.upper()} clause?)"
            raise SQLSyntaxError(
                f"expected end of statement but found {text!r} "
                f"at position {position}{hint}"
            )

        return self._build(
            table, items, predicates, group_by, explicit_group, having, order_by, limit
        )

    def _select_list(self) -> list[_SelectItem]:
        items = [self._select_item()]
        while self._take_punct(","):
            items.append(self._select_item())
        return items

    def _select_item(self) -> _SelectItem:
        if self._at_keyword("rank"):
            return self._window_item()
        if self._at_aggregate_call():
            return self._aggregate_or_window_item()
        name = self._expect_ident("a column name")
        self._maybe_alias()  # legacy behavior: plain-column aliases are dropped
        return _SelectItem(column=_strip_alias(name))

    def _aggregate_or_window_item(self) -> _SelectItem:
        function_name = self._advance()[3]
        self._expect_punct("(")
        argument: str | None
        if self._take_punct("*"):
            argument = None
            if function_name != "count":
                raise SQLSyntaxError(f"{function_name.upper()}(*) is not supported")
        else:
            argument = _strip_alias(self._aggregate_argument())
        self._expect_punct(")")
        if self._at_keyword("over"):
            if function_name != "sum":
                raise SQLSyntaxError(
                    f"only SUM(...) OVER and RANK() OVER windows are supported, "
                    f"not {function_name.upper()}"
                )
            assert argument is not None
            return self._window_tail(WindowFunction.SUM, target=argument)
        alias = self._maybe_alias()
        function = _AGGREGATES[function_name]
        # SUM(weight) is how reweighted samples express COUNT(*) (Sec. 4.1).
        if function is AggregateFunction.SUM and argument == "weight":
            return _SelectItem(aggregate=AggregateSpec(AggregateFunction.COUNT, alias=alias))
        return _SelectItem(aggregate=AggregateSpec(function, argument, alias=alias))

    def _aggregate_argument(self) -> str:
        """An aggregate's argument: a column name, or (for window SUMs over
        aggregate outputs) a nested canonical expression like ``count(*)``."""
        if self._at_aggregate_call():
            return self._column_reference()
        return self._expect_ident("a column name")

    def _window_item(self) -> _SelectItem:
        self._advance()  # RANK
        self._expect_punct("(")
        self._expect_punct(")")
        if not self._at_keyword("over"):
            raise SQLSyntaxError("RANK() requires an OVER (...) clause")
        return self._window_tail(WindowFunction.RANK, target=None)

    def _window_tail(self, function: WindowFunction, target: str | None) -> _SelectItem:
        self._expect_keyword("over")
        self._expect_punct("(")
        partition: tuple[str, ...] = ()
        order: tuple[OrderKey, ...] = ()
        if self._take_keyword("partition"):
            self._expect_keyword("by")
            partition = tuple(self._name_list())
        if self._take_keyword("order"):
            self._expect_keyword("by")
            order = tuple(self._order_list())
        self._expect_punct(")")
        alias = self._maybe_alias()
        if alias is None:
            raise SQLSyntaxError(
                "window expressions need an AS alias naming their output column"
            )
        try:
            window = WindowSpec(
                function, alias, target=target, partition_by=partition, order_by=order
            )
        except QueryError as error:
            # AST invariants (e.g. RANK() needs ORDER BY) surface as syntax
            # errors: the defect is in the statement, not the engine.
            raise SQLSyntaxError(str(error)) from error
        return _SelectItem(window=window)

    def _maybe_alias(self) -> str | None:
        if self._take_keyword("as"):
            return self._expect_ident("an alias after AS")
        return None

    def _name_list(self) -> list[str]:
        names = [_strip_alias(self._expect_ident("a column name"))]
        while self._take_punct(","):
            names.append(_strip_alias(self._expect_ident("a column name")))
        return names

    def _column_reference(self) -> str:
        """A sort/HAVING target: a column/alias name or a canonical
        aggregate expression like ``count(*)`` / ``sum(x)``."""
        if self._at_aggregate_call():
            function = self._advance()[3]
            self._advance()  # (
            if self._take_punct("*"):
                argument = "*"
            else:
                argument = _strip_alias(self._expect_ident("a column name"))
            self._expect_punct(")")
            if function == "sum" and argument == "weight":
                return "count(*)"
            return f"{function}({argument})"
        return _strip_alias(self._expect_ident("a column name"))

    def _order_list(self) -> list[OrderKey]:
        keys = [self._order_key()]
        while self._take_punct(","):
            keys.append(self._order_key())
        return keys

    def _order_key(self) -> OrderKey:
        target = self._column_reference()
        descending = False
        if self._take_keyword("desc"):
            descending = True
        else:
            self._take_keyword("asc")
        return OrderKey(target, descending=descending)

    def _having_list(self) -> tuple[HavingPredicate, ...]:
        conditions = [self._having_condition()]
        while self._take_keyword("and"):
            conditions.append(self._having_condition())
        return tuple(conditions)

    def _having_condition(self) -> HavingPredicate:
        target = self._column_reference()
        comparison = self._expect_operator("in HAVING")
        value = self._literal()
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SQLSyntaxError(
                f"HAVING compares aggregate values and needs a numeric literal, "
                f"got {value!r}"
            )
        return HavingPredicate(target, comparison, float(value))

    def _conjunction(self) -> tuple[Predicate, ...]:
        predicates = [self._condition()]
        while self._take_keyword("and"):
            predicates.append(self._condition())
        return tuple(predicates)

    def _condition(self) -> Predicate:
        attribute = _strip_alias(self._expect_ident("an attribute name"))
        if self._take_keyword("in"):
            self._expect_punct("(")
            if self._peek()[1] == ")":
                raise SQLSyntaxError(
                    f"IN list for {attribute!r} must contain at least one value"
                )
            values = [self._literal()]
            while self._take_punct(","):
                values.append(self._literal())
            self._expect_punct(")")
            return Predicate(attribute, Comparison.IN, tuple(values))
        comparison = self._expect_operator(f"after {attribute!r}")
        return Predicate(attribute, comparison, self._literal())

    # -- AST construction ----------------------------------------------
    def _build(
        self,
        table: str,
        items: list[_SelectItem],
        predicates: tuple[Predicate, ...],
        group_by: tuple[str, ...],
        explicit_group: bool,
        having: tuple[HavingPredicate, ...],
        order_by: tuple[OrderKey, ...],
        limit: int | None,
    ) -> ParsedQuery:
        columns = [item.column for item in items if item.column is not None]
        aggregates = tuple(item.aggregate for item in items if item.aggregate is not None)
        windows = tuple(item.window for item in items if item.window is not None)

        if not explicit_group and columns:
            # Plain-SQL convention used throughout the paper's Table 5: the
            # non-aggregate select columns are the grouping columns.
            group_by = tuple(columns)

        rich = (
            len(aggregates) > 1
            or bool(having)
            or bool(order_by)
            or limit is not None
            or bool(windows)
            or (bool(group_by) and any(spec.alias for spec in aggregates))
        )

        if not aggregates:
            aggregates = (AggregateSpec(AggregateFunction.COUNT),)
        first = aggregates[0]

        query: PointQuery | GroupByQuery | ScalarAggregateQuery | AnalyticQuery
        try:
            if rich:
                query = AnalyticQuery(
                    group_by=group_by,
                    aggregates=aggregates,
                    predicates=predicates,
                    having=having,
                    windows=windows,
                    order_by=order_by,
                    limit=limit,
                )
            elif group_by:
                query = GroupByQuery(
                    group_by=group_by, aggregate=first, predicates=predicates
                )
            else:
                assignment = {
                    predicate.attribute: predicate.value
                    for predicate in predicates
                    if predicate.comparison is Comparison.EQ
                }
                # A point query fixes each attribute once: the assignment is
                # as long as the conjunction only when every conjunct is an
                # equality on its own attribute.  ``a = 1 AND a = 2`` stays a
                # scalar, which keeps both conjuncts.
                if (
                    predicates
                    and len(assignment) == len(predicates)
                    and first.function is AggregateFunction.COUNT
                ):
                    query = PointQuery(assignment)
                else:
                    query = ScalarAggregateQuery(aggregate=first, predicates=predicates)
        except SQLSyntaxError:
            raise
        except QueryError as error:
            raise SQLSyntaxError(f"invalid query: {error}") from error

        return ParsedQuery(
            table=table,
            query=query,
            select_attributes=tuple(columns),
            aggregate=first,
        )


def parse_sql(sql: str) -> ParsedQuery:
    """Parse one SQL statement into a :class:`ParsedQuery`.

    Raises
    ------
    SQLSyntaxError
        If the statement does not match the supported grammar.  Messages
        name the offending token and its character position.
    """
    return _Parser(sql).parse()
