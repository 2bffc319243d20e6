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

Parsing is two steps, shape then bind.  One ``findall`` pass turns the text
into the statement's *shape* — its token texts, each string, int and float
literal replaced by its kind — and the literal values.  Statements that
differ only in their literals share a shape, and a bounded process-wide
memo (:data:`PARSE_CACHE_SIZE` shapes, like ``re``'s cache of compiled
patterns) maps a shape to what the grammar made of it: a template holding
a slot where each literal goes, and no literal value.  Each statement binds
its own values into the template through the AST construction and
validation every parse runs.  A shape not in the memo runs the grammar
once, over the tokens of that same pass; a statement that fails to parse is
not memoized and raises from its own tokens, positions included.
:func:`parse_cache_info` reports the memo.
"""

from __future__ import annotations

import re
from typing import Any

from ..exceptions import QueryError, SQLSyntaxError
from ..lru import LRUCache
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

#: How many statement shapes the parse memo keeps (``re`` keeps 512
#: compiled patterns).  A shape, key and template, takes 1.1-1.4 KB and
#: holds syntax only, never a data value.
PARSE_CACHE_SIZE = 512

_AGGREGATES = {function.value: function for function in AggregateFunction}
#: Comparison operators by spelling; ``IN`` is a keyword, not an operator token.
_OPERATORS = {
    "<>": Comparison.NE,
    **{c.value: c for c in Comparison if c is not Comparison.IN},
}
#: The kind of every word that is not an identifier.
_SYMBOLS = {**dict.fromkeys(_OPERATORS, "op"), **dict.fromkeys("(),;*-", "punct")}


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
# Tokenizer: shape and literal values
# ---------------------------------------------------------------------------
#: One match per token: the blanks before it, then exactly one of a word
#: (identifier, operator or punctuation), a string, float or int literal and
#: a bad character.  ``findall`` gives each token as the tuple of these six
#: groups; blanks at the end of the text match nothing.
_TOKEN_RE = re.compile(
    r"""(\s*)(?:
    ([A-Za-z_][A-Za-z_0-9.]*|<=|>=|!=|<>|[=<>(),;*\-])
  | ('[^']*'|"[^"]*")
  | (\d+\.\d+)
  | (\d+)
  | (\S)
    )""",
    re.VERBOSE,
)
#: What stands for a literal of each kind in a shape: no word has these texts.
_STRING, _FLOAT, _INT = "''", "0.0", "0"


def _shape(sql: str) -> tuple[str, list[Any], list[tuple]]:
    """A statement's shape, its literal values, and the ``findall`` tokens
    both come from.

    The shape is the token texts joined by blanks, each literal replaced by
    its kind's stand-in (no token holds a blank, so two token sequences never
    join to one shape); the values are the literals in text order, a string
    without its quotes, a number as ``int`` or ``float``.  Raises for a
    statement that is not a ``str``, and for the first character no token
    takes.
    """
    if not isinstance(sql, str):
        raise SQLSyntaxError(
            f"an SQL statement must be a str, got {type(sql).__name__}"
        )
    found = _TOKEN_RE.findall(sql)
    shape: list[str] = []
    values: list[Any] = []
    # Bound once: this loop is most of what a memoized statement costs.
    mark, keep = shape.append, values.append
    for _, word, string, real, integer, _ in found:
        if word:
            mark(word)
        elif string:
            mark(_STRING)
            keep(string[1:-1])
        elif integer:
            mark(_INT)
            keep(int(integer))
        elif real:
            mark(_FLOAT)
            keep(float(real))
        else:
            _tokens(sql, found)  # raises for the first bad character
    return " ".join(shape), values, found


def _tokens(sql: str, found: list[tuple]) -> list[tuple]:
    """The grammar's view of ``found``: one token per match, then one of kind
    ``"end"``.

    A token is the plain tuple ``(kind, text, position, tag)``: ``kind`` is
    ``"string"``, ``"number"``, ``"ident"``, ``"op"`` or ``"punct"``,
    ``position`` is where ``text`` starts, and ``tag`` is the text
    lower-cased for an identifier (what keywords are compared against), the
    literal's index among the statement's literals for a string or number,
    ``None`` otherwise.
    """
    tokens: list[tuple] = []
    append = tokens.append
    position = literals = 0
    for blanks, word, string, real, integer, bad in found:
        position += len(blanks)
        if word:
            kind = _SYMBOLS.get(word)
            if kind is None:
                append(("ident", word, position, word.lower()))
            else:
                append((kind, word, position, None))
            position += len(word)
        elif bad:
            if bad in "'\"":
                raise SQLSyntaxError(
                    f"unterminated string literal starting at position {position}: "
                    f"{sql[position:position + 20]!r}"
                )
            raise SQLSyntaxError(f"unexpected character {bad!r} at position {position}")
        else:
            text = string or real or integer
            append(("string" if string else "number", text, position, literals))
            literals += 1
            position += len(text)
    tokens.append(("end", "", len(sql), None))
    return tokens


# ---------------------------------------------------------------------------
# Recursive-descent parser
# ---------------------------------------------------------------------------
def _strip_alias(name: str) -> str:
    """Drop a leading table alias, e.g. ``t.origin_state`` -> ``origin_state``."""
    return name.split(".")[-1].strip()


class _Slot:
    """Where a template takes the statement's ``index``-th literal, negated
    when a ``-`` precedes it."""

    __slots__ = ("index", "negate")

    def __init__(self, index: int, negate: bool = False):
        self.index = index
        self.negate = negate


def _fill(literal: Any, values: list[Any]) -> Any:
    """A template literal with ``values`` in its slots: a slot's value, a
    tuple (an IN list) item by item, anything else (a bare word, ``TRUE``,
    ``FALSE``) as it is."""
    if literal.__class__ is _Slot:
        value = values[literal.index]
        return -value if literal.negate else value
    if literal.__class__ is tuple:
        return tuple([_fill(item, values) for item in literal])
    return literal


class _Parser:
    def __init__(self, tokens: list[tuple], values: list[Any]):
        self._tokens = tokens
        self._values = values
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
        """A literal as the template holds it: a :class:`_Slot` for a string
        or number, the value itself for a bare word, ``TRUE`` or ``FALSE``
        (identifiers are part of the shape)."""
        kind, text, position, tag = self._advance()
        if kind == "string" or kind == "number":
            return _Slot(tag)
        if text == "-":
            kind, text, _, tag = self._advance()
            if kind != "number":
                raise SQLSyntaxError(
                    f"expected a number after '-' at position {position}"
                )
            return _Slot(tag, negate=True)
        if kind == "ident":
            if tag == "true":
                return True
            if tag == "false":
                return False
            # Bare-word literal (legacy behavior): WHERE state = CA.
            return text
        raise SQLSyntaxError(
            f"expected a literal but found {text or 'end of input'!r} "
            f"at position {position}"
        )

    # -- grammar --------------------------------------------------------
    def parse(self) -> "_Template":
        self._expect_keyword("select")
        columns, aggregates, windows = self._select_list()
        self._expect_keyword("from")
        table = self._expect_ident("a table name")

        predicates: tuple[tuple, ...] = ()
        group_by: tuple[str, ...] = ()
        having: tuple[tuple, ...] = ()
        order_by: tuple[OrderKey, ...] = ()
        limit: _Slot | None = None

        if self._take_keyword("where"):
            predicates = self._conjunction()
        if self._take_keyword("group"):
            self._expect_keyword("by")
            group_by = tuple(self._name_list())
        elif columns:
            # Plain-SQL convention used throughout the paper's Table 5: the
            # non-aggregate select columns are the grouping columns.
            group_by = columns
        if self._take_keyword("having"):
            having = self._having_list()
        if self._take_keyword("order"):
            self._expect_keyword("by")
            order_by = tuple(self._order_list())
        if self._take_keyword("limit"):
            kind, text, position, tag = self._advance()
            if kind != "number" or "." in text:
                raise SQLSyntaxError(
                    f"LIMIT expects an integer, found {text or 'end of input'!r} "
                    f"at position {position}"
                )
            limit = _Slot(tag)
        # Optional trailing semicolon, then nothing else.
        self._take_punct(";")
        kind, text, position, tag = self._peek()
        if kind != "end":
            hint = ""
            if tag in ("where", "group", "having", "order", "limit"):
                hint = f" (duplicate or misplaced {text.upper()} clause?)"
            raise SQLSyntaxError(
                f"expected end of statement but found {text!r} "
                f"at position {position}{hint}"
            )

        return _Template(
            table, columns, aggregates, windows, predicates, group_by, having, order_by,
            limit,
        )

    def _select_list(self) -> tuple[tuple, tuple, tuple]:
        """The select list's plain columns, aggregates and windows."""
        columns: list[str] = []
        aggregates: list[AggregateSpec] = []
        windows: list[WindowSpec] = []
        while True:
            item = self._select_item()
            if item.__class__ is str:
                columns.append(item)
            elif item.__class__ is AggregateSpec:
                aggregates.append(item)
            else:
                windows.append(item)
            if not self._take_punct(","):
                return tuple(columns), tuple(aggregates), tuple(windows)

    def _select_item(self) -> str | AggregateSpec | WindowSpec:
        """A plain column's name, an aggregate or a window."""
        if self._at_keyword("rank"):
            return self._window_item()
        if self._at_aggregate_call():
            return self._aggregate_or_window_item()
        name = self._expect_ident("a column name")
        self._maybe_alias()  # legacy behavior: plain-column aliases are dropped
        return _strip_alias(name)

    def _aggregate_or_window_item(self) -> AggregateSpec | WindowSpec:
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
            return AggregateSpec(AggregateFunction.COUNT, alias=alias)
        return AggregateSpec(function, argument, alias=alias)

    def _aggregate_argument(self) -> str:
        """An aggregate's argument: a column name, or (for window SUMs over
        aggregate outputs) a nested canonical expression like ``count(*)``."""
        if self._at_aggregate_call():
            return self._column_reference()
        return self._expect_ident("a column name")

    def _window_item(self) -> WindowSpec:
        self._advance()  # RANK
        self._expect_punct("(")
        self._expect_punct(")")
        if not self._at_keyword("over"):
            raise SQLSyntaxError("RANK() requires an OVER (...) clause")
        return self._window_tail(WindowFunction.RANK, target=None)

    def _window_tail(self, function: WindowFunction, target: str | None) -> WindowSpec:
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
            return WindowSpec(
                function, alias, target=target, partition_by=partition, order_by=order
            )
        except QueryError as error:
            # AST invariants (e.g. RANK() needs ORDER BY) surface as syntax
            # errors: the defect is in the statement, not the engine.
            raise SQLSyntaxError(str(error)) from error

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

    def _having_list(self) -> tuple[tuple, ...]:
        conditions = [self._having_condition()]
        while self._take_keyword("and"):
            conditions.append(self._having_condition())
        return tuple(conditions)

    def _having_condition(self) -> tuple:
        target = self._column_reference()
        comparison = self._expect_operator("in HAVING")
        literal = self._literal()
        # A literal's kind is part of the shape, so this statement's value
        # decides for every statement of the shape.
        value = _fill(literal, self._values)
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise SQLSyntaxError(
                f"HAVING compares aggregate values and needs a numeric literal, "
                f"got {value!r}"
            )
        return (target, comparison, literal)

    def _conjunction(self) -> tuple[tuple, ...]:
        predicates = [self._condition()]
        while self._take_keyword("and"):
            predicates.append(self._condition())
        return tuple(predicates)

    def _condition(self) -> tuple:
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
            return (attribute, Comparison.IN, tuple(values))
        comparison = self._expect_operator(f"after {attribute!r}")
        return (attribute, comparison, self._literal())


# ---------------------------------------------------------------------------
# Template and AST construction
# ---------------------------------------------------------------------------
class _Template:
    """What the grammar makes of one statement shape, with a :class:`_Slot`
    where each literal goes.

    A WHERE conjunct is ``(attribute, comparison, literal)``, a HAVING
    condition ``(target, comparison, literal)``, and ``limit`` a slot or
    ``None``.  Which AST type the shape becomes is decided here, once; the
    aggregates, windows and ORDER BY keys are finished AST parts, shared by
    every statement of the shape (they are immutable).
    """

    __slots__ = (
        "table", "select_attributes", "group_by", "aggregates", "windows",
        "predicates", "having", "order_by", "limit", "rich", "point",
    )

    def __init__(
        self,
        table: str,
        columns: tuple[str, ...],
        aggregates: tuple[AggregateSpec, ...],
        windows: tuple[WindowSpec, ...],
        predicates: tuple[tuple, ...],
        group_by: tuple[str, ...],
        having: tuple[tuple, ...],
        order_by: tuple[OrderKey, ...],
        limit: _Slot | None,
    ):
        self.rich = (
            len(aggregates) > 1
            or bool(having)
            or bool(order_by)
            or limit is not None
            or bool(windows)
            or (bool(group_by) and any(spec.alias for spec in aggregates))
        )
        if not aggregates:
            aggregates = (AggregateSpec(AggregateFunction.COUNT),)
        # A point query fixes each attribute once: every conjunct is an
        # equality on its own attribute.  ``a = 1 AND a = 2`` stays a
        # scalar, which keeps both conjuncts.
        self.point = (
            not self.rich
            and not group_by
            and bool(predicates)
            and aggregates[0].function is AggregateFunction.COUNT
            and len({a for a, comparison, _ in predicates if comparison is Comparison.EQ})
            == len(predicates)
        )
        self.table = table
        self.select_attributes = columns
        self.group_by = group_by
        self.aggregates = aggregates
        self.windows = windows
        self.predicates = predicates
        self.having = having
        self.order_by = order_by
        self.limit = limit

    def bind(self, values: list[Any]) -> ParsedQuery:
        """The statement whose literals are ``values``, as a validated AST."""
        first = self.aggregates[0]
        if self.point:
            # The assignment is all a point query keeps of its conjuncts.
            query = PointQuery({
                attribute: _fill(literal, values) for attribute, _, literal in self.predicates
            })
            return ParsedQuery(self.table, query, self.select_attributes, first)
        predicates = tuple([
            Predicate(attribute, comparison, _fill(literal, values))
            for attribute, comparison, literal in self.predicates
        ])
        query: GroupByQuery | ScalarAggregateQuery | AnalyticQuery
        try:
            if self.rich:
                query = AnalyticQuery(
                    group_by=self.group_by,
                    aggregates=self.aggregates,
                    predicates=predicates,
                    having=tuple([
                        HavingPredicate(target, comparison, float(_fill(literal, values)))
                        for target, comparison, literal in self.having
                    ]),
                    windows=self.windows,
                    order_by=self.order_by,
                    limit=None if self.limit is None else values[self.limit.index],
                )
            elif self.group_by:
                query = GroupByQuery(
                    group_by=self.group_by, aggregate=first, predicates=predicates
                )
            else:
                query = ScalarAggregateQuery(aggregate=first, predicates=predicates)
        except QueryError as error:
            raise SQLSyntaxError(f"invalid query: {error}") from error
        return ParsedQuery(self.table, query, self.select_attributes, first)


# ---------------------------------------------------------------------------
# The shape memo
# ---------------------------------------------------------------------------
_TEMPLATES = LRUCache(PARSE_CACHE_SIZE)


def parse_sql(sql: str) -> ParsedQuery:
    """Parse one SQL statement into a :class:`ParsedQuery`.

    Raises
    ------
    SQLSyntaxError
        If the statement is not a ``str`` or does not match the supported
        grammar.  Messages name the offending token and its character
        position.
    """
    shape, values, found = _shape(sql)
    template = _TEMPLATES.get(shape)
    if template is not None:
        return template.bind(values)
    template = _Parser(_tokens(sql, found), values).parse()
    parsed = template.bind(values)  # a statement that fails here is not memoized either
    _TEMPLATES.put(shape, template)
    return parsed


def parse_cache_info() -> dict[str, int]:
    """The parse memo's process-wide ``hits``, ``misses``, ``size`` (shapes
    held) and ``capacity`` (:data:`PARSE_CACHE_SIZE`)."""
    return {
        "hits": _TEMPLATES.statistics.hits,
        "misses": _TEMPLATES.statistics.misses,
        "size": len(_TEMPLATES),
        "capacity": _TEMPLATES.capacity,
    }
