"""Closed-world SQL substrate: parser, weighted execution engine, catalog."""

from .database import Database
from .engine import (
    QueryResult,
    TableResult,
    WeightedQueryEngine,
    answer_point_query,
)
from .parser import ParsedQuery, parse_cache_info, parse_sql

__all__ = [
    "Database",
    "ParsedQuery",
    "QueryResult",
    "TableResult",
    "WeightedQueryEngine",
    "answer_point_query",
    "parse_cache_info",
    "parse_sql",
]
