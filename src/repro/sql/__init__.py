"""Closed-world SQL substrate: the parser and the weighted result types."""

from .engine import QueryResult, TableResult
from .parser import ParsedQuery, parse_cache_info, parse_sql

__all__ = [
    "ParsedQuery",
    "QueryResult",
    "TableResult",
    "parse_cache_info",
    "parse_sql",
]
