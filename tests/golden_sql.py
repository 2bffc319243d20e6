"""The fixed statement set behind the parser's golden file.

Shared by the fixture generator (``python tests/golden_sql.py``) and
``TestGoldenStatements`` in ``tests/test_sql_parser.py``.  The file records,
for every statement, ``repr(parse_sql(s).query)`` — or the exact
:class:`~repro.exceptions.SQLSyntaxError` text, position included — as the
parser produced it *before* its tokenizer was rewritten, so a tokenizer
change is held to that parser byte for byte.  Regenerate only for a
deliberate grammar change, and read the diff.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.data.flights import generate_flights_population
from repro.exceptions import SQLSyntaxError
from repro.query.workload import MixedQueryWorkload
from repro.sql import parse_sql

GOLDEN_PATH = Path(__file__).parent / "data" / "sql_golden.json"

#: The statements ``TestParserFuzz`` mutates (its ``SEED_STATEMENTS``).
FUZZ_SEEDS = [
    "SELECT COUNT(*) FROM flights WHERE origin = 'CA' AND delay <= 30",
    "SELECT state, carrier, COUNT(*) AS n, AVG(delay) AS mean FROM flights "
    "WHERE dest IN ('NY', 'TX') GROUP BY state, carrier "
    "HAVING n >= 2 ORDER BY mean DESC, state LIMIT 7",
    "SELECT state, COUNT(*) AS n, SUM(delay) AS total, "
    "RANK() OVER (PARTITION BY state ORDER BY n DESC) AS r, "
    "SUM(n) OVER (ORDER BY state) AS running "
    "FROM flights GROUP BY state ORDER BY r",
]

#: Every form in the grammar table of ``docs/api.md``.
GRAMMAR_FORMS = [
    # SELECT
    "SELECT COUNT(*) FROM t",
    "SELECT SUM(a) FROM t",
    "SELECT AVG(a) FROM t",
    "SELECT SUM(weight) FROM t",
    "SELECT a, COUNT(*) FROM t",
    "SELECT a, b, SUM(weight) FROM t",
    "SELECT a AS x, COUNT(*) FROM t",
    "SELECT COUNT(*) AS n FROM t",
    "SELECT a, COUNT(*) AS n FROM t GROUP BY a",
    "SELECT COUNT(*), SUM(a), AVG(b) FROM t",
    "SELECT count FROM t",
    # window
    "SELECT a, COUNT(*) AS n, RANK() OVER (ORDER BY n DESC) AS r FROM t GROUP BY a",
    "SELECT a, b, COUNT(*) AS n, RANK() OVER (PARTITION BY a ORDER BY count(*)) AS r "
    "FROM t GROUP BY a, b",
    "SELECT a, SUM(x) AS s, SUM(s) OVER (ORDER BY a) AS running FROM t GROUP BY a",
    "SELECT a, SUM(count(*)) OVER (PARTITION BY a ORDER BY a) AS w FROM t GROUP BY a",
    "SELECT a, SUM(weight) AS n, SUM(sum(weight)) OVER (ORDER BY sum(weight)) AS w "
    "FROM t GROUP BY a",
    # WHERE
    "SELECT COUNT(*) FROM t WHERE a = 1",
    "SELECT COUNT(*) FROM t WHERE a != 1",
    "SELECT COUNT(*) FROM t WHERE a <> 1",
    "SELECT COUNT(*) FROM t WHERE a < 1",
    "SELECT COUNT(*) FROM t WHERE a <= 1",
    "SELECT COUNT(*) FROM t WHERE a > 1",
    "SELECT COUNT(*) FROM t WHERE a >= 1",
    "SELECT COUNT(*) FROM t WHERE a IN (1, 2, 3)",
    "SELECT COUNT(*) FROM t WHERE a IN ('x')",
    "SELECT SUM(d) FROM t WHERE a = 'x' AND b <= 2 AND c IN (1, 2)",
    "SELECT COUNT(*) FROM t WHERE a = 1 AND b = 'y' AND c = true",
    # GROUP BY
    "SELECT COUNT(*) FROM t GROUP BY a",
    "SELECT a, COUNT(*) FROM t WHERE b = 1 GROUP BY a, c",
    # HAVING
    "SELECT a, COUNT(*) AS n FROM t GROUP BY a HAVING n > 2",
    "SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) >= 2 AND count(*) <> 5",
    "SELECT a, SUM(x) FROM t GROUP BY a HAVING SUM(x) < 10.5",
    "SELECT a, AVG(x) FROM t GROUP BY a HAVING avg(x) != -1",
    "SELECT a, SUM(weight) FROM t GROUP BY a HAVING sum(weight) > 0",
    # ORDER BY
    "SELECT a, COUNT(*) FROM t GROUP BY a ORDER BY a",
    "SELECT a, COUNT(*) FROM t GROUP BY a ORDER BY a ASC",
    "SELECT a, COUNT(*) FROM t GROUP BY a ORDER BY COUNT(*) DESC, a",
    "SELECT a, SUM(x) AS s FROM t GROUP BY a ORDER BY s DESC, sum(weight), avg(x)",
    "SELECT a, COUNT(*) AS n, RANK() OVER (ORDER BY n) AS r FROM t GROUP BY a "
    "ORDER BY r DESC",
    # LIMIT
    "SELECT a, COUNT(*) FROM t GROUP BY a LIMIT 0",
    "SELECT COUNT(*) FROM t WHERE a = 1 LIMIT 10",
]

#: The spellings a tokenizer rewrite breaks first.
TOKENIZER_SPELLINGS = [
    "select count(*) from t where a = 1 and b in (1, 2)",
    "SeLeCt a, CoUnT(*) As n FrOm t WhErE b = 1 GrOuP bY a HaViNg n > 1 "
    "OrDeR By n DeSc LiMiT 2",
    "SELECT COUNT(*) FROM t WHERE a <> 'x' AND b<>2",
    "SELECT COUNT(*) FROM t WHERE a = -1",
    "SELECT COUNT(*) FROM t WHERE a = 2.5 AND b = -0.25 AND c >= - 3",
    "SELECT COUNT(*) FROM t WHERE a IN (-1, 2.5, 'x')",
    "SELECT COUNT(*) FROM t WHERE state = CA",
    "SELECT COUNT(*) FROM t WHERE flag = TRUE AND other = False",
    'SELECT COUNT(*) FROM t WHERE a = "x y"',
    "SELECT COUNT(*) FROM t WHERE a = ';'",
    "SELECT COUNT(*) FROM t WHERE a = 'x; DROP' AND b = 1;",
    """SELECT COUNT(*) FROM t WHERE a = "it's" AND b = 'say "hi"'""",
    "SELECT COUNT(*) FROM t WHERE a = ''",
    "SELECT COUNT(*) FROM t WHERE a = '  padded  '",
    "SELECT t.a, COUNT(*) FROM flights WHERE t.b = 1 GROUP BY t.a",
    "SELECT t.a, SUM(t.x) FROM t WHERE s.t.b IN (1) GROUP BY t.a ORDER BY t.a",
    "SELECT a,COUNT(*)FROM t WHERE a=1 AND b<=2 AND c>=3 AND d!=4 AND e<5 AND f>6",
    "SELECT COUNT(*)FROM t WHERE a IN(1,2)AND b='x'",
    "SELECT\tCOUNT(*)\nFROM t\r\n\tWHERE a = 1\n\tAND b = 2\n",
    "  SELECT COUNT(*) FROM t WHERE a = 1",
    "SELECT COUNT(*) FROM t WHERE a = 1;",
    "SELECT COUNT(*) FROM t WHERE a = 1 ;  ",
    "SELECT COUNT(*) FROM t WHERE a = 1   \n",
    "SELECT COUNT(*) FROM t WHERE a = 1\u00a0AND b = 2",  # \s is Unicode white space
    "SELECT COUNT(*) FROM t WHERE a_1 = 1 AND _b = 2 AND c9.d = 3",
    "SELECT COUNT(*) FROM t WHERE a = 007 AND b = 1.50",
    "SELECT COUNT ( * ) FROM t WHERE a IN ( 1 , 2 )",
]

#: ``TestMalformedStatements``' sixteen, then what a tokenizer rewrite can
#: move: positions after blanks, and which of two errors is reported.
MALFORMED = [
    "SELECT COUNT(*) FROM t WHERE a = 'CA",
    "SELECT COUNT(*) FROM t WHERE a IN ()",
    "SELECT a, COUNT(*) FROM t GROUP BY a GROUP BY b",
    "SELECT COUNT(*) FROM",
    "SELECT a, COUNT(*) AS n, RANK() OVER (ORDER BY n) FROM t GROUP BY a",
    "SELECT a, COUNT(*) AS n FROM t GROUP BY a HAVING n > 'x'",
    "SELECT a, COUNT(*) AS n FROM t GROUP BY a HAVING n > true",
    "SELECT AVG(*) FROM t",
    "SELECT a, AVG(x) OVER (ORDER BY a) AS w FROM t GROUP BY a",
    "SELECT a, COUNT(*) AS n, RANK() OVER (PARTITION BY a) AS r FROM t GROUP BY a",
    "SELECT COUNT(*) FROM t WHERE a = $",
    "SELECT COUNT(*) FROM t LIMIT x",
    "SELECT COUNT(*) FROM t LIMIT -3",
    "SELECT FROM t",
    "",
    "SELECT RANK() FROM t",
    # A tokenizer error wins over a parser error earlier in the statement.
    "SELECT FROM t WHERE a = 'oops",
    "SELECT FROM t WHERE a = ?",
    'SELECT COUNT(*) FROM t WHERE a = "unterminated and long enough to be cut',
    "SELECT COUNT(*) FROM t WHERE a = 'x' AND b = 'y",
    "   ",
    "\n\t",
    ";",
    "SELECT COUNT(*) FROM t WHERE a =    $",
    "SELECT COUNT(*) FROM t WHERE a = 1. AND b = 2",
    "SELECT COUNT(*) FROM t WHERE a = .5",
    "SELECT COUNT(*) FROM t WHERE a ! = 1",
    "SELECT COUNT(*) FROM t WHERE a = 1 AND",
    "SELECT COUNT(*) FROM t WHERE a =",
    "SELECT COUNT(*) FROM t WHERE a = - x",
    "SELECT COUNT(*) FROM t WHERE a = 1 b = 2",
    "SELECT COUNT(*) FROM t WHERE a IN (1, 2",
    "SELECT COUNT(*) FROM t WHERE a IN 1",
    "SELECT COUNT(*) FROM t WHERE = 1",
    "SELECT COUNT(*) FROM t WHERE a b",
    "SELECT COUNT(*) FROM t WHERE a IN (1 2)",
    "SELECT COUNT(*) FROM t WHERE a = (",
    "SELECT COUNT(*) FROM t WHERE a = 1;   extra",
    "SELECT COUNT(*) FROM t WHERE a = 1 WHERE b = 2",
    "SELECT COUNT(* FROM t",
    "SELECT COUNT(*) FROM 't'",
    "SELECT a, COUNT(*) AS FROM t",
    "SELECT a, COUNT(*) FROM t GROUP BY a HAVING n 2",
    "SELECT a, COUNT(*) FROM t GROUP a",
    "SELECT COUNT(*) FROM t LIMIT 2.5",
    "SELECT COUNT(*) FROM t LIMIT",
    "COUNT(*) FROM t",
    "SELECT COUNT(*) FROM t WHERE na\u00efve = 1",
    "SELECT t.a, COUNT(*) FROM flights t WHERE t.b = 1 GROUP BY t.a",
]


def workload_statements() -> list[str]:
    """Forty generated statements, ten of each shape, at a fixed seed."""
    population = generate_flights_population(n_rows=500, seed=5)
    workload = MixedQueryWorkload(population, table="flights", seed=2020)
    return [entry.sql for entry in workload.generate(10, 10, 10, 10)]


def golden_statements() -> list[str]:
    """Every pinned statement, in file order (no duplicates)."""
    statements = (
        FUZZ_SEEDS
        + GRAMMAR_FORMS
        + workload_statements()
        + TOKENIZER_SPELLINGS
        + MALFORMED
    )
    assert len(set(statements)) == len(statements)
    return statements


def outcome(statement: str) -> dict[str, str]:
    """What ``parse_sql`` makes of one statement, as the file records it."""
    try:
        return {"sql": statement, "query": repr(parse_sql(statement).query)}
    except SQLSyntaxError as error:
        return {"sql": statement, "error": str(error)}


def render(records: list[dict[str, str]]) -> str:
    """The golden file's text for ``records``."""
    return json.dumps(records, indent=1, ensure_ascii=True) + "\n"


def main() -> None:
    """Regenerate the golden file from the ``parse_sql`` on the path."""
    records = [outcome(statement) for statement in golden_statements()]
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(render(records))
    errors = sum("error" in record for record in records)
    print(f"wrote {GOLDEN_PATH}: {len(records)} statements, {errors} rejected")


if __name__ == "__main__":
    main()
