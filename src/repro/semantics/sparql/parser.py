"""A small parser for textual SELECT / ASK queries.

The grammar is a practical subset of SPARQL sufficient for the middleware's
semantic service queries and the examples in the paper's scenario (looking
up sensors for a property, fetching observations above a threshold, ...):

.. code-block:: sparql

    SELECT ?sensor ?value WHERE {
        ?obs rdf:type ssn:Observation .
        ?obs ssn:observedBy ?sensor .
        ?obs ssn:hasValue ?value .
        FILTER (?value > 30)
    } ORDER BY DESC(?value) LIMIT 10

Supported: SELECT (with DISTINCT, ``*`` or a variable list), ASK, one WHERE
block of triple patterns, FILTER with a single numeric or equality
comparison, OPTIONAL blocks, ORDER BY [DESC], LIMIT, OFFSET.  CURIEs are
expanded against the graph's namespace manager at evaluation time, so the
parser produces a *template* resolved by the evaluator.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Optional


class QueryParseError(ValueError):
    """Raised when a query string cannot be parsed."""


@dataclass
class ParsedPattern:
    """A raw triple pattern with terms still in textual form."""

    subject: str
    predicate: str
    object: str


@dataclass
class ParsedFilter:
    """A FILTER comparison ``?var OP constant``."""

    variable: str
    op: str
    value: str


@dataclass
class ParsedQuery:
    """The outcome of parsing a query string."""

    form: str                      # "SELECT" or "ASK"
    variables: List[str] = field(default_factory=list)   # empty means '*'
    distinct: bool = False
    patterns: List[ParsedPattern] = field(default_factory=list)
    optional_patterns: List[List[ParsedPattern]] = field(default_factory=list)
    filters: List[ParsedFilter] = field(default_factory=list)
    order_by: Optional[str] = None
    descending: bool = False
    limit: Optional[int] = None
    offset: int = 0


# Canonical numeric-literal token syntax: an optional sign, digits,
# optionally a decimal point with digits.  The evaluator's term / FILTER
# value resolution imports these so the grammar is defined exactly once
# (note: inside a triple pattern the tokenizer's word boundary cannot see a
# sign after whitespace, so pattern terms are effectively unsigned; FILTER
# values accept the full signed syntax).
NUMERIC_TOKEN = r"[-+]?\d+(?:\.\d+)?"
INTEGER_LITERAL_RE = re.compile(r"[-+]?\d+\Z")
DECIMAL_LITERAL_RE = re.compile(r"[-+]?\d+\.\d+\Z")

_TERM_RE = (
    r'(?:<[^>]*>|\?[A-Za-z_]\w*|[A-Za-z_][\w\-]*:[\w\-.]+|"(?:[^"\\]|\\.)*"'
    rf'(?:@[A-Za-z\-]+|\^\^[^\s]+)?|\b{NUMERIC_TOKEN}\b|\ba\b)'
)
_PATTERN_RE = re.compile(
    rf"\s*(?P<s>{_TERM_RE})\s+(?P<p>{_TERM_RE})\s+(?P<o>{_TERM_RE})\s*\.?\s*"
)
_FILTER_RE = re.compile(
    r"FILTER\s*\(\s*\?(?P<var>\w+)\s*(?P<op><=|>=|!=|=|<|>)\s*(?P<value>[^)]+?)\s*\)",
    re.IGNORECASE,
)
_OPTIONAL_RE = re.compile(r"OPTIONAL\s*\{(?P<body>[^{}]*)\}", re.IGNORECASE)


def _parse_patterns(body: str) -> List[ParsedPattern]:
    patterns: List[ParsedPattern] = []
    for statement in body.split(" ."):
        statement = statement.strip().rstrip(".").strip()
        if not statement:
            continue
        match = _PATTERN_RE.fullmatch(statement + " ")
        if match is None:
            match = _PATTERN_RE.match(statement)
        if match is None:
            raise QueryParseError(f"cannot parse triple pattern: {statement!r}")
        patterns.append(
            ParsedPattern(match.group("s"), match.group("p"), match.group("o"))
        )
    return patterns


def parse_query(text: str) -> ParsedQuery:
    """Parse a SELECT or ASK query string into a :class:`ParsedQuery`."""
    normalized = " ".join(text.strip().split())
    if not normalized:
        raise QueryParseError("empty query")

    form_match = re.match(
        r"(SELECT|ASK)\s*(DISTINCT)?\s*(.*?)\s*WHERE\s*\{(.*)\}\s*(.*)$",
        normalized,
        re.IGNORECASE | re.DOTALL,
    )
    if form_match is None:
        raise QueryParseError("query must be of the form 'SELECT ... WHERE { ... }' or 'ASK WHERE { ... }'")

    form = form_match.group(1).upper()
    distinct = form_match.group(2) is not None
    projection = form_match.group(3).strip()
    where_body = form_match.group(4)
    modifiers = form_match.group(5) or ""

    parsed = ParsedQuery(form=form, distinct=distinct)

    if form == "SELECT":
        if projection in ("", "*"):
            parsed.variables = []
        else:
            parsed.variables = re.findall(r"\?(\w+)", projection)
            if not parsed.variables:
                raise QueryParseError(f"cannot parse SELECT projection: {projection!r}")

    # OPTIONAL blocks
    def _extract_optional(match: "re.Match[str]") -> str:
        parsed.optional_patterns.append(_parse_patterns(match.group("body")))
        return " "

    where_body = _OPTIONAL_RE.sub(_extract_optional, where_body)

    # FILTER clauses
    def _extract_filter(match: "re.Match[str]") -> str:
        parsed.filters.append(
            ParsedFilter(match.group("var"), match.group("op"), match.group("value").strip())
        )
        return " "

    where_body = _FILTER_RE.sub(_extract_filter, where_body)

    parsed.patterns = _parse_patterns(where_body)
    if not parsed.patterns:
        raise QueryParseError("WHERE clause contains no triple patterns")

    # Solution modifiers
    order_match = re.search(
        r"ORDER\s+BY\s+(DESC\s*\(\s*)?\?(\w+)\)?", modifiers, re.IGNORECASE
    )
    if order_match:
        parsed.descending = order_match.group(1) is not None
        parsed.order_by = order_match.group(2)
    limit_match = re.search(r"LIMIT\s+(\d+)", modifiers, re.IGNORECASE)
    if limit_match:
        parsed.limit = int(limit_match.group(1))
    offset_match = re.search(r"OFFSET\s+(\d+)", modifiers, re.IGNORECASE)
    if offset_match:
        parsed.offset = int(offset_match.group(1))

    return parsed
