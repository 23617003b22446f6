"""RDF terms.

The RDF abstract syntax knows three kinds of node -- IRIs, literals and
blank nodes -- plus (for query and rule patterns) variables.  All terms are
immutable value objects: equality and hashing are structural so terms can be
used freely as dictionary keys and set members, which the triple indexes in
:mod:`repro.semantics.rdf.graph` rely on.
"""

from __future__ import annotations

import itertools
import re
from typing import Any, Optional, Union


class Term:
    """Base class for every RDF term.

    Subclasses are :class:`IRI`, :class:`Literal`, :class:`BlankNode` and
    :class:`Variable`.  The base class only provides ordering between
    heterogeneous terms (IRIs < blank nodes < literals < variables) so that
    serialisers can emit deterministic output.
    """

    _ORDER = 0

    def sort_key(self) -> tuple:
        """Return a tuple usable to totally order terms of any kind."""
        return (self._ORDER, str(self))

    def __lt__(self, other: "Term") -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        return self.sort_key() < other.sort_key()

    def is_concrete(self) -> bool:
        """True for ground terms (everything except :class:`Variable`)."""
        return True


_IRI_FORBIDDEN = re.compile(r"[<>\"{}|^`\\\s]")


class IRI(Term):
    """An Internationalised Resource Identifier.

    Parameters
    ----------
    value:
        The absolute IRI string, e.g. ``"http://example.org/sensor/1"``.

    Raises
    ------
    ValueError
        If the IRI contains characters that RDF forbids inside ``<...>``.
    """

    __slots__ = ("value", "_hash")
    _ORDER = 0

    def __init__(self, value: str):
        if not isinstance(value, str) or not value:
            raise ValueError("IRI value must be a non-empty string")
        if _IRI_FORBIDDEN.search(value):
            raise ValueError(f"invalid character in IRI: {value!r}")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "_hash", hash(("IRI", value)))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("IRI is immutable")

    def __str__(self) -> str:
        return self.value

    def __repr__(self) -> str:
        return f"IRI({self.value!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IRI) and other.value == self.value

    def __hash__(self) -> int:
        return self._hash

    def n3(self) -> str:
        """N-Triples / Turtle representation, e.g. ``<http://...>``."""
        return f"<{self.value}>"

    @property
    def local_name(self) -> str:
        """The fragment after the last ``#`` or ``/`` -- a readable label."""
        for sep in ("#", "/"):
            if sep in self.value:
                candidate = self.value.rsplit(sep, 1)[1]
                if candidate:
                    return candidate
        return self.value

    @property
    def namespace(self) -> str:
        """Everything up to and including the last ``#`` or ``/``."""
        idx_hash = self.value.rfind("#")
        idx_slash = self.value.rfind("/")
        idx = max(idx_hash, idx_slash)
        if idx < 0:
            return self.value
        return self.value[: idx + 1]


#: Shared XSD datatype IRIs used by Literal coercion.  Kept here (rather than
#: in namespace.py) to avoid a circular import; namespace.XSD re-exposes them.
_XSD = "http://www.w3.org/2001/XMLSchema#"
XSD_STRING = IRI(_XSD + "string")
XSD_BOOLEAN = IRI(_XSD + "boolean")
XSD_INTEGER = IRI(_XSD + "integer")
XSD_DECIMAL = IRI(_XSD + "decimal")
XSD_DOUBLE = IRI(_XSD + "double")
XSD_DATETIME = IRI(_XSD + "dateTime")
XSD_DATE = IRI(_XSD + "date")


class Literal(Term):
    """An RDF literal: a lexical form plus datatype and optional language tag.

    The constructor accepts native Python values and infers the datatype:

    >>> Literal(3).datatype.local_name
    'integer'
    >>> Literal(2.5).datatype.local_name
    'double'
    >>> Literal(True).datatype.local_name
    'boolean'
    >>> Literal("drought", lang="en").lang
    'en'

    :meth:`to_python` converts back to the corresponding native value, which
    the query FILTER evaluation and the CEP engine use for comparisons.
    """

    # ``_value`` memoises to_python(); it is left unset until first asked
    __slots__ = ("lexical", "datatype", "lang", "_hash", "_value")
    _ORDER = 2

    def __init__(
        self,
        value: Union[str, int, float, bool],
        datatype: Optional[IRI] = None,
        lang: Optional[str] = None,
    ):
        if lang is not None and datatype is not None:
            raise ValueError("a literal cannot have both a language tag and a datatype")
        if isinstance(value, bool):
            lexical = "true" if value else "false"
            datatype = datatype or XSD_BOOLEAN
        elif isinstance(value, int):
            lexical = str(value)
            datatype = datatype or XSD_INTEGER
        elif isinstance(value, float):
            lexical = repr(value)
            datatype = datatype or XSD_DOUBLE
        elif isinstance(value, str):
            lexical = value
            if lang is None and datatype is None:
                datatype = XSD_STRING
        else:
            raise TypeError(f"unsupported literal value type: {type(value)!r}")
        object.__setattr__(self, "lexical", lexical)
        object.__setattr__(self, "datatype", datatype)
        object.__setattr__(self, "lang", lang)
        object.__setattr__(self, "_hash", hash(("Literal", lexical, datatype, lang)))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Literal is immutable")

    def __str__(self) -> str:
        return self.lexical

    def __repr__(self) -> str:
        if self.lang:
            return f"Literal({self.lexical!r}, lang={self.lang!r})"
        return f"Literal({self.lexical!r}, datatype={self.datatype})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Literal)
            and other.lexical == self.lexical
            and other.datatype == self.datatype
            and other.lang == self.lang
        )

    def __hash__(self) -> int:
        return self._hash

    def n3(self) -> str:
        escaped = (
            self.lexical.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        )
        if self.lang:
            return f'"{escaped}"@{self.lang}'
        if self.datatype and self.datatype != XSD_STRING:
            return f'"{escaped}"^^{self.datatype.n3()}'
        return f'"{escaped}"'

    def to_python(self) -> Union[str, int, float, bool]:
        """Convert the literal to the closest native Python value.

        Parsed once per literal: a term interned in a graph's dictionary
        is compared by every FILTER evaluation that reaches it.
        """
        try:
            return self._value
        except AttributeError:
            value = self._parse()
            object.__setattr__(self, "_value", value)
            return value

    def _parse(self) -> Union[str, int, float, bool]:
        if self.datatype == XSD_BOOLEAN:
            return self.lexical.strip().lower() in ("true", "1")
        if self.datatype == XSD_INTEGER:
            try:
                return int(self.lexical)
            except ValueError:
                return self.lexical
        if self.datatype in (XSD_DOUBLE, XSD_DECIMAL):
            try:
                return float(self.lexical)
            except ValueError:
                return self.lexical
        return self.lexical

    def is_numeric(self) -> bool:
        """True when the literal carries a numeric XSD datatype."""
        return self.datatype in (XSD_INTEGER, XSD_DECIMAL, XSD_DOUBLE)


class BlankNode(Term):
    """An anonymous RDF node, locally scoped to a graph.

    Blank nodes created without an explicit identifier receive a fresh
    sequential one (``_:b0``, ``_:b1``, ...).
    """

    __slots__ = ("id", "_hash")
    _ORDER = 1
    _counter = itertools.count()

    def __init__(self, node_id: Optional[str] = None):
        if node_id is None:
            node_id = f"b{next(BlankNode._counter)}"
        node_id = str(node_id)
        object.__setattr__(self, "id", node_id)
        object.__setattr__(self, "_hash", hash(("BlankNode", node_id)))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("BlankNode is immutable")

    def __str__(self) -> str:
        return f"_:{self.id}"

    def __repr__(self) -> str:
        return f"BlankNode({self.id!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BlankNode) and other.id == self.id

    def __hash__(self) -> int:
        return self._hash

    def n3(self) -> str:
        return f"_:{self.id}"


class Variable(Term):
    """A query / rule variable such as ``?sensor``.

    Variables never appear in a stored graph; they occur only in triple
    patterns used by the SPARQL evaluator and the rule engine.
    """

    __slots__ = ("name", "_hash")
    _ORDER = 3

    def __init__(self, name: str):
        name = name.lstrip("?$")
        if not name:
            raise ValueError("variable name must be non-empty")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash(("Variable", name)))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Variable is immutable")

    def __str__(self) -> str:
        return f"?{self.name}"

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Variable) and other.name == self.name

    def __hash__(self) -> int:
        return self._hash

    def n3(self) -> str:
        return f"?{self.name}"

    def is_concrete(self) -> bool:
        return False


#: A whole string that is an absolute IRI: a URI scheme (RFC 3986: ALPHA
#: then ALPHA / DIGIT / "+" / "-" / "."), ``://``, then at least one more
#: character, none of which RDF forbids inside ``<...>``.  Anchored at both
#: ends on purpose: free text that merely *embeds* a URL ("see http://x.org
#: for details") must stay a literal.
_ABSOLUTE_IRI_RE = re.compile(
    r"\A[A-Za-z][A-Za-z0-9+.\-]*://[^<>\"{}|^`\\\s]+\Z"
)


def as_term(value: Any) -> Term:
    """Coerce a Python value into an RDF term.

    Strings whose *entire* text parses as an absolute IRI (scheme followed
    by ``://`` and a non-empty remainder with no whitespace or characters
    RDF forbids in ``<...>``) become :class:`IRI`.  Strings that merely
    embed a URL somewhere inside free text — alert messages, descriptions —
    stay :class:`Literal`.  Other native values become :class:`Literal`;
    existing terms pass through.
    """
    if isinstance(value, Term):
        return value
    if isinstance(value, str) and _ABSOLUTE_IRI_RE.match(value):
        return IRI(value)
    if isinstance(value, (str, int, float, bool)):
        return Literal(value)
    raise TypeError(f"cannot convert {value!r} to an RDF term")
