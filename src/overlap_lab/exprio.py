"""Parsing and printing of overlap monomials/polynomials, plus JSON report
serialization.

Grammar (ASCII only, whitespace ignored):

    monomial   := "1" | factor+
    factor     := "{" int "," int "}" ["^" int] | "{" int "}" ["^" int]
    polynomial := ["+"|"-"] term (("+"|"-") term)*
    term       := int | [int] monomial

``1`` denotes the empty monomial; exponents bind to the immediately
preceding factor and must be positive; vertex labels are positive integers.
Repeated factors accumulate their multiplicities.  Parse errors carry the
byte offset of the offending character.  An integer literal longer than
the interpreter's bound on integer digits (4,300 by default) is refused
whether or not a caller has lifted that bound.

A JSON report is ``{"type", "payload", "timings"}``.  The payload holds the
fields of the report dataclass (``TheoremReport``, ``QuenchedEstimate``,
``IdentityReport`` with its ``IdentityRow``s); the command line puts its
wall time and work counters under ``timings``.  :func:`from_json` reads the
payload fields back, checked against their type hints.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import sys
import types
from typing import Any, get_args, get_origin, get_type_hints

from .graphs import (
    EMPTY,
    BudgetError,
    GraphPolynomial,
    Multigraph,
    make_multigraph,
)
from . import operators as _ops

__all__ = [
    "ExpressionParseError",
    "JsonSchemaError",
    "parse_monomial",
    "parse_polynomial",
    "format_monomial",
    "format_polynomial",
    "to_json",
    "from_json",
    "as_jsonable",
]


class ExpressionParseError(ValueError):
    """Malformed expression text; ``offset`` points at the first bad byte."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class JsonSchemaError(ValueError):
    """A JSON report document violates the expected schema."""


def _check_ascii(s: str):
    for pos, ch in enumerate(s):
        if ord(ch) > 127:
            raise ExpressionParseError(f"non-ASCII character {ch!r}", pos)


def _skip_ws(s: str, i: int) -> int:
    while i < len(s) and s[i] in " \t\r\n":
        i += 1
    return i


#: The interpreter's bound on the digits of an integer read from text, as
#: set at import (0: no bound).
_MAX_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _scan_int(s: str, i: int) -> tuple[int, int]:
    start = i
    while i < len(s) and s[i].isdigit():
        i += 1
    if i == start:
        raise ExpressionParseError("expected an integer", start)
    if _MAX_DIGITS and i - start > _MAX_DIGITS:
        raise ExpressionParseError(
            f"integer of {i - start} digits exceeds the limit ({_MAX_DIGITS} digits)", start)
    return int(s[start:i]), i


def _scan_factor(s: str, i: int):
    """Parse one '{a,b}^k' or '{a}^k' starting at the '{' in position i.

    Returns ((vertices tuple, exponent), next position).
    """
    open_at = i
    i = _skip_ws(s, i + 1)
    a, i = _scan_int(s, i)
    i = _skip_ws(s, i)
    verts: tuple[int, ...]
    if i < len(s) and s[i] == ",":
        i = _skip_ws(s, i + 1)
        b, i = _scan_int(s, i)
        i = _skip_ws(s, i)
        verts = (a, b)
    else:
        verts = (a,)
    if i >= len(s) or s[i] != "}":
        raise ExpressionParseError("expected '}'", i)
    i += 1
    exp = 1
    j = _skip_ws(s, i)
    if j < len(s) and s[j] == "^":
        i = _skip_ws(s, j + 1)
        if i < len(s) and s[i] == "-":
            raise ExpressionParseError("negative exponent", i)
        exp, i = _scan_int(s, i)
        if exp == 0:
            raise ExpressionParseError("zero exponent", i - 1)
    if len(verts) == 2 and verts[0] == verts[1]:
        raise ExpressionParseError(f"loop edge {{{verts[0]},{verts[0]}}}", open_at)
    if min(verts) < 1:
        raise ExpressionParseError("vertex labels must be positive", open_at)
    return (verts, exp), i


def _scan_factors(s: str, i: int):
    edges, legs = [], []
    while i < len(s) and s[i] == "{":
        (verts, exp), i = _scan_factor(s, i)
        if len(verts) == 2:
            edges.append((verts[0], verts[1], exp))
        else:
            legs.append((verts[0], exp))
        i = _skip_ws(s, i)
    return edges, legs, i


def parse_monomial(s: str) -> Multigraph:
    """Parse a single monomial; ``"1"`` denotes the empty one."""
    _check_ascii(s)
    i = _skip_ws(s, 0)
    if i == len(s):
        raise ExpressionParseError("empty input", i)
    if s[i] == "1":
        j = _skip_ws(s, i + 1)
        if j != len(s):
            raise ExpressionParseError("unexpected text after '1'", j)
        return EMPTY
    if s[i] != "{":
        raise ExpressionParseError(f"expected '{{' or '1', found {s[i]!r}", i)
    edges, legs, i = _scan_factors(s, i)
    if i != len(s):
        raise ExpressionParseError(f"unexpected character {s[i]!r}", i)
    return make_multigraph(edges, legs)


def parse_polynomial(s: str) -> GraphPolynomial:
    """Parse a top-level signed sum of coefficient-monomial terms."""
    _check_ascii(s)
    i = _skip_ws(s, 0)
    if i == len(s):
        raise ExpressionParseError("empty input", i)
    terms: list[tuple[Multigraph, int]] = []
    first = True
    while i < len(s):
        sign = 1
        if s[i] == "+" or s[i] == "-":
            sign = -1 if s[i] == "-" else 1
            i = _skip_ws(s, i + 1)
        elif not first:
            raise ExpressionParseError(f"expected '+' or '-', found {s[i]!r}", i)
        first = False
        if i == len(s):
            raise ExpressionParseError("dangling sign", i)
        coeff = 1
        have_coeff = False
        if s[i].isdigit():
            coeff, i = _scan_int(s, i)
            have_coeff = True
            i = _skip_ws(s, i)
        if i < len(s) and s[i] == "{":
            edges, legs, i = _scan_factors(s, i)
            g = make_multigraph(edges, legs)
        elif have_coeff:
            # Bare integer term: coefficient times the empty monomial.  A
            # stray literal "1" after an explicit coefficient also means the
            # empty monomial ("2 1" == 2).
            if i < len(s) and s[i] == "1":
                j = _skip_ws(s, i + 1)
                if j < len(s) and s[j] not in "+-":
                    raise ExpressionParseError("unexpected text after '1'", j)
                i = j
            g = EMPTY
        else:
            raise ExpressionParseError(
                f"expected a term, found {s[i]!r}" if i < len(s) else "expected a term",
                i,
            )
        terms.append((g, sign * coeff))
        i = _skip_ws(s, i)
    return GraphPolynomial(terms)


def format_monomial(g: Multigraph) -> str:
    """Render edges then legs, with ``^k`` for multiplicities >= 2."""
    if not g.edges and not g.legs:
        return "1"
    parts = []
    for i, j, m in g.edges:
        parts.append(f"{{{i},{j}}}" + (f"^{m}" if m > 1 else ""))
    for v, n in g.legs:
        parts.append(f"{{{v}}}" + (f"^{n}" if n > 1 else ""))
    return "".join(parts)


def format_polynomial(p: GraphPolynomial) -> str:
    """Deterministic rendering: terms in canonical sort order, ``0`` if empty."""
    if not p:
        return "0"
    chunks = []
    for pos, (g, c) in enumerate(p.items()):
        mag = abs(c)
        body = format_monomial(g)
        if body == "1":
            text = str(mag)
        elif mag == 1:
            text = body
        else:
            text = f"{mag}{body}"
        if pos == 0:
            chunks.append(("-" if c < 0 else "") + text)
        else:
            chunks.append((" - " if c < 0 else " + ") + text)
    return "".join(chunks)


# --------------------------------------------------------------------------
# JSON report serialization: a report dataclass is its own schema.  Exact
# coefficients travel inside polynomial text (decimal strings); floats rely
# on repr round-tripping.

#: The report class of each type tag; a report's tag is looked up in it by
#: class, in order.  The lab's two resolve on first use, so theorem reports,
#: listed first, are written and read without loading numpy.
_REPORTS = {
    "theorem_report": lambda: _ops.TheoremReport,
    "quenched_estimate": lambda: _lab().QuenchedEstimate,
    "identity_report": lambda: _lab().IdentityReport,
}


def _model_dict(model) -> dict[str, Any]:
    out = {"kind": model.kind, "beta": model.beta}
    if model.kind == "sk":
        out["n_spins"] = model.n_sites
    else:
        out["dims"] = list(model.dims)
    return out


def _model_from_dict(d: dict):
    kind = _need(d, "kind", str)
    if kind == "sk":
        return _lab().sk_model(_need(d, "n_spins", int), _need(d, "beta", float))
    if kind == "ea":
        return _lab().ea_model(_need(d, "dims", tuple[int, ...]), _need(d, "beta", float))
    raise JsonSchemaError(f"unknown model kind {kind!r}")


#: Values that are not JSON types: (writer, JSON type, reader).
_CODECS = {
    Multigraph: (format_monomial, str, parse_monomial),
    GraphPolynomial: (format_polynomial, str, parse_polynomial),
}


@functools.cache
def _lab():
    """The numerical lab, imported on first use with its model codec."""
    from . import lab

    _CODECS[lab.ModelInstance] = (_model_dict, dict, _model_from_dict)
    return lab


def _encode(value):
    if type(value) in _CODECS:
        return _CODECS[type(value)][0](value)
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    if dataclasses.is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name)) for f in dataclasses.fields(value)}
    return value


def as_jsonable(obj, omit: tuple[str, ...] = ()) -> dict[str, Any]:
    """Convert a report object to a JSON-ready dict with a ``type`` tag, a
    ``payload`` of its fields, less those named in ``omit``, and empty
    ``timings`` for the caller to fill."""
    tag = next((t for t, cls in _REPORTS.items() if cls() is type(obj)), None)
    if tag is None:
        raise TypeError(f"no JSON form for {type(obj).__name__}")
    payload = {f.name: _encode(getattr(obj, f.name))
               for f in dataclasses.fields(obj) if f.name not in omit}
    return {"type": tag, "payload": payload, "timings": {}}


def to_json(obj) -> str:
    return json.dumps(as_jsonable(obj), sort_keys=True, indent=2)


def _decode(hint, value, where: str):
    """``value`` read as type ``hint``; a JSON boolean is no number."""
    origin, args = get_origin(hint), get_args(hint)
    if origin is types.UnionType:  # X | None
        return None if value is None else _decode(args[0], value, where)
    if origin is tuple:  # tuple[X, ...]
        if isinstance(value, list):
            return tuple(_decode(args[0], v, f"{where}[{k}]") for k, v in enumerate(value))
    elif hint in _CODECS:
        _, kind, read = _CODECS[hint]
        if isinstance(value, kind):
            try:
                return read(value)
            except (ValueError, BudgetError) as exc:
                raise JsonSchemaError(f"field {where!r}: {exc}") from exc
    elif dataclasses.is_dataclass(hint):
        if isinstance(value, dict):
            return _decode_fields(hint, value, where + ".")
    elif hint is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    elif isinstance(value, hint) and isinstance(value, bool) == (hint is bool):
        return value
    raise JsonSchemaError(f"field {where!r} has wrong type {type(value).__name__}")


def _need(d: dict, key: str, hint, prefix: str = ""):
    """Field ``key`` of ``d`` as type ``hint``; only a field that may be
    None may be missing."""
    if key in d:
        return _decode(hint, d[key], prefix + key)
    if type(None) in get_args(hint):
        return None
    raise JsonSchemaError(f"missing field {prefix + key!r}")


def _decode_fields(cls, d: dict, prefix: str):
    hints = get_type_hints(cls)
    return cls(**{f.name: _need(d, f.name, hints[f.name], prefix)
                  for f in dataclasses.fields(cls)})


def from_json(text: str):
    """Rebuild a report object from its JSON form; a malformed document
    raises :class:`JsonSchemaError` and nothing else."""
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise JsonSchemaError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise JsonSchemaError("top level must be an object")
    tag = _need(doc, "type", str)
    if tag not in _REPORTS:
        raise JsonSchemaError(f"unknown report type {tag!r}")
    cls = _REPORTS[tag]()
    _need(doc, "timings", dict | None)  # the command line's; if present, an object
    return _decode_fields(cls, _need(doc, "payload", dict), "")
