"""The algebra file format, witness files, and assignment strings.

An algebra file is a JSON object::

    { "dim": 3,
      "params": ["a", "b"],
      "kind": "associative" | "antidendriform",
      "mul": [[i, j, k, "coeff"], ...],          # kind = associative
      "rhd": [[i, j, k, "coeff"], ...],          # kind = antidendriform
      "lhd": [[i, j, k, "coeff"], ...] }

Indices are 1-based, omitted entries are zero, and coefficients use the
coefficient grammar over the declared parameter names.  This is the single
interchange format for every CLI command; export followed by parse is exact.

A witness file holds a square matrix of coefficient expressions::

    { "dim": 3, "entries": [["1", "0", "0"], ...] }

With an optional ``"radicand": "2"`` (a JSON string or integer, not a
rational square; ``parse_radicand``), entries may instead be two-element
lists ``["aexpr", "bexpr"]`` meaning a + b*sqrt(radicand); plain entries are
then read in Q(sqrt radicand), so none may hold a parameter.
"""

from __future__ import annotations

import json
from fractions import Fraction
from .algebra import KINDS, Algebra, StructureConstants
from .errors import AlgebraFormatError, CoefficientSyntaxError
from .iso import Witness
from .scalars import (PARAM_NAMES, QuadExt, format_poly,
                      is_rational_square, parse_rational, poly_parse)


def _parse_entry_list(raw, dim: int, params, where: str) -> StructureConstants:
    if not isinstance(raw, list):
        raise AlgebraFormatError(f"{where!r} must be a list of [i, j, k, coeff] rows")
    table = {}
    for row in raw:
        if (not isinstance(row, list) or len(row) != 4
                or not all(type(x) is int for x in row[:3])):
            raise AlgebraFormatError(f"bad row in {where!r}: {row!r}")
        i, j, k, coeff = row
        if not (1 <= i <= dim and 1 <= j <= dim and 1 <= k <= dim):
            raise AlgebraFormatError(f"index out of range in {where!r}: {row!r}")
        if (i, j, k) in table:
            raise AlgebraFormatError(f"duplicate entry ({i},{j},{k}) in {where!r}")
        if not isinstance(coeff, str):
            raise AlgebraFormatError(f"coefficient must be a string in {where!r}: {row!r}")
        table[(i, j, k)] = poly_parse(coeff, params)
    return StructureConstants.from_table(dim, table, params)


def _load(text: str) -> tuple[dict, int]:
    """A file's top-level JSON object and its 'dim', a positive integer."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise AlgebraFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise AlgebraFormatError("top level must be an object")
    dim = doc.get("dim")
    if type(dim) is not int or dim < 1:
        raise AlgebraFormatError("'dim' must be a positive integer")
    return doc, dim


def parse_algebra(text: str):
    """Parse an algebra file; returns UnaryAlgebra or AdPair."""
    doc, dim = _load(text)
    params = doc.get("params", [])
    if not isinstance(params, list):
        raise AlgebraFormatError("'params' must be a list of parameter names")
    for p in params:
        if p not in PARAM_NAMES:
            raise AlgebraFormatError(
                f"unknown parameter {p!r}; allowed: {', '.join(PARAM_NAMES)}")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in KINDS:
        raise AlgebraFormatError(f"'kind' must be {' or '.join(map(repr, KINDS))}")
    cls = KINDS[kind]
    for op in cls.OPS:
        if op not in doc:
            raise AlgebraFormatError(f"{kind} file needs a {op!r} table")
    return cls(*(_parse_entry_list(doc[op], dim, params, op) for op in cls.OPS),
               label=doc.get("label"))


def _entry_rows(sc: StructureConstants):
    rows = []
    for (i, j, k), p in sorted(sc.entries()):
        rows.append([i + 1, j + 1, k + 1, format_poly(p)])
    return rows


def render_algebra(obj) -> str:
    """Serialise to the file format (sorted keys, canonical coefficients)."""
    if not isinstance(obj, Algebra):
        raise TypeError(f"cannot render {type(obj).__name__}")
    doc = {"dim": obj.dim, "kind": obj.KIND, "params": sorted(obj.variables())}
    doc.update((op, _entry_rows(sc)) for op, sc in zip(obj.OPS, obj.tensors))
    if obj.label:
        doc["label"] = obj.label
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def parse_assignment(text: str) -> dict[str, Fraction]:
    """Parse ``a=1/2,l=-1`` into a name-to-rational mapping."""
    out: dict[str, Fraction] = {}
    if not text.strip():
        return out
    for piece in text.split(","):
        if "=" not in piece:
            raise AlgebraFormatError(f"bad assignment {piece!r}; expected name=value")
        name, _, value = piece.partition("=")
        name = name.strip()
        if not name.isidentifier():
            raise AlgebraFormatError(f"bad parameter name {name!r}")
        if name in out:
            raise AlgebraFormatError(f"parameter {name!r} assigned twice")
        out[name] = parse_rational(value.strip())
    return out


def parse_radicand(value) -> Fraction | None:
    """The radicand of ``iso --radicand`` or a witness file: None, or a
    string or integer (not a boolean or float) holding a non-square rational."""
    if value is None:
        return None
    if type(value) not in (str, int):
        raise AlgebraFormatError(
            f"radicand must be a string or an integer, got {json.dumps(value)}")
    try:
        radicand = parse_rational(str(value))
    except CoefficientSyntaxError as exc:
        raise AlgebraFormatError(f"bad radicand {value!r}: {exc}") from exc
    if is_rational_square(radicand):
        raise AlgebraFormatError(f"radicand {radicand} is a rational square")
    return radicand


def parse_witness(text: str):
    """Parse a witness file into an ``iso.Witness``.

    Plain entries are coefficient expressions; with a radicand, two-element
    entries are a + b*sqrt(radicand), and the witness reads plain ones in
    Q(sqrt radicand), where parametric entries cannot appear.
    """
    doc, dim = _load(text)
    entries = doc.get("entries")
    if (not isinstance(entries, list) or len(entries) != dim
            or any(not isinstance(r, list) or len(r) != dim for r in entries)):
        raise AlgebraFormatError("'entries' must be a dim x dim matrix")
    radicand = parse_radicand(doc.get("radicand"))

    def cell_value(cell):
        if isinstance(cell, str):
            return poly_parse(cell)
        if (isinstance(cell, list) and len(cell) == 2 and radicand is not None
                and all(isinstance(part, str) for part in cell)):
            return QuadExt(*(poly_parse(part).constant_value() for part in cell), radicand)
        raise AlgebraFormatError(f"bad witness entry {cell!r}")

    try:
        return Witness([[cell_value(cell) for cell in row] for row in entries], radicand)
    except ValueError as exc:
        raise AlgebraFormatError("parametric entries cannot mix with a radicand") from exc
