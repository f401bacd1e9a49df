"""Map-spec ingestion: catalog shorthands, JSON objects, and spec files.

Accepted forms:

* shorthand strings ``name`` or ``name:value`` (see SHORTHANDS), which
  stand for the JSON spec ``{"type": name, field: value}``;
* inline JSON: ``{"type": "tent"}``, ``{"type": "sawtooth", "N": 3}``,
  ``{"type": "logistic", "r": 3.5}``, or a full piece list
  ``{"type": "pwl", "pieces": [{"lo": "0", "hi": "1/2", "slope": "2",
  "intercept": "0"}, ...]}`` with rationals written as strings;
* a path to a file holding such JSON.

Piece defaults: ``lo_closed`` true, ``hi_closed`` false except when
``hi`` is 1 (the domain's right end must be owned by its last piece).

Every form ends in one reader of spec dicts, which builds the canonical
spec and the engines: ``pwl`` holds the exact map, if there is one, and
``numeric`` the constructor of the float map that sampling uses.  Loading
a spec does not import NumPy; calling ``numeric()`` does, so only the
float path pays for it.
``logistic:4`` loads with an exact engine attached: its orbits are
order-isomorphic to tent orbits, so pattern computations run on the tent
map while sampling still uses the genuine logistic formula.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import TYPE_CHECKING, Any, Callable

from .errors import BadParameter, ParseError, UnknownMap, ValidationError
from .pwl import PwlMap, PwlPiece, alt_sawtooth, sawtooth, tent

if TYPE_CHECKING:
    from .numeric import NumericMap

ISOMORPHISM_NOTE = "exact results computed on the tent map via order-isomorphism"
_PIECE_FIELDS = {"lo", "hi", "lo_closed", "hi_closed", "slope", "intercept"}
# each spec type's fields besides "type", with the reader of the value a
# shorthand "name:value" gives it; pwl has no shorthand
_SPEC_FIELDS: dict[str, dict] = {
    "tent": {},
    "sawtooth": {"N": int},
    "alt_sawtooth": {"N": int},
    "logistic": {"r": float},
    "one_minus_x_squared": {},
    "pwl": {"pieces": None},
}
SHORTHANDS = {
    name: name + "".join(f":{f}" for f in fields)
    for name, fields in _SPEC_FIELDS.items()
    if None not in fields.values()
}


@dataclass(frozen=True)
class LoadedMap:
    """A validated map spec with whichever engines it supports.

    exact is true when pwl holds an equivalent piecewise-linear map;
    numeric() builds the float engine, which every map has; its first
    call imports NumPy.
    """

    label: str
    spec: dict
    pwl: PwlMap | None
    numeric: Callable[[], NumericMap] = field(compare=False, repr=False)
    note: str | None = None

    @property
    def exact(self) -> bool:
        return self.pwl is not None

    def require_exact(self) -> PwlMap:
        if self.pwl is None:
            raise BadParameter(
                f"map {self.label!r} has no exact engine; exact operations need a "
                "piecewise-linear map (or logistic:4)"
            )
        return self.pwl


def _frac_field(piece: dict, field: str, default=None) -> Fraction:
    if field not in piece:
        if default is None:
            raise ParseError(f"piece is missing field {field!r}")
        return Fraction(default)
    value = piece[field]
    if isinstance(value, bool) or isinstance(value, float):
        raise ParseError(
            f"field {field!r} must be an integer or a rational string like \"1/2\""
        )
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ParseError(f"field {field!r}: {exc}") from None


def _bool_field(piece: dict, field: str, default: bool) -> bool:
    value = piece.get(field, default)
    if not isinstance(value, bool):
        raise ParseError(f"field {field!r} must be true or false")
    return value


def _reject_unknown(raw: dict, fields: set, where: str) -> None:
    # the canonical spec keys the cache, so a field it would drop is an error
    unknown = [key for key in raw if key not in fields]
    if unknown:
        raise ParseError(f"unknown field(s) in {where}: {', '.join(map(repr, unknown))}")


def _piece_from_dict(raw: Any) -> PwlPiece:
    if not isinstance(raw, dict):
        raise ParseError("each piece must be a JSON object")
    _reject_unknown(raw, _PIECE_FIELDS, "a piece")
    hi = _frac_field(raw, "hi")
    return PwlPiece(
        lo=_frac_field(raw, "lo"),
        hi=hi,
        lo_closed=_bool_field(raw, "lo_closed", True),
        hi_closed=_bool_field(raw, "hi_closed", hi == 1),
        slope=_frac_field(raw, "slope"),
        intercept=_frac_field(raw, "intercept", default=0),
    )


def _piece_to_dict(p: PwlPiece) -> dict:
    return {
        "lo": str(p.lo),
        "hi": str(p.hi),
        "lo_closed": p.lo_closed,
        "hi_closed": p.hi_closed,
        "slope": str(p.slope),
        "intercept": str(p.intercept),
    }


def _ramp_param(spec: dict) -> int:
    value = spec.get("N")
    if not isinstance(value, int) or isinstance(value, bool):
        raise ParseError("field 'N' must be an integer")
    return value


def _float_map(constructor: str, *args) -> NumericMap:
    from .numeric import NumericMap  # here, not at import: NumPy is for the float path only

    return getattr(NumericMap, constructor)(*args)


def _exact_map(label: str, spec: dict, pwl: PwlMap, note: str | None = None) -> LoadedMap:
    return LoadedMap(label, spec, pwl, partial(_float_map, "from_pwl", pwl), note)


def _from_dict(spec: dict) -> LoadedMap:
    if not isinstance(spec, dict):
        raise ParseError("a map spec must be a JSON object")
    kind = spec.get("type")
    if isinstance(kind, str) and kind in _SPEC_FIELDS:
        _reject_unknown(spec, {"type", *_SPEC_FIELDS[kind]}, f"a {kind} spec")
    if kind == "tent":
        return _exact_map("tent", {"type": "tent"}, tent())
    if kind in ("sawtooth", "alt_sawtooth"):
        n = _ramp_param(spec)
        build = sawtooth if kind == "sawtooth" else alt_sawtooth
        return _exact_map(f"{kind}:{n}", {"type": kind, "N": n}, build(n))
    if kind == "one_minus_x_squared":
        return LoadedMap(
            "one_minus_x_squared", {"type": kind}, None, partial(_float_map, kind)
        )
    if kind == "logistic":
        r = spec.get("r")
        if isinstance(r, bool) or not isinstance(r, (int, float)):
            raise ParseError("field 'r' must be a number")
        r = float(r)
        if not 1.0 < r <= 4.0:
            raise ValidationError("logistic parameter must satisfy 1 < r <= 4")
        canon = {"type": "logistic", "r": r}
        numeric = partial(_float_map, "logistic", r)
        if r == 4.0:
            return LoadedMap("logistic:4", canon, tent(), numeric, ISOMORPHISM_NOTE)
        return LoadedMap(f"logistic:{r}", canon, None, numeric)
    if kind == "pwl":
        raw = spec.get("pieces")
        if not isinstance(raw, list) or not raw:
            raise ParseError("field 'pieces' must be a nonempty list")
        pwl = PwlMap(tuple(_piece_from_dict(p) for p in raw))
        canon = {"type": "pwl", "pieces": [_piece_to_dict(p) for p in pwl.pieces]}
        return _exact_map("pwl", canon, pwl)
    raise UnknownMap(f"unknown map type {kind!r}")


def _shorthand_spec(text: str) -> dict | None:
    """The spec a catalog shorthand stands for, or None if text names no catalog map."""
    name, colon, value = text.partition(":")
    if name not in SHORTHANDS:
        return None
    fields = _SPEC_FIELDS[name]
    if bool(colon) == bool(fields):
        try:
            return {"type": name, **{f: read(value) for f, read in fields.items()}}
        except ValueError:
            pass
    raise ParseError(f"bad map shorthand {text!r}: the form is {SHORTHANDS[name]}")


def load_map_spec(source: str | dict) -> LoadedMap:
    """Load a map from a shorthand string, JSON text, JSON dict, or file path."""
    if isinstance(source, dict):
        return _from_dict(source)
    if not isinstance(source, str):
        raise ParseError(f"map spec must be a string or object, got {type(source).__name__}")
    text = source.strip()
    spec = _shorthand_spec(text)
    if spec is not None:
        return _from_dict(spec)
    if text.startswith("{"):
        body, where = text, ""
    elif os.path.exists(text):
        with open(text, encoding="utf-8") as fh:
            body, where = fh.read(), f"{text}: "
    else:
        raise UnknownMap(f"{text!r} is not a catalog shorthand, inline JSON, or a readable file")
    try:
        data = json.loads(body)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{where}bad map-spec JSON: {exc}") from None
    return _from_dict(data)


def serialize(lm: LoadedMap) -> str:
    """Canonical JSON for the map; load_map_spec(serialize(lm)) reproduces lm."""
    from .cache import canonical_json  # not at import: most runs never touch the cache
    return canonical_json(lm.spec)
