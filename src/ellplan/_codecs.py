"""The one reader of untrusted JSON, for record lines and instance files.

``read`` refuses a key given twice at any depth and keeps every number as
its literal text (``_JsonNumber``), so no number is built before its
field's codec has checked it.  A codec is a (render, parse) pair for one
wire type; ``parse(value, path)`` raises ``FieldError`` at the field's path,
and ``built`` refuses a value its class refuses at that path too.  ``read``
raises a ``FieldError`` as the reader's own exception type, and any other
``ValueError`` (text that is not JSON, or an unbounded number past the
interpreter's int digit cap) prefixed by what the text is not.  Two reads
are bounded: ``WEIGHT``, by limits declared here, and ``parse_int`` given
``max_digits``.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Optional

# modules, not names: a module runs at its first use here (see ellplan)
from ellplan import planner
from ellplan._value import Frozen

# a weight builds 10**exponent, so its decimal exponent is bounded
MAX_EXPONENT = 4300
# digits of a weight written out in plain decimal: room for a 4,300-digit
# mantissa at any exponent the limit above admits
MAX_DIGITS = 2 * MAX_EXPONENT


class FieldError(ValueError):
    """A value refused by its field's codec or class, named by its path."""


class _JsonNumber(Frozen):
    """A JSON number's literal text, read only by the codec of its field."""

    text: str


def _refuse_duplicates(pairs) -> dict:
    out = {}
    for key, value in pairs:
        if key in out:
            raise FieldError(f"duplicate key {key!r}")
        out[key] = value
    return out


def read(text: str, parse, error: type, what: str):
    """``parse(document, "")`` of a JSON text, every error raised as ``error``."""
    try:
        doc = json.loads(
            text, parse_float=_JsonNumber, parse_int=_JsonNumber,
            object_pairs_hook=_refuse_duplicates,
        )
        return parse(doc, "")
    except FieldError as exc:
        raise error(str(exc)) from exc
    except (ValueError, RecursionError) as exc:  # not JSON, too long or too deep
        raise error(f"{what}: {exc}") from exc


def unbounded(build, text: str, path: str):
    """``build(text)``; past the int digit cap the text, not the field, is at fault."""
    try:
        return build(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# a field named at the start of a class's message: "rank: ...", "blocks[1]: ..."
# (patterns that only some texts need are left to re's cache, compiled at first use)
_LEADING_FIELD = r"(\w+)[.:\[]"


def built(build, values, path: str, fields=()):
    """``build(*values)``; a ValueError it raises becomes a FieldError at
    ``path``, or at the one of ``fields`` its message starts with: "rank: ..."
    at "matroid" is "matroid.rank: ...".  At path "" it is the class's own."""
    try:
        return build(*values)
    except ValueError as exc:
        message = str(exc)
        lead = re.match(_LEADING_FIELD, message)
        joint = "." if lead is not None and lead[1] in fields else ": "
        raise FieldError(f"{path}{joint}{message}" if path else message) from exc


def _same(value):
    return value


def exactly(wire_type: type):
    """Codec of a JSON value of exactly this type: true is not a number."""

    def parse(value, path: str):
        if type(value) is not wire_type:
            raise FieldError(f"{path}: expected {wire_type.__name__}")
        return value

    return _same, parse


BOOL = exactly(bool)
STR = exactly(str)

_INTEGER_TEXT = re.compile(r"-?[0-9]+")


def parse_int(value, path: str, max_digits: Optional[int] = None) -> int:
    """A JSON integer; with ``max_digits``, one of at most that many digits,
    refused from its text before ``int()`` reads it."""
    if type(value) is not _JsonNumber or not _INTEGER_TEXT.fullmatch(value.text):
        raise FieldError(f"{path}: expected int")
    if max_digits is not None and len(value.text.lstrip("-")) > max_digits:
        raise FieldError(f"{path}: has more than {max_digits} digits")
    return unbounded(int, value.text, path)


INT = (_same, parse_int)


def choice(*words: str):
    """Codec of a text that is one of ``words``."""

    def parse(text, path: str) -> str:
        if type(text) is not str or text not in words:
            raise FieldError(f"{path}: expected one of {', '.join(words)}")
        return text

    return _same, parse


def list_of(codec):
    """Codec of a JSON list of values of one codec; it parses to a tuple."""
    render, parse = codec

    def parse_list(items, path: str) -> tuple:
        if type(items) is not list:
            raise FieldError(f"{path}: expected a list")
        return tuple(parse(item, f"{path}[{i}]") for i, item in enumerate(items))

    return (lambda values: [render(value) for value in values]), parse_list


def optional(codec):
    render, parse = codec
    return (
        lambda value: None if value is None else render(value),
        lambda value, path: None if value is None else parse(value, path),
    )


def names(collect):
    """Codec of a JSON list of distinct names, read into ``collect``: a tuple
    keeps the list's order and is written in it, a frozenset is written sorted."""

    def parse(items, path: str):
        if type(items) is not list or not all(type(name) is str for name in items):
            raise FieldError(f"{path}: expected a list of names")
        if len(set(items)) != len(items):
            raise FieldError(f"{path}: duplicate names")
        return collect(items)

    return (list if collect is tuple else sorted), parse


def mapping(codec):
    """Codec of a JSON object from names to values of one codec; it parses
    to a tuple of (name, value) pairs in the text's order."""
    render, parse = codec

    def parse_pairs(obj, path: str) -> tuple:
        if type(obj) is not dict:
            raise FieldError(f"{path}: expected an object")
        return tuple((name, parse(value, f"{path}.{name}")) for name, value in obj.items())

    return (lambda pairs: {name: render(value) for name, value in pairs}), parse_pairs


def parse_fields(obj, path: str, fields: dict) -> dict:
    """Each declared field of a JSON object, parsed by its codec.  The
    object's keys must be exactly the declared ones."""
    if type(obj) is not dict:
        raise FieldError(f"{path or 'top level'}: expected an object")
    where = f"{path}: " if path else ""
    for name in fields:
        if name not in obj:
            raise FieldError(f"{where}missing field {name!r}")
    unknown = obj.keys() - fields.keys()
    if unknown:
        raise FieldError(f"{where}unknown field(s) {sorted(unknown)}")
    return {
        name: parse(obj[name], f"{path}.{name}" if path else name)
        for name, (_, parse) in fields.items()
    }


def render_fields(fields: dict, parts) -> dict:
    """Each declared field's wire form; ``parts`` are the values, in order."""
    return {
        name: render(part) for (name, (render, _)), part in zip(fields.items(), parts)
    }


def object_of(fields: dict, build, parts=None):
    """Codec of a JSON object: ``parts(value)`` gives the field values in
    declared order (by default the value's attributes of those names), and
    ``build`` takes them back."""
    parts = parts or (lambda value: (getattr(value, name) for name in fields))
    return (
        lambda value: render_fields(fields, parts(value)),
        lambda obj, path: built(build, parse_fields(obj, path, fields).values(), path, fields),
    )


def tagged(tag: str, variants: dict):
    """Codec of a JSON object whose ``tag`` field names its class: ``variants``
    maps each tag word to (class, {field: codec}), the class's fields in order."""
    words = {cls: word for word, (cls, _) in variants.items()}
    codecs = {word: object_of(fields, cls) for word, (cls, fields) in variants.items()}
    _, parse_word = choice(*variants)

    def parse(obj, path: str):
        if type(obj) is not dict:
            raise FieldError(f"{path}: expected an object")
        word = parse_word(obj.get(tag), f"{path}.{tag}")
        return codecs[word][1]({k: v for k, v in obj.items() if k != tag}, path)

    return (lambda value: {tag: words[type(value)], **codecs[words[type(value)]][0](value)}), parse


# the decimals Fraction() reads, with an optional exponent; a weight renders
# as a terminating decimal, so p/q is refused rather than read
_DECIMAL_TEXT = (
    r"(?i)\s*(?P<sign>[-+]?)(?=\d|\.\d)(?P<whole>\d*|\d+(_\d+)*)"
    r"(?:\.(?P<fraction>\d*|\d+(_\d+)*))?(?:E(?P<exp>[-+]?\d+(_\d+)*))?\s*"
)


def _digits_value(digits: str) -> int:
    """int(digits) under any int digit cap (640 digits at least); weights
    keep digits bounded."""
    value = 0
    for start in range(0, len(digits), 640):
        chunk = digits[start:start + 640]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def _parse_weight(value, path: str) -> Fraction:
    """A weight from a string, a JSON number or a JSON integer: the same
    value, or the same error, in every spelling and under any digit cap."""
    text = value.text if type(value) is _JsonNumber else value
    if type(text) is not str:
        raise FieldError(f"{path}: weight must be a decimal number")
    match = re.fullmatch(_DECIMAL_TEXT, text)
    if match is None:
        raise FieldError(f"{path}: bad weight text {text!r}")
    whole, fraction, exponent = (
        (match[group] or "").replace("_", "") for group in ("whole", "fraction", "exp")
    )
    whole = whole.lstrip("0")
    # the length first, and int() of the digits without their leading zeros:
    # a long exponent would take quadratic time, or pass the int digit cap
    digits = exponent.lstrip("+-").lstrip("0") or "0"
    if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
        raise FieldError(f"{path}: weight's decimal exponent exceeds {MAX_EXPONENT}")
    shift = -int(digits) if exponent.startswith("-") else int(digits)
    # the digits written out in plain decimal, less the zeros that lead the
    # integer part: exact at exponent 0, else an upper bound
    if max(len(whole) + shift, 0) + max(len(fraction) - shift, 0) > MAX_DIGITS:
        raise FieldError(f"{path}: weight has more than {MAX_DIGITS} digits")
    numerator = _digits_value(whole + fraction) * 10 ** max(shift, 0)
    weight = Fraction(numerator, 10 ** (len(fraction) + max(-shift, 0)))
    return -weight if match["sign"] == "-" else weight


def _decimal_text(value: Fraction) -> str:
    decimal = planner._terminating_decimal(value)
    if decimal is None:
        raise ValueError(f"{value} has no terminating decimal form")
    digits, k = decimal
    text = str(digits).rjust(k + 1, "0")
    return f"{text[:-k]}.{text[-k:]}" if k else text


WEIGHT = (_decimal_text, _parse_weight)
