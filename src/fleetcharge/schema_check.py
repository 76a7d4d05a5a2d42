"""A checker for the bundled JSON schemas.

It interprets the ``.schema.json`` files themselves, so each constraint is
written once. It supports the keywords those files use (``KEYWORDS``),
ignores the annotations in ``ANNOTATIONS``, and refuses any other keyword
when a schema is compiled. Verdicts and messages follow jsonschema's draft
2020-12 validator: ``1.0`` is an integer, ``True`` is neither a number nor
an integer, and a bound fails only when its comparison does (``v < minimum``,
``v <= exclusiveMinimum``, ...), so NaN passes every bound, as it does there.

A document with several violations reports the first in document order: a
value's own violations (in the order its schema lists the keywords) before
those inside it, and object members and array items in the order they
appear.
"""

from __future__ import annotations

import re
from numbers import Number
from typing import Any, Callable

__all__ = ["ANNOTATIONS", "KEYWORDS", "SchemaError", "compile_schema"]

KEYWORDS = frozenset({
    "type", "required", "properties", "patternProperties",
    "additionalProperties", "items", "minItems", "minLength", "minimum",
    "maximum", "exclusiveMinimum", "enum", "pattern"})
ANNOTATIONS = frozenset({"$schema", "$id", "title", "description"})

# A compiled schema returns None for a valid value, else the violation's
# path from the value (reversed, so each level appends its own key) and
# its message.
Violation = tuple[list, str]
Check = Callable[[Any], "Violation | None"]


class SchemaError(ValueError):
    """A document that breaks its schema. ``path`` holds the keys and
    indices from the document root to the offending value; ``message`` is
    jsonschema's wording for the broken keyword."""

    def __init__(self, path: tuple, message: str):
        self.path = path
        self.message = message
        where = "/".join(str(part) for part in path) or "document"
        super().__init__(f"schema violation at {where}: {message}")


def _is_number(value) -> bool:
    return isinstance(value, Number) and not isinstance(value, bool)


def _is_integer(value) -> bool:
    if isinstance(value, float):
        return value.is_integer()
    return isinstance(value, int) and not isinstance(value, bool)


_TYPES = {
    "array": lambda value: isinstance(value, list),
    "integer": _is_integer,
    "null": lambda value: value is None,
    "number": _is_number,
    "object": lambda value: isinstance(value, dict),
    "string": lambda value: isinstance(value, str),
}


def _type(names, schema):
    names = [names] if isinstance(names, str) else list(names)
    unknown = [name for name in names if name not in _TYPES]
    if unknown:
        raise ValueError(f"unsupported schema type {unknown[0]!r}")
    tests = [_TYPES[name] for name in names]
    expected = ", ".join(repr(name) for name in names)

    def check(value):
        if not any(test(value) for test in tests):
            return f"{value!r} is not of type {expected}"
    return check


def _enum(options, schema):
    if not all(isinstance(option, str) for option in options):
        raise ValueError(f"unsupported enum {options!r}: options must be strings")
    allowed = frozenset(options)

    def check(value):
        if not (isinstance(value, str) and value in allowed):
            return f"{value!r} is not one of {options!r}"
    return check


def _required(names, schema):
    def check(value):
        if isinstance(value, dict):
            for name in names:
                if name not in value:
                    return f"{name!r} is a required property"
    return check


def _no_additional(allowed, schema):
    if allowed is not False:
        return None  # True allows anything; a schema checks the members
    known = schema.get("properties", {})
    patterns = list(schema.get("patternProperties", {}))
    regexes = [re.compile(pattern) for pattern in patterns]

    def check(value):
        if not isinstance(value, dict):
            return None
        extras = [key for key in value if key not in known
                  and not any(regex.search(key) for regex in regexes)]
        if not extras:
            return None
        if patterns:
            joined = ", ".join(repr(key) for key in sorted(extras))
            verb = "does" if len(extras) == 1 else "do"
            listed = ", ".join(repr(pattern) for pattern in sorted(patterns))
            return f"{joined} {verb} not match any of the regexes: {listed}"
        joined = ", ".join(repr(key) for key in sorted(extras, key=str))
        verb = "was" if len(extras) == 1 else "were"
        return f"Additional properties are not allowed ({joined} {verb} unexpected)"
    return check


def _min_size(kind: type):
    def make(least, schema):
        def check(value):
            if isinstance(value, kind) and len(value) < least:
                return f"{value!r} {'should be non-empty' if least == 1 else 'is too short'}"
        return check
    return make


def _bound(fails, wording):
    def make(limit, schema):
        def check(value):
            if _is_number(value) and fails(value, limit):
                return f"{value!r} is {wording} {limit!r}"
        return check
    return make


def _pattern(pattern, schema):
    regex = re.compile(pattern)

    def check(value):
        if isinstance(value, str) and not regex.search(value):
            return f"{value!r} does not match {pattern!r}"
    return check


# Keywords that judge a value on its own; the rest lead into its members
# and items.
_OWN = {
    "type": _type,
    "enum": _enum,
    "required": _required,
    "additionalProperties": _no_additional,
    "minItems": _min_size(list),
    "minLength": _min_size(str),
    "minimum": _bound(lambda v, m: v < m, "less than the minimum of"),
    "maximum": _bound(lambda v, m: v > m, "greater than the maximum of"),
    "exclusiveMinimum": _bound(lambda v, m: v <= m,
                               "less than or equal to the minimum of"),
    "pattern": _pattern,
}


def _compile(schema: dict) -> Check:
    unknown = schema.keys() - KEYWORDS - ANNOTATIONS
    if unknown:
        raise ValueError(f"unsupported schema keywords: {', '.join(sorted(unknown))}")
    own = [make(schema[key], schema) for key, make in _OWN.items() if key in schema]
    own = [check for check in own if check is not None]
    properties = {name: _compile(sub) for name, sub in schema.get("properties", {}).items()}
    patterns = [(re.compile(pattern), _compile(sub))
                for pattern, sub in schema.get("patternProperties", {}).items()]
    extra = schema.get("additionalProperties")
    extra = _compile(extra) if isinstance(extra, dict) else None
    items = _compile(schema["items"]) if "items" in schema else None
    has_members = bool(properties or patterns or extra)

    def member_checks(key):
        checks = [check for regex, check in patterns if regex.search(key)]
        if key in properties:
            checks.insert(0, properties[key])
        if not checks and extra is not None:
            checks.append(extra)
        return checks

    def check(value):
        for test in own:
            message = test(value)
            if message is not None:
                return [], message
        if has_members and isinstance(value, dict):
            for key, member in value.items():
                for member_check in member_checks(key):
                    found = member_check(member)
                    if found is not None:
                        found[0].append(key)
                        return found
        elif items is not None and isinstance(value, list):
            for index, item in enumerate(value):
                found = items(item)
                if found is not None:
                    found[0].append(index)
                    return found
        return None
    return check


def compile_schema(schema: dict) -> Callable[[Any], None]:
    """A function that raises ``SchemaError`` for the first violation of
    ``schema`` in a document and returns None for a valid one."""
    first_violation = _compile(schema)

    def validate(document) -> None:
        found = first_violation(document)
        if found is not None:
            reversed_path, message = found
            raise SchemaError(tuple(reversed(reversed_path)), message)
    return validate
