"""Readers for the fields of femtoc's JSON documents: scenarios, contracts
and manifest envelopes. ``obj`` refuses any key its caller does not read.
A path names where an object lies in its document
(``setup[3].contract.regions[0]``; a scenario's own fields lie at ""), and
each error names it, or its caller's noun, and the key at fault."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Iterable

_INT = {int}
_MODES = {"r": (True, False), "w": (False, True), "rw": (True, True)}  # -> (readable, writable)


class ParseError(ValueError):
    """A document field that does not read."""


def _name(path: str, key: str) -> str:
    return f"{path} {key!r}" if path else repr(key)


def load(path: Path) -> Any:
    """The JSON document in file ``path``."""
    try:
        return json.loads(path.read_text())
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise ParseError(f"{path}: {exc}") from None


def obj(spec: Any, path: str, keys: frozenset[str]) -> dict:
    """``spec``, which must be an object whose keys all lie in ``keys``."""
    try:
        if spec.keys() <= keys:  # a C-level subset test, which builds no set
            return spec
    except AttributeError:
        raise ParseError(f"{path} must be an object, got {spec!r}") from None
    raise ParseError(f"{path}: unknown key {min(spec.keys() - keys, key=str)!r}")


def field(spec: Any, key: str, path: str, kind: type = object) -> Any:
    """The required field ``spec[key]``, which must be of type ``kind``."""
    try:
        value = spec[key]
    except (KeyError, TypeError):
        problem = f"is missing {key!r}" if isinstance(spec, dict) else f"must be an object, got {spec!r}"
        raise ParseError(f"{path} {problem}") from None
    if not isinstance(value, kind):
        raise ParseError(f"{_name(path, key)} must be a {kind.__name__}, got {value!r}")
    return value


def optional(spec: dict, key: str, path: str, kind: type, default: Any) -> Any:
    """``field`` of an object ``obj`` has read, or ``default`` when absent."""
    if key not in spec:
        return default
    value = spec[key]
    if not isinstance(value, kind):
        raise ParseError(f"{_name(path, key)} must be a {kind.__name__}, got {value!r}")
    return value


def items(spec: dict, key: str, path: str) -> list[tuple[str, Any]]:
    """(path, item) for each item of the optional list ``spec[key]``."""
    at = f"{path}.{key}" if path else key
    return [(f"{at}[{i}]", item) for i, item in enumerate(optional(spec, key, path, list, []))]


def _literal(value: Any, what: str) -> int:
    if type(value) is int:  # not isinstance: JSON true loads as a bool, an int
        return value
    if type(value) is str:
        try:
            return int(value, 0)
        except ValueError:
            pass
    raise ParseError(f"{what} must be an integer" + ("" if isinstance(value, bool) else f", got {value!r}"))


def literal(spec: dict, key: str, path: str) -> int:
    """The required field ``spec[key]`` of an object ``obj`` has read: an integer, or one in a string ("0x10")."""
    value = spec[key] if key in spec else field(spec, key, path)  # field raises
    return value if type(value) is int else _literal(value, _name(path, key))  # a plain int builds no name


def integer(spec: Any, key: str, path: str) -> int:
    """The required field ``spec[key]``: a JSON integer, not a string."""
    value = field(spec, key, path)
    if type(value) is not int:
        raise ParseError(f"{_name(path, key)} must be an integer, got {value!r}")
    return value


def literals(values: Iterable, what: str) -> list[int]:
    """``values`` as ``literal`` reads each, in a new list: plain ints in one pass."""
    values = list(values)
    return values if set(map(type, values)) <= _INT else [_literal(value, what) for value in values]


def _u32(value: Any, what: str) -> int:
    try:
        number = _literal(value, what)
    except ParseError:
        number = -1
    if not 0 <= number < 1 << 32:
        raise ParseError(f"{what} must be a u32, got {value!r}")
    return number


def u32s(values: Iterable, what: str) -> frozenset[int]:
    """``values``, integer literals from 0 to 2**32 - 1, as a set: plain ints in one pass."""
    values = list(values)  # one pass: read one by one, fleet's contract ids cost its set-up 3% more
    if set(map(type, values)) <= _INT and (not values or 0 <= min(values) and max(values) < 1 << 32):
        return frozenset(values)
    return frozenset([_u32(value, what) for value in values])


def decoded(spec: Any, key: str, path: str, decode: Callable[[str], Any], form: str) -> Any:
    """``decode`` (``bytes.fromhex``, say) of the required string field ``spec[key]``, which must be ``form``."""
    text = field(spec, key, path, str)
    try:
        return decode(text)
    except ValueError:
        raise ParseError(f"{_name(path, key)} must be {form}, got {text!r}") from None


def parse_mode(text: object) -> tuple[bool, bool]:
    """A region mode, 'r', 'w' or 'rw', as (readable, writable); anything
    else raises ValueError."""
    if isinstance(text, str) and text in _MODES:
        return _MODES[text]
    raise ValueError(f"mode must be 'r', 'w', or 'rw', got {text!r}")


def mode(spec: dict, path: str) -> tuple[bool, bool]:
    """The optional field 'mode' of an object ``obj`` has read, as by ``parse_mode``; 'r' when absent."""
    try:
        return parse_mode(spec.get("mode", "r"))
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None
