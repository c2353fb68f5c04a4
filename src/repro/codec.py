"""One strict JSON codec for spec dataclasses, derived from their fields.

Encoding writes fields as stored (tuples as lists, nested specs
recursed).  Decoding raises :class:`SpecError` naming the JSON path
(``tenants[0].acesses: unknown key``) on an unknown or missing key, a
wrong JSON type (bool is not a number, no string is parsed, a float is
not an int) or a wrong-length fixed tuple; an int is accepted for a
float.  Bare ``dict`` fields are opaque.  Defaults and validation stay
in the dataclass.
"""

from __future__ import annotations

import dataclasses
import functools
import types
import typing
from typing import Any, ClassVar, Mapping

__all__ = ["Spec", "SpecError"]

_JSON_NAMES = {dict: "object", list: "array", tuple: "array", str: "string",
               int: "integer", float: "number", bool: "boolean", types.NoneType: "null"}


class SpecError(ValueError):
    """A spec dict that does not match its dataclass, at JSON ``path``."""

    def __init__(self, path: str, message: str) -> None:
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


class Spec:
    """Mixin deriving ``to_dict``/``from_dict`` from the dataclass fields."""

    __slots__ = ()
    #: Leave defaulted fields that are None or an empty tuple/dict out.
    omit_empty: ClassVar[bool] = True
    #: Written as the ``"kind"`` key, and required back on decode.
    kind: ClassVar[str | None] = None

    def to_dict(self) -> dict:
        return _encode_spec(self)

    @classmethod
    def from_dict(cls, data: Mapping):
        return _decode(data, cls, "")


@functools.cache
def _fields(cls: type) -> dict[str, tuple[Any, bool]]:
    """``name -> (type hint, required)``, resolved once per class."""
    hints, missing = typing.get_type_hints(cls), dataclasses.MISSING
    return {f.name: (hints[f.name], f.default is missing and f.default_factory is missing)
            for f in dataclasses.fields(cls)}


def _encode_spec(spec: Spec) -> dict:
    cls = type(spec)
    data: dict = {} if cls.kind is None else {"kind": cls.kind}
    for name, (_, required) in _fields(cls).items():
        value = getattr(spec, name)
        empty = value is None or (isinstance(value, (tuple, dict)) and not value)
        if not (cls.omit_empty and empty and not required):
            data[name] = _encode(value)
    return data


def _encode(value):
    if isinstance(value, Spec):
        return _encode_spec(value)
    if isinstance(value, (tuple, list)):
        return [_encode(item) for item in value]
    return dict(value) if isinstance(value, dict) else value


def _decode_spec(cls: type, data: Mapping, path: str):
    if cls.kind is not None and data.get("kind") != cls.kind:
        raise SpecError(_join(path, "kind"), f"expected {cls.kind!r}, got {data.get('kind')!r}")
    fields, kwargs = _fields(cls), {}
    for key, value in data.items():
        if key in fields:
            kwargs[key] = _decode(value, fields[key][0], _join(path, key))
        elif key != "kind" or cls.kind is None:
            raise SpecError(_join(path, key), "unknown key")
    for name, (_, required) in fields.items():
        if required and name not in data:
            raise SpecError(_join(path, name), "missing required key")
    try:
        return cls(**kwargs)
    except ValueError as error:
        raise SpecError(path, str(error)) from None


def _join(path: str, key) -> str:
    return f"{path}.{key}" if path else str(key)


def _name(hint) -> str:
    """The JSON name of a type hint (a value's type names the value)."""
    return _JSON_NAMES.get(typing.get_origin(hint) or hint, "object")


def _accepts(value, hint) -> bool:
    """Does *value*'s JSON type fit *hint* (a non-union type)?"""
    origin = typing.get_origin(hint) or hint
    if dataclasses.is_dataclass(origin) or origin is dict:
        return isinstance(value, Mapping)
    if origin in (tuple, list):
        return isinstance(value, (list, tuple))
    if isinstance(value, bool):
        return origin is bool
    return isinstance(value, (int, float) if origin is float else origin)


def _decode(value, hint, path: str):
    origin = typing.get_origin(hint)
    arms = typing.get_args(hint) if origin in (typing.Union, types.UnionType) else (hint,)
    if value is None and types.NoneType in arms:
        return None
    hint = next((arm for arm in arms if arm is not types.NoneType and _accepts(value, arm)), None)
    if hint is None:
        expected = " or ".join(map(_name, arms))
        raise SpecError(path, f"expected {expected}, got {_name(type(value))}")
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if dataclasses.is_dataclass(hint):
        return _decode_spec(hint, value, path)
    if origin in (tuple, list):
        if origin is list or args[-1] is Ellipsis:
            args = (args[0],) * len(value)
        elif len(args) != len(value):
            raise SpecError(path, f"expected {len(args)} items, got {len(value)}")
        items = (_decode(v, a, f"{path}[{i}]") for i, (v, a) in enumerate(zip(value, args)))
        return origin(items)
    if hint is float:
        return float(value)
    return dict(value) if hint is dict else value
