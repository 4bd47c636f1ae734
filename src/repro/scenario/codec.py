"""One codec for the scenario documents: frozen dataclasses <-> JSON data.

Every scenario document — :class:`~repro.scenario.spec.ScenarioSpec`,
its sections, and :class:`~repro.scenario.result.ScenarioResult` — is a
frozen dataclass that inherits :meth:`Codec.to_dict` and
:meth:`Codec.from_dict` from here, so the format is decided once, from
each class's fields and annotations.

- ``to_dict`` emits every field: a tuple as a list, a mapping as a
  ``dict`` copy, a nested document as its dict, ``None`` as ``null``.  A
  field whose metadata is :data:`OMIT_DEFAULT` is left out while it
  holds its default, so fingerprints (hashes of this dict) taken before
  the field existed stay byte-identical.
- ``from_dict`` checks outside input before any constructor sees it:
  ``int`` is an integer and ``float`` any number (neither a bool, and
  values are never coerced, so an int stays an int), ``str`` and
  ``bool`` are exact, ``tuple[X, ...]`` is a list of ``X``, a nested
  document or a mapping is a JSON object (a mapping's contents are not
  checked), and ``X | None`` accepts ``null`` as absent.  A wrong type,
  a missing required field and an unknown key each raise
  :class:`SpecError` naming the field's dotted path, for example
  ``topology.clusters[0].machines``.

A class declares its schema tag as ``class X(Codec, schema="...")``: the
tag is emitted as a top-level ``schema`` key and checked on decode when
present.  Range and registry checks stay in each class's
``__post_init__``, which guards the Python constructor too.  A check
there that names a value inside the document raises
``SpecError(problem, path)``; decoding prefixes the document's own
path, so the message names the whole dotted path.
"""

from __future__ import annotations

import dataclasses
import functools
import types
import typing
from collections.abc import Mapping, Sequence
from typing import Any, Callable, TypeVar

__all__ = ["Codec", "OMIT_DEFAULT", "SpecError"]

_Document = TypeVar("_Document", bound="Codec")

#: Field metadata: leave the field out of ``to_dict`` while it holds its
#: default (``field(default=..., metadata=OMIT_DEFAULT)``).
OMIT_DEFAULT: Mapping[str, bool] = types.MappingProxyType(
    {"omit_default": True})


def _render(path: Sequence[str | int], problem: str, subject: str) -> str:
    where = ""
    for part in path:
        if isinstance(part, int):
            where += f"[{part}]"
        else:
            where += f".{part}" if where else part
    head = where or subject
    return f"{head} {problem}" if head else problem


class SpecError(ValueError):
    """A scenario document that does not decode; names the bad field.

    ``path`` holds the field's keys and list indexes, outermost first;
    the message names the path, or ``subject`` when it is empty.
    """

    def __init__(self, problem: str, path: Sequence[str | int] = (),
                 subject: str = "") -> None:
        super().__init__(_render(path, problem, subject))
        self.problem = problem
        self.path = tuple(path)


class _Bad(Exception):
    """A decode failure on its way out, collecting its path innermost
    first, so no path string is built unless decoding fails."""

    def __init__(self, problem: str,
                 path: Sequence[str | int] = ()) -> None:
        super().__init__(problem)
        self.problem = problem
        self.path: list[str | int] = list(reversed(path))

    def at(self, part: str | int) -> "_Bad":
        """Record the enclosing key or list index; returns self."""
        self.path.append(part)
        return self


def _typed(accept: type | tuple[type, ...],
           noun: str) -> Callable[[Any], Any]:
    """A decoder passing values of ``accept`` through unchanged; a bool
    passes only where ``accept`` is ``bool``."""
    reject = () if accept is bool else bool

    def decode(value: Any) -> Any:
        if isinstance(value, accept) and not isinstance(value, reject):
            return value
        raise _Bad(f"must be {noun}, not {type(value).__name__}")
    return decode


_SCALARS = {int: _typed(int, "an integer"),
            float: _typed((int, float), "a number"),
            str: _typed(str, "a string"),
            bool: _typed(bool, "a boolean")}
_object = _typed(Mapping, "a JSON object")
_array = _typed((list, tuple), "a JSON list")


def _or_none(code: Callable[[Any], Any]) -> Callable[[Any], Any]:
    return lambda value: None if value is None else code(value)


def _at(part: str | int, decode: Callable[[Any], Any], value: Any) -> Any:
    """``decode(value)``, recording ``part`` on the path of a failure."""
    try:
        return decode(value)
    except _Bad as bad:
        raise bad.at(part)


def _tuple_of(decode_item: Callable[[Any], Any]) -> Callable[[Any], tuple]:
    return lambda value: tuple([_at(index, decode_item, item)
                                for index, item in enumerate(_array(value))])


def _coder(tp: Any) -> tuple[Callable[[Any], Any], Callable | None]:
    """``(decode, encode)`` for one field annotation; a ``None`` encoder
    emits the value as it is."""
    args = typing.get_args(tp)
    origin = typing.get_origin(tp) or tp
    if origin is types.UnionType:
        (inner,) = (arg for arg in args if arg is not type(None))
        decode, encode = _coder(inner)
        return _or_none(decode), encode and _or_none(encode)
    if tp in _SCALARS:
        return _SCALARS[tp], None
    if origin is tuple:
        decode, encode = _coder(args[0])
        return _tuple_of(decode), (
            list if encode is None
            else lambda value: [encode(item) for item in value])
    if origin in (dict, Mapping):
        return _object, dict
    if origin is list:
        return _array, list
    if isinstance(origin, type) and issubclass(origin, Codec):
        return functools.partial(_decode, origin), origin.to_dict
    raise TypeError(f"the scenario codec has no rule for {tp!r}")


@dataclasses.dataclass(frozen=True)
class _Plan:
    """One class's codec, built from its fields once, on first use."""

    decoders: dict[str, Callable[[Any], Any]]
    required: tuple[str, ...]
    #: ``(name, encode, omit_if_default, default)`` per field.
    encoders: tuple[tuple[str, Callable | None, bool, Any], ...]


@functools.cache
def _plan(cls: type) -> _Plan:
    hints = typing.get_type_hints(cls)
    decoders = {}
    required = []
    encoders = []
    for spec_field in dataclasses.fields(cls):
        name = spec_field.name
        decoders[name], encode = _coder(hints[name])
        if (spec_field.default is dataclasses.MISSING
                and spec_field.default_factory is dataclasses.MISSING):
            required.append(name)
        encoders.append((name, encode,
                         spec_field.metadata.get("omit_default", False),
                         spec_field.default))
    return _Plan(decoders, tuple(required), tuple(encoders))


def _decode(cls: type, data: Any) -> Any:
    plan = _plan(cls)
    kwargs = {}
    for key, value in _object(data).items():
        decode = plan.decoders.get(key)
        if decode is not None:
            kwargs[key] = _at(key, decode, value)
        elif key == "schema" and cls._schema is not None:
            if value != cls._schema:
                raise _Bad(f"has unsupported scenario schema {value!r} "
                           f"(expected {cls._schema!r})")
        else:
            raise _Bad(f"is not a {cls.__name__} field; known: "
                       f"{', '.join(plan.decoders)}").at(str(key))
    for name in plan.required:
        if name not in kwargs:
            raise _Bad("is required").at(name)
    try:
        return cls(**kwargs)
    except SpecError as error:
        raise _Bad(error.problem, error.path) from None


class Codec:
    """Base of the scenario documents: the field-driven codec."""

    #: The document's schema tag, or None; set by the ``schema`` class
    #: keyword.
    _schema: str | None = None

    def __init_subclass__(cls, schema: str | None = None,
                          **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._schema = schema

    def to_dict(self) -> dict:
        """The document as JSON-ready plain data."""
        data: dict[str, Any] = ({} if self._schema is None
                                else {"schema": self._schema})
        for name, encode, omit, default in _plan(type(self)).encoders:
            value = getattr(self, name)
            if omit and value == default:
                continue
            data[name] = value if encode is None else encode(value)
        return data

    @classmethod
    def from_dict(cls: type[_Document],
                  data: Mapping[str, Any]) -> _Document:
        """Decode :meth:`to_dict` output, or a hand-written document.

        Raises :class:`SpecError` naming the field's dotted path on a
        wrong type, a missing required field or an unknown key; the
        class's own range checks raise their own ``ValueError``.
        """
        try:
            return _decode(cls, data)
        except _Bad as bad:
            raise SpecError(bad.problem, tuple(reversed(bad.path)),
                            subject=cls.__name__) from None
