"""One type-directed JSON codec for every dataclass that crosses the wire.

A wire type is declared once, as a dataclass; nothing else lists its fields.
:func:`encode` and :func:`decode` derive the JSON form from
``dataclasses.fields()`` and the resolved type hints: the first time a class
is seen an encoder and a constructor call are generated from its fields (the
way ``dataclasses`` generates ``__init__``) and every object after that
reuses them, so a derived codec costs no more per object than a hand-written
one.

On the wire: every ``init`` field whose name has no leading underscore, under
its own name.  The conversions are written once, in :func:`_convert`: ``int``
is coerced when encoding (numpy integers are not JSON-serializable),
``float`` when decoding (JSON cannot tell ``3`` from ``3.0``), tuples and
frozensets as lists, ``T | None`` as ``null``, a nested dataclass as a nested
object.  A family of classes told apart by a tag (:class:`Tagged`) decodes
to the class its tag names.  A class that is not a dataclass but defines
``to_wire()`` and a ``from_wire(payload)`` classmethod travels as what they
produce and accept: the record table
(:class:`~repro.frameql.records.RecordTable`) is the one such type, and its
wire form is its columns — each numeric column as base64 of its
little-endian bytes, the string tables as lists — so a result's rows cost
one string per column, not one JSON number per value.  Its ``to_wire``
serves both :func:`encode` and :func:`encode_compared`, so such a type
carries no ``compare=False`` field.

Decoding is the service's check on outside input: a payload that is not an
object, carries an unknown key, lacks a field that has no default or holds a
value of the wrong shape raises :class:`~repro.errors.ConfigurationError`
naming the valid fields.  Leaves are type-checked too: an ``int`` field takes
only a JSON integer, a ``bool`` only ``true``/``false``, a ``str`` only a
string, and a ``float`` any number — a ``bool`` is never a number.  A
fixed-length tuple takes a list of exactly its length.  An absent key falls
back to the field's default.
Only a :class:`Tagged` class skips keys it does not know: those are the
protocol's own messages, which a newer peer may have extended (the index
counters joined the v1 ledger that way) — the mirror image of the default.

A leaf module (stdlib and :mod:`repro.errors`): ``metrics``, ``obs``,
``core``, ``frameql`` and ``service`` all import it.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import types
from collections.abc import Callable
from typing import Any, ClassVar, TypeVar, Union, get_args, get_origin

from repro.errors import ConfigurationError

__all__ = [
    "OMIT_NONE",
    "Tagged",
    "decode",
    "encode",
    "encode_compared",
    "expect",
    "expect_number",
    "expect_values",
]

_T = TypeVar("_T")

#: ``field(metadata=OMIT_NONE)``: the key is left off the wire while the
#: field is ``None`` (rather than sent as ``null``).
OMIT_NONE = types.MappingProxyType({"wire_omit_none": True})


class Tagged:
    """Root of a family of wire dataclasses told apart by ``wire_name``.

    The direct subclass of ``Tagged`` is the family root: it names the
    payload key that carries the tag (``wire_key``; ``None`` when the tag
    travels outside the payload, as an event's does in its envelope) and
    owns the registry.  Every class of the family must define ``wire_name``
    in its own body — a missing, inherited or already-taken tag raises
    ``TypeError`` when the class statement runs, so a wire type that cannot
    be told apart on the wire cannot be defined.  A root without a
    ``wire_name`` is abstract.
    """

    wire_key: ClassVar[str | None] = None
    wire_name: ClassVar[str | bool]
    wire_types: ClassVar[dict[str | bool, type[Any]]]

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        root = Tagged in cls.__bases__
        if root:
            cls.wire_types = {}
        if "wire_name" not in vars(cls):
            if root:
                return
            raise TypeError(
                f"{cls.__name__} must define its own wire_name: a tag inherited "
                f"from {cls.__mro__[1].__name__} would decode as that class"
            )
        taken = cls.wire_types.setdefault(cls.wire_name, cls)
        if taken is not cls:
            raise TypeError(
                f"{cls.__name__} reuses wire_name {cls.wire_name!r}, "
                f"already taken by {taken.__name__}"
            )


def expect(kind: type[_T], value: Any) -> _T:
    """``value`` if it is a JSON ``kind``, else :class:`ConfigurationError`."""
    # ``bool`` subclasses ``int``: a JSON ``true`` is not a number.
    if not isinstance(value, kind) or (kind is not bool and isinstance(value, bool)):
        raise ConfigurationError(f"expected a JSON {kind.__name__}, got {value!r}")
    return value


def expect_number(value: Any) -> float:
    """``value`` as a float if it is a JSON number (never a ``bool``)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"expected a JSON number, got {value!r}")
    return float(value)


def expect_values(value: Any, count: int) -> list[Any]:
    """``value`` if it is a JSON list of exactly ``count`` values."""
    if not isinstance(value, list) or len(value) != count:
        raise ConfigurationError(f"expected a JSON list of {count} values, got {value!r}")
    return value


#: Atomic types: the (to JSON, from JSON) expression templates of each.
_LEAVES: dict[Any, tuple[str, str]] = {
    int: ("int({})", "expect(int, {})"),
    float: ("{}", "expect_number({})"),
    str: ("{}", "expect(str, {})"),
    bool: ("{}", "expect(bool, {})"),
    Any: ("{}", "{}"),
}


def _convert(tp: Any, x: str, encoder: str | None, scope: dict[str, Any]) -> str:
    """Source of the expression that converts ``x``, the source of a ``tp`` value.

    To JSON when ``encoder`` names the function nested dataclasses go through
    (``encode`` or ``encode_compared``), back from JSON when it is ``None``.
    Types the generated code refers to are added to ``scope``.  A hint
    outside this grammar raises ``TypeError``.
    """
    if tp in _LEAVES:
        return _LEAVES[tp][encoder is None].format(x)
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, types.UnionType) and len(args) == 2 and type(None) in args:
        inner = _convert(args[args[0] is type(None)], x, encoder, scope)
        return inner if inner == x else f"(None if {x} is None else {inner})"
    if origin in (list, tuple, frozenset) and all(a in (args[0], ...) for a in args[1:]):
        if encoder:
            values = x
        elif origin is tuple and ... not in args:  # a fixed length
            values = f"expect_values({x}, {len(args)})"
        else:
            values = f"expect(list, {x})"
        item = _convert(args[0], "x", encoder, scope)
        collect = origin.__name__ if not encoder else "sorted" if origin is frozenset else "list"
        return f"{collect}({values if item == 'x' else f'[{item} for x in {values}]'})"
    if origin is dict and args[0] is str:
        items = x if encoder else f"expect(dict, {x})"
        return f"{{k: {_convert(args[1], 'x', encoder, scope)} for k, x in {items}.items()}}"
    if isinstance(tp, type) and hasattr(tp, "from_wire"):  # a type with its own JSON form
        name = f"type{len(scope)}"
        scope[name] = tp
        return f"{x}.to_wire()" if encoder else f"{name}.from_wire({x})"
    if dataclasses.is_dataclass(tp) and isinstance(tp, type):
        name = f"type{len(scope)}"
        scope[name] = tp
        if issubclass(tp, Tagged) and tp.wire_key is not None:  # the tag picks the class
            return f"{encoder}({x})" if encoder else f"decode({name}, {x})"
        scope[name] = _plan(tp)  # the class is the declared one: no dispatch per object
        return f"{name}.{encoder or 'decode'}({x})"
    raise TypeError(f"no wire conversion for a field of type {tp!r}")


@dataclasses.dataclass(frozen=True)
class _Plan:
    """What :func:`_plan` compiles for one class; the names are what `_convert` emits."""

    encode: Callable[[Any], dict[str, Any]]
    encode_compared: Callable[[Any], dict[str, Any]]
    decode: Callable[[Any], Any]


def _hint(cls: type, name: str) -> Any:
    """The resolved annotation of field ``name``, evaluated where it was written.

    Only wire fields are resolved (``typing.get_type_hints`` would also
    evaluate private fields annotated with typing-only imports).
    """
    owner = next(k for k in cls.__mro__ if name in vars(k).get("__annotations__", {}))
    hint = owner.__annotations__[name]
    if isinstance(hint, str):
        hint = eval(hint, vars(sys.modules[owner.__module__]), dict(vars(owner)))
    return hint


@functools.cache
def _plan(cls: type) -> _Plan:
    if not dataclasses.is_dataclass(cls):
        raise ConfigurationError(f"{cls.__name__} is not a wire dataclass")
    tag: dict[str, Any] = {}
    if issubclass(cls, Tagged) and cls.wire_key is not None:
        tag[cls.wire_key] = cls.wire_name
    scope: dict[str, Any] = {
        "cls": cls,
        "encode": encode,
        "encode_compared": encode_compared,
        "decode": decode,
        "expect": expect,
        "expect_number": expect_number,
        "expect_values": expect_values,
    }
    wire_fields = [
        (f, _hint(cls, f.name))
        for f in dataclasses.fields(cls)
        if f.init and not f.name.startswith("_")
    ]

    # lambda o: {"type": "exact", "kind": o.kind, "ledger": encode(o.ledger), ...}
    def encoder(nested: str, compared_only: bool) -> Any:
        items = [f"{k!r}: {v!r}" for k, v in tag.items()]
        for f, hint in wire_fields:
            if compared_only and not f.compare:
                continue
            item = f"{f.name!r}: {_convert(hint, f'o.{f.name}', nested, scope)}"
            if f.metadata.get("wire_omit_none"):
                item = f"**({{{item}}} if o.{f.name} is not None else {{}})"
            items.append(item)
        return eval(f"lambda o: {{{', '.join(items)}}}", scope)

    #: Wire form of every field default, merged under a payload that lacks keys.
    defaults: dict[str, Any] = {}
    for f, hint in wire_fields:
        default = f.default_factory() if callable(f.default_factory) else f.default
        if default is not dataclasses.MISSING:
            to_json = _convert(hint, "default", "encode", scope)
            defaults[f.name] = eval(to_json, scope, {"default": default})
    #: Every key a payload may carry: the field names plus the family's tag key.
    known = frozenset(tag) | {f.name for f, _ in wire_fields}
    # lambda p: cls(kind=p["kind"], ledger=decode(type7, p["ledger"]), ...)
    arguments = [
        f"{f.name}={_convert(hint, f'p[{f.name!r}]', None, scope)}" for f, hint in wire_fields
    ]
    build = eval(f"lambda p: cls({', '.join(arguments)})", scope)

    def decode_object(payload: Any) -> Any:
        if not isinstance(payload, dict):
            raise ConfigurationError(f"{cls.__name__} must be a JSON object, got {payload!r}")
        if payload.keys() != known:
            unknown = payload.keys() - known
            if unknown and not issubclass(cls, Tagged):
                raise ConfigurationError(
                    f"unknown {cls.__name__} fields {sorted(unknown)}; "
                    f"valid fields: {sorted(known)}"
                )
            payload = {**defaults, **payload}
        try:
            return build(payload)
        except KeyError as exc:
            raise ConfigurationError(f"{cls.__name__} needs field {exc}") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigurationError(f"malformed {cls.__name__}: {exc}") from None

    return _Plan(encoder("encode", False), encoder("encode_compared", True), decode_object)


def encode(obj: Any) -> dict[str, Any]:
    """The JSON object form of a wire dataclass instance."""
    return _plan(type(obj)).encode(obj)


def encode_compared(obj: Any) -> dict[str, Any]:
    """:func:`encode` without the ``compare=False`` fields, at every depth.

    What is left is exactly what dataclass equality looks at, which makes it
    the canonical form for byte-identity comparisons.
    """
    return _plan(type(obj)).encode_compared(obj)


def decode(cls: type[_T], payload: Any) -> _T:
    """Build a ``cls`` (or, for a keyed family, the class the tag names)."""
    target: type[Any] = cls
    if issubclass(target, Tagged) and target.wire_key is not None:
        tag = payload.get(target.wire_key) if isinstance(payload, dict) else None
        try:
            target = target.wire_types[tag]
        except (KeyError, TypeError):
            raise ConfigurationError(
                f"unknown {cls.__name__} type {tag!r} on the wire; "
                f"valid types: {sorted(target.wire_types, key=str)}"
            ) from None
    decoded: _T = _plan(target).decode(payload)
    return decoded
