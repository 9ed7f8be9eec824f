"""Record classes: ``@record`` and ``field``, the package's ``dataclasses``.

Every CLI command runs in a fresh process, so the time to build the
package's classes is paid once per command.  ``dataclasses`` spent most of
it: it ``exec``s a separate source text for each generated method (315
for the package's 57 classes), derives each undocumented class's
docstring with ``inspect.signature``, and its import loads ``inspect``,
``ast``, ``dis`` and ``tokenize``.  ``record`` compiles one source text per
class, for ``__init__``, ``__eq__`` and, when frozen, ``__hash__``, and
shares one ``__repr__`` and one frozen ``__setattr__``/``__delattr__``
among all classes.

It supports only what the package uses, with the meaning ``dataclasses``
gives it:

- fields are the class's own annotations after its record bases' fields,
  in definition order; ``ClassVar`` annotations are skipped;
- ``field(default=..., default_factory=..., init=..., repr=..., compare=...)``;
  a field with ``init=False`` and no default is left unset by ``__init__``;
- ``__init__`` calls ``__post_init__`` when the class has one;
- ``__eq__`` compares the tuples of compared fields of two instances of the
  same class, and a frozen class hashes that tuple; a non-frozen class is
  unhashable;
- a method the class body defines itself is kept, and so is the
  ``__hash__ = None`` that Python adds beside an ``__eq__`` it defines;
- no ``__slots__``, so ``functools.cached_property`` works on any record.

The generated bodies are the statements ``dataclasses`` writes (a frozen
``__init__`` calls ``object.__setattr__`` bound once per class), so
construction and comparison cost no more, and hash values are unchanged.
"""

from __future__ import annotations

__all__ = ["FrozenInstanceError", "field", "record"]

MISSING = object()
_FACTORY = object()  # the __init__ default of a parameter filled by its factory


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a frozen record."""


class Field:
    __slots__ = ("name", "default", "default_factory", "init", "repr", "compare")

    def __init__(self, default=MISSING, default_factory=MISSING, init=True, repr=True,
                 compare=True):
        self.name = None
        self.default = default
        self.default_factory = default_factory
        self.init = init
        self.repr = repr
        self.compare = compare


def field(*, default=MISSING, default_factory=MISSING, init=True, repr=True, compare=True):
    """A field with a default, a default factory, or left out of ``__init__``,
    ``__repr__`` or comparison."""
    return Field(default, default_factory, init, repr, compare)


def record(cls=None, /, *, frozen: bool = False):
    """Class decorator: ``@record`` or ``@record(frozen=True)``."""
    if cls is None:
        return lambda cls: _build(cls, frozen)
    return _build(cls, frozen)


def _is_classvar(annotation) -> bool:
    # a string under ``from __future__ import annotations``; str() of typing.ClassVar[...] else
    return str(annotation).partition("[")[0].strip() in ("ClassVar", "typing.ClassVar")


def _fields(cls) -> tuple:
    fields = {}
    for base in cls.__mro__[-1:0:-1]:
        for f in getattr(base, "__record_fields__", ()):
            fields[f.name] = f
    own = cls.__dict__
    for name, annotation in own.get("__annotations__", {}).items():
        if _is_classvar(annotation):
            continue
        default = getattr(cls, name, MISSING)
        f = default if isinstance(default, Field) else Field(default)
        f.name = name
        fields[name] = f
        if isinstance(own.get(name), Field):
            if f.default is MISSING:
                delattr(cls, name)
            else:
                setattr(cls, name, f.default)
    return tuple(fields.values())


def _tuple(obj: str, fields) -> str:
    return f"({','.join(f'{obj}.{f.name}' for f in fields)},)" if fields else "()"


def _init_lines(fields, frozen: bool, post_init: bool, names: dict) -> list:
    params, body = ["self"], []
    for f in fields:
        name, default = f.name, f"_dflt_{f.name}"
        if f.init:
            if f.default is not MISSING:
                names[default] = f.default
                params.append(f"{name}={default}")
            else:
                params.append(f"{name}=_FACTORY" if f.default_factory is not MISSING else name)
        if f.default_factory is not MISSING:
            names[default] = f.default_factory
            value = f"{default}() if {name} is _FACTORY else {name}" if f.init else f"{default}()"
        elif f.init:
            value = name
        else:
            continue  # left unset, or read from its class attribute default
        body.append(f"_object_setattr(self,{name!r},{value})" if frozen else f"self.{name}={value}")
    if post_init:
        body.append("self.__post_init__()")
    return [f"def __init__({','.join(params)}):", *(f" {line}" for line in body or ["pass"])]


def _build(cls, frozen: bool):
    own = dict(cls.__dict__)
    fields = _fields(cls)
    compared = [f for f in fields if f.compare]
    # the globals of the generated methods: their defaults, factories and helpers
    names = {"_FACTORY": _FACTORY, "_object_setattr": object.__setattr__}
    made, lines = [], []
    if "__init__" not in own:
        made.append("__init__")
        lines += _init_lines(fields, frozen, hasattr(cls, "__post_init__"), names)
    if "__eq__" not in own:
        made.append("__eq__")
        lines += ["def __eq__(self,other):",
                  " if other.__class__ is self.__class__:",
                  f"  return {_tuple('self', compared)}=={_tuple('other', compared)}",
                  " return NotImplemented"]
    if frozen and "__hash__" not in own:
        made.append("__hash__")
        lines += ["def __hash__(self):", f" return hash({_tuple('self', compared)})"]
    if made:
        exec("\n".join(lines), names)
        for name in made:
            names[name].__qualname__ = f"{cls.__qualname__}.{name}"
            setattr(cls, name, names[name])
    if not frozen and "__hash__" not in own:
        cls.__hash__ = None
    cls.__record_fields__ = fields
    cls.__record_repr__ = tuple(f.name for f in fields if f.repr)
    shared = {"__repr__": _repr}
    if frozen:
        shared.update(__setattr__=_frozen_setattr, __delattr__=_frozen_delattr)
    for name, fn in shared.items():
        if name not in own:
            setattr(cls, name, fn)
    return cls


def _repr(self) -> str:
    cls = self.__class__
    return (f"{cls.__qualname__}("
            f"{', '.join(f'{name}={getattr(self, name)!r}' for name in cls.__record_repr__)})")


def _frozen(self, name: str) -> bool:
    """Whether ``name`` is frozen on ``self``: any name on an instance of a
    frozen record, a field's name only on an instance of a plain subclass."""
    cls = type(self)
    return "__record_fields__" in cls.__dict__ or any(f.name == name
                                                      for f in cls.__record_fields__)


def _frozen_setattr(self, name: str, value) -> None:
    if _frozen(self, name):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")
    object.__setattr__(self, name, value)


def _frozen_delattr(self, name: str) -> None:
    if _frozen(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")
    object.__delattr__(self, name)
