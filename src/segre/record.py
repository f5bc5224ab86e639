"""Immutable value records, the base of every report, parameter and field class.

A record is written like a frozen data class (PEP 557): annotated fields,
some with a default, and an optional ``__post_init__`` that validates them.
Its class turns the annotations into ``__slots__`` and the defaults into
``_defaults``, and ``Record`` supplies what the frozen decorator did:
positional and keyword construction, refusal of assignment and deletion,
equality within one class, a hash over the fields, the
``Name(field=value, ...)`` repr, ``replace``, and a ``__reduce__`` for
``copy``, ``deepcopy`` and ``pickle``.  The fields are read from the
``__annotations__`` dict of the class body; every module that defines
records uses ``from __future__ import annotations``, so the annotations
stay strings and are never evaluated.

It does not use the standard library's data-class module because that
costs every ``segre`` process about 30 ms before any mathematics runs
(``python -X importtime``, no bytecode cache, Python 3.11): importing it
pulls in ``inspect``, ``tokenize``, ``ast`` and ``dis``, and each decorated
class compiles its generated methods with ``exec``.  The methods here are
written once.
"""

from __future__ import annotations


class _RecordType(type):
    """Makes each annotated field a slot and moves its default, if any, to ``_defaults``.

    Only the class body's own annotations count, so a record is never
    subclassed further: the subclass would lose its parent's fields.
    """

    def __new__(mcls, name, bases, namespace):
        fields = tuple(namespace.get("__annotations__", ()))
        namespace["__slots__"] = fields
        namespace["_defaults"] = {field: namespace.pop(field) for field in fields if field in namespace}
        return super().__new__(mcls, name, bases, namespace)


class Record(metaclass=_RecordType):
    def __init__(self, *args, **kwargs):
        cls = type(self)
        names = cls.__slots__
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} arguments, got {len(args)}")
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        for name in names[len(args):]:
            if name in kwargs:
                value = kwargs.pop(name)
            elif name in cls._defaults:
                value = cls._defaults[name]
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
            object.__setattr__(self, name, value)
        if kwargs:
            raise TypeError(f"{cls.__name__}() got unexpected or repeated arguments {sorted(kwargs)}")
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validate the fields; a subclass overrides this to raise on bad values."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A copy with ``changes`` applied, validated again like a new record."""
        return type(self)(**{**dict(zip(self.__slots__, self._values())), **changes})

    def __reduce__(self):
        return type(self), self._values()
