"""Immutable value records: the engine's kinds, terms and reports.

`record` turns an annotated class body into a `collections.namedtuple`
subclass.  It exists for import cost, which every CLI command pays as a
new process: a frozen `dataclasses.dataclass` runs `exec` on about six
generated methods when its module is imported, about 0.7 ms per class on
CPython 3.11 (plus about 8 ms to import `dataclasses` and `inspect`),
which would be most of the package's import time.  A record class costs
about 0.1 ms.  Its instances are built and hashed faster than a frozen
dataclass's; a field read is slower than a slot's (CPython 3.11 does not
specialize it), but the engine reads too few fields for that to show end
to end.

A record keeps the value semantics of a frozen dataclass:

- equality is by exact class and field values, so two records of
  different classes with the same values differ, and a record never
  equals a plain tuple;
- the hash is the hash of the tuple of its field values;
- the repr is `Name(field=value, ...)`;
- assigning or deleting an attribute raises `AttributeError`, and `<`,
  `<=`, `>` and `>=` raise `TypeError`;
- a record has no `__dict__`.

Field defaults are class attributes, as in a dataclass, and the field
list is the namedtuple's `_fields`, with each field's annotation text in
`__annotations__`.
"""

from collections import namedtuple

_tuple_eq = tuple.__eq__
_tuple_ne = tuple.__ne__


def _eq(self, other):
    if type(other) is type(self):
        return _tuple_eq(self, other)
    return False if isinstance(other, tuple) else NotImplemented


def _ne(self, other):
    if type(other) is type(self):
        return _tuple_ne(self, other)
    return True if isinstance(other, tuple) else NotImplemented


def _unordered(symbol: str):
    """An ordering method that refuses: a tuple's order is not a record's."""
    def refuse(self, other):
        if not isinstance(other, tuple):
            return NotImplemented  # so the other operand's reflected method is tried
        raise TypeError(f"'{symbol}' not supported between instances of "
                        f"{type(self).__name__!r} and {type(other).__name__!r}")
    return refuse


def _setattr(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


_METHODS = {"__slots__": (), "__eq__": _eq, "__ne__": _ne, "__hash__": tuple.__hash__,
            "__lt__": _unordered("<"), "__le__": _unordered("<="),
            "__gt__": _unordered(">"), "__ge__": _unordered(">="),
            "__setattr__": _setattr, "__delattr__": _delattr}


def record(cls):
    """The record class for an annotated class body (see the module doc)."""
    body = dict(cls.__dict__)
    names = tuple(body.get("__annotations__", {}))
    first = next((i for i, name in enumerate(names) if name in body), len(names))
    if not all(name in body for name in names[first:]):  # else a default would move
        raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
    defaults = [body.pop(name) for name in names[first:]]
    base = namedtuple(cls.__name__, names, defaults=defaults, module=cls.__module__)
    for name in ("__dict__", "__weakref__") + (() if body.get("__doc__") else ("__doc__",)):
        body.pop(name, None)  # without a docstring, the namedtuple's "Name(fields)" stays
    body.update(_METHODS)
    return type(cls.__name__, (base,), body)
