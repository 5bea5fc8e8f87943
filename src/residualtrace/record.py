"""Base of the package's immutable record types.

A record is a `__slots__` class whose `__init__`, `__eq__` and `__hash__`
are written out for its own fields.  This base makes it immutable: fields
are set once through `_set` in `__init__`, and any later assignment or
deletion raises AttributeError.  It also prints a record as
`Type(field=value, ...)` and lets copy and pickle rebuild one through its
constructor.  Records are not dataclasses, so `dataclasses.fields` and
`dataclasses.replace` do not apply to them.
"""

_set = object.__setattr__


class Record:
    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, f) for f in self.__slots__)
