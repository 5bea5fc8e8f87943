"""Base of the package's immutable record types.

A record is a `__slots__` class whose `__init__` is written out for its
own fields.  Everything else comes from this base, read through one
accessor, `_values`, the tuple of the fields named by `_fields`: the
slots, unless a record derives a field from what it stores.  A record is
immutable: fields are set once through `_set` in `__init__`, and any later
assignment or deletion raises AttributeError.  It equals only a record of
its own class with an equal field tuple, hashes as that tuple, prints as
`Type(field=value, ...)`, and copy and pickle rebuild it through its
constructor.  Records are not dataclasses, so `dataclasses.fields` and
`dataclasses.replace` do not apply to them.
"""

_set = object.__setattr__


class Record:
    __slots__ = ()

    @property
    def _fields(self) -> tuple[str, ...]:
        return self.__slots__

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()
