"""Frozen value records.

A record class derives from ``Record`` and lists its fields, in
constructor order, in ``__slots__``. It is built positionally or by
keyword, checks itself in ``__post_init__``, refuses assignment, compares
and hashes by its field values (never equal to a record of another
class), and prints as ``Name(field=value, ...)``. ``known_keys`` checks
a JSON object that a record is read from, and ``odd_p`` the odd p of a
(2, p) cable or torus knot.
"""

from __future__ import annotations


def known_keys(obj, keys: tuple[str, ...], what: str) -> None:
    """obj must be a JSON object with no key outside keys. An unknown key
    is an input error, not ignored: a misspelt key would read as a missing
    one and change the answer."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, got {obj!r}")
    for key in obj:
        if key not in keys:
            *rest, last = (f'"{k}"' for k in keys)
            expected = f"{', '.join(rest)} and {last}" if rest else last
            raise ValueError(f"{what} has an unknown key {key!r}; expected {expected}")


def odd_p(p) -> int:
    """p itself if it is an odd int; a float or bool is rejected, not
    truncated."""
    if type(p) is not int:
        raise ValueError(f"p must be an integer, got {p!r}")
    if p % 2 == 0:
        raise ValueError("p must be odd")
    return p


class Record:
    __slots__ = ()

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(
                f"{type(self).__name__}() takes {len(names)} arguments, got {len(args)}"
            )
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        for name in names[len(args):]:
            if name not in kwargs:
                raise TypeError(f"{type(self).__name__}() missing argument {name!r}")
            object.__setattr__(self, name, kwargs.pop(name))
        if kwargs:
            raise TypeError(
                f"{type(self).__name__}() got an unexpected or repeated argument "
                f"{next(iter(kwargs))!r}"
            )
        self.__post_init__()

    def __post_init__(self) -> None:
        pass

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, since
        # assignment is refused
        return type(self), self._values()
