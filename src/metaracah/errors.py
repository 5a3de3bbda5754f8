"""Exceptions, and the base of the immutable values, shared across the package."""

from __future__ import annotations


class DegenerateParameters(Exception):
    """Raised when a parameter choice makes a required denominator vanish.

    Carries the list of offending expressions so callers can report which
    genericity condition failed.
    """

    def __init__(self, offenders):
        if isinstance(offenders, str):
            offenders = [offenders]
        self.offenders = list(offenders)
        super().__init__("; ".join(self.offenders))


class PreconditionViolated(Exception):
    """An argument combination outside an operation's stated domain."""


class NondegenerateSpectrumViolated(Exception):
    """The eigenbasis oracle found no one-dimensional kernel to compare: its
    pencil is not bidiagonal, no diagonal entry or several vanish at an
    eigenvalue, or the kernel vector has no component on its anchor |n>."""


class Frozen:
    """An immutable value: the records of every module, and RationalMatrix.

    A subclass names its fields in ``_fields`` (and in ``__slots__``,
    unless it needs a ``__dict__``), and its constructor sets them past
    its own __setattr__, with object.__setattr__.  Equality and hash go by
    type and fields, the repr lists the fields, and assigning or deleting
    an attribute raises AttributeError.
    """

    __slots__ = ()

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # copy and pickle restore the fields here, past __setattr__; the
        # state of a __slots__ class is a (None, slots) pair
        for part in state if isinstance(state, tuple) else (state,):
            for name, value in (part or {}).items():
                object.__setattr__(self, name, value)
