"""Exceptions, and the base of the immutable values, shared across the package."""

from __future__ import annotations

from fractions import Fraction


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


class PreconditionViolated(ValueError):
    """An argument combination outside an operation's stated domain."""


def require_indices(what: str, N: int, *indices) -> None:
    """Refuse an order N that is not an int >= 1, and then an index that is
    not an int in 0..N (a bool is neither), the grid of every per-point
    Racah and rational reference, before any series or Pochhammer is formed
    there.  Params and RacahParams check their order here, with no index."""
    if type(N) is not int or N < 1:
        raise PreconditionViolated(f"{what} order N = {N!r} must be an int >= 1")
    if not all(type(i) is int and 0 <= i <= N for i in indices):
        raise PreconditionViolated(f"{what} indices {indices} must lie in 0..{N}")


def exact(x) -> Fraction:
    """x as a Fraction, the one reading of an argument at every public entry,
    constructor and scaling factor: an int, a bool, a Fraction or a string
    such as "1/3" is read exactly, and a float raises TypeError, as its
    binary expansion is not the rational it was written as."""
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError(f"{x!r} is a float; give an exact value, such as a Fraction or a string")
    return Fraction(x)


def read_rho(rho, refusal: str | None = None) -> Fraction | None:
    """The rho of X + rho Z read through exact, or None when it is not
    given; a caller that needs rho passes its refusal, the message of the
    PreconditionViolated raised when rho is None."""
    if rho is not None:
        return exact(rho)
    if refusal is not None:
        raise PreconditionViolated(refusal)
    return None


class NondegenerateSpectrumViolated(Exception):
    """The eigenbasis oracle found no one-dimensional kernel to compare: its
    pencil is not bidiagonal, no diagonal entry or several vanish at an
    eigenvalue, or the kernel vector has no component on its anchor |n>."""


class Frozen:
    """An immutable value: the records of every module, and RationalMatrix,
    which states its own construction, equality, hash, repr and copies.

    A subclass names its fields in ``_fields`` (and in ``__slots__``,
    unless it needs a ``__dict__``); its constructor checks its arguments
    and passes the field values, in order, to Frozen.__init__.  Copies and
    pickles call the constructor again.  Equality and hash go by type and
    fields, the repr lists the fields, and assigning or deleting an
    attribute raises AttributeError.
    """

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, name, value)

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

    def __reduce__(self):
        return type(self), self._values()
