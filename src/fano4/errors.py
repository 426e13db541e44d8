"""Exception types shared across the package, and the three check helpers.

Everything here is exact arithmetic, so a failed check is a hard bug, never
a rounding artifact.  Every failed family-level check goes through one
helper, which alone picks the class; its message names the family once, at
the start:

* :func:`agree` (two routes disagree) raises ``ConsistencyError``:
  ``X^6_{2,4}: chi(O(-K)) disagree: closed 40, Riemann-Roch 41``;
* :func:`integral` (not an integer) raises ``IntegrityError``:
  ``X^6_{0,1}: chi(O_Y(-K_Y)) = 99/2 is not an integer``;
* :func:`at_least` (below its bound) raises ``IntegrityError``:
  ``X^7_{1,3}: h1 = -101 < 0``.

The family is any object with a ``label``, such as a ``FamilyParams`` or a
catalogue row (``Z_<id>``); ``integral`` takes ``None`` on raw numbers, and
its message then names no family.  Each helper returns the value it checked
and builds the label, and a p/q's ``Fraction``, only on failure.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, TypeVar

from . import _EXPORTS

if TYPE_CHECKING:
    from .catalog import FamilyParams, FanoThreefold
    Labelled = FamilyParams | FanoThreefold

__all__ = _EXPORTS["errors"]

_T = TypeVar("_T")


class ConsistencyError(RuntimeError):
    """Two independent computation paths disagreed on a value."""


class IntegrityError(ArithmeticError):
    """A quantity that must be an integer (or stay positive) failed the check."""


class ContextMismatchError(ValueError):
    """Divisor/curve classes from different families were combined."""


def agree(family: Labelled, quantity: str, route: str, value: _T,
          other_route: str, other: object) -> _T:
    """``value`` when the two routes to ``quantity`` give equal values, else
    ConsistencyError naming both routes with their values."""
    if value != other:
        raise ConsistencyError(f"{family.label}: {quantity} disagree: "
                               f"{route} {value}, {other_route} {other}")
    return value


def integral(family: Labelled | None, quantity: str, numerator: int,
             denominator: int) -> int:
    """numerator/denominator when it is an integer, else IntegrityError
    showing the exact p/q."""
    quotient, remainder = divmod(numerator, denominator)
    if remainder:
        from fractions import Fraction   # a cold `fano4 list` skips its import

        where = "" if family is None else f"{family.label}: "
        raise IntegrityError(f"{where}{quantity} = "
                             f"{Fraction(numerator, denominator)} is not an integer")
    return quotient


def at_least(family: Labelled, quantity: str, value: int, bound: int) -> int:
    """``value`` when it is at least ``bound``, else IntegrityError."""
    if value < bound:
        raise IntegrityError(f"{family.label}: {quantity} = {value} < {bound}")
    return value
