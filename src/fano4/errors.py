"""Exception types shared across the package, and the one cross-check helper.

Everything in this library is exact integer/rational arithmetic, so any
failed integrality or cross-check is a hard bug, never a rounding artifact.

A failure of a family-level check names its family once, at the start of
the message.  Two routes that disagree read, through :func:`agree`::

    X^6_{2,4}: chi(O(-K)) disagree: closed 40, Riemann-Roch 41

and any other failed check reads ``<label>: <quantity> = <value> ...``.  The
operations that take raw numbers rather than a family keep family-free
messages.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, TypeVar

if TYPE_CHECKING:
    from .catalog import FamilyParams

T = TypeVar("T")


class ConsistencyError(RuntimeError):
    """Two independent computation paths disagreed on a value."""


class IntegrityError(ArithmeticError):
    """A quantity that must be an integer (or stay positive) failed the check."""


class ContextMismatchError(ValueError):
    """Divisor/curve classes from different families were combined."""


def agree(family: FamilyParams, quantity: str, route: str, value: T,
          other_route: str, other: object) -> T:
    """``value`` when the two routes to ``quantity`` give equal values, else
    ConsistencyError naming the family, the quantity and both routes with
    their values.  The label is built only on failure."""
    if value != other:
        raise ConsistencyError(f"{family.label}: {quantity} disagree: "
                               f"{route} {value}, {other_route} {other}")
    return value
