"""Qualitative classification of a family: anticanonical base locus,
rationality, toric identifications, and tangent-sheaf cohomology.

The anticanonical system |-K_X| is free for 26 of the 28 families; only the
two families over the weighted sextic (whose |H| has one simple base point)
acquire base points, one or two of them.  Rationality reduces to rationality
of the base 3-fold since X is birational to Z x P^1.  For deformations, the
Euler characteristic chi(T_X) is a closed form in the other invariants, and
h^1(T_X) is bounded by the dimension count

    h^1(T_X) <= h^1(T_Z) + h^0(O_Z(d)) - 1,

with equality when Z has no infinitesimal automorphisms (h^0(T_Z) = 0, which
holds exactly for z_id <= 4) and with h^1(T_X) = 0 for the rigid families
over P^3 with d <= 2 (hyperplanes and quadrics in P^3 are projectively
equivalent).  Where only the bound is known
the record says so explicitly; no exact value is ever invented.
"""

from typing import NamedTuple

from . import _EXPORTS
from .catalog import (FamilyParams, HBaseLocus, _ValueEnum, _h0_twist,
                      require_admissible)
from .errors import at_least

__all__ = _EXPORTS["classify"]


class BaseLocusKind(_ValueEnum):
    """Base locus of |-K_X|, as a point count; a general member of |-K_X| is
    smooth in every family."""

    EMPTY = "empty"
    ONE_POINT = "one_point"
    TWO_POINTS = "two_points"


# the members as module globals: reading one off its Enum class costs a
# descriptor call on Python 3.11, and the record path reads them per family
_EMPTY, _ONE_POINT, _TWO_POINTS = BaseLocusKind
_H_EMPTY = HBaseLocus.EMPTY


def base_locus(params: FamilyParams) -> BaseLocusKind:
    """Base locus of |-K_X|: empty whenever |H| on Z is free, else one point
    for (a, d) = (0, 1) and two for (1, 2) (the only such Z is z_id 1)."""
    require_admissible(params)
    if params.threefold.base_locus_H is _H_EMPTY:
        return _EMPTY
    return _ONE_POINT if (params.a, params.d) == (0, 1) else _TWO_POINTS


class Rationality(_ValueEnum):
    RATIONAL = "rational"
    VERY_GENERAL_NOT_RATIONAL = "very_general_not_rational"
    UNKNOWN = "unknown"
    TORIC = "toric"


_RATIONAL, _VERY_GENERAL_NOT_RATIONAL, _UNKNOWN, _TORIC_RATIONALITY = Rationality


class ToricLabel(_ValueEnum):
    """Names of the three toric families in the standard classification of
    toric Fano 4-folds."""

    E1 = "E1"
    E2 = "E2"
    E3 = "E3"


_TORIC = {(7, 0, 1): ToricLabel.E3, (7, 2, 1): ToricLabel.E2,
          (7, 3, 1): ToricLabel.E1}


def toric_label(params: FamilyParams) -> ToricLabel | None:
    require_admissible(params)
    return _TORIC.get(params)


def rationality(params: FamilyParams) -> Rationality:
    """Rationality status of the family.

    X is birational to Z x P^1, so the families over the rational bases
    (the catalogue's ``rational`` column, z_id >= 4) are rational -- toric
    for the three families over P^3 with d = 1.  Over z_id 1 and 2 the very
    general member is not rational (the very general base is not stably
    rational); over the cubic (z_id = 3) stable rationality of the base is
    open and nothing is known.
    """
    require_admissible(params)
    if params in _TORIC:
        return _TORIC_RATIONALITY
    if params.threefold.rational:
        return _RATIONAL
    if params.z_id == 3:
        return _UNKNOWN
    return _VERY_GENERAL_NOT_RATIONAL


def h0_line_bundle(params: FamilyParams) -> int:
    """h^0(O_Z(d)) = 1 + 2d/i + (d*delta/12)(i^2 + 3di + 2d^2), for any twist
    a and any d >= 1: ``catalog._h0_twist`` at k = d, which raises
    IntegrityError unless the Riemann-Roch numerator divides by 12i; the
    result must be positive, else IntegrityError."""
    return at_least(params, "h^0(O_Z(d))", _h0_twist(params, params.d), 1)


def chi_tangent(k4: int, h0_antiK: int, h12: int, h13: int, h22: int) -> int:
    """chi(T_X) = 27 - 5*h^0(-K) + K^4 + 3*b_2 - h^{1,2} - h^{2,2} + 3*h^{1,3},
    with b_2 = rho_X = 3."""
    if not (type(k4) is int and type(h0_antiK) is int and type(h12) is int
            and type(h13) is int and type(h22) is int):
        raise TypeError("chi_tangent takes ints only")
    return 36 - 5 * h0_antiK + k4 - h12 - h22 + 3 * h13


class TangentBounds(NamedTuple):
    """chi(T_X) together with what is known of h^1(T_X), and so of h^0.

    ``h1`` is the best established upper bound for h^1(T_X), and
    ``h1_is_exact`` says whether it is attained.  ``h0`` follows from
    h^0 - h^1 = chi, so it is exact exactly when ``h1`` is.
    """

    chi: int
    h1: int
    h1_is_exact: bool

    @property
    def h0(self) -> int:
        return self.chi + self.h1


def tangent_bounds(params: FamilyParams, chi: int) -> TangentBounds:
    """h^1(T_X) as an exact value where known, else as an upper bound.

    The deformation count gives h^1(T_X) <= h^1(T_Z) + h^0(O_Z(d)) - 1.  The
    bound is attained when h^0(T_Z) = 0 (z_id <= 4); the families over P^3
    with d <= 2 are rigid, so there the sharper bound h^1 = 0 replaces it.
    h^0 = chi + h^1 is exact or a bound with it.  A negative h^0 or h^1
    raises IntegrityError.
    """
    require_admissible(params)
    if type(chi) is not int:
        raise TypeError(f"chi must be an int, got {chi!r}")
    Z = params.threefold
    h1 = Z.h1_tangent + h0_line_bundle(params) - 1
    rigid = params.z_id == 7 and params.d <= 2
    if rigid:
        h1 = 0
    bounds = TangentBounds(chi, at_least(params, "h1", h1, 0),
                           Z.h0_tangent == 0 or rigid)
    at_least(params, "h0", bounds.h0, 0)
    return bounds
