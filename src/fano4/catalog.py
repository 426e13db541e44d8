"""The seven Fano 3-folds of Picard number 1 and index >= 2, and the
admissible family parameters built on top of them.

Every family in this package is a 4-fold obtained from a triple ``(Z, a, d)``:
take the P^1-bundle ``Y = P(O_Z + O_Z(a))`` over one of the seven 3-folds
``Z`` below, then blow up the intersection of a section with the preimage of
a smooth surface ``A`` in ``|O_Z(d)|``.  The triple is *admissible* when

    d >= 1,    a > d  or  0 <= a <= d/2,    a <= i_Z - 1,    d - a <= i_Z - 1,

where ``i_Z`` is the Fano index of ``Z``.  The first pair of conditions
normalizes away the isomorphism (a, d) ~ (d - a, d); the last pair is exactly
the condition that the resulting 4-fold is Fano.  These constraints force
``d <= 2*i_Z - 2`` and leave precisely 28 admissible triples.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from . import _EXPORTS
from .errors import agree, integral

__all__ = _EXPORTS["catalog"]


class _ValueEnum(str, Enum):
    """An enum whose members equal their string values, which ``str``,
    ``format``, json and csv all write (``enum.StrEnum`` needs 3.11)."""

    __str__ = str.__str__


def _checked_tuple(name: str, fields: list[tuple[str, type]]) -> type:
    """A ``NamedTuple`` base for a class that checks its fields in
    ``__new__``: its ``_make``, and so ``_replace``, runs that constructor."""
    base = NamedTuple(name, fields)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


class HBaseLocus(_ValueEnum):
    """Base locus of |O_Z(1)| on a catalogued 3-fold."""

    EMPTY = "empty"
    ONE_SIMPLE_POINT = "one_simple_point"


class FanoThreefold(_checked_tuple("FanoThreefold", [
        ("id", int), ("index", int), ("degree", int), ("h12", int),
        ("h0_tangent", int), ("h1_tangent", int), ("base_locus_H", HBaseLocus),
        ("rational", bool), ("description", str)])):
    """One row of the catalogue of Fano 3-folds with rho = 1 and index >= 2.

    ``degree`` is delta = H^3 for the ample generator H of Pic(Z); ``h12`` is
    the Hodge number h^{1,2}(Z); ``h0_tangent``/``h1_tangent`` are the
    dimensions of H^0 and H^1 of the tangent sheaf.  The constructor, which
    ``_make`` and ``_replace`` also run, checks the column types.  Reference
    table 1 uses these names, and ``minus_K3``.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> FanoThreefold:
        self = super().__new__(cls, *args, **kwargs)
        # the closed forms trust these columns: a float or a bool would pass
        # through them as a plausible number
        numbers = (self.id, self.index, self.degree, self.h12,
                   self.h0_tangent, self.h1_tangent)
        if any(type(v) is not int for v in numbers) or type(self.rational) is not bool:
            raise TypeError(f"mistyped catalogue row {self!r}")
        return self

    @property
    def minus_K3(self) -> int:
        """The anticanonical degree -K_Z^3 = i_Z^3 * delta."""
        return self.index**3 * self.degree

    @property
    def label(self) -> str:   # in check messages and the table-1 diff
        return f"Z_{self.id}"


_CATALOG: tuple[FanoThreefold, ...] = (
    FanoThreefold(1, 2, 1, 21, 0, 34, HBaseLocus.ONE_SIMPLE_POINT, False,
                  "sextic hypersurface in the weighted projective space P(1,1,1,2,3)"),
    FanoThreefold(2, 2, 2, 10, 0, 19, HBaseLocus.EMPTY, False,
                  "double cover of P^3 branched along a smooth quartic surface"),
    FanoThreefold(3, 2, 3, 5, 0, 10, HBaseLocus.EMPTY, False,
                  "smooth cubic hypersurface in P^4"),
    FanoThreefold(4, 2, 4, 2, 0, 3, HBaseLocus.EMPTY, True,
                  "smooth intersection of two quadrics in P^5"),
    FanoThreefold(5, 2, 5, 0, 3, 0, HBaseLocus.EMPTY, True,
                  "section of Gr(2,5) in P^9 by a linear subspace of codimension 3"),
    FanoThreefold(6, 3, 2, 0, 10, 0, HBaseLocus.EMPTY, True,
                  "smooth quadric hypersurface in P^4"),
    FanoThreefold(7, 4, 1, 0, 15, 0, HBaseLocus.EMPTY, True,
                  "P^3"),
)


def _validate_catalog() -> None:
    # report.verify_all also diffs each row, -K^3 included, with table 1
    for z in _CATALOG:
        # c2(Z).H = 24/i_Z keeps the intersection numbers of Z integral;
        # first, since an index off its row also breaks the check below
        integral(z, "24/i_Z", 24, z.index)
        # chi(T_Z) = -K_Z^3/2 - h^{1,2}(Z) - 17, from Riemann-Roch on T_Z.
        chi = integral(z, "-K_Z^3/2", z.minus_K3, 2) - z.h12 - 17
        agree(z, "chi(T_Z)", "h0(T)-h1(T)", z.h0_tangent - z.h1_tangent,
              "Riemann-Roch", chi)


_validate_catalog()


def catalog() -> list[FanoThreefold]:
    """All seven 3-folds, ordered by id."""
    return list(_CATALOG)


def threefold(z_id: int) -> FanoThreefold:
    """The catalogue row with the given id (1..7).  An id that is not
    exactly an ``int`` (a ``bool`` or ``float``, say) raises TypeError."""
    if type(z_id) is not int:
        raise TypeError(f"z_id must be an int, got {z_id!r}")
    if not 1 <= z_id <= 7:
        raise ValueError(f"z_id must be in 1..7, got {z_id}")
    return _CATALOG[z_id - 1]


class FamilyParams(_checked_tuple("FamilyParams",
                                  [("z_id", int), ("a", int), ("d", int)])):
    """A triple (z_id, a, d) naming the family X^{z_id}_{a,d}.

    The constructor rejects only a triple outside the basic domain (three
    ints with z_id in 1..7, a >= 0, d >= 1), so that non-admissible triples
    can still be talked about (e.g. to show they fail the Fano criterion).
    It stores the verdict of :func:`validate_params` as ``is_admissible``
    and the catalogue row of Z as ``threefold``, both outside the tuple, so
    equality, hashing, ordering and repr see only the triple.  Nothing can
    be assigned or deleted afterwards.
    """

    is_admissible: bool
    threefold: FanoThreefold

    def __new__(cls, z_id: int, a: int, d: int) -> FamilyParams:
        self = super().__new__(cls, z_id, a, d)
        object.__setattr__(self, "is_admissible", validate_params(z_id, a, d))
        object.__setattr__(self, "threefold", _CATALOG[z_id - 1])
        return self

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"FamilyParams is immutable: cannot set {name!r}")

    __delattr__ = __setattr__

    @property
    def label(self) -> str:
        return f"X^{self.z_id}_{{{self.a},{self.d}}}"


def validate_params(z_id: int, a: int, d: int) -> bool:
    """Whether (z_id, a, d) is an admissible triple; the package's only
    statement of the rule (guards go through :func:`require_admissible`).

    Out-of-domain input (z_id outside 1..7, a < 0, d < 1) raises ValueError,
    and a component that is not an ``int`` (a ``bool`` or ``float``, say)
    raises TypeError, rather than returning False: those triples are
    malformed, not just non-admissible.
    """
    if type(z_id) is not int or type(a) is not int or type(d) is not int:
        raise TypeError(f"(z_id, a, d) must be three ints, got {(z_id, a, d)!r}")
    i = threefold(z_id).index
    if a < 0:
        raise ValueError(f"a must be >= 0, got {a}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if not (a > d or 2 * a <= d):
        return False
    return a <= i - 1 and d - a <= i - 1


def require_admissible(params: FamilyParams) -> None:
    """The guard of every operation defined only on the 28 families:
    ValueError naming the family unless it is admissible."""
    if not params.is_admissible:
        raise ValueError(f"{params.label} is not admissible")


def _h0_twist(params: FamilyParams, k: int) -> int:
    """h^0(O_Z(k)) on the base 3-fold of ``params``, for any int k: 0 for
    k < 0, else 1 + 2k/i + (k*delta/12)(i^2 + 3ki + 2k^2) by Riemann-Roch
    plus Kodaira vanishing (1 at k = 0).  The numerator over 12i must
    divide, else IntegrityError naming the family."""
    if k < 0:
        return 0
    Z = params.threefold
    i, delta = Z.index, Z.degree
    numerator = 12 * i + 24 * k + k * delta * i * (i * i + 3 * k * i + 2 * k * k)
    return integral(params, "h^0(O_Z(k))", numerator, 12 * i)


def enumerate_families() -> list[FamilyParams]:
    """All 28 admissible triples, ordered by (z_id, a, d).

    The Fano bounds of the admissibility constraints bound the search grid
    outright, a <= i_Z - 1 and d <= a + i_Z - 1; :func:`validate_params`
    decides each triple of it.
    """
    return [p for z in _CATALOG for a in range(z.index)
            for d in range(1, a + z.index)
            if (p := FamilyParams(z.id, a, d)).is_admissible]
