"""Divisor and curve classes, the curve cone, and the nef cone of a family.

N^1(X) has rank 3.  Working basis: (phi*H, Ghat, E), where phi: X -> Z is the
conic bundle, E is the exceptional divisor of the blow-up X -> Y, and G, Ghat
are the disjoint sections (isomorphic to Z).  The remaining named divisors
are determined by

    G    = Ghat + E - a*phi*H,          Ehat = d*phi*H - E,

which encode the relations G + a*phi*H = Ghat + E and d*phi*H = E + Ehat.

The dual space N_1(X) is generated by four curve classes: the blow-up fibres
F in E and Fhat in Ehat, and curves C_G in G, C_Ghat in Ghat mapping to a
curve of minimal H-degree in Z (taken to be 1).  The divisor-curve pairing is
pinned down by E.F = Ehat.Fhat = -1, the disjointness of G, Ghat with each
other and with the opposite exceptional divisor, and the normal bundles
N_G = O_Z(-a), N_Ghat = O_Z(-(d-a)):

                 F    Fhat   C_G    C_Ghat
    phi*H        0     0      1       1
    Ghat         1     0      0      a-d
    E           -1     1      0       d

``_pairing_columns`` builds this table per call, as the tuple of its four
columns, and never caches it: no table outlives the call that reads it.

The effective curve cone NE(X) needs only three of the four generators unless
0 < a < d; the nef cone is its dual, with three or four extremal rays.
:func:`cone_data` computes -K, the NE generators, the nef rays and the -K
degrees once per family, and runs every cone check on them; each failure
names the family, and :mod:`fano4.errors` picks its class.
The class constructors check and normalise caller input, on one path each;
:func:`anticanonical`, :func:`ne_generators`, :func:`nef_rays` and
:func:`cone_data` build what they compute through ``_built``, unchecked.
The classes take no arithmetic: a caller builds them by :func:`divisor`,
:func:`curve_combo` or their constructors, and every operator raises
Python's own "unsupported operand" TypeError.

All of this data is integral, so coordinates and pairing values are Python
``int``; ``fractions`` is imported with the first scalar that is not.  Only
rational input can give a ``Fraction``, and an integral one is stored as an
``int``.  Scalars must be ``int`` or ``Fraction``: ``float`` and ``bool``
raise ``TypeError``, from the class constructors too, which also refuse a
context that is not a ``FamilyParams``.

The multi-term sums of :func:`pairing`, :func:`to_alternate_basis` and
:func:`from_alternate_basis` reduce once.  The coordinates are put over
their least common denominator (``math.lcm``), the sum runs on the integer
numerators, and the result is normalised by one ``Fraction(num, den)``,
instead of one gcd per ``Fraction`` step (Knuth, TAOCP Vol. 2, 4.5.1).
"""

from __future__ import annotations

from math import gcd, lcm
from typing import TYPE_CHECKING, Collection, Mapping, NamedTuple, NoReturn

from . import _EXPORTS
from .catalog import (FamilyParams, _ValueEnum, _checked_tuple,
                      require_admissible)
from .errors import ContextMismatchError, agree, at_least

if TYPE_CHECKING:
    from fractions import Fraction
    from types import NotImplementedType
    Rational = int | Fraction

__all__ = _EXPORTS["cones"]

# Builds a class, ray or cone data that this module computed itself, without
# its constructor's checks: each coordinate and coefficient is an int computed
# from the checked FamilyParams, and the context is that same object.
_built = tuple.__new__
_Fraction = None   # fractions.Fraction from its first use: no import per call


def _load_fraction() -> type[Fraction]:
    global _Fraction
    from fractions import Fraction as _Fraction
    return _Fraction


def _exact(value: Rational) -> Rational:
    """The canonical form of an exact scalar: an ``int``, or a ``Fraction``
    that is not an integer."""
    if type(value) is int:
        return value
    if type(value) is (_Fraction or _load_fraction()):
        return value.numerator if value.denominator == 1 else value
    raise TypeError(f"expected an int or Fraction scalar, got "
                    f"{type(value).__name__} {value!r}")


def _over_lcm(x: Rational, y: Rational,
              z: Rational) -> tuple[int, int, int, int]:
    """(X, Y, Z, L): exact scalars x, y, z as X/L, Y/L, Z/L over their least
    common denominator L."""
    den = lcm(x.denominator, y.denominator, z.denominator)
    return (x.numerator * (den // x.denominator),
            y.numerator * (den // y.denominator),
            z.numerator * (den // z.denominator), den)


def _reduced(num: int, den: int) -> Rational:
    """num/den as a canonical scalar, normalised by one Fraction."""
    return num if den == 1 else _exact((_Fraction or _load_fraction())(num, den))


class DivisorClass(_checked_tuple("DivisorClass", [
        ("coords", tuple), ("context", FamilyParams)])):
    """A divisor class, as exact coordinates over the basis (phi*H, Ghat, E).

    Each coordinate is an ``int``, or a ``Fraction`` only when it is not
    integral: the constructor, for caller input, normalises them on one path
    and refuses any other scalar, and any context but a ``FamilyParams``;
    what this module computes is built by ``_built``.  A class takes no
    arithmetic: :func:`divisor` or the constructor builds each one.
    """

    __slots__ = ()

    def __new__(cls, coords: tuple, context: FamilyParams) -> DivisorClass:
        if type(context) is not FamilyParams:
            _not_a_family(context)
        x, y, z = coords
        return tuple.__new__(cls, ((_exact(x), _exact(y), _exact(z)), context))

    # a class is a tuple, whose + and * would join or repeat it: returning
    # NotImplemented makes Python raise its own "unsupported operand"
    # TypeError, left operand first, as it does for class - x
    def _no_arithmetic(self, other: object) -> NotImplementedType:
        return NotImplemented

    __add__ = __mul__ = __rmul__ = _no_arithmetic

    # tuple + class would still join them if this returned NotImplemented
    def __radd__(self, other: object) -> NoReturn:
        raise TypeError(f"unsupported operand type(s) for +: "
                        f"'{type(other).__name__}' and '{type(self).__name__}'")


def _not_a_family(context: object) -> NoReturn:
    raise TypeError(f"context must be a FamilyParams, got "
                    f"{type(context).__name__} {context!r}")


def _same_context(a: FamilyParams, b: FamilyParams) -> None:
    if a is not b and a != b:
        raise ContextMismatchError(f"mixed family contexts {a} and {b}")


def divisor(params: FamilyParams, alpha: Rational, beta: Rational,
            gamma: Rational) -> DivisorClass:
    """alpha*phi*H + beta*Ghat + gamma*E."""
    return DivisorClass((alpha, beta, gamma), params)


def _divisor_coords(a: int, d: int) -> tuple[tuple[int, int, int], ...]:
    """Coordinates of phi*H, Ghat, E, G and Ehat over (phi*H, Ghat, E)."""
    return ((1, 0, 0), (0, 1, 0), (0, 0, 1), (-a, 1, 1), (d, 0, -1))


class CurveGen(_ValueEnum):
    F = "F"
    F_HAT = "Fhat"
    C_G = "C_G"
    C_G_HAT = "C_Ghat"


# the generators in order, each also a module global: reading a member off
# its Enum class costs a descriptor call, iterating the class more (3.11)
_CURVE_GENS = _F, _F_HAT, _C_G, _C_G_HAT = tuple(CurveGen)


class CurveClass(_checked_tuple("CurveClass", [
        ("combo", tuple), ("context", FamilyParams)])):
    """A formal non-negative combination of the four curve generators.

    The constructor takes caller input, (generator, coefficient) pairs as a
    tuple or ``dict.items()``, on one path; what this module computes is
    built by ``_built``.  It refuses a key that is no generator and a negative
    or inexact coefficient, and keeps each generator's non-zero sum, in
    generator order, as an ``int`` unless it is not integral.  The context
    must be a ``FamilyParams``.  A class takes no arithmetic:
    :func:`curve_combo` or the constructor builds each one.
    """

    __slots__ = ()

    def __new__(cls, combo: Collection, context: FamilyParams) -> CurveClass:
        if type(context) is not FamilyParams:
            _not_a_family(context)
        coefficients = {}
        for gen, c in combo:
            if gen not in _CURVE_GENS:
                raise TypeError(f"not a curve generator: {gen!r}")
            c = _exact(c)
            if c < 0:
                raise ValueError(f"negative coefficient {c} for {gen}")
            if gen in coefficients:   # a repeated generator adds up
                c = _exact(coefficients[gen] + c)
            coefficients[gen] = c
        terms = tuple([(gen, coefficients[gen]) for gen in _CURVE_GENS
                       if coefficients.get(gen)])
        return tuple.__new__(cls, (terms, context))

    @property
    def kind(self) -> CurveGen | None:
        """The single generator, if this class is one of the four (with
        coefficient 1); None for proper combinations."""
        if len(self.combo) == 1 and self.combo[0][1] == 1:
            return self.combo[0][0]
        return None

    __add__ = __mul__ = __rmul__ = DivisorClass._no_arithmetic
    __radd__ = DivisorClass.__radd__


def curve_combo(params: FamilyParams,
                combo: Mapping[CurveGen, Rational]) -> CurveClass:
    return CurveClass(combo.items(), params)


# a generator's position in the columns of _pairing_columns
_COLUMN = {gen: position for position, gen in enumerate(_CURVE_GENS)}


def _pairing_columns(a: int, d: int) -> tuple[tuple[int, int, int], ...]:
    """The columns of F, Fhat, C_G and C_Ghat over (phi*H, Ghat, E), in
    ``_CURVE_GENS`` order; ``_COLUMN`` gives a generator's position.

    Built per call and never cached: a 4-tuple costs about what a cache hit
    does, and a process-lifetime cache would count in full in the memory of
    the first pass.  Each caller gets its own immutable table.
    """
    return ((0, 1, -1), (0, 0, 1), (1, 0, 0), (1, a - d, d))


def pairing_matrix(params: FamilyParams) -> dict[CurveGen, tuple[int, int, int]]:
    """Columns of the divisor-curve pairing over the basis (phi*H, Ghat, E)."""
    return dict(zip(_CURVE_GENS, _pairing_columns(params.a, params.d)))


def pairing(D: DivisorClass, C: CurveClass) -> Rational:
    """The intersection number D . C, extended bilinearly.

    The sum runs on integer numerators: the coordinates of D over their
    least common denominator, and each coefficient of C over the running
    least common denominator of the coefficients so far.
    """
    context = D.context
    if C.context is not context:
        _same_context(context, C.context)
    columns = _pairing_columns(context.a, context.d)
    x, y, z = D.coords
    den = 1
    if not (type(x) is int and type(y) is int and type(z) is int):
        x, y, z, den = _over_lcm(x, y, z)
    total, cden = 0, 1
    for gen, c in C.combo:
        p, q, r = columns[_COLUMN[gen]]
        value = x * p + y * q + z * r
        if type(c) is int:
            total += c * cden * value
        else:
            n, m = c.numerator, c.denominator
            common = lcm(cden, m)
            total = total * (common // cden) + n * (common // m) * value
            cden = common
    den *= cden
    return total if den == 1 else _reduced(total, den)


def _alternate(a: int, d: int, coords: tuple) -> tuple:
    x, y, z = coords
    return (x + a * y + d * (z - y), y, y - z)


def to_alternate_basis(D: DivisorClass) -> tuple[Rational, Rational, Rational]:
    """Coordinates of D over the second basis (phi*H, G, Ehat).

    From alpha*phi*H + beta*Ghat + (beta+gamma)*E
       = (alpha + a*beta + d*gamma)*phi*H + beta*G - gamma*Ehat:
    a divisor (x, y, z) over (phi*H, Ghat, E) has gamma = z - y, so it reads
    (x + a*y + d*(z - y), y, y - z) over (phi*H, G, Ehat).
    """
    a, d = D.context.a, D.context.d
    X, Y, Z, den = _over_lcm(*D.coords)
    X, _, Z = _alternate(a, d, (X, Y, Z))
    return (_reduced(X, den), D.coords[1], _reduced(Z, den))


def from_alternate_basis(params: FamilyParams,
                         coords: tuple[Rational, Rational, Rational]) -> DivisorClass:
    """Inverse of :func:`to_alternate_basis`: (x, y, z) over (phi*H, G, Ehat)
    is (x - a*y + d*z, y, y - z) over (phi*H, Ghat, E)."""
    a, d = params.a, params.d
    x, y, z = map(_exact, coords)
    X, Y, Z, den = _over_lcm(x, y, z)
    return DivisorClass((_reduced(X - a * Y + d * Z, den), y,
                         _reduced(Y - Z, den)), params)


def anticanonical(params: FamilyParams) -> DivisorClass:
    """-K_X = (i-a)*phi*H + 2*Ghat + E, the tuple (i - a, 2, 1).

    Checked against i*phi*H + G + Ghat, which reads G's row of the divisor
    table, and, over the second basis, against (i+a-d, 2, 1).
    """
    require_admissible(params)
    i, a, d = params.threefold.index, params.a, params.d
    g0, g1, g2 = _divisor_coords(a, d)[3]
    antiK = agree(params, "-K expressions", "(i-a)*phi*H+2*Ghat+E",
                  (i - a, 2, 1), "i*phi*H+G+Ghat", (i + g0, g1 + 1, g2))
    agree(params, "-K coordinates over (phi*H, G, Ehat)", "converted",
          _alternate(a, d, antiK), "closed form", (i + a - d, 2, 1))
    return _built(DivisorClass, (antiK, params))


def _ne_kinds(a: int, d: int) -> tuple[CurveGen, ...]:
    if a == 0:
        return (_F, _F_HAT, _C_G_HAT)
    if a < d:
        return _CURVE_GENS
    return (_F, _F_HAT, _C_G)


def ne_generators(params: FamilyParams) -> list[CurveClass]:
    """Extremal generators of the effective curve cone NE(X).

    C_G drops out when a = 0 (G then moves in a free pencil) and C_Ghat drops
    out when a >= d.
    """
    require_admissible(params)
    out = []
    for g in _ne_kinds(params.a, params.d):   # a loop: see cone_data
        out.append(_built(CurveClass, (((g, 1),), params)))
    return out


class RayLabel(_ValueEnum):
    R1 = "R1"
    R2 = "R2"
    R3 = "R3"
    R4 = "R4"


_R1, _R2, _R3, _R4 = RayLabel   # module globals, as _F .. _C_G_HAT


class NefRay(NamedTuple):
    """An extremal ray of the nef cone.

    ``vanishing_face`` lists the NE generators the ray generator annihilates,
    in :func:`ne_generators` order, so its repr is the same in every run.
    ``contraction`` is one rule: "fibre type" for R1 (the conic bundle onto
    Z), "divisorial" otherwise.  It is wrong for R2 = G when a = 0 (10
    families), where G moves in a free pencil and maps X onto P^1.
    """

    label: RayLabel
    name: str
    generator: DivisorClass
    vanishing_face: tuple[CurveGen, ...]
    contraction: str


def nef_rays(params: FamilyParams) -> list[NefRay]:
    """Extremal rays of the nef cone: three rays, or four when 0 < a < d.

    Over (phi*H, Ghat, E): R1 = phi*H = (1, 0, 0) and R2 = a*phi*H + G =
    (0, 1, 1) always; then R3 = Ghat = (0, 1, 0) when a >= d, else
    R3 = G + Ehat = (d - a, 1, 0), and R4 = d*G + a*Ehat = (0, d, d - a)
    when 0 < a < d.  Faces are computed from the pairing of each ray with
    the NE generators of :func:`ne_generators`, read as their kinds without
    building the curve classes.  A ray that pairs negatively with a generator
    raises ``IntegrityError``.
    """
    require_admissible(params)
    a, d = params.a, params.d
    rays = [(_R1, "phi*H", (1, 0, 0)),
            (_R2, "G" if a == 0 else f"{a}*phi*H + G", (0, 1, 1))]
    if a >= d:
        rays.append((_R3, "Ghat", (0, 1, 0)))
    else:
        rays.append((_R3, "G + Ehat", (d - a, 1, 0)))
        if a > 0:
            rays.append((_R4, f"{d}*G + {a}*Ehat", (0, d, d - a)))
    columns = _pairing_columns(a, d)
    # each generator's column, looked up once per call rather than per ray;
    # a loop, as in cone_data
    kind_columns = []
    for kind in _ne_kinds(a, d):
        kind_columns.append((kind, columns[_COLUMN[kind]]))
    out = []
    for label, name, coords in rays:
        x, y, z = coords
        face = []
        for kind, (p, q, r) in kind_columns:
            value = x * p + y * q + z * r
            if value == 0:
                face.append(kind)
            elif value < 0:   # the quantity's name is built on failure only
                at_least(params, f"{name} . {kind.value}", value, 0)
        generator = _built(DivisorClass, (coords, params))
        contraction = "fibre type" if label is _R1 else "divisorial"
        out.append(_built(NefRay, (label, name, generator, tuple(face),
                                   contraction)))
    return out


#: the Fano index shared by all 28 families
_FANO_INDEX = 1


class ConeData(NamedTuple):
    """The cone data of one family, as :func:`cone_data` computes it."""

    antiK: DivisorClass
    generators: tuple[CurveClass, ...]
    rays: tuple[NefRay, ...]
    #: -K . C for each C in ``generators``
    degrees: tuple[int, ...]


def cone_data(params: FamilyParams) -> ConeData:
    """-K, the NE generators, the nef rays and the -K degrees of one family,
    each computed once, with every cone check run on them.

    Besides the checks of :func:`anticanonical` and :func:`nef_rays`, the -K
    degrees have gcd the Fano index, no value below 1 and the value 1 on F
    (the first generator), and both cones have 4 elements if 0 < a < d, else 3.
    """
    antiK = anticanonical(params)
    generators = ne_generators(params)
    rays = nef_rays(params)
    # a loop, not a comprehension: before Python 3.12 one reading a local
    # (here antiK) makes that local a cell, built on every call
    degrees = []
    for C in generators:
        degrees.append(pairing(antiK, C))
    agree(params, "-K degree gcd", "pairing", gcd(*degrees),
          "Fano index", _FANO_INDEX)
    at_least(params, "least -K degree", min(degrees), 1)
    agree(params, "-K . F", "pairing", degrees[0], "blow-up fibre", 1)
    size = 4 if 0 < params.a < params.d else 3
    agree(params, "cone sizes", "NE generators and nef rays",
          (len(generators), len(rays)), "case 0 < a < d", (size, size))
    return _built(ConeData, (antiK, tuple(generators), tuple(rays),
                             tuple(degrees)))


def is_fano(params: FamilyParams) -> bool:
    """Whether the 4-fold built from (z_id, a, d) is Fano, i.e. -K positive
    on every generator of NE(X).

    No admissibility is assumed (this predicate is half of admissibility);
    the amplitude test is checked against its arithmetic form
    a <= i - 1 and d - a <= i - 1.
    """
    i, a, d = params.threefold.index, params.a, params.d
    columns = _pairing_columns(a, d)
    ample = True
    for kind in _ne_kinds(a, d):
        # -K = (i-a)*phi*H + 2*Ghat + E on the generator's pairing column
        p, q, r = columns[_COLUMN[kind]]
        if (i - a) * p + 2 * q + r <= 0:
            ample = False
            break
    return agree(params, "Fano verdicts", "amplitude test", ample,
                 "index bounds", a <= i - 1 and d - a <= i - 1)


class FibreLike(_ValueEnum):
    """Can the 4-fold appear as the fibre of an elementary fibre-type
    contraction of a higher-dimensional variety?  The cone geometry rules it
    out whenever a != d/2; no positive criterion is available."""

    NOT_FIBRE_LIKE = "not_fibre_like"
    UNDETERMINED = "undetermined"


_NOT_FIBRE_LIKE, _UNDETERMINED = FibreLike   # module globals, as _F .. _C_G_HAT


def is_fibre_like(params: FamilyParams) -> FibreLike:
    require_admissible(params)
    if 2 * params.a != params.d:
        return _NOT_FIBRE_LIKE
    return _UNDETERMINED
