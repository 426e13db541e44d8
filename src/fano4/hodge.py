"""Hodge-number calculus for the bundle/blow-up construction.

The workhorse is the Hodge polynomial e(W)(u, v) = sum_{p,q} h^{p,q}(W) u^p v^q
of a smooth projective variety, together with its two structure formulas:

* projective bundle:  e(P(E)) = e(W) * e(P^n)  for a rank-(n+1) bundle E on W;
* blow-up:            e(W~) = e(W) + e(V) * (e(P^{c-1}) - 1)  for a smooth
  centre V of codimension c.

For a family (Z, a, d), passed as one ``FamilyParams``, the 4-fold is a
blow-up of the P^1-bundle Y over Z along a surface isomorphic to a smooth
member A of |O_Z(d)|, so its three unknown Hodge numbers have closed forms in
terms of h^{1,2}(Z) and the surface numbers h^{0,2}(A), h^{1,1}(A).  Both
routes are computed here and must agree.  h^{0,2}(A) = h^0(O_Z(d - i_Z))
is the Riemann-Roch count of ``catalog._h0_twist``, which also gives the
h^0(O_Z(d)) of the tangent bound; h^{1,1}(A) follows by Noether's formula,
and the Euler number of A by Chern classes checks the pair.

The shared factor e(Z)*e(P^1) is cached keyed on h^{1,2}(Z), the only number
of Z that e(Z) reads (``_bundle_over_threefold``), as are e(P^n) and
e(P^{c-1}) - e(P^0); no check is cached.

Raw input is checked where it enters: the ``HodgePolynomial`` constructor is
the one term check, ``projective_space``, ``bundle_formula`` and
``blowup_formula`` check their n or c, and the family-level functions trust
their ``FamilyParams``.  ``_built``, the one polynomial builder that checks
nothing, builds sums (one merge of the sorted terms), products and e(A) from
the family's own checked ints; ``_from_sums`` sorts a general product only.
Every other polynomial, and every caller's terms, goes through the
constructor.  The ``FourfoldHodge`` row is built unchecked too.
"""

from functools import lru_cache
from operator import add, itemgetter, sub
from typing import Callable, Mapping, NamedTuple, Sequence

from . import _EXPORTS
from .catalog import FamilyParams, FanoThreefold, _h0_twist
from .errors import agree, at_least

__all__ = _EXPORTS["hodge"]


# the sort key of a term: its exponent pair, which no two terms share, so
# the order is that of the whole terms, with cheaper comparisons
_exponents = itemgetter(0)
_coefficient = itemgetter(1)


class HodgePolynomial:
    """A sparse two-variable polynomial with integer coefficients.

    The terms are kept as a tuple sorted by (p, q), the most compact form;
    ``coeff`` scans it rather than building a dict.  The constructor is the
    one term check: a key must be a plain ``tuple`` of two non-negative
    ``int`` exponents and a coefficient exactly an ``int`` (a float, Fraction
    or bool raises TypeError); zero entries are dropped.  ``coeff`` and
    ``betti`` take ``int`` exponents only, as the constructor does.  + and -
    (one linear merge of the two sorted term tuples) and * (the product),
    all the structure formulas need, take only another ``HodgePolynomial``.
    ``_built``, the one builder that checks nothing, builds their results
    and e(A) (:func:`hodge_of_surface`) from the family's own checked ints;
    the constructor stays the one check of a caller's terms.  A product by
    one term, such as the blow-up factor e(P^1) - e(P^0) = uv, shifts the
    left factor's terms; only a general product sorts (``_from_sums``).
    """

    __slots__ = ("_terms",)

    def __init__(self, coeffs: Mapping[tuple[int, int], int]):
        terms = []
        for key, c in coeffs.items():
            # __class__, not type(): no call per term
            if key.__class__ is not tuple or len(key) != 2:
                raise TypeError(f"term {key!r}: {c!r} needs a (p, q) exponent pair")
            p, q = key
            if not p.__class__ is q.__class__ is c.__class__ is int:
                raise TypeError(f"term ({p!r},{q!r}): {c!r} needs int "
                                f"exponents and an int coefficient")
            if c == 0:
                continue
            if p < 0 or q < 0:
                raise ValueError(f"negative exponent in term ({p},{q})")
            terms.append((key, c))
        terms.sort(key=_exponents)
        self._terms = tuple(terms)

    def coeff(self, p: int, q: int) -> int:
        if not p.__class__ is q.__class__ is int:
            raise TypeError(f"coeff({p!r}, {q!r}) needs int exponents")
        key = (p, q)
        for pq, c in self._terms:
            if pq == key:
                return c
        return 0

    def as_dict(self) -> dict[tuple[int, int], int]:
        return dict(self._terms)

    def betti(self, k: int) -> int:
        """Sum of coefficients on the antidiagonal p + q = k."""
        if k.__class__ is not int:
            raise TypeError(f"betti({k!r}) needs an int degree")
        return sum(c for (p, q), c in self._terms if p + q == k)

    def _merged(self, other: "HodgePolynomial",
                op: Callable[[int, int], int]) -> "HodgePolynomial":
        # self op other for op = add or sub: one merge of the two sorted term
        # tuples, with no dict and no sort; a loop, not a comprehension:
        # before Python 3.12 one reading ``op`` would make it a cell
        if other.__class__ is not HodgePolynomial:
            return NotImplemented
        left, terms = self._terms, []
        i, n = 0, len(left)
        for pq, c in other._terms:
            while i < n and left[i][0] < pq:   # a key of self alone
                terms.append(left[i])
                i += 1
            if i < n and left[i][0] == pq:     # a key of both
                c = op(left[i][1], c)
                i += 1
                if c:
                    terms.append((pq, c))
            else:                              # a key of other alone
                terms.append((pq, op(0, c)))
        terms += left[i:]
        return _built(terms)

    def __add__(self, other: "HodgePolynomial") -> "HodgePolynomial":
        return self._merged(other, add)

    def __sub__(self, other: "HodgePolynomial") -> "HodgePolynomial":
        return self._merged(other, sub)

    def __mul__(self, other: "HodgePolynomial") -> "HodgePolynomial":
        if other.__class__ is not HodgePolynomial:
            return NotImplemented
        if len(other._terms) == 1:
            # c*u^p*v^q shifts every exponent by (p, q) and scales every
            # coefficient by c != 0: no dict, no sort, a loop as in _merged
            ((p2, q2), c2), = other._terms
            terms = []
            for (p1, q1), c1 in self._terms:
                terms.append(((p1 + p2, q1 + q2), c1 * c2))
            return _built(terms)
        out: dict[tuple[int, int], int] = {}
        for (p1, q1), c1 in self._terms:
            for (p2, q2), c2 in other._terms:
                pq = (p1 + p2, q1 + q2)
                out[pq] = out.get(pq, 0) + c1 * c2
        return _from_sums(out)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HodgePolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(self._terms)

    def __repr__(self) -> str:
        inner = ", ".join(f"({p},{q}): {c}" for (p, q), c in self._terms)
        return f"HodgePolynomial({{{inner}}})"


def _built(terms: Sequence[tuple[tuple[int, int], int]]) -> HodgePolynomial:
    """The polynomial on ``terms``, sorted, non-zero and checked already."""
    poly = object.__new__(HodgePolynomial)
    poly._terms = tuple(terms)
    return poly


def _from_sums(coeffs: dict[tuple[int, int], int]) -> HodgePolynomial:
    """The polynomial on the non-zero entries of ``coeffs``, sorted."""
    # filter, not a comprehension: no frame of its own per call
    return _built(sorted(filter(_coefficient, coeffs.items()), key=_exponents))


@lru_cache(maxsize=16, typed=True)
def projective_space(n: int) -> HodgePolynomial:
    """e(P^n): ones on the diagonal up to (n, n).  The polynomial is immutable,
    so each small n is built once and shared."""
    if type(n) is not int:
        raise TypeError(f"n must be an int, got {n!r}")
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return HodgePolynomial({(i, i): 1 for i in range(n + 1)})


def bundle_formula(eW: HodgePolynomial, n: int) -> HodgePolynomial:
    """Hodge polynomial of a P^n-bundle over a variety with polynomial eW."""
    if type(n) is not int:
        raise TypeError(f"n must be an int, got {n!r}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return eW * projective_space(n)


def blowup_formula(eW: HodgePolynomial, eV: HodgePolynomial, c: int) -> HodgePolynomial:
    """Hodge polynomial of the blow-up of W along a codimension-c centre V."""
    if type(c) is not int:
        raise TypeError(f"codimension must be an int, got {c!r}")
    if c < 2:
        raise ValueError(f"codimension must be >= 2, got {c}")
    return eW + eV * _exceptional_factor(c)


@lru_cache(maxsize=16)
def _exceptional_factor(c: int) -> HodgePolynomial:
    """e(P^{c-1}) - e(P^0): what a codimension-c centre adds per point."""
    return projective_space(c - 1) - projective_space(0)


def surface_h02(params: FamilyParams) -> int:
    """h^{0,2} of a smooth surface A in |O_Z(d)|, for any twist a.

    The restriction sequence gives h^2(O_A) = h^3(O_Z(-d)), which Serre
    duality (K_Z = O_Z(-i_Z)) turns into h^0(O_Z(d - i_Z)), the
    Riemann-Roch count of ``catalog._h0_twist``, for every d >= 1.
    """
    return _h0_twist(params, params.d - params.threefold.index)


def _noether_h11(params: FamilyParams, h02: int) -> int:
    """h^{1,1}(A) from h^{0,2}(A) by Noether's formula; IntegrityError
    unless it is positive."""
    Z, d = params.threefold, params.d
    return at_least(params, "h^{1,1}(A)",
                    10 + 10 * h02 - d * (d - Z.index) ** 2 * Z.degree, 1)


def hodge_of_threefold(Z: FanoThreefold) -> HodgePolynomial:
    """e(Z) for a catalogued 3-fold: diagonal ones (rho = 1 and Fano
    vanishing force h^{1,1} = 1) plus the off-diagonal h^{1,2} entries."""
    return _threefold_hodge(Z.h12)


def _threefold_hodge(h12: int) -> HodgePolynomial:
    return HodgePolynomial({
        (0, 0): 1, (1, 1): 1, (2, 2): 1, (3, 3): 1, (1, 2): h12, (2, 1): h12,
    })


@lru_cache(maxsize=16)
def _bundle_over_threefold(h12: int) -> HodgePolynomial:
    """e(Z)*e(P^1) for every 3-fold Z with h^{1,2}(Z) = h12."""
    return bundle_formula(_threefold_hodge(h12), 1)


def hodge_of_surface(params: FamilyParams) -> HodgePolynomial:
    """e(A) for a smooth surface A in |O_Z(d)|; h^{0,1}(A) = 0 (Lefschetz).

    Built by ``_built`` from two checked ints, in (p, q) order: the count
    h^{0,2}(A) >= 0, whose two terms are left out when it is 0, and
    h^{1,1}(A) >= 1, which ``_noether_h11`` checks.
    """
    h02 = surface_h02(params)
    h11 = _noether_h11(params, h02)
    if h02:
        return _built((((0, 0), 1), ((0, 2), h02), ((1, 1), h11),
                       ((2, 0), h02), ((2, 2), 1)))
    return _built((((0, 0), 1), ((1, 1), h11), ((2, 2), 1)))


class FourfoldHodge(NamedTuple):
    """The three Hodge numbers of the 4-fold not fixed by Fano vanishing."""

    h12: int
    h13: int
    h22: int


def hodge_of_fourfold(params: FamilyParams) -> FourfoldHodge:
    """Hodge numbers of the 4-fold built from (Z, a, d).

    They depend only on Z and d: the blow-up centre is a surface in
    |O_Z(d)| whichever bundle twist a is used, so ``a`` is never read.

    Computed twice -- closed forms and the polynomial calculus
    e(X) = e(Z)*e(P^1) + e(A)*(e(P^1) - 1) -- and cross-checked, on the one
    e(A) of :func:`hodge_of_surface`.  That e(A) is checked first through
    its Euler number: Noether's route gives 2 + 2h^{0,2} + h^{1,1}, and
    Chern classes give e(A) = 24d/i + d^2*delta*(d - i), from
    c(T_A) = c(T_Z)|_A / (1 + dH) and c2(Z).H = 24/i, with no h^{0,2}(A) in
    it (the catalogue checks that i divides 24).  A wrong h^{0,2}(A) moves
    both routes of the Hodge numbers alike, so only this check sees it.
    """
    Z, d = params.threefold, params.d
    eA = hodge_of_surface(params)
    h02, h11 = eA.coeff(0, 2), eA.coeff(1, 1)
    agree(params, "e(A)", "Noether", 2 + 2 * h02 + h11, "Chern classes",
          24 // Z.index * d + d * d * Z.degree * (d - Z.index))
    eX = blowup_formula(_bundle_over_threefold(Z.h12), eA, 2)
    # the three numbers of e(X) in one scan of its sorted terms, which ends
    # at (2, 2): (1, 2) < (1, 3) < (2, 2)
    h12 = h13 = h22 = 0
    for (p, q), c in eX._terms:
        if p == 1:
            if q == 2:
                h12 = c
            elif q == 3:
                h13 = c
        elif p == 2 and q == 2:
            h22 = c
            break
    # unchecked, without the constructor frame that typing.NamedTuple
    # generates: three ints that the two routes agree on, in field order
    return tuple.__new__(FourfoldHodge, agree(
        params, "Hodge numbers (h12, h13, h22)", "closed",
        (Z.h12, h02, 2 + h11), "polynomial", (h12, h13, h22)))
