"""Intersection-theoretic engine: K^4, K^2.c2 and chi(O(-K)) for the families.

Two generic operations do all the work, each taking raw intersection numbers
rather than variety objects:

* :func:`projective_bundle_invariants` -- the P^1-bundle P(E) over a smooth
  3-fold W, from K_W^3, K_W.c1(E)^2, K_W.c2(E) and K_W.c2(W);
* :func:`surface_blowup_invariants` -- the blow-up of a smooth 4-fold Y along
  a smooth surface V, from (K_Y|V)^2, K_V.K_Y|V, K_V^2, c2(N_{V/Y}), chi(O_V).

Specialised to a family (Z, a, d), which every family-level function here
takes as one ``FamilyParams``, these reproduce the closed forms of
:func:`closed_degrees`, such as

    K_X^4 = 8*delta*i*(a^2+i^2) - 3*d*delta*(a+i)^2
            + 2*d*delta*(a+i)*(d-i) + a*d^2*delta - d*delta*(d-i)^2,

which are evaluated independently and must agree.  A third route recovers
chi(O(-K)) from K^4 and K^2.c2 by Riemann-Roch.  The first two routes, and
:func:`fano4_invariants`, each give a :class:`CanonicalDegrees`.  Everything
is exact and no floats enter this module:
each chi(O(-K)) formula is one integer numerator over a fixed denominator
(6, 2 or 12) that must divide it, and ``fractions`` loads only for a p/q.  A
float or bool input raises TypeError: ``FamilyParams`` refuses one in a
triple, and the three raw-number operations (the two above and
:func:`riemann_roch_chi`) refuse one in their own input, then run a private
formula core.  The family-level functions trust the ``FamilyParams`` they
take, so :func:`p1_bundle_invariants` and :func:`fano4_invariants` call those
cores directly with the ints they compute from it; every cross-check still
runs.
"""

from typing import TYPE_CHECKING, Iterable, NamedTuple

from . import _EXPORTS
from .catalog import FamilyParams, require_admissible
from .errors import agree, at_least, integral
from .hodge import surface_h02

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = _EXPORTS["intersect"]


class BundleInput(NamedTuple):
    """Intersection numbers on a smooth 3-fold W carrying a rank-2 bundle E."""

    KW3: int        # K_W^3
    KW_c1sq: int    # K_W . c1(E)^2
    KW_c2E: int     # K_W . c2(E)
    KW_c2W: int     # K_W . c2(W)
    chi_O: int      # chi(O_{P(E)})


class BlowupCentreData(NamedTuple):
    """Intersection numbers of a smooth surface V inside a smooth 4-fold Y."""

    KYV_sq: int     # (K_Y|V)^2
    KV_KYV: int     # K_V . K_Y|V
    KV_sq: int      # K_V^2
    c2N: int        # c2(N_{V/Y})
    chi_OV: int     # chi(O_V)


class CanonicalDegrees(NamedTuple):
    """K^4, K^2.c2 and chi(O(-K)) of a smooth projective 4-fold."""

    K4: int
    K2c2: int
    chi_antiK: int


def _check_ints(what: str, values: Iterable[int]) -> None:
    """TypeError unless each value is an int (a bool would pass for 0 or 1)."""
    for v in values:  # a loop: any() would cost a generator per call
        if type(v) is not int:
            raise TypeError(f"{what}: expected ints, got {v!r}")


def projective_bundle_invariants(data: BundleInput) -> CanonicalDegrees:
    """Canonical degrees of the P^1-bundle P(E) -> W.

    (i)   K^4      = -8 K_W.c1(E)^2 + 32 K_W.c2(E) - 8 K_W^3
    (ii)  K^2.c2   = -2 K_W.c1(E)^2 +  8 K_W.c2(E) - 2 K_W^3 - 4 K_W.c2(W)
    (iii) chi(-K)  = chi(O) + 6 K_W.c2(E)
                     - (3 K_W^3 + 3 K_W.c1(E)^2)/2 - K_W.c2(W)/3
    """
    _check_ints("the bundle input", data)
    return _bundle_degrees(data)


def _bundle_degrees(data: BundleInput) -> CanonicalDegrees:
    K4 = -8 * data.KW_c1sq + 32 * data.KW_c2E - 8 * data.KW3
    K2c2 = -2 * data.KW_c1sq + 8 * data.KW_c2E - 2 * data.KW3 - 4 * data.KW_c2W
    chi6 = (6 * data.chi_O + 36 * data.KW_c2E
            - 9 * (data.KW3 + data.KW_c1sq) - 2 * data.KW_c2W)
    return CanonicalDegrees(K4, K2c2,
                            integral(None, "chi(O(-K)) of the bundle", chi6, 6))


def surface_blowup_invariants(base: CanonicalDegrees,
                              centre: BlowupCentreData) -> CanonicalDegrees:
    """Canonical degrees of the blow-up of a 4-fold along a smooth surface.

    (i)   K^4     = K_Y^4 - 3 (K_Y|V)^2 - 2 K_V.K_Y|V + c2(N) - K_V^2
    (ii)  K^2.c2  = K_Y^2.c2 - 12 chi(O_V) + 2 K_V^2 - 2 K_V.K_Y|V - 2 c2(N)
    (iii) chi(-K) = chi(O_Y(-K_Y)) - chi(O_V) - ((K_Y|V)^2 + K_V.K_Y|V)/2
    """
    _check_ints("the blow-up input", (*base, *centre))
    return _blowup_degrees(base, centre)


def _blowup_degrees(base: CanonicalDegrees,
                    centre: BlowupCentreData) -> CanonicalDegrees:
    K4 = (base.K4 - 3 * centre.KYV_sq - 2 * centre.KV_KYV
          + centre.c2N - centre.KV_sq)
    K2c2 = (base.K2c2 - 12 * centre.chi_OV + 2 * centre.KV_sq
            - 2 * centre.KV_KYV - 2 * centre.c2N)
    chi2 = (2 * (base.chi_antiK - centre.chi_OV)
            - centre.KYV_sq - centre.KV_KYV)
    return CanonicalDegrees(K4, K2c2,
                            integral(None, "chi(O(-K)) of the blow-up", chi2, 2))


def riemann_roch_chi(K4: int, K2c2: int, chi_O: int) -> "int | Fraction":
    """chi(O(-K)) on a smooth 4-fold from Riemann-Roch:
    chi(O) + (2 K^4 + K^2.c2)/12.  An ``int`` when 12 divides the numerator,
    else the exact Fraction (only then is ``fractions`` imported); callers
    assert integrality where they are entitled to it.  A float or bool
    argument raises TypeError."""
    _check_ints("K^4, K^2.c2 and chi(O)", (K4, K2c2, chi_O))
    return _riemann_roch(K4, K2c2, chi_O)


def _riemann_roch(K4: int, K2c2: int, chi_O: int) -> "int | Fraction":
    numerator = 12 * chi_O + 2 * K4 + K2c2
    quotient, remainder = divmod(numerator, 12)
    if remainder:
        from fractions import Fraction   # an integral chi skips its import
        return Fraction(numerator, 12)
    return quotient


def split_bundle_base(params: FamilyParams) -> BundleInput:
    """The :class:`BundleInput` for E = O_Z + O_Z(a): c1(E) = aH, c2(E) = 0,
    K_Z = -i*H, and K_Z.c2(Z) = -24 on any Fano 3-fold."""
    Z, a = params.threefold, params.a
    # positional: KW3, KW_c1sq, KW_c2E, KW_c2W, chi_O
    return BundleInput(-Z.minus_K3, -Z.index * a * a * Z.degree, 0, -24, 1)


def surface_centre(params: FamilyParams) -> BlowupCentreData:
    """The blow-up centre for (Z, a, d): a copy of A in |O_Z(d)| sitting on
    the section of the bundle, with normal bundle O_A(dH) + O_A(aH).

    Restricting H to A gives (H|A)^2 = d*delta, -K_Y|A = (a+i)H|A and
    K_A = (d-i)H|A, whence the five numbers below.
    """
    Z, a, d = params.threefold, params.a, params.d
    i, delta = Z.index, Z.degree
    # positional: KYV_sq, KV_KYV, KV_sq, c2N, chi_OV
    return BlowupCentreData(
        d * delta * (a + i) ** 2,
        -d * delta * (a + i) * (d - i),
        d * delta * (d - i) ** 2,
        a * d * d * delta,
        1 + surface_h02(params),
    )


def p1_bundle_invariants(params: FamilyParams) -> CanonicalDegrees:
    """Canonical degrees of Y = P(O_Z + O_Z(a)), by closed forms

        K_Y^4 = 8*delta*i*(a^2 + i^2),
        K_Y^2.c2(Y) = 2*delta*i*(a^2 + i^2) + 96,
        chi(O_Y(-K_Y)) = 9 + (3/2)*delta*i*(a^2 + i^2),

    cross-checked against :func:`projective_bundle_invariants`.  The closed
    form runs first: its integrality condition is the generic one, and its
    failure names the family.
    """
    Z, a = params.threefold, params.a
    core = Z.degree * Z.index * (a * a + Z.index**2)
    chi = integral(params, "chi(O_Y(-K_Y))", 18 + 3 * core, 2)
    closed = CanonicalDegrees(8 * core, 2 * core + 96, chi)
    return agree(params, "bundle degrees", "closed", closed, "generic",
                 _bundle_degrees(split_bundle_base(params)))


def k4_closed_terms(params: FamilyParams) -> dict[str, int]:
    """The five summands of the closed form for K_X^4, keyed by formula.

    Exposing the terms individually lets the verification suite check that
    the reference tables detect the loss of any single one.
    """
    Z, a, d = params.threefold, params.a, params.d
    i, delta = Z.index, Z.degree
    return {
        "8*delta*i*(a^2+i^2)": 8 * delta * i * (a * a + i * i),
        "-3*d*delta*(a+i)^2": -3 * d * delta * (a + i) ** 2,
        "2*d*delta*(a+i)*(d-i)": 2 * d * delta * (a + i) * (d - i),
        "a*d^2*delta": a * d * d * delta,
        "-d*delta*(d-i)^2": -d * delta * (d - i) ** 2,
    }


def closed_degrees(params: FamilyParams) -> CanonicalDegrees:
    """The closed route of :func:`fano4_invariants`: K_X^4 is the sum of
    :func:`k4_closed_terms`, and with core = delta*i*(a^2+i^2) and
    h02 = h^{0,2}(A),

        K_X^2.c2(X) = 84 + 2*core - 12*h02
                      + 2*d*delta*(d-i)*(a+d) - 2*a*d^2*delta,
        chi(O_X(-K_X)) = 8 + (3/2)*core - h02 - d*delta*(a+i)*(a-d+2i)/2.
    """
    Z, a, d = params.threefold, params.a, params.d
    i, delta = Z.index, Z.degree
    core = delta * i * (a * a + i * i)
    h02 = surface_h02(params)
    K2c2 = (84 + 2 * core - 12 * h02
            + 2 * d * delta * (d - i) * (a + d) - 2 * a * d * d * delta)
    chi2 = (16 + 3 * core - 2 * h02
            - d * delta * (a + i) * (a - d + 2 * i))
    return CanonicalDegrees(sum(k4_closed_terms(params).values()), K2c2,
                            integral(params, "chi(O_X(-K_X))", chi2, 2))


def fano4_invariants(params: FamilyParams) -> CanonicalDegrees:
    """K_X^4, K_X^2.c2(X) and chi(O_X(-K_X)) for the family (Z, a, d); on a
    Fano 4-fold Kodaira vanishing makes chi(O_X(-K_X)) = h^0(O_X(-K_X)).  An
    inadmissible family raises ValueError.

    Evaluates the closed forms and the bundle-then-blow-up pipeline and
    insists they agree; then reconstructs chi(O(-K)) from K^4 and K^2.c2 by
    Riemann-Roch as a third, independent route.
    """
    require_admissible(params)
    closed = agree(
        params, "canonical degrees", "closed", closed_degrees(params),
        "pipeline", _blowup_degrees(p1_bundle_invariants(params),
                                    surface_centre(params)))
    K4, K2c2, chi = closed
    agree(params, "chi(O(-K))", "closed", chi, "Riemann-Roch",
          _riemann_roch(K4, K2c2, 1))
    at_least(params, "K^4", K4, 1)
    at_least(params, "h^0(-K)", chi, 1)
    return closed
