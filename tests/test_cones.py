from __future__ import annotations

import os
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import fano4.cones as cones
from fano4.catalog import FamilyParams, enumerate_families
from fano4.cones import (
    ConeData,
    CurveClass,
    CurveGen,
    DivisorClass,
    FibreLike,
    NefRay,
    RayLabel,
    anticanonical,
    cone_data,
    curve_combo,
    divisor,
    from_alternate_basis,
    is_fano,
    is_fibre_like,
    ne_generators,
    nef_rays,
    pairing,
    pairing_matrix,
    to_alternate_basis,
)
from fano4.errors import ConsistencyError, ContextMismatchError, IntegrityError

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)
family_params = st.sampled_from(enumerate_families())

# the kernel tests below reach past the 28 families and past the cap of 12
# on ``rationals``: coprime denominators 7, 11 and 13 give common
# denominators up to 7*11*13 = 1001 for the coordinates alone
any_family = st.builds(FamilyParams, st.integers(1, 7), st.integers(0, 6),
                       st.integers(1, 9))
coprime = st.builds(Fraction, st.integers(-300, 300), st.sampled_from([7, 11, 13]))
scalars = st.one_of(st.integers(-40, 40), rationals, coprime)
coefficients = st.one_of(
    st.integers(0, 40), st.fractions(min_value=0, max_value=20, max_denominator=12),
    st.builds(Fraction, st.integers(0, 300), st.sampled_from([7, 11, 13])))
combos = st.dictionaries(st.sampled_from(list(CurveGen)), coefficients,
                         min_size=1, max_size=4)


def _table_column(gen, a, d):
    """A column of the pairing table in the ``cones`` docstring, over
    (phi*H, Ghat, E)."""
    return {CurveGen.F: (0, 1, -1), CurveGen.F_HAT: (0, 0, 1),
            CurveGen.C_G: (1, 0, 0), CurveGen.C_G_HAT: (1, a - d, d)}[gen]


def _canonical(value, want):
    """``value`` equals the Fraction ``want`` and is an ``int`` exactly when
    ``want`` is integral, else a ``Fraction``."""
    return value == want and type(value) is (
        int if want.denominator == 1 else Fraction)


def _combination(*terms):
    """The coordinates of the sum of k*D over the (k, D) ``terms``, each D a
    coordinate tuple over (phi*H, Ghat, E): the classes take no arithmetic,
    so the oracles below add int tuples."""
    return tuple(sum(k * D[n] for k, D in terms) for n in range(3))


def test_alternate_basis_of_anticanonical():
    for p in enumerate_families():
        i = p.threefold.index
        antiK = divisor(p, i - p.a, 2, 1)
        assert to_alternate_basis(antiK) == (i + p.a - p.d, 2, 1)


def test_alternate_basis_fixes_the_pullback():
    p = FamilyParams(6, 1, 2)
    assert to_alternate_basis(divisor(p, 1, 0, 0)) == (1, 0, 0)


def test_alternate_basis_of_ghat_plus_e():
    # Ghat + E = G + a*phi*H, here with (a, d) = (1, 2)
    p = FamilyParams(2, 1, 2)
    assert to_alternate_basis(divisor(p, 0, 1, 1)) == (1, 1, 0)


@given(family_params, rationals, rationals, rationals)
def test_alternate_basis_round_trip(p, x, y, z):
    D = divisor(p, x, y, z)
    assert from_alternate_basis(p, to_alternate_basis(D)) == D


@given(family_params, rationals, rationals, rationals)
def test_alternate_basis_preserves_pairings(p, x, y, z):
    # converting and coming back is the identity on every curve degree
    D = divisor(p, x, y, z)
    back = from_alternate_basis(p, to_alternate_basis(D))
    for gen in CurveGen:
        C = curve_combo(p, {gen: 1})
        assert pairing(D, C) == pairing(back, C)


# coprime denominators 7, 11 and 13 on both sides; then non-integral
# coordinates whose pairing is an integer, which must come back as an int
@example(FamilyParams(7, 1, 3), Fraction(1, 7), Fraction(1, 11), Fraction(-1, 13),
         {CurveGen.F: Fraction(1, 7), CurveGen.C_G_HAT: Fraction(2, 11)})
@example(FamilyParams(7, 1, 3), Fraction(1, 7), Fraction(1, 11), Fraction(-1, 13),
         {CurveGen.C_G: 7})
@given(any_family, scalars, scalars, scalars, combos)
def test_pairing_matches_plain_fraction_arithmetic(p, x, y, z, combo):
    want = sum((Fraction(c) * sum(Fraction(v) * m for v, m in zip(
                    (x, y, z), _table_column(gen, p.a, p.d)))
                for gen, c in combo.items()), Fraction(0))
    assert _canonical(pairing(divisor(p, x, y, z), curve_combo(p, combo)), want)


# int coordinates; thirds that give (1, 2/3, 0)
@example(FamilyParams(7, 1, 3), 1, -2, 5)
@example(FamilyParams(7, 1, 3), Fraction(1, 3), Fraction(2, 3), Fraction(2, 3))
@given(any_family, scalars, scalars, scalars)
def test_to_alternate_basis_matches_plain_fraction_arithmetic(p, x, y, z):
    x, y, z = Fraction(x), Fraction(y), Fraction(z)
    want = (x + p.a * y + p.d * (z - y), y, y - z)
    got = to_alternate_basis(divisor(p, x, y, z))
    assert len(got) == 3
    assert all(_canonical(g, w) for g, w in zip(got, want)), (got, want)


# int coordinates; sevenths that give (4, 3/7, -1)
@example(FamilyParams(7, 1, 3), 1, -2, 5)
@example(FamilyParams(7, 1, 3), Fraction(1, 7), Fraction(3, 7), Fraction(10, 7))
@given(any_family, scalars, scalars, scalars)
def test_from_alternate_basis_matches_plain_fraction_arithmetic(p, x, y, z):
    # raw inputs: ints, Fractions, and integral Fractions such as 14/7
    u, v, w = Fraction(x), Fraction(y), Fraction(z)
    want = (u - p.a * v + p.d * w, v, v - w)
    D = from_alternate_basis(p, (x, y, z))
    assert D.context == p
    assert all(_canonical(g, w) for g, w in zip(D.coords, want)), (D, want)


def test_anticanonical_coordinates():
    assert anticanonical(FamilyParams(7, 3, 1)).coords == (1, 2, 1)
    assert anticanonical(FamilyParams(1, 0, 1)).coords == (2, 2, 1)


def test_anticanonical_rejects_inadmissible():
    with pytest.raises(ValueError):
        anticanonical(FamilyParams(7, 4, 1))


def test_anticanonical_degree_one_on_blowup_fibres():
    for p in enumerate_families():
        antiK = anticanonical(p)
        assert pairing(antiK, curve_combo(p, {CurveGen.F: 1})) == 1
        assert pairing(antiK, curve_combo(p, {CurveGen.F_HAT: 1})) == 1


def test_pairing_exceptional_on_its_fibre():
    p = FamilyParams(7, 1, 2)
    # Ehat = d*phi*H - E
    E, Ehat = divisor(p, 0, 0, 1), divisor(p, p.d, 0, -1)
    assert pairing(E, curve_combo(p, {CurveGen.F: 1})) == -1
    assert pairing(Ehat, curve_combo(p, {CurveGen.F_HAT: 1})) == -1


def test_pairing_ghat_against_its_curve():
    for p in enumerate_families():
        # G = Ghat + E - a*phi*H
        Ghat, G = divisor(p, 0, 1, 0), divisor(p, -p.a, 1, 1)
        C_Ghat = curve_combo(p, {CurveGen.C_G_HAT: 1})
        assert pairing(Ghat, C_Ghat) == p.a - p.d
        assert pairing(G, curve_combo(p, {CurveGen.C_G: 1})) == -p.a


def test_pairing_disjoint_divisors():
    for p in enumerate_families():
        # G = Ghat + E - a*phi*H
        Ghat, G = divisor(p, 0, 1, 0), divisor(p, -p.a, 1, 1)
        assert pairing(G, curve_combo(p, {CurveGen.C_G_HAT: 1})) == 0
        assert pairing(Ghat, curve_combo(p, {CurveGen.C_G: 1})) == 0
        assert pairing(G, curve_combo(p, {CurveGen.F: 1})) == 0
        assert pairing(Ghat, curve_combo(p, {CurveGen.F_HAT: 1})) == 0


def test_anticanonical_degrees_on_section_curves():
    for p in enumerate_families():
        i = p.threefold.index
        antiK = anticanonical(p)
        C_G = curve_combo(p, {CurveGen.C_G: 1})
        C_Ghat = curve_combo(p, {CurveGen.C_G_HAT: 1})
        assert pairing(antiK, C_G) == i - p.a >= 1
        assert pairing(antiK, C_Ghat) == i + p.a - p.d >= 1


def test_pairing_is_bilinear():
    p = FamilyParams(6, 2, 4)
    C = curve_combo(p, {CurveGen.F: Fraction(1, 2), CurveGen.C_G: 3})
    D = divisor(p, 1, 1, 0)
    expected = (Fraction(1, 2) * pairing(D, curve_combo(p, {CurveGen.F: 1}))
                + 3 * pairing(D, curve_combo(p, {CurveGen.C_G: 1})))
    assert pairing(D, C) == expected


def test_pairing_context_mismatch():
    with pytest.raises(ContextMismatchError):
        pairing(divisor(FamilyParams(7, 0, 1), 1, 0, 0),
                curve_combo(FamilyParams(7, 0, 2), {CurveGen.F: 1}))
    # the same (a, d) over another base: the whole context must match
    with pytest.raises(ContextMismatchError):
        pairing(divisor(FamilyParams(7, 0, 1), 1, 0, 0),
                curve_combo(FamilyParams(6, 0, 1), {CurveGen.F: 1}))


def test_curve_class_kind_is_none_off_a_single_generator():
    p = FamilyParams(7, 1, 2)
    assert curve_combo(p, {CurveGen.F: 1, CurveGen.C_G: 1}).kind is None
    assert curve_combo(p, {CurveGen.F: 2}).kind is None
    assert curve_combo(p, {CurveGen.F: 1}).kind is CurveGen.F


def test_curve_combo_rejects_negative_coefficients():
    p = FamilyParams(7, 0, 1)
    with pytest.raises(ValueError):
        curve_combo(p, {CurveGen.F: -1})
    # a key that is no generator would otherwise be dropped without a word
    with pytest.raises(TypeError, match="'bogus'"):
        curve_combo(p, {"bogus": 5})
    with pytest.raises(TypeError, match="generator: 3$"):
        curve_combo(p, {CurveGen.F: 1, 3: 2})
    # a generator's value is the generator, as the enum is a str enum
    assert curve_combo(p, {"F": 1}) == curve_combo(p, {CurveGen.F: 1})


def test_float_and_bool_scalars_are_rejected():
    p = FamilyParams(7, 0, 1)
    with pytest.raises(TypeError):
        divisor(p, 0.5, 0, 0)
    with pytest.raises(TypeError):
        divisor(p, 0, True, 0)
    with pytest.raises(TypeError):
        curve_combo(p, {CurveGen.F: 0.5})
    with pytest.raises(TypeError):
        curve_combo(p, {CurveGen.F: True})
    with pytest.raises(TypeError):
        from_alternate_basis(p, (0.5, 0, 0))
    # the constructors themselves, and _make and _replace through them,
    # refuse what divisor() and curve_combo() refuse
    D = divisor(p, Fraction(1, 2), 0, 0)
    C = curve_combo(p, {CurveGen.F: 1})
    for build in (lambda: cones.DivisorClass((0.5, Fraction(1, 2), 0), p),
                  lambda: cones.DivisorClass._make(((0, 0, 0.5), p)),
                  lambda: D._replace(coords=(0, 0.5, 0)),
                  lambda: cones.CurveClass(((CurveGen.F, 0.5),), p),
                  lambda: cones.CurveClass._make((((CurveGen.F, 0.5),), p)),
                  lambda: C._replace(combo=((CurveGen.F, 0.5),))):
        with pytest.raises(TypeError, match="got float 0.5"):
            build()
    with pytest.raises(TypeError, match="got bool True"):
        cones.DivisorClass((True, 0, 0), p)
    with pytest.raises(TypeError, match="got bool True"):
        cones.CurveClass(((CurveGen.F, True),), p)


def test_class_constructors_check_and_normalise():
    p = FamilyParams(7, 0, 1)
    half = Fraction(1, 2)
    D = cones.DivisorClass((Fraction(2, 1), half, 0), p)
    assert D.coords == (2, half, 0) and type(D.coords[0]) is int
    assert D == divisor(p, 2, half, 0)
    assert type(cones.DivisorClass([1, 2, 3], p).coords) is tuple
    with pytest.raises(ValueError):
        cones.DivisorClass((1, 2), p)
    C = cones.CurveClass(((CurveGen.C_G, Fraction(4, 2)), (CurveGen.F, half),
                          (CurveGen.F_HAT, 0)), p)
    assert C.combo == ((CurveGen.F, half), (CurveGen.C_G, 2))
    assert type(C.combo[1][1]) is int
    assert C == curve_combo(p, {CurveGen.C_G: 2, CurveGen.F: half})
    assert C._replace(context=FamilyParams(7, 1, 2)).combo == C.combo
    with pytest.raises(TypeError, match="generator: 'bogus'"):
        cones.CurveClass((("bogus", 1),), p)
    # a repeated generator adds up
    F = cones.CurveClass(((CurveGen.F, half), (CurveGen.F, half)), p)
    assert F == curve_combo(p, {CurveGen.F: 1}) and type(F.combo[0][1]) is int
    with pytest.raises(ValueError, match="negative"):
        cones.CurveClass(((CurveGen.F, -half),), p)


def test_divisor_class_refuses_a_context_that_is_no_family():
    # a plain triple equals the FamilyParams it copies, so it would pass the
    # context comparison of pairing and fail only inside it
    with pytest.raises(TypeError, match="context must be a FamilyParams, "
                                        "got tuple"):
        cones.DivisorClass((1, 0, 0), (7, 0, 1))
    with pytest.raises(TypeError, match="FamilyParams"):
        divisor(FamilyParams(7, 0, 1), 1, 0, 0)._replace(context=(7, 0, 1))


def test_curve_class_refuses_a_context_that_is_no_family():
    # the one-generator fast path and the general path both check it
    for combo in (((CurveGen.F, 1),), ((CurveGen.F, 1), (CurveGen.C_G, 2))):
        with pytest.raises(TypeError, match="context must be a FamilyParams, "
                                            "got tuple"):
            cones.CurveClass(combo, (7, 0, 1))


def test_classes_take_no_arithmetic():
    # a class is a tuple underneath: class * int must not repeat it, and
    # tuple + class or class + class must not join them; tuple * class is
    # tuple's own repeat, which refuses a count that is no int.  A float or
    # bool scalar is refused as every other operand is
    p = FamilyParams(7, 1, 2)
    D, C = divisor(p, 1, 0, 0), curve_combo(p, {CurveGen.F: 1})
    for cls in (D, C):
        for other in (2, 2.0, True, Fraction(1, 2), (), (1, 0, 0), D, C):
            for operation in (lambda: cls + other, lambda: other + cls,
                              lambda: cls - other, lambda: other - cls,
                              lambda: cls * other, lambda: other * cls):
                with pytest.raises(TypeError, match="^unsupported operand|"
                                   "^can't multiply sequence by non-int"):
                    operation()


#: each refused operation, with the operator and operand types it must name
_REFUSED = {
    "5 + D": "+: 'int' and 'DivisorClass'",
    "(1, 2, 3) + D": "+: 'tuple' and 'DivisorClass'",
    "D + C": "+: 'DivisorClass' and 'CurveClass'",
    "C + D": "+: 'CurveClass' and 'DivisorClass'",
    "D * 2": "*: 'DivisorClass' and 'int'",
    "C * 2": "*: 'CurveClass' and 'int'",
    "D - C": "-: 'DivisorClass' and 'CurveClass'",
    "D + D": "+: 'DivisorClass' and 'DivisorClass'",
    "D - D": "-: 'DivisorClass' and 'DivisorClass'",
    "2 * D": "*: 'int' and 'DivisorClass'",
    "Fraction(1, 2) * C": "*: 'Fraction' and 'CurveClass'",
    "C + C": "+: 'CurveClass' and 'CurveClass'",
    "(1, 2, 3) + C": "+: 'tuple' and 'CurveClass'",
}


@pytest.mark.parametrize("expression", _REFUSED)
def test_a_refused_operation_names_its_operands_left_first(expression):
    # Python's own wording, which D - C gets from Python itself
    p = FamilyParams(7, 1, 2)
    names = {"D": divisor(p, 1, 0, 0), "C": curve_combo(p, {CurveGen.F: 1}),
             "Fraction": Fraction}
    with pytest.raises(TypeError) as exc:
        eval(expression, names)
    assert str(exc.value) == \
        f"unsupported operand type(s) for {_REFUSED[expression]}"


@pytest.mark.parametrize("name", ["coords", "context", "other"])
def test_divisor_classes_are_immutable(name):
    D = divisor(FamilyParams(7, 1, 2), 1, 0, 0)
    with pytest.raises(AttributeError):
        setattr(D, name, (0, 0, 0))
    assert D.coords == (1, 0, 0)


def test_cone_data_of_every_family_is_plain_int():
    # the 28 families live in the integer lattice; a Fraction here means the
    # cone layer has slid back to rational arithmetic
    for p in enumerate_families():
        for ray in nef_rays(p):
            assert all(type(x) is int for x in ray.generator.coords), ray
        antiK = anticanonical(p)
        assert all(type(x) is int for x in antiK.coords)
        assert all(type(x) is int for x in to_alternate_basis(antiK))
        for C in ne_generators(p):
            assert all(type(c) is int for _, c in C.combo)
            assert type(pairing(antiK, C)) is int


def test_rational_input_keeps_exact_fractions():
    p = FamilyParams(6, 2, 4)
    half = curve_combo(p, {CurveGen.F: Fraction(1, 2)})
    # phi*H + Ghat
    value = pairing(divisor(p, *_combination((1, (1, 0, 0)), (1, (0, 1, 0)))),
                    half)
    assert type(value) is Fraction and value == Fraction(1, 2)
    assert divisor(p, Fraction(1, 3), 0, 0).coords[0] == Fraction(1, 3)
    # integral Fractions are stored as int, given or computed by the caller
    D = divisor(p, Fraction(4, 2), Fraction(1, 2), 0)
    assert type(D.coords[0]) is int and D.coords[0] == 2
    twice = divisor(p, *_combination((2, D.coords)))
    assert [type(x) for x in twice.coords] == [int, int, int]
    twice_F = curve_combo(p, {CurveGen.F: 2})
    assert pairing(D, twice_F) == 1 and type(pairing(D, twice_F)) is int
    twice_half = curve_combo(p, {g: 2 * c for g, c in half.combo})
    assert dict(twice_half.combo) == {CurveGen.F: 1}
    assert twice_half.kind is CurveGen.F


def test_pairing_matrix_returns_a_fresh_copy():
    p = FamilyParams(6, 1, 2)
    matrix = pairing_matrix(p)
    matrix[CurveGen.F] = (9, 9, 9)
    assert pairing_matrix(p)[CurveGen.F] == (0, 1, -1)
    assert pairing(divisor(p, 0, 1, 0), curve_combo(p, {CurveGen.F: 1})) == 1


def test_relation_class_is_numerically_trivial():
    # d*phi*H - E - Ehat is the zero class, so it pairs to 0 with everything;
    # Ehat is the last row of the divisor table, whose G row anticanonical
    # reads
    for p in enumerate_families():
        Ehat = cones._divisor_coords(p.a, p.d)[4]
        D = divisor(p, *_combination((p.d, (1, 0, 0)), (-1, (0, 0, 1)),
                                     (-1, Ehat)))
        assert D.coords == (0, 0, 0)
        for gen in CurveGen:
            assert pairing(D, curve_combo(p, {gen: 1})) == 0


def test_named_divisor_relations():
    # the divisor table, whose G row anticanonical reads, holds the basis,
    # then G and Ehat with G + a*phi*H = Ghat + E and d*phi*H = E + Ehat
    for p in enumerate_families():
        H, Ghat, E, G, Ehat = cones._divisor_coords(p.a, p.d)
        assert (H, Ghat, E) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        assert _combination((1, G), (p.a, H)) == _combination((1, Ghat), (1, E))
        assert _combination((1, Ghat), (p.d - p.a, H)) == \
            _combination((1, G), (1, Ehat))
        assert _combination((p.d, H)) == _combination((1, E), (1, Ehat))


def test_each_printed_ray_name_evaluates_to_its_ray():
    # each term of a name is an optional "k*" and one named divisor, so the
    # name is checked against the generator it is printed beside
    for p in enumerate_families():
        H, Ghat, E = (1, 0, 0), (0, 1, 0), (0, 0, 1)
        printed = {"phi*H": H, "Ghat": Ghat, "E": E,
                   "G": _combination((1, Ghat), (1, E), (-p.a, H)),
                   "Ehat": _combination((p.d, H), (-1, E))}
        for ray in nef_rays(p):
            terms = []
            for term in ray.name.split(" + "):
                k, star, rest = term.partition("*")
                if star and k.isdigit():
                    terms.append((int(k), printed[rest]))
                else:
                    terms.append((1, printed[term]))
            assert divisor(p, *_combination(*terms)) == ray.generator, \
                (p.label, ray.label, ray.name)


def test_pairing_matrix_has_rank_three_with_known_kernel():
    for p in enumerate_families():
        matrix = pairing_matrix(p)
        # rank 3: the (F, Fhat, C_G) minor is unimodular
        cols = [matrix[CurveGen.F], matrix[CurveGen.F_HAT], matrix[CurveGen.C_G]]
        det = (cols[0][0] * (cols[1][1] * cols[2][2] - cols[1][2] * cols[2][1])
               - cols[1][0] * (cols[0][1] * cols[2][2] - cols[0][2] * cols[2][1])
               + cols[2][0] * (cols[0][1] * cols[1][2] - cols[0][2] * cols[1][1]))
        assert det != 0
        # single relation: (d-a) F - a Fhat - C_G + C_Ghat = 0
        kernel = {CurveGen.F: p.d - p.a, CurveGen.F_HAT: -p.a,
                  CurveGen.C_G: -1, CurveGen.C_G_HAT: 1}
        for row in range(3):
            assert sum(kernel[g] * matrix[g][row] for g in CurveGen) == 0


def test_ne_generators_cases():
    assert [C.kind for C in ne_generators(FamilyParams(7, 0, 3))] == \
        [CurveGen.F, CurveGen.F_HAT, CurveGen.C_G_HAT]
    assert [C.kind for C in ne_generators(FamilyParams(7, 1, 4))] == \
        [CurveGen.F, CurveGen.F_HAT, CurveGen.C_G, CurveGen.C_G_HAT]
    assert [C.kind for C in ne_generators(FamilyParams(6, 2, 1))] == \
        [CurveGen.F, CurveGen.F_HAT, CurveGen.C_G]


def test_nef_rays_for_product_case():
    rays = {r.label: r for r in nef_rays(FamilyParams(7, 0, 1))}
    assert set(rays) == {RayLabel.R1, RayLabel.R2, RayLabel.R3}
    assert rays[RayLabel.R1].generator.coords == (1, 0, 0)
    assert rays[RayLabel.R2].generator.coords == (0, 1, 1)   # = G when a = 0
    assert rays[RayLabel.R3].generator.coords == (1, 1, 0)   # = G + Ehat


def test_nef_rays_square_case_includes_dG_plus_aEhat():
    p = FamilyParams(7, 2, 5)
    rays = {r.label: r for r in nef_rays(p)}
    assert set(rays) == {RayLabel.R1, RayLabel.R2, RayLabel.R3, RayLabel.R4}
    assert rays[RayLabel.R4].generator == divisor(
        p, *_combination((5, (-2, 1, 1)), (2, (5, 0, -1))))   # 5*G + 2*Ehat
    assert rays[RayLabel.R4].generator.coords == (0, 5, 3)


def test_nef_rays_section_case():
    rays = {r.label: r for r in nef_rays(FamilyParams(6, 2, 1))}
    assert rays[RayLabel.R3].generator.coords == (0, 1, 0)   # = Ghat


def test_nef_ray_count_matches_ne_count(dual_cone):
    # the oracle is the dual of NE(X), computed from the pairing matrix alone
    for p in enumerate_families():
        columns = pairing_matrix(p)
        generators = ne_generators(p)
        rays = nef_rays(p)
        dual = dual_cone({C.kind: columns[C.kind] for C in generators})
        primitive = {}
        for ray in rays:
            coords = ray.generator.coords
            primitive[tuple(c // gcd(*coords) for c in coords)] = \
                frozenset(ray.vanishing_face)
        assert primitive == dual, p.label
        assert len(rays) == len(generators) == len(dual)


def test_nef_duality():
    for p in enumerate_families():
        generators = ne_generators(p)
        for ray in nef_rays(p):
            for C in generators:
                value = pairing(ray.generator, C)
                assert value >= 0
                assert (value == 0) == (C.kind in ray.vanishing_face)


def test_each_ne_generator_lies_on_a_two_face():
    # in the dual picture every NE generator is killed by exactly 2 nef rays
    for p in enumerate_families():
        rays = nef_rays(p)
        for C in ne_generators(p):
            killers = [r for r in rays if C.kind in r.vanishing_face]
            assert len(killers) == 2


def test_ray_contraction_metadata():
    for p in enumerate_families():
        for ray in nef_rays(p):
            expected = "fibre type" if ray.label is RayLabel.R1 else "divisorial"
            assert ray.contraction == expected


def test_is_fano_examples():
    assert is_fano(FamilyParams(6, 2, 4)) is True
    antiK = anticanonical(FamilyParams(6, 2, 4))
    values = [pairing(antiK, C) for C in ne_generators(FamilyParams(6, 2, 4))]
    assert min(values) == 1
    assert is_fano(FamilyParams(7, 4, 1)) is False
    assert all(is_fano(p) for p in enumerate_families())


def test_is_fano_matches_index_bounds_on_a_grid():
    for z_id, index in [(1, 2), (6, 3), (7, 4)]:
        for a in range(0, 10):
            for d in range(1, 10):
                expected = a <= index - 1 and d - a <= index - 1
                assert is_fano(FamilyParams(z_id, a, d)) == expected


def test_is_fibre_like():
    assert is_fibre_like(FamilyParams(7, 1, 2)) is FibreLike.UNDETERMINED
    assert is_fibre_like(FamilyParams(7, 0, 1)) is FibreLike.NOT_FIBRE_LIKE
    assert is_fibre_like(FamilyParams(6, 2, 4)) is FibreLike.UNDETERMINED
    for p in enumerate_families():
        expected = (FibreLike.UNDETERMINED if 2 * p.a == p.d
                    else FibreLike.NOT_FIBRE_LIKE)
        assert is_fibre_like(p) is expected


def test_ray_and_antiK_coordinates_match_divisor_arithmetic():
    # the closed-form int tuples of nef_rays and anticanonical, against the
    # coordinate arithmetic on the named divisors
    for p in enumerate_families():
        i, a, d = p.threefold.index, p.a, p.d
        H, Ghat, E = (1, 0, 0), (0, 1, 0), (0, 0, 1)
        G = _combination((1, Ghat), (1, E), (-a, H))
        Ehat = _combination((d, H), (-1, E))
        expected = {RayLabel.R1: H, RayLabel.R2: _combination((a, H), (1, G))}
        if a >= d:
            expected[RayLabel.R3] = Ghat
        else:
            expected[RayLabel.R3] = _combination((1, G), (1, Ehat))
            if a > 0:
                expected[RayLabel.R4] = _combination((d, G), (a, Ehat))
        rays = nef_rays(p)
        assert {ray.label: ray.generator for ray in rays} == \
            {label: divisor(p, *D) for label, D in expected.items()}
        assert anticanonical(p) == divisor(
            p, *_combination((i, H), (1, G), (1, Ghat)))


def test_cone_data_bundles_the_public_results():
    for p in enumerate_families():
        cone = cone_data(p)
        assert cone.antiK == anticanonical(p)
        assert cone.generators == tuple(ne_generators(p))
        assert cone.rays == tuple(nef_rays(p))
        assert cone.degrees == tuple(pairing(cone.antiK, C)
                                     for C in cone.generators)


def test_cone_data_equals_what_the_public_constructors_build():
    # cone_data builds its results without the constructors' checks; each
    # must still be the object the checked constructor builds from its fields
    for p in enumerate_families():
        cone = cone_data(p)
        divisors = [cone.antiK] + [ray.generator for ray in cone.rays]
        for D in divisors:
            assert type(D) is DivisorClass and D == DivisorClass(D.coords, p)
            assert all(type(x) is int for x in D.coords), D
            assert D.context is p
        for C in cone.generators:
            assert type(C) is CurveClass and C == CurveClass(C.combo, p)
            assert all(type(c) is int for _, c in C.combo), C
            assert C.context is p
        for ray in cone.rays:
            assert type(ray) is NefRay and ray == NefRay(*ray)
        assert type(cone) is ConeData and cone == ConeData(*cone)
        assert all(type(k) is int for k in cone.degrees)


def _coords_with(**changed):
    # the coordinate table of phi*H, Ghat, E, G and Ehat, with some entries
    # replaced; each replacement is a function of (a, d)
    names = ("h", "ghat", "e", "g", "ehat")
    original = cones._divisor_coords

    def table(a, d):
        base = dict(zip(names, original(a, d)))
        base.update({k: f(a, d) for k, f in changed.items()})
        return tuple(base[n] for n in names)
    return table


def _columns_with(**changed):
    original = cones._pairing_columns

    def columns(a, d):
        out = dict(original(a, d))
        out.update({CurveGen[k]: v for k, v in changed.items()})
        return out
    return columns


def _alternate_without_a(a, d, coords):
    x, y, z = coords
    return (x + d * (z - y), y, y - z)


# one fault per cone check: (what to patch, replacement, family, error
# class, message after the family's label)
CONE_FAULTS = {
    "antiK_symmetric": (
        "_divisor_coords", _coords_with(g=lambda a, d: (-a, 1, 2)),
        FamilyParams(6, 2, 4), ConsistencyError, "-K expressions disagree: "
        "(i-a)*phi*H+2*Ghat+E (1, 2, 1), i*phi*H+G+Ghat (1, 2, 2)"),
    "antiK_alternate": (
        # the change of basis loses Ghat's a*y share, which neither expression
        # of -K over (phi*H, Ghat, E) reads
        "_alternate", _alternate_without_a,
        FamilyParams(6, 2, 4), ConsistencyError, "-K coordinates over "
        "(phi*H, G, Ehat) disagree: converted (-3, 2, 1), closed form (1, 2, 1)"),
    "ray_sign": (
        "_pairing_columns", _columns_with(F=(-1, 1, -1)),
        FamilyParams(7, 2, 5), IntegrityError, "phi*H . F = -1 < 0"),
    "degree_gcd": (
        "_ne_kinds", lambda a, d: (CurveGen.C_G,),
        FamilyParams(7, 2, 4), ConsistencyError,
        "-K degree gcd disagree: pairing 2, Fano index 1"),
    "degree_first": (
        "_ne_kinds", lambda a, d: (CurveGen.C_G, CurveGen.F, CurveGen.F_HAT),
        FamilyParams(7, 2, 4), ConsistencyError,
        "-K . F disagree: pairing 2, blow-up fibre 1"),
    "degree_positive": (
        "_pairing_columns", _columns_with(F_HAT=(0, 0, 0)),
        FamilyParams(7, 2, 4), IntegrityError, "least -K degree = 0 < 1"),
    "cone_sizes": (
        "_ne_kinds", lambda a, d: (CurveGen.F, CurveGen.F_HAT, CurveGen.C_G),
        FamilyParams(7, 2, 4), ConsistencyError, "cone sizes disagree: "
        "NE generators and nef rays (3, 4), case 0 < a < d (4, 4)"),
}


@pytest.mark.parametrize("fault", CONE_FAULTS)
def test_each_cone_check_fires_and_names_the_family(monkeypatch, fault):
    attr, replacement, p, error, message = CONE_FAULTS[fault]
    assert cone_data(p)   # sound before the fault
    monkeypatch.setattr(cones, attr, replacement)
    with pytest.raises(error) as exc:
        cone_data(p)
    assert str(exc.value) == f"{p.label}: {message}"
    assert str(exc.value).count(p.label) == 1


def test_is_fano_amplitude_check_fires_and_names_the_family(monkeypatch):
    p = FamilyParams(7, 2, 4)
    assert is_fano(p)   # sound before the fault
    # -K.F = 0: the amplitude test fails while the index bounds still hold
    monkeypatch.setattr(cones, "_pairing_columns", _columns_with(F=(0, 0, 0)))
    with pytest.raises(ConsistencyError) as exc:
        is_fano(p)
    assert str(exc.value) == ("X^7_{2,4}: Fano verdicts disagree: amplitude "
                              "test False, index bounds True")


def test_cone_data_repr_is_the_same_under_any_hash_seed():
    # a set-valued field would iterate in a per-interpreter order
    script = ("import hashlib; from fano4 import cones, catalog; "
              "print(hashlib.sha256(repr([cones.cone_data(p) for p in "
              "catalog.enumerate_families()]).encode()).hexdigest())")
    src = str(Path(__file__).resolve().parent.parent / "src")
    digests = set()
    for seed in ("1", "2"):
        result = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
            timeout=120)
        assert result.returncode == 0, result.stderr
        digests.add(result.stdout)
    assert len(digests) == 1
