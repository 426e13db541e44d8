from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from fano4.catalog import (FamilyParams, enumerate_families, threefold,
                           validate_params)
from fano4.errors import IntegrityError
from fano4.hodge import (
    HodgePolynomial,
    blowup_formula,
    bundle_formula,
    hodge_of_fourfold,
    hodge_of_surface,
    hodge_of_threefold,
    projective_space,
    surface_h02,
)

POINT = projective_space(0)


def _symmetrized(d):
    out = {}
    for (p, q), c in d.items():
        out[(p, q)] = c
        out[(q, p)] = c
    return HodgePolynomial(out)


def small_polynomials():
    """Random sparse symmetric polynomials supported in 0 <= p, q <= 3."""
    pair = st.tuples(st.integers(0, 3), st.integers(0, 3))
    return st.dictionaries(pair, st.integers(0, 9), max_size=6).map(_symmetrized)


def test_projective_space_point():
    assert POINT.as_dict() == {(0, 0): 1}


def test_projective_space_line():
    assert projective_space(1).as_dict() == {(0, 0): 1, (1, 1): 1}


def test_projective_space_p3_diagonal():
    assert projective_space(3).as_dict() == {(i, i): 1 for i in range(4)}


def test_insertion_order_does_not_show():
    forward = HodgePolynomial({(0, 0): 1, (1, 2): 3, (2, 1): 3, (2, 0): 0})
    backward = HodgePolynomial({(2, 1): 3, (1, 2): 3, (0, 0): 1})
    assert forward == backward and hash(forward) == hash(backward)
    assert repr(forward) == repr(backward) == \
        "HodgePolynomial({(0,0): 1, (1,2): 3, (2,1): 3})"
    assert list(backward.as_dict().items()) == [((0, 0), 1), ((1, 2), 3),
                                                ((2, 1), 3)]
    assert hash(backward) == hash((((0, 0), 1), ((1, 2), 3), ((2, 1), 3)))


def test_projective_space_rejects_negative():
    with pytest.raises(ValueError):
        projective_space(-1)


def test_bundle_formula_point_gives_line():
    assert bundle_formula(POINT, 1) == projective_space(1)


def test_bundle_formula_p1_over_p3():
    eY = bundle_formula(hodge_of_threefold(threefold(7)), 1)
    assert eY.coeff(2, 2) == 2
    assert eY.coeff(1, 3) == 0


def test_bundle_formula_keeps_h12_of_the_base():
    eY = bundle_formula(hodge_of_threefold(threefold(1)), 1)
    assert eY.coeff(1, 2) == 21


def test_bundle_formula_rejects_rank_zero():
    with pytest.raises(ValueError) as exc:
        bundle_formula(POINT, 0)
    assert str(exc.value) == "n must be >= 1, got 0"


def test_blowup_formula_point_centre():
    eW = projective_space(2)
    blown = blowup_formula(eW, POINT, 2)
    assert blown.coeff(1, 1) == eW.coeff(1, 1) + 1
    assert blown.coeff(0, 0) == eW.coeff(0, 0)


def test_blowup_formula_first_family_over_p3():
    Z = threefold(7)
    eY = bundle_formula(hodge_of_threefold(Z), 1)
    eX = blowup_formula(eY, hodge_of_surface(FamilyParams(7, 0, 1)), 2)
    assert eX.coeff(2, 2) == 3


def test_blowup_formula_quadric_degree_four_surface():
    Z = threefold(6)
    eY = bundle_formula(hodge_of_threefold(Z), 1)
    eX = blowup_formula(eY, hodge_of_surface(FamilyParams(6, 2, 4)), 2)
    assert eX.coeff(1, 3) == 5
    assert eX.coeff(2, 2) == 54


def test_blowup_formula_rejects_codimension_one():
    with pytest.raises(ValueError) as exc:
        blowup_formula(POINT, POINT, 1)
    assert str(exc.value) == "codimension must be >= 2, got 1"


#: the P^n argument of each formula, by its name in the error messages
_P_N_ARGUMENTS = {
    "n": lambda value: bundle_formula(POINT, value),
    "codimension": lambda value: blowup_formula(POINT, POINT, value),
}


@pytest.mark.parametrize("name, value", [
    ("n", 0.0), ("n", False), ("n", 1.0), ("n", True),
    ("codimension", 1.0), ("codimension", True), ("codimension", 2.0)])
def test_a_p_n_argument_is_type_checked_before_its_range(name, value):
    # the type is refused before the range, by the argument's own name
    with pytest.raises(TypeError) as exc:
        _P_N_ARGUMENTS[name](value)
    assert str(exc.value) == f"{name} must be an int, got {value!r}"


@given(small_polynomials(), small_polynomials())
def test_product_is_commutative_and_symmetric(f, g):
    assert f * g == g * f
    product = (f * g).as_dict()
    assert all(product.get((q, p), 0) == c for (p, q), c in product.items())


def _signed_polynomials(coefficients=st.integers(-9, 9), max_size=6):
    pair = st.tuples(st.integers(0, 3), st.integers(0, 3))
    return st.dictionaries(pair, coefficients,
                           max_size=max_size).map(HodgePolynomial)


# signed coefficients far beyond any machine word
_WIDE = st.integers(-10**30, 10**30)


def _convolution(f, g):
    out = {}
    for (p1, q1), c1 in f.items():
        for (p2, q2), c2 in g.items():
            pq = (p1 + p2, q1 + q2)
            out[pq] = out.get(pq, 0) + c1 * c2
    return {pq: c for pq, c in out.items() if c}


@given(_signed_polynomials(_WIDE),
       _signed_polynomials(_WIDE.filter(bool), max_size=1))
@example(HodgePolynomial({}), HodgePolynomial({(1, 1): 1}))
@example(HodgePolynomial({(0, 0): 1, (0, 2): -3, (2, 0): -3}),
         HodgePolynomial({(1, 1): -1}))
def test_a_product_with_a_one_term_factor_is_the_convolution(f, m):
    # m has at most one term: as the right factor it takes the shift, as the
    # left one the general product, and both give sorted, zero-free terms
    want = _convolution(f.as_dict(), m.as_dict())
    for product in (f * m, m * f):
        assert product.as_dict() == want
        assert product == HodgePolynomial(product.as_dict())


@given(_signed_polynomials(), _signed_polynomials())
def test_arithmetic_results_equal_the_checked_constructor(f, g):
    # +, - and * build their results without the coefficient checks; equality
    # compares the sorted, zero-free term tuples
    for result in (f + g, f - g, f * g, f - f):
        assert result == HodgePolynomial(result.as_dict())


@given(_signed_polynomials(), _signed_polynomials())
@example(HodgePolynomial({(0, 0): 2}), HodgePolynomial({(0, 0): 1, (1, 2): 3}))
def test_difference_is_the_coefficient_difference(f, g):
    # the example's (1, 2) term is held only by the right operand
    difference = f - g
    for p in range(4):
        for q in range(4):
            assert difference.coeff(p, q) == f.coeff(p, q) - g.coeff(p, q)


def test_negative_exponent_is_refused():
    with pytest.raises(ValueError):
        HodgePolynomial({(-1, 0): 1})


def test_arithmetic_takes_only_hodge_polynomials():
    # a plain mapping would slip a float or a negative exponent past the
    # checks that the results skip
    f = HodgePolynomial({(0, 0): 1, (1, 1): 1})
    with pytest.raises(TypeError):
        f + {(0, 0): 0.5}
    with pytest.raises(TypeError):
        f - {(0, 0): 0.5}
    with pytest.raises(TypeError):
        f * {(-1, 0): 1}
    # == returns NotImplemented, and int has no answer either
    assert f.__eq__(1) is NotImplemented
    assert (HodgePolynomial({(0, 0): 1}) == 1) is False


def coefficient_total(f):
    return sum(f.as_dict().values())


@given(small_polynomials())
def test_bundle_formula_scales_total(f):
    # a P^1-bundle doubles the coefficient total
    assert coefficient_total(bundle_formula(f, 1)) == 2 * coefficient_total(f)


# every pair with 1 <= d <= 2i - 2, from the ambient cohomology of each Z
# rather than Riemann-Roch: 0 for d < i, 1 for d = i, 5 linear forms on the
# quadric at d = 4, and binom(d - 1, 3) on P^3
@pytest.mark.parametrize("z_id,d,expected", [
    (1, 1, 0), (1, 2, 1),
    (2, 1, 0), (2, 2, 1),
    (3, 1, 0), (3, 2, 1),
    (4, 1, 0), (4, 2, 1),
    (5, 1, 0), (5, 2, 1),
    (6, 1, 0), (6, 2, 0), (6, 3, 1), (6, 4, 5),
    (7, 1, 0), (7, 2, 0), (7, 3, 0), (7, 4, 1), (7, 5, 4), (7, 6, 10),
])
def test_surface_h02_values(z_id, d, expected):
    assert surface_h02(FamilyParams(z_id, 0, d)) == expected


def test_surface_h02_domain():
    with pytest.raises(ValueError):
        surface_h02(FamilyParams(1, 0, 0))   # refused where it is built
    # past d = 2i - 2, from the ambient cohomology again: the three
    # weight-1 coordinates of P(1,1,1,2,3) for Z_1, and binom(6, 3) on P^3
    assert surface_h02(FamilyParams(1, 0, 3)) == 3
    assert surface_h02(FamilyParams(7, 0, 7)) == 20


@pytest.mark.parametrize("z_id,d,expected", [
    (7, 1, 1),    # 10 - 1*9*1
    (6, 4, 52),   # 10 + 50 - 4*1*2
    (1, 1, 9),    # 10 - 1*1*1
])
def test_surface_h11_values(z_id, d, expected):
    assert hodge_of_surface(FamilyParams(z_id, 0, d)).coeff(1, 1) == expected


def test_surface_h11_positive_on_admissible_degrees():
    for z in (threefold(i) for i in range(1, 8)):
        for d in range(1, 2 * z.index - 1):
            assert hodge_of_surface(FamilyParams(z.id, 0, d)).coeff(1, 1) > 0


@pytest.mark.parametrize("z_id", range(1, 8))
def test_surface_euler_number_by_chern_classes(z_id):
    # c(T_A) = c(T_Z)|_A / (1 + dH) gives e(A) = 24d/i + d^2 delta (d - i),
    # which reads no h^{0,2}(A); past d = 2i - 2 too, up to d = 4i
    Z = threefold(z_id)
    i, delta = Z.index, Z.degree
    for d in range(1, 4 * i + 1):
        eA = hodge_of_surface(FamilyParams(z_id, 0, d))
        alternating = sum((-1) ** (p + q) * c
                          for (p, q), c in eA.as_dict().items())
        assert alternating == 24 * d // i + d * d * delta * (d - i), d


def test_surface_hodge_irregularity_vanishes():
    for z_id, d in [(1, 1), (6, 4), (7, 6)]:
        assert hodge_of_surface(FamilyParams(z_id, 0, d)).coeff(0, 1) == 0


def test_hodge_of_threefold_p3_is_diagonal():
    assert hodge_of_threefold(threefold(7)) == projective_space(3)


def test_hodge_of_threefold_weighted_sextic():
    e = hodge_of_threefold(threefold(1))
    assert e.coeff(1, 2) == e.coeff(2, 1) == 21


def test_hodge_of_threefold_total_for_z4():
    # 4 diagonal ones plus h^{1,2} = h^{2,1} = 2
    assert coefficient_total(hodge_of_threefold(threefold(4))) == 8


@pytest.mark.parametrize("z_id,a,d,expected", [
    (1, 1, 2, (21, 1, 22)),
    (7, 2, 5, (0, 4, 47)),
    (5, 0, 1, (0, 0, 7)),
])
def test_hodge_of_fourfold_examples(z_id, a, d, expected):
    assert validate_params(z_id, a, d)   # each example is one of the 28
    h = hodge_of_fourfold(FamilyParams(z_id, a, d))
    assert (h.h12, h.h13, h.h22) == expected


def test_fourfold_polynomial_invariants():
    for p in enumerate_families():
        Z = threefold(p.z_id)
        eX = blowup_formula(bundle_formula(hodge_of_threefold(Z), 1),
                            hodge_of_surface(p), 2)
        coeffs = eX.as_dict()
        assert all(coeffs.get((q, p), 0) == c for (p, q), c in coeffs.items())
        assert eX.betti(2) == 3          # = rho_X
        assert all(p <= 4 for p, _ in coeffs)   # dimension bound
        assert all(c >= 0 for c in coeffs.values())


def test_hodge_of_fourfold_agrees_with_polynomial_route():
    for p in enumerate_families():
        Z = threefold(p.z_id)
        h = hodge_of_fourfold(p)
        eX = blowup_formula(bundle_formula(hodge_of_threefold(Z), 1),
                            hodge_of_surface(p), 2)
        assert (h.h12, h.h13, h.h22) == \
            (eX.coeff(1, 2), eX.coeff(1, 3), eX.coeff(2, 2))


def test_integrity_error_for_impossible_surface(monkeypatch):
    # h^{1,1} = 10 + 10 h^{0,2} - d (d-i)^2 delta can only fail off-catalogue;
    # force it with a fake row carrying a huge degree
    import fano4.catalog as catalog_module
    from fano4.catalog import FanoThreefold, HBaseLocus
    fake = FanoThreefold(7, 4, 60, 0, 15, 0, HBaseLocus.EMPTY, True, "fake")
    monkeypatch.setattr(catalog_module, "_CATALOG",
                        (*catalog_module._CATALOG[:6], fake))
    # d = 1 < i: h^{0,2} = 0, so 10 + 0 - 1*(1-4)^2*60 = -530
    # reached directly, and through e(A) on the way to the 4-fold
    for fn in (hodge_of_surface, hodge_of_fourfold):
        with pytest.raises(IntegrityError) as exc:
            fn(FamilyParams(7, 0, 1))
        assert str(exc.value) == "X^7_{0,1}: h^{1,1}(A) = -530 < 1"


@pytest.mark.parametrize("bad", [1.5, Fraction(1, 2), True, Fraction(0)],
                         ids=["float", "fraction", "bool", "zero_fraction"])
def test_non_int_coefficient_is_refused(bad):
    with pytest.raises(TypeError):
        HodgePolynomial({(0, 0): 1, (1, 1): bad})


@pytest.mark.parametrize("term", [(0.5, 1), (1, 1.0), (True, 0), (0, False),
                                  (0,), (0, 0, 0), 5],
                         ids=["float_p", "float_q", "bool_p", "bool_q",
                              "one_exponent", "three_exponents", "int_key"])
def test_non_int_exponent_is_refused(term):
    # a bool exponent would otherwise count towards betti(1) as a 1, and a
    # key that is not a pair must not fail as a bare unpacking error
    with pytest.raises(TypeError) as exc:
        HodgePolynomial({(3, 3): 2, term: 1})
    message = str(exc.value).replace(" ", "")
    assert message.startswith(f"term{term!r}".replace(" ", ""))


def test_a_key_that_unpacks_into_a_pair_is_refused():
    # a frozenset unpacks into two ints, but it is no exponent pair: taken,
    # it would add a second term at (1, 2)
    with pytest.raises(TypeError) as exc:
        HodgePolynomial({frozenset({2, 1}): 1, (1, 2): 5})
    assert str(exc.value).startswith("term frozenset({1, 2}): 1")


@pytest.mark.parametrize("query", ["coeff(True, 1)", "coeff(1.0, 1.0)",
                                   "coeff(1, 1.0)", "coeff(0, False)",
                                   "betti(2.0)", "betti(True)"])
def test_a_query_with_a_non_int_exponent_is_refused(query):
    # True == 1 == 1.0, so a comparison alone would read h^{1,1} = 7: the
    # queries take int exponents only, as the constructor does
    f = HodgePolynomial({(1, 1): 7, (0, 0): 1})
    assert (f.coeff(1, 1), f.betti(2), f.coeff(0, 0)) == (7, 7, 1)
    with pytest.raises(TypeError, match=r"needs (int exponents|an int degree)"):
        eval(f"f.{query}", {"f": f})
