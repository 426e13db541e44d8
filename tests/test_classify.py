from __future__ import annotations

from math import comb

import pytest

from fano4.catalog import FamilyParams, _h0_twist, catalog, enumerate_families
from fano4.classify import (
    BaseLocusKind,
    Rationality,
    ToricLabel,
    base_locus,
    chi_tangent,
    h0_line_bundle,
    rationality,
    tangent_bounds,
    toric_label,
)
from fano4.errors import IntegrityError


def sections_of_p3(d: int) -> int:
    """Oracle: monomial count for O(d) on P^3."""
    return comb(d + 3, 3)


def sections_of_quadric(d: int) -> int:
    """Oracle: degree-d forms on P^4 modulo multiples of the quadric."""
    def forms(k: int) -> int:
        return comb(k + 4, 4) if k >= 0 else 0
    return forms(d) - forms(d - 2)


def test_base_locus_cases():
    assert base_locus(FamilyParams(1, 0, 1)) is BaseLocusKind.ONE_POINT
    assert base_locus(FamilyParams(1, 1, 2)) is BaseLocusKind.TWO_POINTS
    assert base_locus(FamilyParams(4, 0, 1)) is BaseLocusKind.EMPTY


def test_base_locus_nonempty_exactly_over_the_weighted_sextic():
    for p in enumerate_families():
        nonempty = base_locus(p) is not BaseLocusKind.EMPTY
        flagged = (p.threefold.base_locus_H.value == "one_simple_point"
                   and (p.a, p.d) in {(0, 1), (1, 2)})
        assert nonempty == flagged == (p.z_id == 1)


def test_base_locus_point_counts():
    points = {BaseLocusKind.EMPTY: 0, BaseLocusKind.ONE_POINT: 1,
              BaseLocusKind.TWO_POINTS: 2}
    counts = {p.label: points[base_locus(p)] for p in enumerate_families()}
    assert counts["X^1_{0,1}"] == 1
    assert counts["X^1_{1,2}"] == 2
    assert sum(counts.values()) == 3


def test_rationality_cases():
    assert rationality(FamilyParams(3, 1, 2)) is Rationality.UNKNOWN
    assert rationality(FamilyParams(7, 2, 1)) is Rationality.TORIC
    assert toric_label(FamilyParams(7, 2, 1)) is ToricLabel.E2
    assert rationality(FamilyParams(2, 0, 1)) is Rationality.VERY_GENERAL_NOT_RATIONAL


def test_toric_families_and_labels():
    labels = {p.label: toric_label(p) for p in enumerate_families()
              if toric_label(p) is not None}
    assert labels == {
        "X^7_{0,1}": ToricLabel.E3,
        "X^7_{2,1}": ToricLabel.E2,
        "X^7_{3,1}": ToricLabel.E1,
    }
    for p in enumerate_families():
        assert (toric_label(p) is not None) == \
            (rationality(p) is Rationality.TORIC)


def test_rationality_follows_the_base_threefold():
    for p in enumerate_families():
        status = rationality(p)
        if p.threefold.rational:
            assert status in (Rationality.RATIONAL, Rationality.TORIC)
        elif p.z_id == 3:
            assert status is Rationality.UNKNOWN
        else:
            assert status is Rationality.VERY_GENERAL_NOT_RATIONAL


def test_rationality_statuses_count():
    statuses = [rationality(p) for p in enumerate_families()]
    assert statuses.count(Rationality.TORIC) == 3
    assert statuses.count(Rationality.RATIONAL) == 19
    assert statuses.count(Rationality.VERY_GENERAL_NOT_RATIONAL) == 4
    assert statuses.count(Rationality.UNKNOWN) == 2


def test_h0_line_bundle_against_p3_oracle():
    for d in range(1, 7):
        assert h0_line_bundle(FamilyParams(7, 0, d)) == sections_of_p3(d)


def test_h0_line_bundle_against_quadric_oracle():
    for d in range(1, 5):
        assert h0_line_bundle(FamilyParams(6, 0, d)) == sections_of_quadric(d)


def test_h0_line_bundle_weighted_sextic():
    # 1 + 1 + (1/12)(4 + 6 + 2)
    assert h0_line_bundle(FamilyParams(1, 0, 1)) == 3


def test_h0_line_bundle_integral_and_positive_on_wide_grid():
    for z in catalog():
        for d in range(1, 13):
            assert h0_line_bundle(FamilyParams(z.id, 0, d)) >= 1


def test_h0_line_bundle_rejects_nonpositive_degree():
    # the degree is checked once, where the triple is built
    with pytest.raises(ValueError):
        h0_line_bundle(FamilyParams(7, 0, 0))
    with pytest.raises(TypeError):
        h0_line_bundle(FamilyParams(7, 0, 1.0))


def test_h0_line_bundle_is_an_exact_int_on_all_families():
    for p in enumerate_families():
        value = h0_line_bundle(p)
        assert type(value) is int and value > 0, (p.label, value)


@pytest.mark.parametrize("z", catalog(), ids=lambda z: z.label)
def test_h0_twist_clamps_negative_twists(z):
    # Riemann-Roch alone reads -1 at k = -i: the clamp, not the formula,
    # gives h^0 = 0 for every negative twist
    params = FamilyParams(z.id, 0, 1)
    i = z.index
    assert [_h0_twist(params, k) for k in range(-2 * i, 0)] == [0] * (2 * i)
    assert _h0_twist(params, 0) == 1
    oracle = {7: sections_of_p3, 6: sections_of_quadric}.get(z.id)
    if oracle is not None:
        for k in range(1, 13):
            assert _h0_twist(params, k) == oracle(k), (z.label, k)


def test_h0_line_bundle_integrality_guard(monkeypatch):
    import fano4.catalog as catalog_module
    from fano4.catalog import FanoThreefold, HBaseLocus
    fake = FanoThreefold(7, 4, 1, 0, 15, 0, HBaseLocus.EMPTY, True, "fake")
    broken = FanoThreefold(7, 5, 1, 0, 15, 0, HBaseLocus.EMPTY, True, "odd index")
    rows = catalog_module._CATALOG[:6]
    monkeypatch.setattr(catalog_module, "_CATALOG", (*rows, fake))
    assert h0_line_bundle(FamilyParams(7, 0, 1)) == 4
    monkeypatch.setattr(catalog_module, "_CATALOG", (*rows, broken))
    # 1 + 2/5 + (1/12)*(25 + 15 + 2) = 7/5 + 7/2 = 49/10
    with pytest.raises(IntegrityError) as exc:
        h0_line_bundle(FamilyParams(7, 0, 1))
    assert str(exc.value).startswith("X^7_{0,1}: ")
    assert str(exc.value).count("X^7_{0,1}") == 1
    assert str(exc.value) == "X^7_{0,1}: h^0(O_Z(k)) = 49/10 is not an integer"


@pytest.mark.parametrize("label,expected", [
    ("X^7_{0,1}", 14),
    ("X^1_{1,2}", -39),
    ("X^6_{2,4}", -43),
])
def test_chi_tangent_examples(label, expected):
    from fano4.hodge import hodge_of_fourfold
    from fano4.intersect import fano4_invariants
    p = {p.label: p for p in enumerate_families()}[label]
    inv, hdg = fano4_invariants(p), hodge_of_fourfold(p)
    assert chi_tangent(inv.K4, inv.chi_antiK, hdg.h12, hdg.h13,
                       hdg.h22) == expected


def chi_tangent_by_chern_numbers(K4: int, K2c2: int, c1c3: int, c2sq: int,
                                 c4: int) -> int:
    """Oracle: chi(T_X) of a 4-fold by Hirzebruch-Riemann-Roch, from its
    Chern numbers (c1 = -K); the division must be exact."""
    chi, rest = divmod(29 * K4 - 71 * K2c2 + 76 * c1c3 + 3 * c2sq - 31 * c4,
                       180)
    assert rest == 0
    return chi


def chern_numbers(K4: int, K2c2: int, h12: int, h13: int,
                  h22: int) -> tuple[int, int, int]:
    """Oracle: (c4, c1c3, c2^2) of a Fano 4-fold of Picard number 3.

    c4 is the Euler number of the Hodge diamond (h^{1,1} = 3, h^{p,0} = 0
    for p > 0).  c1c3 comes from the Libgober-Wood identity (J. Differential
    Geom. 32, 1990), sum_p (-1)^p (p - 2)^2 chi(Omega^p) = c4/3 + c1c3/6,
    whose left side is 8 + 2(3 - h^{1,2} + h^{1,3}) here.  c2^2 is the Todd
    class at chi(O_X) = 1; its division by 3 must be exact.
    """
    c4 = 8 + h22 - 4 * h12 + 2 * h13
    c1c3 = 6 * (8 + 2 * (3 - h12 + h13)) - 2 * c4
    c2sq, rest = divmod(720 + c4 - c1c3 - 4 * K2c2 + K4, 3)
    assert rest == 0
    return c4, c1c3, c2sq


def test_chi_tangent_of_projective_space_by_chern_numbers():
    # c(P^4) = (1 + h)^5: c1^4 = 625, c1^2c2 = 250, c1c3 = 50, c2^2 = 100
    assert chi_tangent_by_chern_numbers(625, 250, 50, 100, 5) == 24


def test_chi_tangent_agrees_with_hirzebruch_riemann_roch():
    from fano4.report import build_all_records
    computed = {}
    for r in build_all_records():
        c4, c1c3, c2sq = chern_numbers(r.K4, r.K2c2, r.h12, r.h13, r.h22)
        chi = chi_tangent_by_chern_numbers(r.K4, r.K2c2, c1c3, c2sq, c4)
        assert chi == r.chi_T, r.label
        computed[r.label] = (c4, c1c3, c2sq, chi)
    assert computed["X^7_{0,1}"] == (11, 62, 92, 14)


def test_chi_tangent_agrees_with_the_deformation_count():
    """chi(T_X) by counting deformations, from the catalogue columns and
    h^0(O_Z(k)) alone, against the records and table 3.

    X blows up Y = P(O + O(a)) over Z along S = A, a surface in |O_Z(d)|
    with N_{S/Y} = O_A(d) + O_A(a).  Three sequences give the count:

    * 0 -> T_X -> pi^*T_Y -> j_*Q -> 0 on the blow-up pi, where Q is
      pi^*N_{S/Y} / O_E(-1) on the exceptional divisor E, and O_E(-1) has
      no cohomology, so chi(T_X) = chi(T_Y) - chi(N_{S/Y});
    * 0 -> T_{Y/Z} -> T_Y -> phi^*T_Z -> 0, where phi_*T_{Y/Z} is the
      traceless End(O + O(a)) = O + O_Z(a) + O_Z(-a), so
      chi(T_Y) = chi(T_Z) + 1 + h^0(O_Z(a)) + chi(O_Z(-a));
    * 0 -> O_Z(k - d) -> O_Z(k) -> O_A(k) -> 0 at k = d and at k = a, so
      chi(N_{S/Y}) = (h^0(O_Z(d)) - 1) + h^0(O_Z(a)) - chi(O_Z(a - d)).

    For k > -i_Z, chi(O_Z(k)) is h^0(O_Z(k)), which is 0 when k < 0: Kodaira
    vanishing holds for O_Z(k) = K_Z + O_Z(k + i_Z).  The Fano bounds
    a <= i_Z - 1 and d - a <= i_Z - 1 keep -a and a - d in that range.
    h^0(O_Z(a)) cancels, and so
    chi(T_X) = chi(T_Z) + b - (h^0(O_Z(d)) - 1) with b = 1 + chi(O_Z(-a))
    + h^0(O_Z(a - d)): b = 2 when a = 0, else 1 + h^0(O_Z(a - d)).  b is the
    dimension of the automorphisms of Y over Z that keep S (C^* and the
    translations H^0(O_Z(a - d)); for a = 0 the stabiliser of a point in
    PGL_2), and h^0(O_Z(d)) - 1 that of the moves of A.  chi(T_Z) is
    h^0(T_Z) - h^1(T_Z), as H^2 and H^3 of T_Z vanish on a Fano 3-fold.
    """
    from fano4.golden import golden_tables
    from fano4.report import build_all_records
    table3 = {row.label: row.chi_T for row in golden_tables().table3}
    records = build_all_records()
    for p, r in zip(enumerate_families(), records, strict=True):
        Z = p.threefold
        b = 2 if p.a == 0 else 1 + _h0_twist(p, p.a - p.d)
        chi = (Z.h0_tangent - Z.h1_tangent) + b - (_h0_twist(p, p.d) - 1)
        assert chi == r.chi_T == table3[p.label], p.label
    assert len(records) == len(table3) == 28


def test_tangent_bounds_weighted_sextic_first_family():
    t = tangent_bounds(FamilyParams(1, 0, 1), chi=-34)
    assert (t.chi, t.h1, t.h0) == (-34, 36, 2)
    assert t.h1_is_exact


def test_tangent_bounds_rigid_family():
    t = tangent_bounds(FamilyParams(7, 3, 2), chi=11)
    assert (t.chi, t.h1, t.h0) == (11, 0, 11)
    assert t.h1_is_exact


def test_tangent_bounds_gives_only_bounds_for_grassmannian_section():
    t = tangent_bounds(FamilyParams(5, 0, 1), chi=-1)
    assert t.chi == -1
    assert (t.h1, t.h0) == (6, 5)
    assert not t.h1_is_exact


def test_tangent_bounds_refuses_a_negative_h0():
    # h1 = 36 over the weighted sextic, so chi = -36 leaves h0 = 0 and one
    # less leaves h0 < 0 (the h1 guard is reached in test_report)
    assert tangent_bounds(FamilyParams(1, 0, 1), chi=-36).h0 == 0
    with pytest.raises(IntegrityError) as exc:
        tangent_bounds(FamilyParams(1, 0, 1), chi=-37)
    assert str(exc.value) == "X^1_{0,1}: h0 = -1 < 0"


@pytest.mark.parametrize("position", range(5))
def test_chi_tangent_refuses_a_bool_in_each_position(position):
    args = [100, 5, 0, 0, 0]
    assert chi_tangent(*args) == 111
    args[position] = True
    with pytest.raises(TypeError, match="ints only"):
        chi_tangent(*args)


def test_tangent_bounds_arithmetic_invariants():
    from fano4.report import build_all_records
    for r in build_all_records():
        assert r.h0_T - r.h1_T == r.chi_T
        assert r.h0_T >= 0 and r.h1_T >= 0
        # the bound never exceeds the raw deformation count, and is that
        # count wherever Z has no infinitesimal automorphisms
        params = FamilyParams(r.z_id, r.a, r.d)
        count = params.threefold.h1_tangent + h0_line_bundle(params) - 1
        assert r.h1_T <= count
        if r.z_id <= 4:
            assert r.h1_T == count


def test_tangent_exactness_pattern():
    # exact for z_id <= 4 and for the rigid families over P^3 with d <= 2
    for p in enumerate_families():
        t = tangent_bounds(p, chi=chi_for(p))
        expected = p.z_id <= 4 or (p.z_id == 7 and p.d <= 2)
        assert t.h1_is_exact == expected


def chi_for(p: FamilyParams) -> int:
    from fano4.hodge import hodge_of_fourfold
    from fano4.intersect import fano4_invariants
    from fano4.report import build_record
    return build_record(p, fano4_invariants(p), hodge_of_fourfold(p)).chi_T


def test_classify_rejects_inadmissible():
    for fn in (base_locus, rationality, toric_label):
        with pytest.raises(ValueError):
            fn(FamilyParams(7, 4, 1))
    with pytest.raises(ValueError):
        tangent_bounds(FamilyParams(7, 4, 1), chi=0)
