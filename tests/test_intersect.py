from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fano4.catalog import (FamilyParams, catalog, enumerate_families,
                           validate_params)
from fano4.errors import ConsistencyError, IntegrityError
from fano4.intersect import (
    BlowupCentreData,
    BundleInput,
    CanonicalDegrees,
    closed_chi_antiK,
    closed_k2c2,
    closed_k4,
    fano4_invariants,
    k4_closed_terms,
    p1_bundle_invariants,
    projective_bundle_invariants,
    riemann_roch_chi,
    split_bundle_base,
    surface_blowup_invariants,
    surface_centre,
)

degrees_triples = st.builds(CanonicalDegrees,
                            st.integers(-500, 500), st.integers(-500, 500),
                            st.integers(-500, 500))


def test_bundle_invariants_over_p3():
    result = projective_bundle_invariants(
        BundleInput(KW3=-64, KW_c1sq=0, KW_c2E=0, KW_c2W=-24, chi_O=1))
    assert result.K4 == 512
    # closed form 8*delta*i*(a^2+i^2) = 8*1*4*16
    assert result.K4 == 8 * 1 * 4 * (0 + 16)


def test_bundle_invariants_over_quadric_twist_two():
    result = projective_bundle_invariants(
        BundleInput(KW3=-54, KW_c1sq=-24, KW_c2E=0, KW_c2W=-24, chi_O=1))
    assert result.K4 == -8 * (-24) - 8 * (-54) == 624
    assert result.K4 == 8 * 2 * 3 * 13


@given(st.integers(-100, 100).map(lambda n: 2 * n), st.integers(-100, 100),
       st.integers(-50, 50).map(lambda n: 3 * n))
def test_bundle_K2c2_degenerates_without_chern_classes(KW3, chi_O, KW_c2W):
    # with c1(E)^2 and c2(E) terms absent, K^2.c2 = -2 K_W^3 - 4 K_W.c2(W)
    data = BundleInput(KW3=KW3, KW_c1sq=0, KW_c2E=0, KW_c2W=KW_c2W, chi_O=chi_O)
    assert projective_bundle_invariants(data).K2c2 == -2 * KW3 - 4 * KW_c2W


def test_bundle_invariants_integrality_guard():
    # odd K_W^3 makes chi(O(-K)) half-integral: 1 + 189/2 + 8 = 207/2
    with pytest.raises(IntegrityError, match=r" = 207/2 is not an integer"):
        projective_bundle_invariants(
            BundleInput(KW3=-63, KW_c1sq=0, KW_c2E=0, KW_c2W=-24, chi_O=1))
    # K_W.c2(W) not divisible by 3: 1 - (-1)/3 = 4/3
    with pytest.raises(IntegrityError, match=r" = 4/3 is not an integer"):
        projective_bundle_invariants(
            BundleInput(KW3=0, KW_c1sq=0, KW_c2E=0, KW_c2W=-1, chi_O=1))


@pytest.mark.parametrize("z_id,a,expected", [
    (7, 0, (512, 224, 105)),
    (1, 0, (64, 112, 21)),
])
def test_p1_bundle_closed_forms(z_id, a, expected):
    result = p1_bundle_invariants(FamilyParams(z_id, a, 1))
    assert (result.K4, result.K2c2, result.chi_antiK) == expected


def test_p1_bundle_quadric_twist_two():
    assert p1_bundle_invariants(FamilyParams(6, 2, 4)).K4 == 624


def test_p1_bundle_rejects_negative_twist():
    with pytest.raises(ValueError):   # refused where the triple is built
        p1_bundle_invariants(FamilyParams(7, -1, 1))


@given(degrees_triples)
def test_blowup_with_empty_centre_is_the_identity(base):
    centre = BlowupCentreData(KYV_sq=0, KV_KYV=0, KV_sq=0, c2N=0, chi_OV=0)
    assert surface_blowup_invariants(base, centre) == base


def test_blowup_pipeline_first_family_over_p3():
    p = FamilyParams(7, 0, 1)
    result = surface_blowup_invariants(p1_bundle_invariants(p),
                                       surface_centre(p))
    assert result.K4 == 431


def test_blowup_pipeline_weighted_sextic():
    p = FamilyParams(1, 0, 1)
    result = surface_blowup_invariants(p1_bundle_invariants(p),
                                       surface_centre(p))
    assert result.K4 == 47
    assert result.chi_antiK == 17


def test_surface_centre_numbers():
    # Z_6, a=2, d=4: H|A squares to d*delta = 8
    centre = surface_centre(FamilyParams(6, 2, 4))
    assert centre.KYV_sq == 4 * 2 * 25
    assert centre.KV_sq == 4 * 2 * 1
    assert centre.KV_KYV == -4 * 2 * 5 * 1
    assert centre.c2N == 2 * 16 * 2
    assert centre.chi_OV == 1 + 5


@pytest.mark.parametrize("z_id,a,d,expected", [
    (7, 0, 1, (431, 206, 90)),
    (6, 2, 4, (160, 148, 40)),
    (2, 1, 2, (60, 96, 19)),
])
def test_fano4_invariants_examples(z_id, a, d, expected):
    inv = fano4_invariants(FamilyParams(z_id, a, d))
    assert (inv.K4, inv.K2c2, inv.h0_antiK) == expected


def test_fano4_invariants_rejects_inadmissible():
    with pytest.raises(ValueError):
        fano4_invariants(FamilyParams(7, 4, 1))
    with pytest.raises(ValueError):
        fano4_invariants(FamilyParams(1, 1, 1))


def test_fano4_invariants_rejects_every_inadmissible_grid_point():
    for z in catalog():
        bound = 4 * z.index
        for a in range(bound + 1):
            for d in range(1, bound + 1):
                if not validate_params(z.id, a, d):
                    params = FamilyParams(z.id, a, d)   # in the domain
                    with pytest.raises(ValueError):
                        fano4_invariants(params)


@pytest.mark.parametrize("K4,K2c2,chi_O,expected", [
    (431, 206, 1, 90),
    (0, 0, 1, 1),
    (64, 112, 1, 21),
])
def test_riemann_roch_chi_examples(K4, K2c2, chi_O, expected):
    assert riemann_roch_chi(K4, K2c2, chi_O) == expected


def test_riemann_roch_chi_is_exact_rational():
    assert riemann_roch_chi(1, 1, 0) == Fraction(3, 12)
    # a non-integral value stays the exact Fraction, never an int or float
    assert type(riemann_roch_chi(1, 1, 0)) is Fraction
    assert riemann_roch_chi(5, 0, 2) == Fraction(17, 6)   # 2 + 10/12


def test_invariants_are_exact_ints_on_all_families():
    for p in enumerate_families():
        inv = fano4_invariants(p)
        bundle = p1_bundle_invariants(p)
        values = [inv.K4, inv.K2c2, inv.h0_antiK,
                  bundle.K4, bundle.K2c2, bundle.chi_antiK,
                  closed_chi_antiK(p),
                  riemann_roch_chi(inv.K4, inv.K2c2, 1)]
        assert all(type(v) is int for v in values), (p.label, values)


def test_non_integral_blowup_input_reports_exact_value():
    base = CanonicalDegrees(K4=512, K2c2=224, chi_antiK=105)
    centre = BlowupCentreData(KYV_sq=3, KV_KYV=0, KV_sq=0, c2N=0, chi_OV=1)
    # chi = 105 - 1 - 3/2 = 205/2
    with pytest.raises(IntegrityError,
                       match=r"chi\(O\(-K\)\) of the blow-up = 205/2 "):
        surface_blowup_invariants(base, centre)


BUNDLE_P3 = dict(KW3=-64, KW_c1sq=0, KW_c2E=0, KW_c2W=-24, chi_O=1)
CENTRE = dict(KYV_sq=16, KV_KYV=12, KV_sq=9, c2N=0, chi_OV=1)


@pytest.mark.parametrize("field", sorted(BUNDLE_P3))
def test_float_bundle_input_is_refused(field):
    with pytest.raises(TypeError):
        projective_bundle_invariants(
            BundleInput(**{**BUNDLE_P3, field: float(BUNDLE_P3[field])}))


@pytest.mark.parametrize("field", sorted(CENTRE))
def test_float_blowup_input_is_refused(field):
    base = projective_bundle_invariants(BundleInput(**BUNDLE_P3))
    surface_blowup_invariants(base, BlowupCentreData(**CENTRE))  # integral
    with pytest.raises(TypeError):
        surface_blowup_invariants(
            base, BlowupCentreData(**{**CENTRE, field: float(CENTRE[field])}))


def test_float_riemann_roch_input_is_refused():
    with pytest.raises(TypeError):
        riemann_roch_chi(431.0, 206, 1)


#: call -> (its valid int arguments, the call on a dict of them)
RAW_NUMBER_CALLS = {
    "bundle": (BUNDLE_P3,
               lambda kw: projective_bundle_invariants(BundleInput(**kw))),
    "blowup_base": (dict(K4=512, K2c2=224, chi_antiK=105),
                    lambda kw: surface_blowup_invariants(
                        CanonicalDegrees(**kw), BlowupCentreData(**CENTRE))),
    "blowup_centre": (CENTRE, lambda kw: surface_blowup_invariants(
        CanonicalDegrees(512, 224, 105), BlowupCentreData(**kw))),
    "riemann_roch": (dict(K4=431, K2c2=206, chi_O=1),
                     lambda kw: riemann_roch_chi(**kw)),
}


@pytest.mark.parametrize("call,field", [
    (call, field) for call, (valid, _) in RAW_NUMBER_CALLS.items()
    for field in sorted(valid)])
def test_raw_number_entry_points_reject_bools(call, field):
    valid, run = RAW_NUMBER_CALLS[call]
    run(valid)   # the ints are accepted, so only the bool is refused
    with pytest.raises(TypeError):
        run({**valid, field: True})


def test_triple_path_agreement_on_all_families():
    for p in enumerate_families():
        inv = fano4_invariants(p)   # closed forms vs pipeline inside
        pipeline = surface_blowup_invariants(p1_bundle_invariants(p),
                                             surface_centre(p))
        assert (inv.K4, inv.K2c2, inv.h0_antiK) == \
            (pipeline.K4, pipeline.K2c2, pipeline.chi_antiK)
        assert riemann_roch_chi(inv.K4, inv.K2c2, 1) == inv.h0_antiK


def _degrees_both_ways(params):
    closed = CanonicalDegrees(closed_k4(params), closed_k2c2(params),
                              closed_chi_antiK(params))
    pipeline = surface_blowup_invariants(p1_bundle_invariants(params),
                                         surface_centre(params))
    return closed, pipeline


def test_swapping_a_for_d_minus_a_keeps_the_degrees():
    # X_{a,d} and X_{d-a,d} are isomorphic (G swaps with Ghat, E with Ehat),
    # on every triple of the search grid, the non-Fano ones included
    triples = [(Z, a, d) for Z in catalog() for d in range(1, 2 * Z.index - 1)
               for a in range(d + 1)]
    assert len(triples) == 66
    for Z, a, d in triples:
        closed, pipeline = _degrees_both_ways(FamilyParams(Z.id, a, d))
        assert closed == pipeline, (Z.id, a, d)
        swapped = FamilyParams(Z.id, d - a, d)
        assert closed == _degrees_both_ways(swapped)[0], (Z.id, a, d)


def test_positivity_on_all_families():
    for p in enumerate_families():
        inv = fano4_invariants(p)
        assert inv.K4 > 0
        assert inv.h0_antiK > 0


def test_K4_decreases_in_d_for_untwisted_bundles():
    for z in catalog():
        values = [fano4_invariants(FamilyParams(z.id, 0, d)).K4
                  for d in range(1, 2 * z.index - 1)
                  if validate_params(z.id, 0, d)]
        assert all(x > y for x, y in zip(values, values[1:]))


def test_K4_term_split_sums_to_the_closed_form():
    for p in enumerate_families():
        terms = k4_closed_terms(p)
        assert len(terms) == 5
        assert sum(terms.values()) == closed_k4(p)
        assert closed_k4(p) == fano4_invariants(p).K4


def test_path_disagreement_is_loud(monkeypatch):
    import fano4.intersect as intersect
    monkeypatch.setattr(intersect, "closed_k4", lambda params: 0)
    with pytest.raises(ConsistencyError):
        intersect.fano4_invariants(FamilyParams(7, 0, 1))


def test_positivity_guard_fires_when_every_route_agrees(monkeypatch):
    import fano4.intersect as intersect
    p = FamilyParams(7, 1, 2)
    assert fano4_invariants(p).K4 > 0   # sound before the fault
    # K^4 = 0, K^2.c2 = -12 and chi = 0 on the closed forms and the pipeline,
    # which Riemann-Roch also gives: 1 + (2*0 - 12)/12 = 0
    monkeypatch.setattr(intersect, "closed_k4", lambda params: 0)
    monkeypatch.setattr(intersect, "closed_k2c2", lambda params: -12)
    monkeypatch.setattr(intersect, "closed_chi_antiK", lambda params: 0)
    monkeypatch.setattr(intersect, "_blowup_degrees",
                        lambda base, centre: CanonicalDegrees(0, -12, 0))
    assert riemann_roch_chi(0, -12, 1) == 0
    with pytest.raises(IntegrityError) as exc:
        intersect.fano4_invariants(p)
    assert str(exc.value) == "X^7_{1,2}: K^4 = 0 < 1"


def test_split_bundle_base_specialization():
    data = split_bundle_base(FamilyParams(6, 2, 4))
    assert data.KW3 == -54
    assert data.KW_c1sq == -3 * 4 * 2
    assert data.KW_c2E == 0
    assert data.KW_c2W == -24
    assert data.chi_O == 1


@pytest.mark.parametrize("k", range(-3, 4))
def test_twisting_the_bundle_keeps_the_degrees(k):
    # P(E) = P(E(k)), and E(k) = O(k) + O(a + k) has c1 = (a + 2k)H and
    # c2 = k(a + k)H^2: every K_W.c2(E) coefficient counts once k(a + k) != 0
    for p in enumerate_families():
        Z, a = p.threefold, p.a
        i, delta = Z.index, Z.degree
        twisted = BundleInput(-i**3 * delta, -i * (a + 2 * k)**2 * delta,
                              -i * k * (a + k) * delta, -24, 1)
        assert (projective_bundle_invariants(twisted)
                == projective_bundle_invariants(split_bundle_base(p))), p.label


@pytest.mark.parametrize("bad", [0.5, True], ids=["float", "bool"])
def test_closed_forms_reject_non_int_twist(bad):
    # the closed forms take a FamilyParams, whose constructor is the one
    # place a twist or degree is type-checked
    with pytest.raises(TypeError):
        FamilyParams(7, bad, 1)
    with pytest.raises(TypeError):
        FamilyParams(7, 1, bad)
    # the raw-number operations the closed forms are checked against take
    # numbers, not a family: each refuses a bad one in every entry the twist
    # reaches
    p = FamilyParams(7, 1, 1)
    base, centre = p1_bundle_invariants(p), surface_centre(p)
    for call in (
            lambda: projective_bundle_invariants(
                split_bundle_base(p)._replace(KW_c1sq=bad)),
            lambda: surface_blowup_invariants(base._replace(K4=bad), centre),
            lambda: surface_blowup_invariants(base._replace(K2c2=bad), centre),
            lambda: surface_blowup_invariants(
                base._replace(chi_antiK=bad), centre),
            lambda: surface_blowup_invariants(
                base, centre._replace(KYV_sq=bad)),
            lambda: surface_blowup_invariants(
                base, centre._replace(KV_KYV=bad)),
            lambda: surface_blowup_invariants(base, centre._replace(c2N=bad)),
            lambda: riemann_roch_chi(bad, 0, 1),
            lambda: riemann_roch_chi(0, bad, 1)):
        with pytest.raises(TypeError):
            call()
    assert closed_k4(FamilyParams(7, 1, 1)) == \
        closed_k4(FamilyParams(7, int(True), 1))
