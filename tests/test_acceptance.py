"""Acceptance suite: the top-level exit criteria, one test per criterion.

Everything here is checked exactly (integer/enum equality); the only
tolerances are the two wall-clock budgets, which are generous for desk-scale
exact arithmetic.
"""

from __future__ import annotations

import time
from math import comb

import pytest

from fano4.catalog import (FamilyParams, catalog, enumerate_families,
                           threefold, validate_params)
from fano4.classify import h0_line_bundle
from fano4.cones import (
    CurveGen,
    anticanonical,
    curve_combo,
    ne_generators,
    nef_rays,
    pairing,
)
from fano4.golden import golden_tables
from fano4.hodge import (
    blowup_formula,
    bundle_formula,
    hodge_of_fourfold,
    hodge_of_surface,
    hodge_of_threefold,
)
from fano4.intersect import (
    fano4_invariants,
    k4_closed_terms,
    p1_bundle_invariants,
    riemann_roch_chi,
    surface_blowup_invariants,
    surface_centre,
)
from fano4.report import build_all_records, verify_all


@pytest.fixture(scope="module")
def records():
    return build_all_records()


def best_of(runs: int, fn):
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_c1_enumeration_matches_table_rows():
    families = enumerate_families()
    assert len(families) == 28
    labels = [p.label for p in families]
    assert labels == [row.label for row in golden_tables().table2]
    counts = [sum(1 for p in families if p.z_id == z) for z in range(1, 8)]
    assert counts == [2, 2, 2, 2, 2, 6, 12]
    assert best_of(5, enumerate_families) < 0.010


def test_c2_table2_reproduction(records):
    elapsed = best_of(3, lambda: verify_all(build_all_records()))
    result = verify_all(records)
    table2_fields = {"K4", "K2c2", "h0_antiK", "h12", "h13", "h22",
                     "base_locus", "rationality"}
    offenders = [m for m in result.mismatches if m.field in table2_fields]
    assert result.pass_count == 28
    assert offenders == []
    assert elapsed < 1.0


def test_c3_table3_reproduction(records):
    table3 = {row.label: row for row in golden_tables().table3}
    exact_rows = 0
    for r in records:
        row = table3[r.label]
        assert r.chi_T == row.chi_T, f"{r.label}: chi(T)"
        assert (r.h0_T, r.h1_T) == (row.h0_T, row.h1_T), r.label
        if r.z_id <= 4 or (r.z_id == 7 and r.d <= 2):
            exact_rows += 1
            assert row.h0_T_is_exact and row.h1_T_is_exact
            assert r.h0_T_is_exact and r.h1_T_is_exact, r.label
        else:
            assert not row.h0_T_is_exact and not row.h1_T_is_exact
            assert not r.h0_T_is_exact and not r.h1_T_is_exact, r.label
    assert exact_rows == 14


def test_c4_triple_path_consistency():
    for p in enumerate_families():
        Z = threefold(p.z_id)
        # closed forms vs bundle-then-blow-up pipeline (also asserted inside)
        inv = fano4_invariants(p)
        pipe = surface_blowup_invariants(p1_bundle_invariants(p),
                                         surface_centre(p))
        assert inv == pipe
        # Riemann-Roch reconstruction of chi(O(-K))
        assert riemann_roch_chi(inv.K4, inv.K2c2, 1) == inv.chi_antiK
        # closed Hodge numbers vs polynomial calculus
        h = hodge_of_fourfold(p)
        eX = blowup_formula(bundle_formula(hodge_of_threefold(Z), 1),
                            hodge_of_surface(p), 2)
        assert (h.h12, h.h13, h.h22) == \
            (eX.coeff(1, 2), eX.coeff(1, 3), eX.coeff(2, 2))


def test_c5_integrality_suite():
    # admissible grid: every 1/2, 3/2, 1/12, 2d/i, d*delta/12 must cancel
    for p in enumerate_families():
        p1_bundle_invariants(p)            # 3/2 and 1/3 factors
        inv = fano4_invariants(p)          # 1/2 factors
        rr = riemann_roch_chi(inv.K4, inv.K2c2, 1)   # 1/12 factor
        assert rr.denominator == 1
        assert isinstance(h0_line_bundle(p), int)   # 2d/i, d*delta/12
    # boundary-rejected grid: no integrality claim is made there; the
    # operations refuse these triples outright
    for z in catalog():
        bound = 4 * z.index
        rejected = [(a, d) for a in range(bound + 1) for d in range(1, bound + 1)
                    if not validate_params(z.id, a, d)]
        assert rejected, "grid must contain rejected points"
        for a, d in rejected:
            params = FamilyParams(z.id, a, d)   # in the domain, not admissible
            with pytest.raises(ValueError):
                fano4_invariants(params)


def test_c6_cone_duality_suite():
    for p in enumerate_families():
        antiK = anticanonical(p)
        generators = ne_generators(p)
        F = curve_combo(p, {CurveGen.F: 1})
        assert pairing(antiK, F) == 1   # index-1 witness
        for C in generators:
            assert pairing(antiK, C) >= 1
        for ray in nef_rays(p):
            for C in generators:
                value = pairing(ray.generator, C)
                assert value >= 0
                assert (value == 0) == (C.kind in ray.vanishing_face)


def test_c7_section_count_oracles():
    # P^3: monomial count
    for d in range(1, 7):
        assert h0_line_bundle(FamilyParams(7, 0, d)) == comb(d + 3, 3)
    # quadric in P^4: ambient forms modulo multiples of the quadric
    for d in range(1, 5):
        ambient = comb(d + 4, 4)
        multiples = comb(d + 2, 4) if d >= 2 else 0
        assert h0_line_bundle(FamilyParams(6, 0, d)) == ambient - multiples


def test_c8_mutation_sensitivity(records):
    term_names = list(k4_closed_terms(FamilyParams(7, 1, 2)))
    assert len(term_names) == 5
    for name in term_names:
        mutated = []
        for r in records:
            terms = k4_closed_terms(FamilyParams(r.z_id, r.a, r.d))
            mutated.append(r._replace(K4=sum(terms.values()) - terms[name]))
        result = verify_all(mutated)
        assert result.fail_count >= 1, f"dropping {name} went unnoticed"
