#!/usr/bin/env python3
"""Compute the numerical invariants of one family along every route.

The package never trusts a single formula: K^4, K^2.c2 and h^0(-K) come out
of closed forms, out of the generic bundle/blow-up calculus, and (for the
section count) out of Riemann-Roch; the Hodge numbers come out of closed
forms and of the Hodge-polynomial calculus.  All routes must agree exactly.
"""

from fano4 import FamilyParams
from fano4.hodge import (
    blowup_formula,
    bundle_formula,
    hodge_of_fourfold,
    hodge_of_surface,
    hodge_of_threefold,
)
from fano4.intersect import (
    closed_degrees,
    p1_bundle_invariants,
    riemann_roch_chi,
    surface_blowup_invariants,
    surface_centre,
)

params = FamilyParams(6, 2, 4)     # the family X^6_{2,4} over the quadric
Z, a, d = params.threefold, params.a, params.d
print(f"family over Z_{Z.id} ({Z.description}) with a={a}, d={d}")

print()
print("route 1, closed forms (fano4_invariants checks them against routes 2 "
      "and 3):")
inv = closed_degrees(params)
print(f"  K^4 = {inv.K4}, K^2.c2 = {inv.K2c2}, h^0(-K) = {inv.chi_antiK}")

print()
print("route 2, generic bundle then blow-up:")
bundle = p1_bundle_invariants(params)
print(f"  on Y = P(O + O({a})):  K^4 = {bundle.K4}, K^2.c2 = {bundle.K2c2}, "
      f"chi(-K) = {bundle.chi_antiK}")
blown = surface_blowup_invariants(bundle, surface_centre(params))
print(f"  after the blow-up:    K^4 = {blown.K4}, K^2.c2 = {blown.K2c2}, "
      f"chi(-K) = {blown.chi_antiK}")

print()
print("route 3, Riemann-Roch on the 4-fold:")
print(f"  chi(O) + (2K^4 + K^2.c2)/12 = {riemann_roch_chi(inv.K4, inv.K2c2, 1)}")

print()
print("Hodge numbers, closed forms vs polynomial calculus:")
h = hodge_of_fourfold(params)
print(f"  closed: h^(1,2) = {h.h12}, h^(1,3) = {h.h13}, h^(2,2) = {h.h22}")
eX = blowup_formula(bundle_formula(hodge_of_threefold(Z), 1),
                    hodge_of_surface(params), 2)
print(f"  e(X):   h^(1,2) = {eX.coeff(1, 2)}, h^(1,3) = {eX.coeff(1, 3)}, "
      f"h^(2,2) = {eX.coeff(2, 2)}")
print(f"  b_2(X) = {eX.betti(2)} (= the Picard number)")
