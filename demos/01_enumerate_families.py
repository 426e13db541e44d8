#!/usr/bin/env python3
"""Walk through the enumeration of the 28 families.

Each family is a smooth Fano 4-fold X of Picard number 3 containing a prime
divisor of Picard rank 1, and every such 4-fold arises from a triple
(Z, a, d): a base Fano 3-fold Z of Picard number 1 and index i >= 2, a bundle
twist a >= 0, and the degree d >= 1 of a smooth surface in |O_Z(d)|.
"""

from fano4 import enumerate_families, validate_params
from fano4.catalog import catalog

print("The seven base 3-folds:")
for z in catalog():
    print(f"  Z_{z.id}: {z.description}")
    print(f"       index {z.index}, degree {z.degree}, -K^3 = {z.minus_K3}, "
          f"h^(1,2) = {z.h12}")

print()
print("A triple (z_id, a, d) is admissible when")
print("  a > d or a <= d/2   (normalizes the symmetry (a, d) ~ (d - a, d))")
print("  a <= i - 1 and d - a <= i - 1   (the Fano condition)")
print("which forces d <= 2i - 2.  For example:")
for z_id, a, d in [(7, 3, 6), (1, 1, 1), (6, 3, 1)]:
    verdict = "admissible" if validate_params(z_id, a, d) else "rejected"
    print(f"  (z_id={z_id}, a={a}, d={d}) -> {verdict}")

print()
families = enumerate_families()
print(f"All admissible triples ({len(families)} families):")
for z_id in range(1, 8):
    sub = [f"({p.a},{p.d})" for p in families if p.z_id == z_id]
    print(f"  Z_{z_id}: {' '.join(sub)}")
