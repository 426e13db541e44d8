"""The Segre ring of ``ring_oracle`` against the records, table 2, the closed
quartic form of D^4, the pairing table of ``fano4.cones`` and the nef rays;
its Chern class c(X) against the records, table 2, Todd and the closed form
of c2.D^2; and Hirzebruch-Riemann-Roch against the records, table 3 and
the twists h^0(O_Z(k)).

Each test runs on all 28 families.  The oracle reads only (i, delta, a, d),
and h^{1,2}(Z) for c(X).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb

import fano4.cones as cones
from fano4.catalog import _h0_twist, enumerate_families
from fano4.cones import CurveGen, RayLabel, nef_rays
from fano4.golden import golden_tables
from fano4.report import build_all_records
from ring_oracle import (anticanonical, chern_character, chern_class, dual,
                         image_dimension, integrate, intersect, linear,
                         multiply, named_divisors, one_plus, over_ring_basis,
                         part, segre_table, todd_class)

FAMILIES = enumerate_families()


def _ring(p):
    """The oracle's table and -K of one family, from (i, delta, a, d)."""
    Z = p.threefold
    return (segre_table(Z.degree, p.a, p.d),
            anticanonical(Z.index, p.a))


def test_segre_table_holds_the_15_quartic_monomials():
    for p in FAMILIES:
        table, _ = _ring(p)
        assert len(table) == 15 and all(type(v) is int for v in table.values())
        delta, a, d = p.threefold.degree, p.a, p.d
        # the values that ROADMAP item 13 writes out
        assert (table[(4, 0, 0)], table[(3, 1, 0)]) == (0, delta)
        assert (table[(2, 0, 2)], table[(1, 0, 3)], table[(0, 0, 4)]) == \
            (-d * delta, -(a + d) * d * delta, -((a + d) ** 2 - a * d) * d * delta)


def test_anticanonical_degree_equals_the_record_and_table_2():
    records = {r.label: r for r in build_all_records()}
    table2 = {row.label: row for row in golden_tables().table2}
    assert len(records) == len(table2) == len(FAMILIES) == 28
    for p in FAMILIES:
        table, antiK = _ring(p)
        K4 = intersect(table, antiK, antiK, antiK, antiK)
        assert K4 == records[p.label].K4 == table2[p.label].K4, p.label


def _closed_d4(delta, a, d, x, y, z):
    """ROADMAP item 1's closed D^4 of x phi*H + y Ghat + z E."""
    w, s = z - y, x + a * y
    return (sum(comb(4, q) * x ** (4 - q) * y ** q * a ** (q - 1) * delta
                for q in range(1, 5))
            - 6 * w ** 2 * d * delta * s ** 2
            - 4 * w ** 3 * (a + d) * d * delta * s
            + w ** 4 * (a * d ** 2 * delta - (a + d) ** 2 * d * delta))


def test_closed_quartic_form_holds_on_the_box():
    box = range(-2, 3)
    for p in FAMILIES:
        table, _ = _ring(p)
        delta = p.threefold.degree
        for x, y, z in product(box, box, box):
            D = over_ring_basis((x, y, z))
            assert intersect(table, D, D, D, D) == \
                _closed_d4(delta, p.a, p.d, x, y, z), (p.label, x, y, z)


def test_four_pairing_routes_reproduce_the_pairing_columns():
    # D.F = D.E.h^2/(d delta), D.Fhat = D.Ehat.h^2/(d delta),
    # D.C_G = D.G.h^2/delta and D.C_Ghat = D.Ghat.h^2/delta
    h = (1, 0, 0)
    for p in FAMILIES:
        table, _ = _ring(p)
        delta, a, d = p.threefold.degree, p.a, p.d
        named = named_divisors(a, d)
        routes = {CurveGen.F: ("E", d * delta), CurveGen.F_HAT: ("Ehat", d * delta),
                  CurveGen.C_G: ("G", delta), CurveGen.C_G_HAT: ("Ghat", delta)}
        columns = {}
        for gen, (divisor, scale) in routes.items():
            column = []
            for basis in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
                value, rest = divmod(intersect(table, over_ring_basis(basis),
                                               named[divisor], h, h), scale)
                assert rest == 0, (p.label, gen, basis)
                column.append(value)
            columns[gen] = tuple(column)
        assert columns == cones._pairing_columns(a, d), p.label


def test_image_dimension_of_every_nef_ray():
    # R1 is the conic bundle onto Z; R2 = G moves in a free pencil, onto P^1,
    # exactly when a = 0; every other ray is birational
    counts = {}
    for p in FAMILIES:
        table, antiK = _ring(p)
        for ray in nef_rays(p):
            D = over_ring_basis(ray.generator.coords)
            dimension = image_dimension(table, D, antiK)
            if ray.label is RayLabel.R1:
                want = 3
            elif ray.label is RayLabel.R2 and p.a == 0:
                want = 1
            else:
                want = 4
            assert dimension == want, (p.label, ray.label)
            counts[dimension] = counts.get(dimension, 0) + 1
    assert counts == {3: 28, 1: 10, 4: 60}


def _chern_classes(p):
    """c0..c4 of X by Aluffi's formula, from (i, delta, h^{1,2}(Z), a, d)."""
    Z = p.threefold
    c = chern_class(Z.index, Z.degree, Z.h12, p.a, p.d)
    assert all(type(v) in (int, Fraction) for v in c.values())
    return [part(c, k) for k in range(5)]


def test_first_chern_class_is_the_anticanonical_class():
    for p in FAMILIES:
        _, antiK = _ring(p)
        assert _chern_classes(p)[1] == linear(antiK), p.label


def test_k2c2_of_the_chern_class_equals_the_record_and_table_2():
    records = {r.label: r for r in build_all_records()}
    table2 = {row.label: row for row in golden_tables().table2}
    for p in FAMILIES:
        table, _ = _ring(p)
        _, c1, c2, _, _ = _chern_classes(p)
        K2c2 = integrate(table, multiply(c1, c1, c2))
        assert K2c2 == records[p.label].K2c2 == table2[p.label].K2c2, p.label


def test_top_chern_class_is_the_euler_number_of_the_records():
    # e(X) = sum (-1)^(p+q) h^{p,q} = 8 + h22 + 2 h13 - 4 h12 for rho = 3
    records = {r.label: r for r in build_all_records()}
    for p in FAMILIES:
        table, _ = _ring(p)
        r = records[p.label]
        assert integrate(table, _chern_classes(p)[4]) == \
            8 + r.h22 + 2 * r.h13 - 4 * r.h12, p.label


def test_todd_genus_of_the_chern_class_is_one():
    # chi(O_X) = (-c1^4 + 4 c1^2 c2 + 3 c2^2 + c1 c3 - c4)/720 = 1, as
    # h^{0,q}(X) = 0 for q > 0 on a Fano 4-fold
    for p in FAMILIES:
        table, _ = _ring(p)
        _, c1, c2, c3, c4 = _chern_classes(p)
        numbers = [integrate(table, multiply(*factors)) for factors in (
            (c1, c1, c1, c1), (c1, c1, c2), (c2, c2), (c1, c3), (c4,))]
        weights = (-1, 4, 3, 1, -1)
        todd = Fraction(sum(w * n for w, n in zip(weights, numbers)), 720)
        assert todd == 1, p.label


def _closed_c2_d2(i, delta, a, d, x, y, z):
    """ROADMAP item 1's closed c2.D^2 of x phi*H + y Ghat + z E."""
    w, s = z - y, x + a * y
    c2h = Fraction(24, i)   # c2(Z).H, an int for i = 2, 3, 4
    return (c2h * (2 * x * y + a * y * y)
            + i * delta * (2 * x * x + 2 * a * x * y + a * a * y * y)
            + d * delta * s * s
            - w * w * (d * (c2h + i * a * delta) + a * d * d * delta)
            + 2 * w * (i + a) * d * delta * s
            + w * w * (a + d) * (i + a) * d * delta)


def test_closed_c2_form_holds_on_the_box():
    box = range(-2, 3)
    compared = 0
    for p in FAMILIES:
        table, _ = _ring(p)
        c2 = _chern_classes(p)[2]
        Z = p.threefold
        for x, y, z in product(box, box, box):
            D = linear(over_ring_basis((x, y, z)))
            assert integrate(table, multiply(c2, D, D)) == _closed_c2_d2(
                Z.index, Z.degree, p.a, p.d, x, y, z), (p.label, x, y, z)
            compared += 1
    assert compared == 28 * 125


def _hrr(p):
    """c(X) of one family, and chi(F) = int ch(F) td(X) of a sheaf F on it,
    given by its Chern character."""
    Z = p.threefold
    table = _ring(p)[0]
    c = chern_class(Z.index, Z.degree, Z.h12, p.a, p.d)
    todd = todd_class(c)
    assert all(type(v) in (int, Fraction) for v in todd.values())
    return c, lambda character: integrate(table, multiply(character, todd))


def test_chi_of_the_tangent_sheaf_by_hrr_equals_the_record_and_table_3():
    records = {r.label: r for r in build_all_records()}
    table3 = {row.label: row for row in golden_tables().table3}
    for p in FAMILIES:
        c, chi = _hrr(p)
        chi_T = chi(chern_character(4, c))
        assert chi_T == records[p.label].chi_T == table3[p.label].chi_T, p.label


def test_hodge_numbers_by_hrr_equal_the_records_and_table_2():
    # chi(Omega^1) = -h11 + h12 - h13 with h11 = rho = 3, and
    # e(X) = c4 = 8 + h22 + 2 h13 - 4 h12
    records = {r.label: r for r in build_all_records()}
    table2 = {row.label: row for row in golden_tables().table2}
    for p in FAMILIES:
        c, chi = _hrr(p)
        r = records[p.label]
        h13 = r.h12 - 3 - chi(dual(chern_character(4, c)))
        h22 = integrate(_ring(p)[0], part(c, 4)) - 8 + 4 * r.h12 - 2 * h13
        assert (h13, h22) == (r.h13, r.h22) == \
            (table2[p.label].h13, table2[p.label].h22), p.label


def test_twists_of_the_pulled_back_hyperplane_by_hrr():
    # chi(O_X(k phi*H)) = chi(O_Z(k)) = h^0(O_Z(k)) for k >= 0, and
    # chi(O_X(E)) = 1, as E is exceptional: phi_* O_X(E) = O_Y
    for p in FAMILIES:
        _, chi = _hrr(p)
        for k in range(7):
            twist = chern_character(1, one_plus((k, 0, 0)))
            assert chi(twist) == _h0_twist(p, k), (p.label, k)
        assert chi(chern_character(1, one_plus((0, 0, 1)))) == 1, p.label
