from __future__ import annotations

import inspect
from importlib import import_module

import pytest

import fano4.catalog as catalog_module
from fano4.catalog import (
    FamilyParams,
    FanoThreefold,
    HBaseLocus,
    catalog,
    enumerate_families,
    threefold,
    validate_params,
)
from fano4.errors import ConsistencyError, IntegrityError
from fano4.intersect import BlowupCentreData, BundleInput, CanonicalDegrees


def brute_force_admissible(index: int, a_max: int, d_max: int) -> set[tuple[int, int]]:
    """Independent filter: the admissibility conditions checked literally."""
    out = set()
    for a in range(a_max + 1):
        for d in range(1, d_max + 1):
            normalized = a > d or a <= d / 2
            if normalized and a <= index - 1 and d - a <= index - 1:
                out.add((a, d))
    return out


def test_catalog_has_seven_rows_ordered_by_id():
    rows = catalog()
    assert len(rows) == 7
    assert [z.id for z in rows] == list(range(1, 8))


def test_first_row_is_the_weighted_sextic():
    z = catalog()[0]
    assert (z.index, z.degree, z.h12) == (2, 1, 21)
    assert (z.h0_tangent, z.h1_tangent) == (0, 34)
    assert z.base_locus_H is HBaseLocus.ONE_SIMPLE_POINT
    assert not z.rational


def test_last_row_is_projective_space():
    z = catalog()[6]
    assert (z.index, z.degree, z.h12) == (4, 1, 0)
    assert (z.h0_tangent, z.h1_tangent) == (15, 0)
    assert z.base_locus_H is HBaseLocus.EMPTY
    assert z.rational


def test_quadric_anticanonical_degree():
    assert threefold(6).minus_K3 == 27 * 2 == 54


def test_anticanonical_degree_identity():
    for z in catalog():
        assert z.minus_K3 == z.index**3 * z.degree


def test_chi_tangent_identity():
    # chi(T_Z) = -K^3/2 - h^{1,2} - 17 across all seven rows
    for z in catalog():
        assert z.h0_tangent - z.h1_tangent == z.minus_K3 // 2 - z.h12 - 17


# a mistyped -K^3 (degree, index) is a table-1 mismatch in report.verify_all
@pytest.mark.parametrize("z_id,change,error,message", [
    (4, {"h1_tangent": 4}, ConsistencyError,
     "Z_4: chi(T_Z) disagree: h0(T)-h1(T) -4, Riemann-Roch -3"),
    # -K^3 = 5^3 * 1 is odd too: the divisibility check must fire first
    (7, {"index": 5}, IntegrityError,
     "Z_7: 24/i_Z = 24/5 is not an integer"),
], ids=["chi_tangent", "index_divides_24"])
def test_catalogue_guards_fire(monkeypatch, z_id, change, error, message):
    rows = list(catalog_module._CATALOG)
    rows[z_id - 1] = rows[z_id - 1]._replace(**change)
    catalog_module._validate_catalog()   # sound before the fault
    monkeypatch.setattr(catalog_module, "_CATALOG", tuple(rows))
    with pytest.raises(error) as exc:
        catalog_module._validate_catalog()
    assert str(exc.value) == message


def test_base_point_only_for_the_weighted_sextic():
    for z in catalog():
        expected = HBaseLocus.ONE_SIMPLE_POINT if z.id == 1 else HBaseLocus.EMPTY
        assert z.base_locus_H is expected


def test_index_at_least_two():
    assert all(z.index >= 2 for z in catalog())


def test_threefold_domain():
    assert threefold(3).id == 3
    with pytest.raises(ValueError):
        threefold(0)
    with pytest.raises(ValueError):
        threefold(8)


@pytest.mark.parametrize("z_id", [True, 2.0, 1.0, "1", None])
def test_threefold_rejects_non_int_id(z_id):
    with pytest.raises(TypeError):
        threefold(z_id)


@pytest.mark.parametrize("column,value", [
    *((column, value) for column in ("id", "index", "degree", "h12",
                                     "h0_tangent", "h1_tangent")
      for value in (1.0, True)),
    ("rational", 1),
    ("rational", 1.0),
])
def test_catalogue_rows_reject_mistyped_columns(column, value):
    # unchecked, a float degree makes the closed K^4 431.0, a bool index 5
    row = threefold(7)
    with pytest.raises(TypeError, match=rf"^FanoThreefold\.{column}: "):
        FanoThreefold(**{**row._asdict(), column: value})
    with pytest.raises(TypeError, match=rf"^FanoThreefold\.{column}: "):
        row._replace(**{column: value})


#: one valid row of each class built on ``_checked_tuple`` without a
#: ``__new__`` of its own; each value's type is its field's declared type
CHECKED_ROWS = (
    threefold(7),
    BundleInput(-64, 0, 0, -24, 1),
    BlowupCentreData(16, 12, 9, 0, 1),
    CanonicalDegrees(512, 224, 105),
)

#: declared type -> values of another type that pass for one of it
MISTYPED = {int: (1.0, True), bool: (1,), str: (HBaseLocus.EMPTY,),
            HBaseLocus: ("empty",)}

#: how a caller builds a row with one field changed
BUILDS = {
    "constructor": lambda row, field, value: type(row)(
        **{**row._asdict(), field: value}),
    "_make": lambda row, field, value: type(row)._make(
        value if name == field else old for name, old in row._asdict().items()),
    "_replace": lambda row, field, value: row._replace(**{field: value}),
}


@pytest.mark.parametrize("row,field,value,build", [
    pytest.param(row, field, value, build,
                 id=f"{type(row).__name__}-{field}-{type(value).__name__}-{build}")
    for row in CHECKED_ROWS for field, good in row._asdict().items()
    for value in MISTYPED[type(good)] for build in BUILDS])
def test_a_checked_row_refuses_each_mistyped_field(row, field, value, build):
    make = BUILDS[build]
    assert make(row, field, getattr(row, field)) == row   # the valid value
    with pytest.raises(TypeError,
                       match=rf"^{type(row).__name__}\.{field}: expected "):
        make(row, field, value)


@pytest.mark.parametrize("row", CHECKED_ROWS, ids=lambda row: type(row).__name__)
def test_a_checked_row_class_keeps_its_fields_as_its_signature(row):
    assert tuple(inspect.signature(type(row)).parameters) == row._fields


def test_validate_params_examples():
    assert validate_params(7, 3, 6) is True
    assert validate_params(1, 1, 1) is False
    assert validate_params(6, 3, 1) is False  # a = 3 > i - 1 = 2


def test_validate_params_agrees_with_brute_force():
    # (1, 1, 1): 1 > 1 fails and 1 <= 1/2 fails
    assert (1, 1) not in brute_force_admissible(threefold(1).index, 10, 10)
    for z in catalog():
        expected = brute_force_admissible(z.index, 10, 10)
        got = {(a, d) for a in range(11) for d in range(1, 11)
               if validate_params(z.id, a, d)}
        assert got == expected


def test_validate_params_rejects_bad_domain():
    with pytest.raises(ValueError):
        validate_params(0, 0, 1)
    with pytest.raises(ValueError):
        validate_params(8, 0, 1)
    with pytest.raises(ValueError):
        validate_params(1, -1, 1)
    with pytest.raises(ValueError):
        validate_params(1, 0, 0)


def test_family_params_domain():
    with pytest.raises(ValueError):
        FamilyParams(0, 0, 1)
    with pytest.raises(ValueError):
        FamilyParams(1, -1, 1)
    with pytest.raises(ValueError):
        FamilyParams(1, 0, 0)


def test_family_params_reject_non_int_components():
    with pytest.raises(TypeError):
        validate_params(7, 0.5, 1)
    with pytest.raises(TypeError):
        validate_params(7.0, 0, 1)
    with pytest.raises(TypeError):
        validate_params(7, 0, True)
    with pytest.raises(TypeError):
        FamilyParams(7, True, 2)
    with pytest.raises(TypeError):
        FamilyParams(7, 1, 2.0)


def test_family_params_equality_hash_order_and_repr_see_only_the_triple():
    inadmissible, admissible = FamilyParams(1, 1, 1), FamilyParams(1, 1, 2)
    assert (inadmissible.is_admissible, admissible.is_admissible) == (False, True)
    assert FamilyParams(7, 1, 2) == FamilyParams(7, 1, 2)
    assert FamilyParams(7, 1, 2) != FamilyParams(7, 2, 1)
    assert hash(FamilyParams(7, 1, 2)) == hash((7, 1, 2))
    assert len({FamilyParams(7, 1, 2), FamilyParams(7, 1, 2)}) == 1
    assert inadmissible < admissible < FamilyParams(2, 0, 1)
    assert sorted([FamilyParams(7, 3, 6), admissible, FamilyParams(7, 0, 1),
                   inadmissible]) == [inadmissible, admissible,
                                      FamilyParams(7, 0, 1), FamilyParams(7, 3, 6)]
    assert repr(inadmissible) == "FamilyParams(z_id=1, a=1, d=1)"
    assert tuple(admissible) == (1, 1, 2)
    # the stored catalogue row is outside the tuple too
    assert admissible.threefold is threefold(1)
    assert admissible == (1, 1, 2) and hash(admissible) == hash((1, 1, 2))
    assert admissible._asdict() == {"z_id": 1, "a": 1, "d": 2}
    assert len(admissible) == 3 and FamilyParams._fields == ("z_id", "a", "d")


def test_family_params_replace_stores_a_fresh_verdict():
    assert FamilyParams(1, 1, 2)._replace(d=1).is_admissible is False
    assert FamilyParams(1, 1, 1)._replace(d=2).is_admissible is True
    with pytest.raises(ValueError):
        FamilyParams(1, 1, 2)._replace(d=0)


def test_family_params_carry_the_row_of_their_threefold():
    for z in catalog():
        assert FamilyParams(z.id, 0, 1).threefold is z
    assert FamilyParams(1, 1, 2)._replace(z_id=7).threefold is threefold(7)
    assert FamilyParams._make((6, 2, 4)).threefold is threefold(6)
    with pytest.raises(ValueError):
        FamilyParams(1, 1, 2)._replace(z_id=8)


@pytest.mark.parametrize("name", ["z_id", "a", "d", "is_admissible",
                                  "threefold", "other"])
def test_family_params_are_immutable(name):
    params = FamilyParams(1, 1, 2)
    with pytest.raises(AttributeError):
        setattr(params, name, 0)
    if name in ("is_admissible", "threefold"):
        with pytest.raises(AttributeError):
            delattr(params, name)
    assert params.is_admissible is True
    assert params.threefold is threefold(1)
    assert tuple(params) == (1, 1, 2)


@pytest.mark.parametrize("name", ["id", "degree", "rational", "other"])
def test_catalogue_rows_are_immutable(name):
    row = threefold(7)
    with pytest.raises(AttributeError):
        setattr(row, name, 2)
    assert row.degree == 1


def test_family_label_format():
    assert FamilyParams(7, 3, 6).label == "X^7_{3,6}"
    assert FamilyParams(1, 0, 1).label == "X^1_{0,1}"


def test_enumerate_28_families():
    families = enumerate_families()
    assert len(families) == 28
    assert len(set(families)) == 28
    assert families == sorted(families)


def test_enumerate_counts_per_threefold():
    families = enumerate_families()
    counts = [sum(1 for p in families if p.z_id == z) for z in range(1, 8)]
    assert counts == [2, 2, 2, 2, 2, 6, 12]


def test_enumerate_index_two_sublists():
    # brute-force oracle with a, d <= 10 gives exactly {(0,1), (1,2)} at index 2
    assert brute_force_admissible(2, 10, 10) == {(0, 1), (1, 2)}
    families = enumerate_families()
    for z_id in range(1, 6):
        sub = [(p.a, p.d) for p in families if p.z_id == z_id]
        assert sub == [(0, 1), (1, 2)]


def test_enumerate_quadric_sublist():
    sub = [(p.a, p.d) for p in enumerate_families() if p.z_id == 6]
    assert sub == [(0, 1), (0, 2), (1, 2), (1, 3), (2, 1), (2, 4)]


def test_enumerate_matches_validate_on_large_grid():
    families = set(enumerate_families())
    for z in catalog():
        bound = 4 * z.index
        for a in range(bound + 1):
            for d in range(1, bound + 1):
                assert (FamilyParams(z.id, a, d) in families) == \
                    validate_params(z.id, a, d)


def test_enumerate_search_grid_loses_no_family():
    # enumerate_families searches d <= a + i_Z - 1 only; validate_params
    # over a grid past both Fano bounds admits the same triples, in order
    admitted = [(z.id, a, d) for z in catalog() for a in range(8)
                for d in range(1, 14) if validate_params(z.id, a, d)]
    assert admitted == [tuple(p) for p in enumerate_families()]


def test_enumerate_degree_bound():
    for p in enumerate_families():
        assert p.d <= 2 * p.threefold.index - 2


def test_enumerate_normalization():
    for p in enumerate_families():
        assert p.a > p.d or 2 * p.a <= p.d


#: every public function defined only on the 28 families, as (module,
#: name, the arguments after its FamilyParams)
GUARDED = [("cones", "anticanonical", ()), ("cones", "ne_generators", ()),
           ("cones", "nef_rays", ()), ("cones", "is_fibre_like", ()),
           ("classify", "base_locus", ()), ("classify", "toric_label", ()),
           ("classify", "rationality", ()), ("classify", "tangent_bounds", (0,)),
           ("intersect", "fano4_invariants", ())]


@pytest.mark.parametrize("module, name, args", GUARDED,
                         ids=[f"{m}.{n}" for m, n, _ in GUARDED])
def test_each_guarded_function_refuses_an_inadmissible_triple(module, name,
                                                               args):
    # without its require_admissible call each one answers for a non-family:
    # is_fibre_like with not_fibre_like, a plausible label
    function = getattr(import_module(f"fano4.{module}"), name)
    with pytest.raises(ValueError, match=r"^X\^7_\{4,1\} is not admissible$"):
        function(FamilyParams(7, 4, 1), *args)
