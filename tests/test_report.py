from __future__ import annotations

import ast
import csv
import importlib
import io
import json
from pathlib import Path

import pytest

import fano4.catalog as catalog_module
import fano4.golden as golden
from fano4.catalog import FamilyParams, catalog, enumerate_families
from fano4.classify import BaseLocusKind, Rationality, ToricLabel
from fano4.cones import CurveGen, cone_data, pairing_matrix
from fano4.errors import ConsistencyError, IntegrityError
from fano4.golden import GoldenFamilyRow, GoldenTangentRow, golden_tables
from fano4.hodge import HodgePolynomial, hodge_of_fourfold
from fano4.intersect import fano4_invariants, k4_closed_terms
from fano4.report import (
    EXPORT_FIELDS,
    FamilyRecord,
    Mismatch,
    build_all_records,
    build_record,
    build_records,
    export,
    verify_all,
)


@pytest.fixture(scope="module")
def records():
    return build_all_records()


@pytest.fixture(scope="module")
def by_label(records):
    return {r.label: r for r in records}


def test_build_record_p3_extreme_family(by_label):
    r = by_label["X^7_{3,6}"]
    assert (r.K4, r.h13, r.h22) == (170, 10, 88)
    assert r.chi_T == -67


def test_build_record_grassmannian_family(by_label):
    r = by_label["X^5_{1,2}"]
    assert r.h0_antiK == 37
    assert r.h1_T == 22


def test_build_record_weighted_sextic_family(by_label):
    r = by_label["X^1_{0,1}"]
    assert r.base_locus is BaseLocusKind.ONE_POINT
    assert r.rationality is Rationality.VERY_GENERAL_NOT_RATIONAL


def test_build_record_rejects_inadmissible():
    # the layer results of an admissible family make no row for a triple
    # that fano4_invariants would have refused: the classify calls refuse it
    p = FamilyParams(7, 3, 6)
    with pytest.raises(ValueError, match=r"^X\^7_\{4,1\} is not admissible$"):
        build_record(FamilyParams(7, 4, 1), fano4_invariants(p),
                     hodge_of_fourfold(p))


def test_the_invariant_layer_attaches_the_label_on_internal_errors(monkeypatch):
    import fano4.intersect as intersect
    from fano4.errors import ConsistencyError

    monkeypatch.setattr(intersect, "k4_closed_terms", lambda params: {})
    with pytest.raises(ConsistencyError, match=r"X\^6_\{2,4\}"):
        intersect.fano4_invariants(FamilyParams(6, 2, 4))


def test_verify_all_runs_the_cone_checks(monkeypatch):
    import fano4.cones as cones

    monkeypatch.setattr(cones, "_ne_kinds", lambda a, d: (cones.CurveGen.C_G,))
    with pytest.raises(ConsistencyError) as exc:
        verify_all()
    # the first family fails first
    assert str(exc.value) == ("X^1_{0,1}: -K degree gcd disagree: pairing 2, "
                              "Fano index 1")


def test_the_pass_runs_the_cone_layer_first(monkeypatch):
    import fano4.cones as cones
    import fano4.hodge as hodge
    import fano4.intersect as intersect
    import fano4.report as report

    build_all_records()   # every cache is warm
    calls = []
    for module, name in ((cones, "cone_data"), (intersect, "fano4_invariants"),
                         (hodge, "hodge_of_fourfold"), (report, "build_record")):
        def logged(p, *results, _name=name, _original=getattr(module, name)):
            calls.append((_name, p))
            return _original(p, *results)
        monkeypatch.setattr(module, name, logged)
    build_all_records()
    families = enumerate_families()
    # each layer runs on all 28 families, in order, before the next one
    assert calls == [(name, p) for name in ("cone_data", "fano4_invariants",
                                            "hodge_of_fourfold", "build_record")
                     for p in families]
    inv, hdg = fano4_invariants(families[0]), hodge_of_fourfold(families[0])
    calls.clear()
    # build_record only assembles the row from the layer results it is given
    build_record(families[0], inv, hdg)
    assert calls == []


#: the functions whose order makes a row, which only build_records may call
ROW_LAYERS = ("fano4_invariants", "hodge_of_fourfold", "build_record")


def row_layer_calls() -> set[tuple[str, str]]:
    """("<module>.<enclosing def>", callee) for every call of a row layer in
    ``src/fano4``, named by bare name or attribute alike."""
    calls = set()

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = (func.id if isinstance(func, ast.Name)
                        else getattr(func, "attr", None))
                if name in ROW_LAYERS:
                    calls.add((scope, name))
            visit(child, scope)

    src = Path(__file__).resolve().parent.parent / "src" / "fano4"
    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return calls


def test_the_row_layers_are_sequenced_in_build_records_alone():
    # fano4 info and the 28-family pass build their rows through one function
    assert row_layer_calls() == {("report.build_records", name)
                                 for name in ROW_LAYERS}


def test_an_iterator_of_families_gives_the_records_of_the_list(records):
    # every layer loop sees each family, though an iterator is read once
    assert build_records(iter(enumerate_families())) == records


def test_build_all_records_builds_the_ne_generators_once_per_family(monkeypatch):
    import fano4.cones as cones

    calls = []
    original = cones.ne_generators
    monkeypatch.setattr(cones, "ne_generators",
                        lambda p: calls.append(p) or original(p))
    build_all_records()
    assert calls == enumerate_families()


_H13 = HodgePolynomial({(1, 3): 1, (3, 1): 1})

_HODGE_MESSAGE = ("X^6_{2,4}: Hodge numbers (h12, h13, h22) disagree: "
                  "closed (0, 5, 54), polynomial (0, 6, 54)")

#: name -> (module, function, corruption of its result, the layer function
#: whose check fires, the whole message of that check for X^6_{2,4})
RECORD_FAULTS = {
    "hodge_blowup_formula": ("hodge", "blowup_formula", lambda e: e + _H13,
                             hodge_of_fourfold, _HODGE_MESSAGE),
    "hodge_cached_bundle_term": ("hodge", "_bundle_over_threefold",
                                 lambda e: e + _H13, hodge_of_fourfold,
                                 _HODGE_MESSAGE),
    "bundle_generic_form": (
        "intersect", "projective_bundle_invariants",
        lambda c: c._replace(K4=c.K4 + 8), fano4_invariants,
        "X^6_{2,4}: bundle degrees disagree: closed CanonicalDegrees(K4=624, "
        "K2c2=252, chi_antiK=126), generic CanonicalDegrees(K4=632, K2c2=252, "
        "chi_antiK=126)"),
    "riemann_roch": ("intersect", "riemann_roch_chi", lambda chi: chi + 1,
                     fano4_invariants,
                     "X^6_{2,4}: chi(O(-K)) disagree: closed 40, "
                     "Riemann-Roch 41"),
}


@pytest.mark.parametrize("fault", sorted(RECORD_FAULTS))
def test_record_checks_fire_with_warm_caches(monkeypatch, fault):
    module_name, name, corrupt, layer, message = RECORD_FAULTS[fault]
    module = importlib.import_module(f"fano4.{module_name}")
    build_all_records()   # every cache is warm: none may hide the fault
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: corrupt(original(*args)))
    with pytest.raises(ConsistencyError) as exc:
        layer(FamilyParams(6, 2, 4))
    assert str(exc.value).startswith("X^6_{2,4}: ")
    assert str(exc.value).count("X^6_{2,4}") == 1
    assert str(exc.value) == message


def test_the_euler_number_of_the_surface_catches_a_wrong_h02(monkeypatch):
    import sys

    import fano4.hodge as hodge

    target = FamilyParams(6, 2, 4)
    original = hodge.surface_h02

    def shifted(p):
        return original(p) + (1 if p == target else 0)

    build_all_records()   # every cache is warm: none may hide the fault
    sound = fano4_invariants(target)
    # rebind every name a fano4 module holds for surface_h02
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "fano4":
            for attr in [a for a, v in vars(module).items() if v is original]:
                monkeypatch.setattr(module, attr, shifted)
    # the invariant routes shift alike, and so do both Hodge routes: h13 is
    # 6 against table 2's 5, and only e(A) by Chern classes tells
    assert fano4_invariants(target) == sound._replace(
        K2c2=sound.K2c2 - 12, chi_antiK=sound.chi_antiK - 1)
    with pytest.raises(ConsistencyError) as exc:
        build_all_records()
    assert str(exc.value) == ("X^6_{2,4}: e(A) disagree: Noether 76, "
                              "Chern classes 64")


def test_the_pass_frees_each_layer_result_as_its_row_is_built():
    import gc
    import tracemalloc

    def record_major():
        families = enumerate_families()
        for p in families:
            cone_data(p)
        return [build_record(p, fano4_invariants(p), hodge_of_fourfold(p))
                for p in families]

    def transient_bytes(build):
        # the peak of one warm pass less what its records keep alive
        gc.collect()
        tracemalloc.start()
        try:
            records = build()
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(records) == 28
        return peak - current

    assert build_all_records() == record_major()   # every cache is warm
    # holding all 56 layer results to the end of the pass costs ~4.4 KB more
    assert transient_bytes(build_all_records) <= \
        transient_bytes(record_major) + 1024


def test_a_negative_tangent_bound_names_the_family_once(monkeypatch):
    import fano4.classify as classify

    p = FamilyParams(7, 1, 3)
    inv, hdg = fano4_invariants(p), hodge_of_fourfold(p)
    monkeypatch.setattr(classify, "h0_line_bundle", lambda params: -100)
    with pytest.raises(IntegrityError) as exc:
        build_record(p, inv, hdg)
    assert str(exc.value) == "X^7_{1,3}: h1 = -101 < 0"


def test_a_corrupted_catalogue_row_names_the_family_once(monkeypatch):
    import fano4.catalog as catalog_module

    rows = list(catalog_module._CATALOG)
    rows[5] = rows[5]._replace(degree=1)   # the quadric, with delta = 1
    monkeypatch.setattr(catalog_module, "_CATALOG", tuple(rows))
    # chi(O_Y(-K_Y)) = 9 + (3/2)*delta*i*(a^2 + i^2) = 9 + 81/2
    with pytest.raises(IntegrityError) as exc:
        fano4_invariants(FamilyParams(6, 0, 1))
    assert str(exc.value).startswith("X^6_{0,1}: ")
    assert str(exc.value).count("X^6_{0,1}") == 1
    assert str(exc.value) == "X^6_{0,1}: chi(O_Y(-K_Y)) = 99/2 is not an integer"


def test_a_warm_pass_checks_each_triple_once(monkeypatch):
    import sys
    from collections import Counter

    import fano4.catalog
    import fano4.errors
    import fano4.hodge
    import fano4.intersect

    calls = {"validate_params": Counter(), "surface_h02": Counter(),
             "projective_bundle_invariants": Counter(),
             "surface_blowup_invariants": Counter(),
             "riemann_roch_chi": Counter(), "agree": Counter(),
             "at_least": Counter(), "integral": Counter()}

    def counted(name, original):
        def wrapper(*args):
            calls[name][args] += 1
            return original(*args)
        return wrapper

    build_all_records()   # every cache is warm
    # rebind every name a fano4 module holds for each function, so that a
    # by-name import cannot hide a call
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "fano4"]
    for original in (fano4.catalog.validate_params, fano4.hodge.surface_h02,
                     fano4.intersect.projective_bundle_invariants,
                     fano4.intersect.surface_blowup_invariants,
                     fano4.intersect.riemann_roch_chi, fano4.errors.agree,
                     fano4.errors.at_least, fano4.errors.integral):
        wrapper = counted(original.__name__, original)
        for module in modules:
            for attr in [a for a, v in vars(module).items() if v is original]:
                monkeypatch.setattr(module, attr, wrapper)
    build_all_records()
    # validate_params runs once per triple of enumerate_families' grid: the
    # 28 families, the only ones built, and 14 rejected triples
    validated = calls["validate_params"]
    assert sum(validated.values()) == 42
    assert set(validated.values()) == {1}
    # each formula of intersect has one def, which the pass calls once per
    # family, as a caller does: no unchecked twin stands in for it
    for name in ("projective_bundle_invariants", "surface_blowup_invariants",
                 "riemann_roch_chi"):
        assert sum(calls[name].values()) == 28, name
    # h^{0,2}(A) is counted three times per family: by the closed route and
    # the pipeline's centre in intersect, and by hodge_of_surface
    counted_h02 = calls["surface_h02"]
    assert len(counted_h02) == 28
    assert sum(counted_h02.values()) == 84
    assert set(counted_h02.values()) == {3}
    # every check of the pass runs: a speedup that drops one fails here, and
    # a change that adds a route moves these counts and says so
    assert {name: sum(calls[name].values())
            for name in ("agree", "at_least", "integral")} == \
        {"agree": 280, "at_least": 196, "integral": 173}


def _library_op():
    """One library op: the 28-family pass, verify_all and the three exports."""
    records = build_all_records()
    verify_all(records)
    for fmt in ("json", "csv", "markdown"):
        export(records, fmt)


def _frames_entered(op):
    """How many times each code object is entered in one warm run of op."""
    import sys
    from collections import Counter

    op()   # every cache is warm
    entered = Counter()

    def profile(frame, event, arg):
        if event == "call":
            entered[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        op()
    finally:
        sys.setprofile(None)
    return entered


def test_a_warm_pass_builds_only_the_28_families():
    """enumerate_families validates each of the 42 triples of its grid once
    and builds a FamilyParams only for the 28 admissible ones, through the
    one builder of the class; the checked constructor is not entered."""
    entered = _frames_entered(build_all_records)
    assert entered[catalog_module.validate_params.__code__] == 42
    assert entered[catalog_module._built.__code__] == 28
    assert entered[FamilyParams.__new__.__code__] == 0


def test_a_matching_op_diffs_no_row():
    """Every reference table, table 1 included, is compared whole: a warm
    op whose tables all match enters _diff for no row."""
    import fano4.report

    entered = _frames_entered(_library_op)
    assert entered[fano4.report._diff.__code__] == 0


def test_a_table_that_differs_is_diffed_alone(records, monkeypatch):
    """One table-3 row that differs makes _diff explain each of the 28 rows
    of table 3, and no row of tables 1 and 2."""
    import fano4.report

    tables = golden_tables()
    tampered = tables._replace(
        table3=tables.table3[:-1] + (tables.table3[-1]._replace(h0_T=15),))
    monkeypatch.setattr(golden, "golden_tables", lambda: tampered)
    diffed = []
    diff = fano4.report._diff

    def counted(family, row, expected):
        diffed.append(type(expected))
        return diff(family, row, expected)

    monkeypatch.setattr(fano4.report, "_diff", counted)
    report = verify_all(records)
    assert diffed == [GoldenTangentRow] * 28
    assert report.mismatches == (Mismatch("X^7_{3,6}", "h0_T", 15, 16),)


def test_records_out_of_table_order_give_the_same_report(records, monkeypatch):
    # the by-label join and the whole-table comparison agree, on matching
    # tables and on a table 3 that differs in one row
    assert verify_all(records[::-1]) == verify_all(records)
    assert verify_all(records[::-1]).ok
    tables = golden_tables()
    tampered = tables._replace(
        table3=(tables.table3[0]._replace(chi_T=0),) + tables.table3[1:])
    monkeypatch.setattr(golden, "golden_tables", lambda: tampered)
    report = verify_all(records)
    assert verify_all(records[::-1]) == report
    assert report.mismatches == (Mismatch("X^1_{0,1}", "chi_T", 0, -34),)


@pytest.mark.parametrize("function", [
    "cones.ne_generators", "cones.nef_rays", "cones.cone_data", "report._diff",
])
def test_the_per_family_functions_of_the_pass_build_no_cell(function):
    """The comprehension cells perf fact of PR 29: before Python 3.12 a
    comprehension that reads a local of its function makes that local a
    cell, built on every call.  The cone functions run 84 times per pass,
    and ``_diff`` once per row of a table that differs (63 times when all
    three do), so they use loops and hold no cell; from 3.12 on (PEP 709,
    inlined comprehensions) this holds whichever is written."""
    import fano4.cones
    import fano4.report

    module, name = function.split(".")
    code = getattr(getattr(fano4, module), name).__code__
    assert code.co_cellvars == ()


def _generated_constructors():
    """The code of the ``__new__`` of every ``typing.NamedTuple`` class of
    fano4, with its class name: the generated one, or, for a base built by
    ``catalog._checked_tuple``, its checking constructor, the only caller of
    the generated one and one code shared by every such base."""
    import sys

    found = {}
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "fano4":
            continue
        for value in vars(module).values():
            if isinstance(value, type) and issubclass(value, tuple):
                for cls in value.__mro__:
                    if "_fields" in vars(cls):   # the generated class
                        found[cls.__new__.__code__] = cls.__name__
    return found


def test_a_warm_library_op_enters_no_row_constructor():
    """The pass builds each row it computes unchecked (``tuple.__new__``):
    no frame of a warm op (the pass, verify_all and the three exports)
    enters the ``__new__`` of a per-family row type or of the
    ``FamilyParams`` base, nor the one checking constructor of
    ``catalog._checked_tuple``, and only the two rows built once per op
    remain.  ``_from_sums`` runs 28 times per pass and enters no
    comprehension."""
    from types import CodeType

    import fano4.classify
    import fano4.hodge
    import fano4.intersect

    entered = _frames_entered(_library_op)
    generated = _generated_constructors()
    per_family = {
        fano4.intersect.CanonicalDegrees, fano4.intersect.BundleInput,
        fano4.intersect.BlowupCentreData, fano4.hodge.FourfoldHodge,
        fano4.classify.TangentBounds, FamilyRecord, FamilyParams.__mro__[1]}
    assert {cls.__new__.__code__ for cls in per_family} <= generated.keys()
    # the three intersect rows, the catalogue rows and the FamilyParams base
    # share the checking constructor of _checked_tuple
    checked = catalog_module.FanoThreefold.__new__.__code__
    assert FamilyParams.__mro__[1].__new__.__code__ is checked
    assert {fano4.intersect.CanonicalDegrees.__new__.__code__,
            fano4.intersect.BundleInput.__new__.__code__,
            fano4.intersect.BlowupCentreData.__new__.__code__} == {checked}
    assert entered[checked] == 0
    assert {generated[code]: n for code, n in entered.items()
            if code in generated} == {"GoldenTables": 1,
                                      "VerificationReport": 1}
    nested = [c for c in fano4.hodge._from_sums.__code__.co_consts
              if isinstance(c, CodeType)]
    assert entered[fano4.hodge._from_sums.__code__] >= 28
    assert not [c for c in nested if entered[c]]


def test_rows_built_unchecked_have_the_arity_of_their_class():
    """``tuple.__new__`` checks no field count: every row that the pass and
    the raw-number operations build must still have its class's fields,
    and equal the row its class constructor builds from the same values."""
    from fano4.classify import TangentBounds, chi_tangent, tangent_bounds
    from fano4.hodge import FourfoldHodge
    from fano4.intersect import (
        BlowupCentreData, BundleInput, CanonicalDegrees, closed_degrees,
        p1_bundle_invariants, projective_bundle_invariants, split_bundle_base,
        surface_blowup_invariants, surface_centre)

    def assert_arity(value, cls):
        assert type(value) is cls
        assert len(value) == len(cls._fields)
        assert cls(*value) == value

    for p in enumerate_families():
        # enumerate_families builds its rows through catalog._built
        assert_arity(p, FamilyParams)
        again = FamilyParams(*p)
        assert (p.is_admissible, p.threefold) == \
            (again.is_admissible, again.threefold)
        invariants, hodge_numbers = fano4_invariants(p), hodge_of_fourfold(p)
        base, centre = p1_bundle_invariants(p), surface_centre(p)
        for value in (invariants, closed_degrees(p), base,
                      surface_blowup_invariants(base, centre)):
            assert_arity(value, CanonicalDegrees)
        assert_arity(split_bundle_base(p), BundleInput)
        assert_arity(centre, BlowupCentreData)
        assert_arity(hodge_numbers, FourfoldHodge)
        chi = chi_tangent(invariants.K4, invariants.chi_antiK, *hodge_numbers)
        assert_arity(tangent_bounds(p, chi), TangentBounds)
        assert_arity(build_record(p, invariants, hodge_numbers), FamilyRecord)
    # caller ints, through the type checks of the raw-number operations
    bundle = projective_bundle_invariants(BundleInput(-64, -36, 0, -24, 1))
    assert_arity(bundle, CanonicalDegrees)
    assert_arity(surface_blowup_invariants(
        bundle, BlowupCentreData(25, -5, 1, 3, 1)), CanonicalDegrees)


def test_a_cold_pass_builds_the_bundle_term_once_per_h12(monkeypatch):
    import fano4.hodge as hodge

    calls = []
    original = hodge.bundle_formula
    monkeypatch.setattr(hodge, "bundle_formula",
                        lambda eW, n: calls.append(eW) or original(eW, n))
    hodge._bundle_over_threefold.cache_clear()
    build_all_records()
    assert len(calls) == len({z.h12 for z in catalog()}) <= 7


def test_a_warm_pass_multiplies_once_per_family(monkeypatch):
    build_all_records()
    calls = []
    original = HodgePolynomial.__mul__
    monkeypatch.setattr(HodgePolynomial, "__mul__",
                        lambda f, g: calls.append(g) or original(f, g))
    build_all_records()
    assert len(calls) == 28


def test_record_cone_counts(dual_cone):
    # the four curve generators span NE(X); its dual is the nef cone, and a
    # generator is extremal in NE(X) when two nef rays vanish on it
    families = enumerate_families()
    assert len(families) == 28
    for p in families:
        rays = dual_cone(pairing_matrix(p))
        extremal = [g for g in CurveGen
                    if sum(g in face for face in rays.values()) >= 2]
        cone = cone_data(p)
        assert len(cone.rays) == len(rays), p.label
        assert len(cone.generators) == len(extremal), p.label


def test_record_labels_join_all_tables(records):
    tables = golden_tables()
    labels2 = [row.label for row in tables.table2]
    labels3 = [row.label for row in tables.table3]
    assert labels2 == labels3
    assert labels2 == [p.label for p in enumerate_families()]
    assert labels2 == [r.label for r in records]


def test_catalog_matches_reference_table1():
    for z, row in zip(catalog(), golden_tables().table1):
        assert (z.id, z.index, z.degree) == (row.id, row.index, row.degree)
        assert z.minus_K3 == row.minus_K3
        assert z.h12 == row.h12
        assert (z.h0_tangent, z.h1_tangent) == (row.h0_tangent, row.h1_tangent)
        assert z.base_locus_H.value == row.base_locus_H
        assert z.rational == row.rational


def test_export_fields_are_the_leading_record_fields():
    assert EXPORT_FIELDS == FamilyRecord._fields
    assert len(EXPORT_FIELDS) == 19


def test_every_reference_key_is_a_record_field():
    names = set(FamilyRecord._fields)
    tables = golden_tables()
    for row in tables.table2 + tables.table3:
        assert set(row._fields) <= names, row.label


@pytest.mark.parametrize("name", ["K4", "label", "toric_label", "other"])
def test_records_are_immutable(records, name):
    with pytest.raises(AttributeError):
        setattr(records[0], name, 0)
    assert records[0].K4 == 47


def test_verify_all_passes(records):
    result = verify_all(records)
    assert result.ok
    assert result.pass_count == 28
    assert result.fail_count == 0
    assert result.mismatches == ()


def test_verify_all_detects_tampered_reference(records, monkeypatch):
    tables = golden_tables()
    bad_row = tables.table2[16]._replace(K4=430)
    assert tables.table2[16].label == "X^7_{0,1}"
    tampered = tables._replace(
        table2=tables.table2[:16] + (bad_row,) + tables.table2[17:])
    monkeypatch.setattr(golden, "golden_tables", lambda: tampered)
    result = verify_all(records)
    assert result.fail_count == 1
    assert result.pass_count == 27
    assert len(result.mismatches) == 1
    m = result.mismatches[0]
    assert (m.family, m.field, m.expected, m.computed) == \
        ("X^7_{0,1}", "K4", 430, 431)


def tampered_value(value):
    if value is None:
        return "tampered"
    if isinstance(value, bool):
        return not value
    if isinstance(value, int):
        return value + 1
    return value + "_tampered"


# the label is the join key, not a compared field
@pytest.mark.parametrize("table,field", [
    *(("table2", name) for name in GoldenFamilyRow._fields if name != "label"),
    *(("table3", name) for name in GoldenTangentRow._fields if name != "label"),
])
def test_verify_all_names_each_tampered_field(records, monkeypatch, table, field):
    tables = golden_tables()
    rows = getattr(tables, table)
    for k, row in enumerate(rows):
        bad = row._replace(**{field: tampered_value(getattr(row, field))})
        tampered = tables._replace(**{table: rows[:k] + (bad,) + rows[k + 1:]})
        monkeypatch.setattr(golden, "golden_tables", lambda: tampered)
        result = verify_all(records)
        assert (result.pass_count, result.fail_count) == (27, 1), row.label
        assert result.mismatches == (
            Mismatch(row.label, field, getattr(bad, field), getattr(row, field)),)


# the id is the join key: a tampered id misaligns table 1 (see test_cli)
@pytest.mark.parametrize("field", [
    name for name in golden.GoldenThreefold._fields if name != "id"])
def test_verify_all_names_each_tampered_table1_field(records, monkeypatch, field):
    tables = golden_tables()
    rows = tables.table1
    for k, row in enumerate(rows):
        bad = row._replace(**{field: tampered_value(getattr(row, field))})
        tampered = tables._replace(table1=rows[:k] + (bad,) + rows[k + 1:])
        monkeypatch.setattr(golden, "golden_tables", lambda: tampered)
        result = verify_all(records)
        # a base 3-fold is no family: the 28 still pass, but the report fails
        assert (result.pass_count, result.fail_count) == (28, 0), row.id
        assert not result.ok
        assert result.mismatches == (
            Mismatch(f"Z_{row.id}", field, getattr(bad, field), getattr(row, field)),)


def test_verify_all_refuses_a_table1_field_no_catalogue_row_has(records,
                                                              monkeypatch):
    """Table 1 may name what a catalogue row has, its fields and
    ``minus_K3``, and no more: a row class with one field beyond them is
    malformed reference data, refused before any comparison, with the row
    and the field named, as tables 2 and 3 are.  A class that names fewer
    fields is compared on those."""
    from typing import NamedTuple

    class WiderRow(NamedTuple):
        id: int
        minus_K3: int
        extra: int

    class NarrowRow(NamedTuple):
        id: int
        minus_K3: int

    tables = golden_tables()
    for shift in (0, 1):   # refused whether the known fields match or not
        wider = tables._replace(table1=tuple(
            WiderRow(row.id, row.minus_K3 + shift, 0) for row in tables.table1))
        monkeypatch.setattr(golden, "golden_tables", lambda: wider)
        with pytest.raises(IntegrityError, match=(
                r"^reference row Z_1 names fields no catalogue row has: "
                r"extra$")):
            verify_all(records)
    narrow = tables._replace(
        table1=tuple(NarrowRow(row.id, row.minus_K3) for row in tables.table1))
    monkeypatch.setattr(golden, "golden_tables", lambda: narrow)
    assert verify_all(records) == (28, 0, ())


def test_verify_all_refuses_a_table_of_mixed_row_classes(records, monkeypatch):
    """Each reference table holds rows of one class, compared through one
    getter of its fields: a table 2 with one row of another class, of two
    fields or of the label alone, is malformed reference data, and the
    getters of a normal call, matching or not, do not outlive it."""
    import gc
    from operator import attrgetter
    from typing import NamedTuple

    class ChiRow(NamedTuple):
        label: str
        chi_T: int

    class LabelRow(NamedTuple):
        label: str

    def getters():
        return sum(type(o) is attrgetter for o in gc.get_objects())

    before = getters()
    assert verify_all(records).ok
    tables = golden_tables()
    differs = tables._replace(table2=(tables.table2[0]._replace(K4=46),)
                              + tables.table2[1:])
    monkeypatch.setattr(golden, "golden_tables", lambda: differs)
    assert verify_all(records).mismatches == (Mismatch("X^1_{0,1}", "K4", 46, 47),)
    assert getters() == before

    row = tables.table2[5]
    for odd in (ChiRow(row.label, tables.table3[5].chi_T + 1), LabelRow(row.label)):
        mixed = tables._replace(
            table2=tables.table2[:5] + (odd,) + tables.table2[6:])
        monkeypatch.setattr(golden, "golden_tables", lambda: mixed)
        with pytest.raises(IntegrityError, match=(
                r"^reference table 2 does not hold rows of one class$")):
            verify_all(records)


def test_a_table_of_one_field_rows_verifies(records, monkeypatch):
    """The getter of a one-field row class reads a value, never its row's
    1-tuple; _diff explains such a table field by field, so a table 2 that
    holds only the labels matches the records."""
    from typing import NamedTuple

    class LabelRow(NamedTuple):
        label: str

    tables = golden_tables()
    labels_only = tables._replace(
        table2=tuple(LabelRow(row.label) for row in tables.table2))
    monkeypatch.setattr(golden, "golden_tables", lambda: labels_only)
    assert verify_all(records) == (28, 0, ())
    assert verify_all(records[::-1]) == (28, 0, ())


def test_a_family_listed_twice_fails_as_two(records, monkeypatch):
    """Row 0 of tables 2 and 3 in place of row 1: the uniqueness test sends
    the records to the by-label join, where the second X^1_{0,1} finds no
    record and the X^1_{1,2} record finds no row."""
    tables = golden_tables()
    listed_twice = tables._replace(**{
        name: (rows[0], rows[0]) + rows[2:]
        for name, rows in (("table2", tables.table2), ("table3", tables.table3))})
    monkeypatch.setattr(golden, "golden_tables", lambda: listed_twice)
    report = verify_all(records)
    assert (report.pass_count, report.fail_count) == (27, 2)
    assert report.mismatches == (
        Mismatch("X^1_{0,1}", "label", "X^1_{0,1}", None),
        Mismatch("X^1_{1,2}", "label", None, "X^1_{1,2}"))


def test_verify_all_names_a_mistyped_catalogue_degree(records, monkeypatch):
    rows = list(catalog_module._CATALOG)
    rows[2] = rows[2]._replace(degree=4)   # the cubic, with delta = 4
    monkeypatch.setattr(catalog_module, "_CATALOG", tuple(rows))
    result = verify_all(records)
    assert (result.pass_count, result.fail_count) == (28, 0)
    assert result.mismatches == (Mismatch("Z_3", "degree", 3, 4),
                                 Mismatch("Z_3", "minus_K3", 24, 32))


def test_table1_mismatches_come_first(records, monkeypatch):
    tables = golden_tables()
    tampered = tables._replace(
        table1=(tables.table1[0]._replace(h12=20),) + tables.table1[1:],
        table2=(tables.table2[0]._replace(K4=46),) + tables.table2[1:])
    monkeypatch.setattr(golden, "golden_tables", lambda: tampered)
    result = verify_all(records)
    assert (result.pass_count, result.fail_count) == (27, 1)
    assert result.mismatches == (Mismatch("Z_1", "h12", 20, 21),
                                 Mismatch("X^1_{0,1}", "K4", 46, 47))


def test_verify_all_names_a_corrupted_toric_label(records):
    for k, r in enumerate(records):
        wrong = ToricLabel.E2 if r.toric_label is ToricLabel.E1 else ToricLabel.E1
        bad = r._replace(toric_label=wrong)
        result = verify_all(records[:k] + [bad] + records[k + 1:])
        assert (result.pass_count, result.fail_count) == (27, 1), r.label
        expected = None if r.toric_label is None else r.toric_label.value
        assert result.mismatches == (
            Mismatch(r.label, "toric_label", expected, wrong.value),)


def test_verify_all_detects_missing_record(records):
    result = verify_all(records[:-1])
    assert result.fail_count == 1
    assert result.mismatches[0].family == "X^7_{3,6}"


def test_verify_all_detects_duplicate_record(records):
    # of two records of one family, the first is the one diffed: a changed
    # second copy adds only the "2 records" mismatch, a changed first copy
    # its field mismatch too
    two_records = Mismatch("X^7_{0,1}", "label", "1 record", "2 records")
    changed = records[16]._replace(K4=430)
    for given, mismatches in (
            (records + [records[16]], (two_records,)),
            (records + [changed], (two_records,)),
            (records[:16] + [changed] + records[17:] + [records[16]],
             (two_records, Mismatch("X^7_{0,1}", "K4", 431, 430)))):
        result = verify_all(given)
        assert (result.pass_count, result.fail_count) == (27, 1)
        assert result.mismatches == mismatches


def _k4_without(record, name):
    """The closed form for K^4 of the record's family minus one summand."""
    terms = k4_closed_terms(FamilyParams(record.z_id, record.a, record.d))
    return sum(terms.values()) - terms[name]


def test_verify_all_detects_dropped_k4_terms(records):
    """Dropping any single summand of the K^4 closed form must be caught."""
    term_names = list(k4_closed_terms(FamilyParams(7, 1, 2)))
    assert len(term_names) == 5
    for name in term_names:
        mutated = [r._replace(K4=_k4_without(r, name)) for r in records]
        result = verify_all(mutated)
        assert result.fail_count >= 1, f"dropping {name} went unnoticed"
        assert all(m.field == "K4" for m in result.mismatches)


def test_dropping_the_a_term_hits_exactly_the_twisted_families(records):
    mutated = [r._replace(K4=_k4_without(r, "a*d^2*delta")) for r in records]
    result = verify_all(mutated)
    mismatched = {m.family for m in result.mismatches}
    expected = {r.label for r in records if r.a > 0}
    assert mismatched == expected


def test_export_json_round_trip(records):
    payload = export(records, "json")
    rows = json.loads(payload.decode("utf-8"))
    assert len(rows) == 28
    assert list(rows[0]) == list(EXPORT_FIELDS)
    by_label = {row["label"]: row for row in rows}
    r = by_label["X^6_{2,4}"]
    assert (r["z_id"], r["a"], r["d"]) == (6, 2, 4)
    assert (r["K4"], r["K2c2"], r["h0_antiK"]) == (160, 148, 40)
    assert (r["h12"], r["h13"], r["h22"]) == (0, 5, 54)
    assert r["base_locus"] == "empty"
    assert r["rationality"] == "rational"
    assert r["toric_label"] is None
    assert r["fibre_like"] == "undetermined"
    assert (r["chi_T"], r["h0_T"], r["h1_T"]) == (-43, 11, 54)
    assert (r["h0_T_is_exact"], r["h1_T_is_exact"]) == (False, False)
    toric = by_label["X^7_{2,1}"]
    assert toric["toric_label"] == "E2"
    assert toric["rationality"] == "toric"
    exact = by_label["X^1_{0,1}"]
    assert (exact["h0_T"], exact["h1_T"]) == (2, 36)
    assert (exact["h0_T_is_exact"], exact["h1_T_is_exact"]) == (True, True)


def _reference_row(record):
    return {key: getattr(record, key) for key in EXPORT_FIELDS}


def _reference_json(records):
    return (json.dumps([_reference_row(r) for r in records], indent=2)
            + "\n").encode("utf-8")


def test_export_json_equals_the_indented_dump(records):
    assert export(records, "json") == _reference_json(records)
    odd = records[0]._replace(label='X "\\ \u00e9 \u2212')
    assert export([odd, records[1]], "json") == _reference_json([odd, records[1]])
    assert export([odd], "json") == _reference_json([odd])
    # the row frames are spliced into one encoded list: a label that spells
    # a row boundary must stay inside its string
    framed = records[1]._replace(label='X },\n    { "},{" \u00e9\n}')
    rows = [framed, records[2], framed]
    assert export(rows, "json") == _reference_json(rows)
    assert json.loads(export(rows, "json"))[0]["label"] == framed.label
    # the values are split out of one encoded list of arrays and formatted
    # into a %s row template: labels that spell a value or row boundary, or
    # a format directive, must come out as written
    spelled = [records[0]._replace(label=label) for label in (
        '],\n    [', ',\n    ', ']\n[', '\n', '%s', '%%', '%(K4)s',
        'X "%s" \\ \u00e9 ],\n    [ %(label)s \u2212')]
    for rows in (spelled[:1], spelled[-2:], (spelled + records)[:28]):
        assert export(rows, "json") == _reference_json(rows)
        assert [r["label"] for r in json.loads(export(rows, "json"))] == [
            r.label for r in rows]


def test_export_csv_shape(records):
    payload = export(records, "csv").decode("utf-8")
    assert "\r" not in payload
    lines = payload.splitlines()
    assert len(lines) == 29
    parsed = list(csv.DictReader(io.StringIO(payload)))
    assert len(parsed) == 28
    assert list(parsed[0]) == list(EXPORT_FIELDS)
    assert parsed[0]["label"] == "X^1_{0,1}"
    assert parsed[0]["K4"] == "47"


def _reference_csv(records):
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=EXPORT_FIELDS, lineterminator="\n")
    writer.writeheader()
    writer.writerows(_reference_row(r) for r in records)
    return buf.getvalue().encode("utf-8")


def test_export_csv_equals_the_dict_writer_rows(records):
    assert export(records, "csv") == _reference_csv(records)
    odd = records[0]._replace(label='X, "odd"\nlabel')
    assert odd.toric_label is None
    assert export([odd, records[1]], "csv") == _reference_csv([odd, records[1]])


def test_export_markdown_mirrors_table2(records):
    tables = golden_tables()
    lines = export(records, "markdown").decode("utf-8").splitlines()
    assert len(lines) == 30   # header + rule + 28 rows
    for line, row in zip(lines[2:], tables.table2):
        cells = [c.strip() for c in line.strip("|").split("|")]
        assert cells[0] == row.label
        assert [int(c) for c in cells[1:7]] == \
            [row.K4, row.K2c2, row.h0_antiK, row.h12, row.h13, row.h22]


def test_export_is_deterministic(records):
    for fmt in ("json", "csv", "markdown"):
        assert export(records, fmt) == export(records, fmt)


def test_export_writes_a_label_held_as_its_plain_value(records):
    # reading the csv export back gives plain values, not enum members; each
    # format writes such a record as it writes the record it came from
    plain = [r._replace(base_locus=r.base_locus.value,
                        rationality=r.rationality.value) for r in records]
    assert type(plain[0].base_locus) is type(plain[0].rationality) is str
    for fmt in ("json", "csv", "markdown"):
        assert export(plain, fmt) == export(records, fmt), fmt


def test_export_rejects_unknown_format(records):
    with pytest.raises(ValueError):
        export(records, "xml")
    with pytest.raises(ValueError):
        export([], "json")


@pytest.mark.parametrize("fmt", ["json", "csv", "markdown"])
def test_export_reads_an_iterator_of_records_once(records, fmt):
    assert export(iter(records), fmt) == export(records, fmt)
    with pytest.raises(ValueError, match="^no records to export$"):
        export(iter([]), fmt)


def test_chi_equals_h0_minus_h1_for_exact_rows(records):
    table3 = {row.label: row for row in golden_tables().table3}
    exact_rows = [r for r in records if r.h1_T_is_exact]
    assert len(exact_rows) == 14
    for r in exact_rows:
        row = table3[r.label]
        assert (r.h0_T, r.h1_T) == (row.h0_T, row.h1_T)
        assert row.h0_T - row.h1_T == r.chi_T


def test_verify_all_fails_a_table3_row_without_a_table2_row(records, monkeypatch):
    # a table-3 row that no table-2 row stands against misaligns the tables:
    # a defect of the reference data, raised, never reported as a mismatch
    tables = golden_tables()
    orphan = GoldenTangentRow("X^8_{0,1}", h0_T=1, h0_T_is_exact=True, h1_T=0,
                              h1_T_is_exact=True, chi_T=1)
    extended = tables._replace(table3=tables.table3 + (orphan,))
    monkeypatch.setattr(golden, "golden_tables", lambda: extended)
    with pytest.raises(IntegrityError, match="tables 2 and 3"):
        verify_all(records)


def test_an_unknown_label_fails_as_one_family(records):
    stray = records[0]._replace(label="X^8_{0,1}")
    result = verify_all(records + [stray, stray])
    assert (result.pass_count, result.fail_count) == (28, 1)
    stray_row = Mismatch("X^8_{0,1}", "label", None, "X^8_{0,1}")
    assert result.mismatches == (stray_row, stray_row)


def test_an_iterator_of_records_gives_the_report_of_the_list(records):
    # the records are read once: a label with no reference row still gets
    # its Mismatch from an iterator, and the strays keep their record order
    u, v = (records[0]._replace(label=label) for label in ("X^8_{0,1}", "X^9"))
    given = [u, *records[:5], v, *records[5:], u]
    report = verify_all(given)
    assert verify_all(iter(given)) == report
    assert (report.pass_count, report.fail_count) == (28, 2)
    assert [m.family for m in report.mismatches] == ["X^8_{0,1}", "X^9",
                                                     "X^8_{0,1}"]
