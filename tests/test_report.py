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

    monkeypatch.setattr(intersect, "closed_k4", lambda params: 0)
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
        "intersect", "_bundle_degrees",
        lambda c: c._replace(K4=c.K4 + 8), fano4_invariants,
        "X^6_{2,4}: bundle degrees disagree: closed CanonicalDegrees(K4=624, "
        "K2c2=252, chi_antiK=126), generic CanonicalDegrees(K4=632, K2c2=252, "
        "chi_antiK=126)"),
    "riemann_roch": ("intersect", "_riemann_roch", lambda chi: chi + 1,
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
        K2c2=sound.K2c2 - 12, h0_antiK=sound.h0_antiK - 1)
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
    import fano4.intersect

    calls = {"validate_params": Counter(), "_check_ints": Counter()}

    def counted(name, original):
        def wrapper(*args):
            calls[name][args] += 1
            return original(*args)
        return wrapper

    build_all_records()   # every cache is warm
    # rebind every name a fano4 module holds for either function, so that a
    # by-name import cannot hide a call
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "fano4"]
    for original in (fano4.catalog.validate_params,
                     fano4.intersect._check_ints):
        wrapper = counted(original.__name__, original)
        for module in modules:
            for attr in [a for a, v in vars(module).items() if v is original]:
                monkeypatch.setattr(module, attr, wrapper)
    build_all_records()
    # validate_params runs once per triple of enumerate_families' grid: the
    # 28 families and 14 rejected triples, each built once as a FamilyParams
    validated = calls["validate_params"]
    assert sum(validated.values()) == 42
    assert set(validated.values()) == {1}
    # _check_ints guards raw numbers from callers; the pass runs the formula
    # cores on ints it computed from checked FamilyParams
    assert sum(calls["_check_ints"].values()) == 0


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
    result = verify_all(records + [records[16]])
    assert not result.ok
    assert (result.pass_count, result.fail_count) == (27, 1)
    assert len(result.mismatches) == 1
    m = result.mismatches[0]
    assert (m.family, m.field) == ("X^7_{0,1}", "label")
    assert m.computed == "2 records"


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


def test_export_rejects_unknown_format(records):
    with pytest.raises(ValueError):
        export(records, "xml")
    with pytest.raises(ValueError):
        export([], "json")


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
