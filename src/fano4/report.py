"""Record assembly, verification against the reference tables, and export.

:func:`build_record` runs every module on one family and bundles the results;
all cross-checks of the underlying modules run as a side effect, and each
failure names the family once (see :mod:`fano4.errors`).  The record keeps
only the two cone sizes of the cone data; ``fano4 info`` prints the full cone
data of the same build, through ``_record_and_cones``.  A
:class:`FamilyRecord` is the row: the json and csv exports write its fields,
``fano4 info`` prints them, and :func:`verify_all` compares them, and the
catalogue rows, with the reference rows, which use the same names.  Records
and reference rows are ``typing.NamedTuple`` classes: ``_fields`` lists the
record fields, and ``_asdict`` gives a reference row's values.  Mismatches
are data, never exceptions, so a red table is an ordinary result, not a
crash; only reference tables that are misaligned or name a field no record
has raise IntegrityError.
"""

from __future__ import annotations

from operator import attrgetter
from typing import NamedTuple

from . import classify, cones, intersect
from .catalog import FamilyParams, catalog, enumerate_families
from .errors import IntegrityError
from .hodge import hodge_of_fourfold

__all__ = [
    "FamilyRecord",
    "Mismatch",
    "VerificationReport",
    "build_record",
    "build_all_records",
    "verify_all",
    "export",
    "EXPORT_FIELDS",
]


class FamilyRecord(NamedTuple):
    """Everything the tables record about one family, as one flat row whose
    field names are the row keys.  The first fields are :data:`EXPORT_FIELDS`;
    the two cone sizes after them are not exported."""

    z_id: int
    a: int
    d: int
    label: str
    K4: int
    K2c2: int
    h0_antiK: int
    h12: int
    h13: int
    h22: int
    base_locus: classify.BaseLocusKind
    rationality: classify.Rationality
    toric_label: classify.ToricLabel | None
    fibre_like: cones.FibreLike
    chi_T: int
    h0_T: int
    h1_T: int
    h0_T_is_exact: bool
    h1_T_is_exact: bool
    ne_generator_count: int
    nef_ray_count: int


def build_record(params: FamilyParams) -> FamilyRecord:
    """Compute the full record for one admissible family."""
    return _record_and_cones(params)[0]


def _record_and_cones(params: FamilyParams) -> tuple[FamilyRecord, cones.ConeData]:
    """The record of one family and the cone data it was built from, which
    the record does not keep."""
    cone = cones.cone_data(params)
    inv = intersect.fano4_invariants(params)
    hdg = hodge_of_fourfold(params)
    tangent = classify.tangent_bounds(params, classify.chi_tangent(
        inv.K4, inv.h0_antiK, hdg.h12, hdg.h13, hdg.h22))
    record = FamilyRecord(
        z_id=params.z_id, a=params.a, d=params.d, label=params.label,
        K4=inv.K4, K2c2=inv.K2c2, h0_antiK=inv.h0_antiK,
        h12=hdg.h12, h13=hdg.h13, h22=hdg.h22,
        base_locus=classify.base_locus(params),
        rationality=classify.rationality(params),
        toric_label=classify.toric_label(params),
        fibre_like=cones.is_fibre_like(params),
        chi_T=tangent.chi, h0_T=tangent.h0, h1_T=tangent.h1,
        h0_T_is_exact=tangent.h1_is_exact, h1_T_is_exact=tangent.h1_is_exact,
        ne_generator_count=len(cone.generators), nef_ray_count=len(cone.rays))
    return record, cone


def build_all_records() -> list[FamilyRecord]:
    return [build_record(p) for p in enumerate_families()]


class Mismatch(NamedTuple):
    family: str
    field: str
    expected: object
    computed: object


class VerificationReport(NamedTuple):
    pass_count: int
    fail_count: int
    mismatches: tuple[Mismatch, ...]

    @property
    def ok(self) -> bool:
        return self.fail_count == 0 and not self.mismatches


def verify_all(records: list[FamilyRecord] | None = None) -> VerificationReport:
    """Diff the catalogue against reference table 1, and the records (by
    default the 28 canonical ones, built here) against tables 2 and 3.

    Table 1 must list the catalogue ids 1..7 in order, and tables 2 and 3 the
    same families in the same order, naming only record fields, else
    IntegrityError.  Each key of a reference row whose value differs from
    its catalogue row (family ``Z_<id>``) or record is one :class:`Mismatch`;
    the table-1 ones come first and count no family.  A family passes when
    it has exactly one record and no mismatch; the records whose label has
    no reference row fail as one family.
    """
    from .golden import golden_tables

    if records is None:
        records = build_all_records()
    tables = golden_tables()
    threefolds = catalog()
    if [row.id for row in tables.table1] != [z.id for z in threefolds]:
        raise IntegrityError("reference table 1 does not list the catalogue "
                             "ids 1..7 in order")
    labels = [row.label for row in tables.table2]
    if labels != [row.label for row in tables.table3]:
        raise IntegrityError("reference tables 2 and 3 list different families")
    by_label: dict[str, list[FamilyRecord]] = {}
    for r in records:
        by_label.setdefault(r.label, []).append(r)

    mismatches = [m for z, row in zip(threefolds, tables.table1)
                  for m in _diff(f"Z_{z.id}", z, row._asdict())]
    passed = failed = 0
    for family_row, tangent_row in zip(tables.table2, tables.table3):
        label = family_row.label
        expected = {**family_row._asdict(), **tangent_row._asdict()}
        if unknown := expected.keys() - _RECORD_FIELDS:
            raise IntegrityError(f"reference row {label} names fields no "
                                 f"record has: {', '.join(sorted(unknown))}")
        found = by_label.pop(label, [])
        if not found:
            family = [Mismatch(label, "label", label, None)]
        else:
            family = ([] if len(found) == 1 else
                      [Mismatch(label, "label", "1 record", f"{len(found)} records")])
            family += _diff(label, found[0], expected)
        if family:
            failed += 1
            mismatches.extend(family)
        else:
            passed += 1
    # what by_label still holds has no reference row
    mismatches += [Mismatch(r.label, "label", None, r.label)
                   for r in records if r.label in by_label]
    return VerificationReport(passed, failed + len(by_label), tuple(mismatches))


def _diff(family: str, row: object, expected: dict[str, object]) -> list[Mismatch]:
    """A Mismatch for each key of ``expected`` that ``row`` differs on."""
    return [Mismatch(family, key, want, computed)
            for key, want in expected.items()
            if (computed := getattr(row, key)) != want]


_RECORD_FIELDS = frozenset(FamilyRecord._fields)

# every record field but the two cone sizes
EXPORT_FIELDS = FamilyRecord._fields[:-2]

# the exported values of a record, in EXPORT_FIELDS order
_row = attrgetter(*EXPORT_FIELDS)


_RATIONALITY_TEXT = {
    classify.Rationality.RATIONAL: "rational",
    classify.Rationality.VERY_GENERAL_NOT_RATIONAL:
        "the very general is not rational",
    classify.Rationality.UNKNOWN: "?",
    classify.Rationality.TORIC: "toric",
}


def export(records: list[FamilyRecord], format: str) -> bytes:
    """Serialise records as UTF-8 bytes; format is json, csv or markdown.

    The json and csv exports carry the full field set; the markdown export
    mirrors the layout of the main invariant table.  Output is byte-for-byte
    deterministic for a given record list.
    """
    if not records:
        raise ValueError("no records to export")
    if format == "json":
        import json

        # the bytes of json.dumps(rows, indent=2), from one call into the C
        # encoder, which indent turns off: each row is flat, so its items get
        # the row indent from the separator, and only the row frames are
        # spliced in.  An encoded string never holds a raw newline, so
        # "},\n    {" occurs only between two rows.
        encode = json.JSONEncoder(separators=(",\n    ", ": ")).encode
        rows = encode([dict(zip(EXPORT_FIELDS, _row(r))) for r in records])
        return ("[\n  {\n    "
                + rows[2:-2].replace("},\n    {", "\n  },\n  {\n    ")
                + "\n  }\n]\n").encode("utf-8")
    if format == "csv":
        import csv
        import io

        # csv writes None as "", and each enum member as its value
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(EXPORT_FIELDS)
        writer.writerows(map(_row, records))
        return buf.getvalue().encode("utf-8")
    if format == "markdown":
        lines = [
            "| family | K^4 | K^2.c2 | h^0(-K) | h^{1,2} | h^{1,3} | h^{2,2} "
            "| Bs(-K) | rationality |",
            "|---|---|---|---|---|---|---|---|---|",
        ]
        for r in records:
            lines.append(
                f"| {r.label} | {r.K4} | {r.K2c2} | {r.h0_antiK} | {r.h12} "
                f"| {r.h13} | {r.h22} | {r.base_locus.display()} "
                f"| {_RATIONALITY_TEXT[r.rationality]} |")
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ValueError(f"unsupported format {format!r}")
