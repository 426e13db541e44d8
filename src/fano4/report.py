"""Record assembly, verification against the reference tables, and export.

The row layers and their order are stated once, in :func:`build_records`.
The 28-family pass, :func:`build_all_records` (behind :func:`verify_all` and
``fano4 export``), runs the cone checks of ``cones.cone_data`` for every
family before it, as ``fano4 info`` does for its one family.  Each failure
names the family once (see :mod:`fano4.errors`).  The layers take each
family as a ``FamilyParams``, which checked its triple when it was built,
and check no type of it again; the pass calls the same ``intersect``
formulas as a caller does, and builds every row it computes unchecked, a
:class:`FamilyRecord` included; only the class constructors, and
``intersect.riemann_roch_chi`` for its three ints, check a caller's input.
A :class:`FamilyRecord` is the row: the json and csv exports write its
fields, ``fano4 info`` prints them, and :func:`verify_all` compares them, and
the catalogue rows, with the reference rows, which use the same names.
Records and reference rows are ``typing.NamedTuple`` classes.  One rule
compares every reference table: whole, through one getter of the
``_fields`` of its one row class, and a table that differs is explained row
by row.  Mismatches are data, never exceptions, so a red table is an
ordinary result, not a crash; only reference tables that are misaligned,
mix row classes or name a field no catalogue row or record has raise
IntegrityError.
"""

from itertools import chain
from operator import attrgetter, eq
from typing import Iterable, NamedTuple

from . import _EXPORTS, classify, cones, hodge, intersect
from .catalog import FamilyParams, FanoThreefold, catalog, enumerate_families
from .errors import IntegrityError

__all__ = _EXPORTS["report"]

# Builds a record from the layer results of one checked FamilyParams, without
# the constructor frame that typing.NamedTuple generates, in field order.
_built = tuple.__new__


class FamilyRecord(NamedTuple):
    """Everything the tables record about one family, as one flat row whose
    field names are the row keys; its fields are :data:`EXPORT_FIELDS`."""

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


def build_record(params: FamilyParams,
                 invariants: intersect.CanonicalDegrees,
                 hodge_numbers: hodge.FourfoldHodge) -> FamilyRecord:
    """The row of one admissible family, from its two layer results: the
    tangent bounds and labels of ``classify`` are computed here, and no
    layer function runs (see :func:`build_records`)."""
    K4, K2c2, h0_antiK = invariants
    h12, h13, h22 = hodge_numbers
    tangent = classify.tangent_bounds(params, classify.chi_tangent(
        K4, h0_antiK, h12, h13, h22))
    z_id, a, d = params
    return _built(FamilyRecord, (
        z_id, a, d, params.label, K4, K2c2, h0_antiK, h12, h13, h22,
        classify.base_locus(params), classify.rationality(params),
        classify.toric_label(params), cones.is_fibre_like(params),
        tangent.chi, tangent.h0, tangent.h1,
        tangent.h1_is_exact, tangent.h1_is_exact))


def build_records(families: Iterable[FamilyParams]) -> list[FamilyRecord]:
    """The rows of ``families``, in order: one loop of
    ``intersect.fano4_invariants``, one of ``hodge.hodge_of_fourfold``, each
    with its module's cross-checks, then :func:`build_record` per family.
    An iterable that is not a list is read once, into one.

    Layer loops run faster than the layers interleaved per family.  Each
    family's two layer results are popped as its row is built, so none
    outlives its row.  New per-family work joins here as a loop of its own.
    """
    if not isinstance(families, list):   # the pass's own list is not copied
        families = list(families)
    invariants = [intersect.fano4_invariants(p) for p in families]
    hodge_numbers = [hodge.hodge_of_fourfold(p) for p in families]
    invariants.reverse()   # pop() hands the results on in family order
    hodge_numbers.reverse()
    return [build_record(p, invariants.pop(), hodge_numbers.pop())
            for p in families]


def build_all_records() -> list[FamilyRecord]:
    """The records of the 28 families, in :func:`enumerate_families` order:
    the cone checks run for every family first, then :func:`build_records`."""
    families = enumerate_families()
    for p in families:
        cones.cone_data(p)
    return build_records(families)


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

    @property
    def threefold_fail_count(self) -> int:
        """How many base 3-folds (family ``Z_<id>``) differ from table 1."""
        return len({m.family for m in self.mismatches
                    if m.family.startswith("Z_")})


def verify_all(records: list[FamilyRecord] | None = None) -> VerificationReport:
    """Diff the catalogue against reference table 1, and the records (by
    default the 28 canonical ones, built here; an iterable is read once)
    against tables 2 and 3.

    Table 1 must list the catalogue ids 1..7 in order, and tables 2 and 3
    the same families in the same order; each table must hold rows of one
    class, which names only catalogue row fields, ``minus_K3`` included
    (table 1), or record fields (tables 2 and 3); else IntegrityError.  Each
    key of a reference row whose value differs from its catalogue row
    (family ``Z_<id>``) or record is one :class:`Mismatch`;
    the table-1 ones come first and count no family.  A family passes when
    it has exactly one record and no mismatch; the records whose label has
    no reference row fail as one family.

    One rule compares every table: whole, through the getter of its row
    class, with the catalogue or the records in table order; only a table
    that differs is explained row by row (:func:`_diff`), and records out of
    table order are joined to the tables by label, to the same report.
    """
    from .golden import golden_tables

    records = build_all_records() if records is None else list(records)
    tables = golden_tables()
    threefolds = catalog()
    if [row.id for row in tables.table1] != [z.id for z in threefolds]:
        raise IntegrityError("reference table 1 does not list the catalogue "
                             "ids 1..7 in order")
    labels = [row.label for row in tables.table2]
    if labels != [row.label for row in tables.table3]:
        raise IntegrityError("reference tables 2 and 3 list different families")
    for number, table in enumerate(tables, 1):
        if len(set(map(type, table))) != 1:
            raise IntegrityError(f"reference table {number} does not hold "
                                 "rows of one class")
    for label, fields, known, kind in (
            (threefolds[0].label, tables.table1[0]._fields, _THREEFOLD_FIELDS,
             "catalogue row"),
            (labels[0], (*tables.table2[0]._fields, *tables.table3[0]._fields),
             _RECORD_FIELDS, "record")):
        unknown = set(fields) - known
        if unknown:
            raise IntegrityError(f"reference row {label} names fields no "
                                 f"{kind} has: {', '.join(sorted(unknown))}")

    # each table whole, in a lazy map over the getter of its row class; one
    # of a one-field class reads a value, never the 1-tuple, left to _diff
    same1, same2, same3 = [
        all(map(eq, map(attrgetter(*table[0]._fields), rows), table))
        for rows, table in zip((threefolds, records, records), tables)]
    mismatches = []
    if not same1:
        for z, row in zip(threefolds, tables.table1):
            mismatches += _diff(z.label, z, row)
    # one record per family, in table order; the labels' dict is a third
    # of the size of their set
    in_order = (len(records) == len(labels) == len(dict.fromkeys(labels))
                and all(map(eq, map(attrgetter("label"), records), labels)))
    diff_families = not (in_order and same2)
    diff_tangents = not (in_order and same3)
    if not (diff_families or diff_tangents):
        return VerificationReport(len(labels), 0, tuple(mismatches))

    by_label: dict[str, list[FamilyRecord]] = {}
    for r in records:
        by_label.setdefault(r.label, []).append(r)
    passed = failed = 0
    for family_row, tangent_row in zip(tables.table2, tables.table3):
        label = family_row.label
        found = by_label.pop(label, [])
        if not found:
            family = [Mismatch(label, "label", label, None)]
        else:
            family = ([] if len(found) == 1 else
                      [Mismatch(label, "label", "1 record", f"{len(found)} records")])
            # both rows hold the label, which the tables' alignment check
            # has matched already; the record found by it equals it too
            if diff_families:
                family += _diff(label, found[0], family_row)
            if diff_tangents:
                family += _diff(label, found[0], tangent_row)
        if family:
            failed += 1
            mismatches.extend(family)
        else:
            passed += 1
    # what by_label still holds has no reference row
    mismatches += [Mismatch(r.label, "label", None, r.label)
                   for r in records if r.label in by_label]
    return VerificationReport(passed, failed + len(by_label), tuple(mismatches))


def _diff(family: str, row: object, expected: tuple) -> list[Mismatch]:
    """A Mismatch for each field of the reference row ``expected`` that
    ``row`` differs on; it runs only for a table that differs."""
    # a loop, not a comprehension, which would make ``family`` a cell
    # built on every call before Python 3.12
    out = []
    for key, want in zip(expected._fields, expected):
        got = getattr(row, key)
        if got != want:
            out.append(Mismatch(family, key, want, got))
    return out


_RECORD_FIELDS = frozenset(FamilyRecord._fields)
_THREEFOLD_FIELDS = frozenset((*FanoThreefold._fields, "minus_K3"))

EXPORT_FIELDS = FamilyRecord._fields

# one row of the json export, as json.dumps(indent=2) writes it, with a %s
# per value; the field names are identifiers, which json writes verbatim
_JSON_ROW = ("  {\n" + ",\n".join(f'    "{f}": %s' for f in EXPORT_FIELDS)
             + "\n  }")


# the printed text of each label, found by its member or its plain value
_BASE_LOCUS_TEXT = {
    classify.BaseLocusKind.EMPTY: "empty",
    classify.BaseLocusKind.ONE_POINT: "{Q0}",
    classify.BaseLocusKind.TWO_POINTS: "{Q1, Q2}",
}

_RATIONALITY_TEXT = {
    classify.Rationality.RATIONAL: "rational",
    classify.Rationality.VERY_GENERAL_NOT_RATIONAL:
        "the very general is not rational",
    classify.Rationality.UNKNOWN: "?",
    classify.Rationality.TORIC: "toric",
}


def export(records: Iterable[FamilyRecord], format: str) -> bytes:
    """Serialise records as UTF-8 bytes; format is json, csv or markdown.

    The json and csv exports carry the full field set; the markdown export
    mirrors the layout of the main invariant table.  Output is byte-for-byte
    deterministic for a given record list; an iterable is read once.
    """
    records = list(records)
    if not records:
        raise ValueError("no records to export")
    if format == "json":
        import json

        # the bytes of json.dumps(rows, indent=2), from one call into the C
        # encoder, which indent turns off, over the records' values as one
        # flat list.  An encoded scalar never holds a raw newline, so the
        # "\n" separators split out exactly the values, which fill the
        # keyed row template.
        values = json.JSONEncoder(separators=("\n", ": ")).encode(
            list(chain.from_iterable(records)))[1:-1].split("\n")
        return ("[\n" + ",\n".join([_JSON_ROW] * len(records)) % tuple(values)
                + "\n]\n").encode("utf-8")
    if format == "csv":
        import csv
        import io

        # csv writes None as "", and each enum member as its value
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(EXPORT_FIELDS)
        writer.writerows(records)
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
                f"| {r.h13} | {r.h22} | {_BASE_LOCUS_TEXT[r.base_locus]} "
                f"| {_RATIONALITY_TEXT[r.rationality]} |")
        return ("\n".join(lines) + "\n").encode("utf-8")
    raise ValueError(f"unsupported format {format!r}")
