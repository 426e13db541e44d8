"""Reference tables the computed records are verified against.

These are static transcriptions, deliberately independent of every code path
they are used to check: nothing here is derived, imported from, or shared
with the computing modules.  Table 1 lists the seven base 3-folds, table 2
the 28 families with their invariants, table 3 their tangent-sheaf
cohomology (exact values where established, upper bounds otherwise), in the
order and under the names of the catalogue rows and records that
``report.verify_all`` checks them against key by key.
"""

from typing import NamedTuple

__all__ = [
    "GoldenThreefold",
    "GoldenFamilyRow",
    "GoldenTangentRow",
    "GoldenTables",
    "golden_tables",
]


class GoldenThreefold(NamedTuple):
    id: int
    index: int
    degree: int
    minus_K3: int
    h12: int
    h0_tangent: int
    h1_tangent: int
    base_locus_H: str      # "empty" | "one_simple_point"
    rational: bool


class GoldenFamilyRow(NamedTuple):
    label: str
    K4: int
    K2c2: int
    h0_antiK: int
    h12: int
    h13: int
    h22: int
    base_locus: str        # "empty" | "one_point" | "two_points"
    rationality: str       # "rational" | "very_general_not_rational" | "unknown" | "toric"
    toric_label: str | None = None   # "E1" | "E2" | "E3" for the toric families


class GoldenTangentRow(NamedTuple):
    label: str
    h0_T: int
    h0_T_is_exact: bool
    h1_T: int
    h1_T_is_exact: bool
    chi_T: int


class GoldenTables(NamedTuple):
    table1: tuple[GoldenThreefold, ...]
    table2: tuple[GoldenFamilyRow, ...]
    table3: tuple[GoldenTangentRow, ...]


_TABLE1 = (
    GoldenThreefold(1, 2, 1, 8, 21, 0, 34, "one_simple_point", False),
    GoldenThreefold(2, 2, 2, 16, 10, 0, 19, "empty", False),
    GoldenThreefold(3, 2, 3, 24, 5, 0, 10, "empty", False),
    GoldenThreefold(4, 2, 4, 32, 2, 0, 3, "empty", True),
    GoldenThreefold(5, 2, 5, 40, 0, 3, 0, "empty", True),
    GoldenThreefold(6, 3, 2, 54, 0, 10, 0, "empty", True),
    GoldenThreefold(7, 4, 1, 64, 0, 15, 0, "empty", True),
)

_VGNR = "very_general_not_rational"

_TABLE2 = (
    GoldenFamilyRow("X^1_{0,1}", 47, 98, 17, 21, 0, 11, "one_point", _VGNR),
    GoldenFamilyRow("X^1_{1,2}", 30, 84, 13, 21, 1, 22, "two_points", _VGNR),
    GoldenFamilyRow("X^2_{0,1}", 94, 112, 26, 10, 0, 10, "empty", _VGNR),
    GoldenFamilyRow("X^2_{1,2}", 60, 96, 19, 10, 1, 22, "empty", _VGNR),
    GoldenFamilyRow("X^3_{0,1}", 141, 126, 35, 5, 0, 9, "empty", "unknown"),
    GoldenFamilyRow("X^3_{1,2}", 90, 108, 25, 5, 1, 22, "empty", "unknown"),
    GoldenFamilyRow("X^4_{0,1}", 188, 140, 44, 2, 0, 8, "empty", "rational"),
    GoldenFamilyRow("X^4_{1,2}", 120, 120, 31, 2, 1, 22, "empty", "rational"),
    GoldenFamilyRow("X^5_{0,1}", 235, 154, 53, 0, 0, 7, "empty", "rational"),
    GoldenFamilyRow("X^5_{1,2}", 150, 132, 37, 0, 1, 22, "empty", "rational"),
    GoldenFamilyRow("X^6_{0,1}", 346, 184, 74, 0, 0, 4, "empty", "rational"),
    GoldenFamilyRow("X^6_{0,2}", 296, 176, 65, 0, 0, 8, "empty", "rational"),
    GoldenFamilyRow("X^6_{1,2}", 260, 164, 58, 0, 0, 8, "empty", "rational"),
    GoldenFamilyRow("X^6_{1,3}", 210, 156, 49, 0, 1, 22, "empty", "rational"),
    GoldenFamilyRow("X^6_{2,1}", 430, 208, 90, 0, 0, 4, "empty", "rational"),
    GoldenFamilyRow("X^6_{2,4}", 160, 148, 40, 0, 5, 54, "empty", "rational"),
    GoldenFamilyRow("X^7_{0,1}", 431, 206, 90, 0, 0, 3, "empty", "toric", "E3"),
    GoldenFamilyRow("X^7_{0,2}", 376, 196, 80, 0, 0, 4, "empty", "rational"),
    GoldenFamilyRow("X^7_{0,3}", 341, 194, 74, 0, 0, 9, "empty", "rational"),
    GoldenFamilyRow("X^7_{1,2}", 350, 188, 75, 0, 0, 4, "empty", "rational"),
    GoldenFamilyRow("X^7_{1,3}", 295, 178, 65, 0, 0, 9, "empty", "rational"),
    GoldenFamilyRow("X^7_{1,4}", 260, 176, 59, 0, 1, 22, "empty", "rational"),
    GoldenFamilyRow("X^7_{2,1}", 489, 222, 101, 0, 0, 3, "empty", "toric", "E2"),
    GoldenFamilyRow("X^7_{2,4}", 240, 168, 55, 0, 1, 22, "empty", "rational"),
    GoldenFamilyRow("X^7_{2,5}", 205, 166, 49, 0, 4, 47, "empty", "rational"),
    GoldenFamilyRow("X^7_{3,1}", 605, 254, 123, 0, 0, 3, "empty", "toric", "E1"),
    GoldenFamilyRow("X^7_{3,2}", 454, 220, 95, 0, 0, 4, "empty", "rational"),
    GoldenFamilyRow("X^7_{3,6}", 170, 164, 43, 0, 10, 88, "empty", "rational"),
)

_TABLE3 = (
    GoldenTangentRow("X^1_{0,1}", 2, True, 36, True, -34),
    GoldenTangentRow("X^1_{1,2}", 1, True, 40, True, -39),
    GoldenTangentRow("X^2_{0,1}", 2, True, 22, True, -20),
    GoldenTangentRow("X^2_{1,2}", 1, True, 29, True, -28),
    GoldenTangentRow("X^3_{0,1}", 2, True, 14, True, -12),
    GoldenTangentRow("X^3_{1,2}", 1, True, 24, True, -23),
    GoldenTangentRow("X^4_{0,1}", 2, True, 8, True, -6),
    GoldenTangentRow("X^4_{1,2}", 1, True, 21, True, -20),
    GoldenTangentRow("X^5_{0,1}", 5, False, 6, False, -1),
    GoldenTangentRow("X^5_{1,2}", 4, False, 22, False, -18),
    GoldenTangentRow("X^6_{0,1}", 12, False, 4, False, 8),
    GoldenTangentRow("X^6_{0,2}", 12, False, 13, False, -1),
    GoldenTangentRow("X^6_{1,2}", 11, False, 13, False, -2),
    GoldenTangentRow("X^6_{1,3}", 11, False, 29, False, -18),
    GoldenTangentRow("X^6_{2,1}", 16, False, 4, False, 12),
    GoldenTangentRow("X^6_{2,4}", 11, False, 54, False, -43),
    GoldenTangentRow("X^7_{0,1}", 14, True, 0, True, 14),
    GoldenTangentRow("X^7_{0,2}", 8, True, 0, True, 8),
    GoldenTangentRow("X^7_{0,3}", 17, False, 19, False, -2),
    GoldenTangentRow("X^7_{1,2}", 7, True, 0, True, 7),
    GoldenTangentRow("X^7_{1,3}", 16, False, 19, False, -3),
    GoldenTangentRow("X^7_{1,4}", 16, False, 34, False, -18),
    GoldenTangentRow("X^7_{2,1}", 17, True, 0, True, 17),
    GoldenTangentRow("X^7_{2,4}", 16, False, 34, False, -18),
    GoldenTangentRow("X^7_{2,5}", 16, False, 55, False, -39),
    GoldenTangentRow("X^7_{3,1}", 23, True, 0, True, 23),
    GoldenTangentRow("X^7_{3,2}", 11, True, 0, True, 11),
    GoldenTangentRow("X^7_{3,6}", 16, False, 83, False, -67),
)


def golden_tables() -> GoldenTables:
    return GoldenTables(table1=_TABLE1, table2=_TABLE2, table3=_TABLE3)
