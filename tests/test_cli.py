from __future__ import annotations

import collections
import errno
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fano4.cli as cli
import fano4.golden as golden
import fano4.report as report
from fano4.errors import IntegrityError
from fano4.golden import golden_tables
from fano4.report import Mismatch, VerificationReport

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_list_prints_all_families(capsys):
    code, out, _ = run(capsys, "list")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 28
    assert lines[0].startswith("X^1_{0,1}")
    assert lines[-1].startswith("X^7_{3,6}")


def test_info_shows_record_and_cones(capsys):
    code, out, _ = run(capsys, "info", "7", "0", "1")
    assert code == 0
    assert "K^4 = 431" in out
    assert "toric" in out
    assert "E3" in out
    assert "pairing matrix" in out
    assert "R1: phi*H" in out


def test_info_names_the_family_once_on_a_cone_error(capsys, monkeypatch):
    import fano4.cones as cones

    monkeypatch.setattr(cones, "_ne_kinds", lambda a, d: (cones.CurveGen.C_G,))
    code, out, err = run(capsys, "info", "7", "2", "4")
    # the cone checks run before any line of the record is printed
    assert (code, out) == (2, "")
    assert err == ("internal consistency error: X^7_{2,4}: -K degree gcd "
                   "disagree: pairing 2, Fano index 1\n")


def test_info_matches_the_reference_tables_on_every_family(capsys):
    tables = golden_tables()
    table3 = {row.label: row for row in tables.table3}
    base_locus_text = {"empty": "empty", "one_point": "{Q0}",
                       "two_points": "{Q1, Q2}"}
    exact_rows = 0
    for row in tables.table2:
        triple = re.fullmatch(r"X\^(\d)_\{(\d),(\d)\}", row.label).groups()
        code, out, _ = run(capsys, "info", *triple)
        assert code == 0
        t = table3[row.label]
        h0 = f"= {t.h0_T}" if t.h0_T_is_exact else f"<= {t.h0_T}"
        h1 = f"= {t.h1_T}" if t.h1_T_is_exact else f"<= {t.h1_T}"
        exact_rows += t.h0_T_is_exact and t.h1_T_is_exact
        lines = out.splitlines()
        assert lines[0].startswith(f"{row.label}: ")
        assert f"  K^4 = {row.K4}, K^2.c2 = {row.K2c2}, " \
               f"h^0(-K) = {row.h0_antiK}" in lines
        assert f"  h^{{1,2}} = {row.h12}, h^{{1,3}} = {row.h13}, " \
               f"h^{{2,2}} = {row.h22}" in lines
        assert f"  base locus of |-K|: {base_locus_text[row.base_locus]} " \
               f"(general member smooth)" in lines
        [rationality] = [line for line in lines
                         if line.startswith("  rationality: ")]
        toric = r" \(E[123]\)" if row.rationality == "toric" else ""
        assert re.fullmatch(r"  rationality: "
                            + re.escape(row.rationality.replace("_", " "))
                            + toric, rationality), row.label
        assert f"  tangent sheaf: chi(T) = {t.chi_T}, h^0(T) {h0}, " \
               f"h^1(T) {h1}" in lines
    assert exact_rows == 14


def test_info_rejects_inadmissible_triple(capsys):
    with pytest.raises(SystemExit):
        cli.main(["info", "7", "4", "1"])


def test_info_rejects_malformed_triple(capsys):
    with pytest.raises(SystemExit):
        cli.main(["info", "9", "0", "1"])


@pytest.mark.parametrize("command", ["info", "cones"])
@pytest.mark.parametrize("triple", [("9", "0", "1"), ("7", "5", "1")],
                         ids=["malformed", "inadmissible"])
def test_bad_triple_exits_two_with_one_error_line(capsys, command, triple):
    # exit 1 is reserved for a verify mismatch
    with pytest.raises(SystemExit) as exc:
        cli.main([command, *triple])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert len(out.err.splitlines()) == 1
    assert out.err.startswith("error: ")


def test_cones_output(capsys):
    code, out, _ = run(capsys, "cones", "6", "2", "4")
    assert code == 0
    assert "-K . C = 1" in out
    assert "R4: 4*G + 2*Ehat" in out
    assert "face {C_G, C_Ghat}" in out


def test_info_computes_the_cone_data_once(capsys, monkeypatch):
    import fano4.cones as cones
    import fano4.hodge as hodge
    import fano4.intersect as intersect

    calls = {}
    for module, names in ((cones, ("cone_data", "anticanonical",
                                   "ne_generators", "nef_rays", "pairing")),
                          (intersect, ("fano4_invariants",)),
                          (hodge, ("hodge_of_fourfold",))):
        for name in names:
            def counted(*args, _name=name, _original=getattr(module, name)):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args)
            monkeypatch.setattr(module, name, counted)
    code, out, _ = run(capsys, "info", "7", "1", "2")
    assert code == 0 and "R4: 2*G + 1*Ehat" in out
    # each of the three layer results once, as in the 28-family pass
    assert calls == {"cone_data": 1, "anticanonical": 1, "ne_generators": 1,
                     "nef_rays": 1, "pairing": 4, "fano4_invariants": 1,
                     "hodge_of_fourfold": 1}


def test_cones_runs_the_cone_checks(capsys, monkeypatch):
    import fano4.cones as cones

    monkeypatch.setattr(cones, "_ne_kinds",
                        lambda a, d: (cones.CurveGen.F, cones.CurveGen.F_HAT))
    code, out, err = run(capsys, "cones", "6", "0", "1")
    assert code == 2 and out == "X^6_{0,1}:\n"
    assert err == ("internal consistency error: X^6_{0,1}: cone sizes "
                   "disagree: NE generators and nef rays (2, 3), "
                   "case 0 < a < d (3, 3)\n")


def test_verify_runs_the_cone_checks(capsys, monkeypatch):
    import fano4.cones as cones

    monkeypatch.setattr(cones, "_ne_kinds", lambda a, d: (cones.CurveGen.C_G,))
    code, out, err = run(capsys, "verify")
    assert code == 2 and out == ""
    assert err == ("internal consistency error: X^1_{0,1}: -K degree gcd "
                   "disagree: pairing 2, Fano index 1\n")


def test_verify_passes(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    assert "28/28" in out


def test_verify_quiet(capsys):
    code, out, _ = run(capsys, "--quiet", "verify")
    assert code == 0
    assert out == ""


def test_verify_exit_one_on_mismatch(capsys, monkeypatch):
    failing = VerificationReport(
        27, 1, (Mismatch("X^7_{0,1}", "K4", 431, 430),))
    monkeypatch.setattr(report, "verify_all", lambda: failing)
    code, out, _ = run(capsys, "verify")
    assert code == 1
    assert "MISMATCH X^7_{0,1} K4" in out


def test_verify_exit_two_on_internal_error(capsys, monkeypatch):
    def boom():
        raise IntegrityError("synthetic failure")
    monkeypatch.setattr(report, "verify_all", boom)
    code, out, err = run(capsys, "verify")
    assert code == 2
    assert "internal consistency error" in err


def test_verify_exit_two_with_one_line_on_any_exception(capsys, monkeypatch):
    def boom():
        raise KeyError("K4")
    monkeypatch.setattr(report, "verify_all", boom)
    code, out, err = run(capsys, "verify")
    assert code == 2
    assert out == ""
    assert err == "internal error: KeyError: 'K4'\n"


@pytest.mark.parametrize("field", [
    name for name in golden.GoldenThreefold._fields if name != "id"])
def test_verify_exit_one_on_a_tampered_table1_field(capsys, monkeypatch, field):
    tables = golden_tables()
    row = tables.table1[2]
    value = getattr(row, field)
    if isinstance(value, bool):
        wrong = not value
    elif isinstance(value, int):
        wrong = value + 1
    else:
        wrong = "tampered"
    tampered = tables._replace(
        table1=tables.table1[:2] + (row._replace(**{field: wrong}),)
        + tables.table1[3:])
    monkeypatch.setattr(golden, "golden_tables", lambda: tampered)
    code, out, _ = run(capsys, "verify")
    assert code == 1
    # the families all match, so the summary names table 1 as well
    assert out == (f"MISMATCH Z_3 {field}: expected {wrong}, computed {value}\n"
                   "28/28 families match the reference tables; "
                   "6/7 base 3-folds match table 1\n")


@pytest.mark.parametrize("change", [
    lambda t1: (t1[1], t1[0]) + t1[2:],
    lambda t1: t1[:-1],
    lambda t1: t1[:3] + (t1[3]._replace(id=5),) + t1[4:],
], ids=["swapped", "short", "id"])
def test_verify_exit_two_on_a_misaligned_table1(capsys, monkeypatch, change):
    tables = golden_tables()
    misaligned = tables._replace(table1=change(tables.table1))
    monkeypatch.setattr(golden, "golden_tables", lambda: misaligned)
    code, out, err = run(capsys, "verify")
    assert code == 2
    assert out == ""
    assert err == ("internal consistency error: reference table 1 does not "
                   "list the catalogue ids 1..7 in order\n")


def test_verify_exit_two_on_misaligned_reference_tables(capsys, monkeypatch):
    tables = golden_tables()
    t3 = tables.table3
    swapped = tables._replace(table3=(t3[1], t3[0]) + t3[2:])
    monkeypatch.setattr(golden, "golden_tables", lambda: swapped)
    code, out, err = run(capsys, "verify")
    assert code == 2
    assert out == ""
    assert err == ("internal consistency error: reference tables 2 and 3 "
                   "list different families\n")


def test_verify_exit_two_on_a_reference_field_no_record_has(capsys, monkeypatch):
    WiderRow = collections.namedtuple(
        "WiderRow", (*golden.GoldenFamilyRow._fields, "extra"), defaults=(0,))

    tables = golden_tables()
    wider = tables._replace(
        table2=tuple(WiderRow(**row._asdict()) for row in tables.table2))
    monkeypatch.setattr(golden, "golden_tables", lambda: wider)
    code, out, err = run(capsys, "verify")
    assert code == 2
    assert out == ""
    assert err == ("internal consistency error: reference row X^1_{0,1} "
                   "names fields no record has: extra\n")


def test_verify_exit_two_on_a_table1_field_no_catalogue_row_has(capsys,
                                                               monkeypatch):
    WiderRow = collections.namedtuple(
        "WiderRow", (*golden.GoldenThreefold._fields, "extra"), defaults=(0,))

    tables = golden_tables()
    wider = tables._replace(
        table1=tuple(WiderRow(**row._asdict()) for row in tables.table1))
    monkeypatch.setattr(golden, "golden_tables", lambda: wider)
    code, out, err = run(capsys, "verify")
    assert code == 2
    assert out == ""
    assert err == ("internal consistency error: reference row Z_1 "
                   "names fields no catalogue row has: extra\n")


def test_verify_exit_two_on_a_table_of_mixed_row_classes(capsys, monkeypatch):
    ChiRow = collections.namedtuple("ChiRow", ("label", "chi_T"))

    tables = golden_tables()
    row = tables.table2[5]
    mixed = tables._replace(table2=tables.table2[:5]
                            + (ChiRow(row.label, tables.table3[5].chi_T),)
                            + tables.table2[6:])
    monkeypatch.setattr(golden, "golden_tables", lambda: mixed)
    code, out, err = run(capsys, "verify")
    assert code == 2
    assert out == ""
    assert err == ("internal consistency error: reference table 2 does not "
                   "hold rows of one class\n")


def test_verify_prints_an_enum_mismatch_as_its_values(capsys, monkeypatch):
    tables = golden_tables()
    k = [row.label for row in tables.table2].index("X^7_{0,1}")
    bad = tables.table2[k]._replace(rationality="rational")
    tampered = tables._replace(
        table2=tables.table2[:k] + (bad,) + tables.table2[k + 1:])
    monkeypatch.setattr(golden, "golden_tables", lambda: tampered)
    code, out, _ = run(capsys, "verify")
    assert code == 1
    assert out == ("MISMATCH X^7_{0,1} rationality: expected rational, "
                   "computed toric\n"
                   "27/28 families match the reference tables\n")


def test_export_to_stdout(capsys):
    code, out, _ = run(capsys, "export", "--format", "json")
    assert code == 0
    assert len(json.loads(out)) == 28


def test_export_to_file(capsys, tmp_path):
    target = tmp_path / "families.csv"
    code, out, _ = run(capsys, "export", "--format", "csv", "--out", str(target))
    assert code == 0
    assert "wrote" in out
    assert len(target.read_text(encoding="utf-8").splitlines()) == 29


def test_export_to_file_quiet(capsys, tmp_path):
    target = tmp_path / "families.md"
    code, out, _ = run(capsys, "--quiet", "export", "--format", "markdown",
                       "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.exists()


def test_export_io_error_exits_two_with_one_line(capsys, tmp_path):
    target = tmp_path / "missing" / "families.json"
    code, out, err = run(capsys, "export", "--format", "json",
                         "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and str(target) in err
    assert len(err.splitlines()) == 1
    assert not target.exists()


def test_export_to_an_empty_path_names_that_path(capsys):
    # an empty path is falsy, but the failed write was not to standard output
    code, out, err = run(capsys, "export", "--format", "json", "--out", "")
    assert code == 2
    assert out == ""
    assert err == "error: cannot write '': No such file or directory\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_export_write_error_names_the_file(capsys):
    # open succeeds; the write fails, and its OSError carries no file name
    code, out, err = run(capsys, "export", "--format", "json",
                         "--out", "/dev/full")
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write /dev/full: ")
    assert len(err.splitlines()) == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [["list"], ["info", "7", "1", "2"],
                                  ["cones", "6", "2", "4"], ["verify"],
                                  ["export", "--format", "json"],
                                  ["export", "--format", "markdown"],
                                  ["--version"], ["--help"]])
def test_unwritable_stdout_exits_two_with_one_line(argv):
    with open("/dev/full", "wb") as full:
        result = subprocess.run([sys.executable, "-m", "fano4.cli", *argv],
                                stdout=full, stderr=subprocess.PIPE, text=True,
                                env=dict(os.environ, PYTHONPATH=str(SRC)),
                                timeout=120)
    assert result.returncode == 2
    assert len(result.stderr.splitlines()) == 1
    assert result.stderr.startswith("error: cannot write standard output: ")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("flag", ["--version", "--help"])
def test_help_and_version_report_a_failed_write(flag, unbuffered):
    # buffered, the write fails at the flush; unbuffered, inside argparse
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "wb") as full:
        result = subprocess.run([sys.executable, "-m", "fano4.cli", flag],
                                stdout=full, stderr=subprocess.PIPE, text=True,
                                env=dict(env, PYTHONPATH=str(SRC)), timeout=120)
    assert result.returncode == 2
    assert result.stderr.startswith("error: cannot write standard output: ")
    assert len(result.stderr.splitlines()) == 1


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "fano4" in capsys.readouterr().out


def test_unknown_format_is_a_parse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["export", "--format", "xml"])
    assert exc.value.code == 2


# The recogniser in front of argparse: each form it accepts must give what
# argparse gives, and each form it declines must reach argparse unchanged.

PINNED = sorted(json.loads((SRC.parent / "bench" / "expected.json")
                           .read_text(encoding="utf-8"))["cli"])


@pytest.mark.parametrize("command", PINNED)
@pytest.mark.parametrize("quiet", [[], ["--quiet"]], ids=["", "quiet"])
def test_recogniser_agrees_with_argparse_on_every_pinned_command(quiet,
                                                                 command):
    argv = [*quiet, *command.split()]
    assert vars(cli._recognise(argv)) == vars(cli.build_parser().parse_args(argv))


@pytest.mark.parametrize("fmt", ["json", "csv", "markdown"])
@pytest.mark.parametrize("path", ["families.out", "", "json", "a b=c"])
@pytest.mark.parametrize("quiet", [[], ["--quiet"]], ids=["", "quiet"])
def test_recogniser_agrees_with_argparse_on_export_options(quiet, path, fmt):
    for options in (["--format", fmt, "--out", path],
                    ["--out", path, "--format", fmt]):
        argv = [*quiet, "export", *options]
        assert vars(cli._recognise(argv)) == \
            vars(cli.build_parser().parse_args(argv))


DECLINED = {
    "format=": ["export", "--format=json"],
    "abbreviated": ["export", "--form", "json"],
    "out option": ["export", "--format", "json", "--out", "-x"],
    "repeated format": ["export", "--format", "json", "--format", "csv"],
    "no format": ["export", "--out", "families.json"],
    "odd export": ["export", "--format", "json", "--out"],
    "plus sign": ["info", "+7", "2", "5"],
    "fullwidth digit": ["info", "\uff17", "2", "5"],
    "negative z_id": ["info", "-1", "0", "1"],
    "negative a": ["info", "7", "-1", "1"],
    "two numbers": ["cones", "7", "2"],
    "5000 digits": ["info", "7", "2", "1" * 5000],
    "quiet after": ["verify", "--quiet"],
    "quiet twice": ["--quiet", "--quiet", "list"],
    "extra": ["list", "extra"],
    "empty": [],
    "help": ["-h"],
    "info help": ["info", "-h"],
    "version": ["--version"],
}


@pytest.mark.parametrize("argv", DECLINED.values(), ids=DECLINED)
def test_recogniser_declines_every_other_form(argv):
    assert cli._recognise(argv) is None


# A family argument is an optional "-" followed by ASCII digits, in both
# parsers; every other token that int() would read is an argparse usage error.

#: argv outside the grammar -> the argument argparse names
MALFORMED = {
    "arabic-indic digit": (["info", "\u0661", "0", "1"], "i"),
    "arabic-indic pair": (["cones", "7", "\u0660", "\u0661"], "a"),
    "fullwidth digit": (DECLINED["fullwidth digit"], "i"),
    "superscript digit": (["info", "7", "0", "\u00b9"], "d"),
    "plus sign": (["info", "1", "0", "+1"], "d"),
    "leading space": (["info", " 1", "0", "1"], "i"),
    "trailing space": (["cones", "7", "0", "1 "], "d"),
    "underscore": (["cones", "7", "0", "0_1"], "d"),
    "bare minus": (["info", "7", "0", "-"], "d"),
}


@pytest.mark.parametrize("argv, argument", MALFORMED.values(), ids=MALFORMED)
def test_a_family_argument_outside_the_grammar_is_a_usage_error(capsys, argv,
                                                                argument):
    assert cli._recognise(argv) is None
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert lines[0].startswith(f"usage: fano4 {argv[0]} ")
    token = argv[1 + "iad".index(argument)]
    assert lines[-1] == (f"fano4 {argv[0]}: error: argument {argument}: "
                         f"invalid int value: {token!r}")


@pytest.mark.parametrize("argv, canonical", [
    (["info", "7", "0", "01"], ["info", "7", "0", "1"]),
    (["cones", "07", "00", "001"], ["cones", "7", "0", "1"]),
    (["info", "7", "-0", "1"], ["info", "7", "0", "1"]),
], ids=["leading zero", "leading zeros", "minus zero"])
def test_a_family_argument_in_the_grammar_reads_as_its_integer(capsys, argv,
                                                               canonical):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert out == run(capsys, *canonical)[1]


def test_a_declined_overlong_number_is_an_argparse_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(DECLINED["5000 digits"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: fano4 info ")
    assert "argument d: invalid int value: " in err


@pytest.mark.parametrize("argv, stderr", [
    (DECLINED["negative z_id"], "error: z_id must be in 1..7, got -1\n"),
    (DECLINED["negative a"], "error: a must be >= 0, got -1\n"),
], ids=["z_id", "a"])
def test_a_declined_negative_number_reaches_the_family_check(capsys, argv,
                                                             stderr):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", stderr)


# The process entry point: each test below runs one fresh interpreter that
# exits through cli.run(); most compare what it wrote with the in-process main.

def run_process(*argv: str, script: str | None = None
                ) -> subprocess.CompletedProcess:
    """``python -m fano4.cli argv``, or ``python -c script argv`` when a
    script is given (``sys.argv[1:]`` is then ``argv``, as ``main`` reads)."""
    command = ["-m", "fano4.cli"] if script is None else ["-c", script]
    return subprocess.run([sys.executable, *command, *argv],
                          capture_output=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC),
                                   COLUMNS="80"),
                          timeout=120)


def in_process(capsys, monkeypatch, *argv: str) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of ``main(argv)``; a
    ``SystemExit`` gives its code."""
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("argv", [["list"], ["verify"], ["--help"],
                                  ["--version"]], ids=" ".join)
def test_run_exits_zero_with_the_output_of_main(capsys, monkeypatch, argv):
    result = run_process(*argv)
    assert result.returncode == 0, result.stderr
    code, out, err = in_process(capsys, monkeypatch, *argv)
    assert code == 0
    assert (result.stdout.decode(), result.stderr.decode()) == (out, err)


def test_run_exits_one_on_a_tampered_table2_value():
    script = """
import fano4.golden as golden
from fano4.cli import run
tables = golden.golden_tables()
row = tables.table2[0]
tampered = tables._replace(
    table2=(row._replace(K4=row.K4 + 1),) + tables.table2[1:])
golden.golden_tables = lambda: tampered
run()
"""
    result = run_process("verify", script=script)
    assert result.returncode == 1, result.stderr
    assert result.stdout.decode().splitlines() == [
        "MISMATCH X^1_{0,1} K4: expected 48, computed 47",
        "27/28 families match the reference tables"]


@pytest.mark.parametrize("argv, stderr", [
    (["info", "9", "0", "1"], "error: z_id must be in 1..7, got 9\n"),
    (["cones", "7", "5", "1"], "error: (z_id=7, a=5, d=1) is not an "
     "admissible family; run 'list' for the 28 admissible triples\n"),
    # argparse words its usage errors differently across Python versions
    (["export", "--format", "xml"], None),
], ids=["malformed", "inadmissible", "usage"])
def test_run_exits_two_with_the_error_of_main(capsys, monkeypatch, argv,
                                              stderr):
    result = run_process(*argv)
    code, out, err = in_process(capsys, monkeypatch, *argv)
    assert (result.returncode, code) == (2, 2)
    assert result.stdout == b"" and out == ""
    assert result.stderr.decode() == err == (stderr or err)


def test_run_pipes_the_export_bytes_in_full():
    result = run_process("export", "--format", "json")
    assert result.returncode == 0, result.stderr
    assert result.stdout == report.export(report.build_all_records(), "json")


def test_run_calls_the_atexit_handlers():
    script = """
import atexit
from fano4.cli import run
atexit.register(print, "atexit handler ran")
run()
"""
    result = run_process("list", script=script)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.decode().splitlines()
    assert len(lines) == 29 and lines[-1] == "atexit handler ran"


def test_run_reports_a_stdout_closed_at_start():
    for command in ("list", "verify", "export --format json"):
        result = subprocess.run(
            ["sh", "-c", f'exec "$0" -m fano4.cli {command} >&-',
             sys.executable],
            stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120)
        assert result.returncode == 2, command
        assert result.stderr == (f"error: cannot write standard output: "
                                 f"{os.strerror(errno.EBADF)}\n"), command


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [["list"], ["info", "9", "0", "1"]], ids=" ".join)
def test_run_exits_two_when_both_streams_are_unwritable(argv, unbuffered):
    # the error line cannot be written either; the exit code still reports it
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    with open("/dev/full", "wb") as full:
        result = subprocess.run([sys.executable, "-m", "fano4.cli", *argv],
                                stdout=full, stderr=full,
                                env=dict(env, PYTHONPATH=str(SRC)), timeout=120)
    assert result.returncode == 2
