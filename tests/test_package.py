"""The package surface and its lazy loading.

``import fano4`` loads no submodule; each public name imports its home
module on first access, and each CLI command loads only what it uses, which
never includes ``fractions`` and, unless argparse must word a help text or a
usage error, not ``argparse`` either.  The loading checks run in fresh
interpreters, because this test session has long since imported everything.
Each place where an int enters the public functions refuses a float or a
bool.
"""

from __future__ import annotations

import doctest
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path
from types import ModuleType
from typing import ForwardRef

import pytest

import fano4

ROOT = Path(__file__).resolve().parent.parent

CLI_MODULES = {"fano4", "fano4.catalog", "fano4.errors", "fano4.cli"}


def run_fresh(script: str) -> str:
    """The standard output of ``script``, run by a fresh interpreter that
    imports ``fano4`` from this checkout; it must exit 0."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


def loaded_after(*argvs: list[str]) -> list[tuple[set[str], set[str]]]:
    """In a fresh interpreter, import ``fano4.cli`` and run ``main`` on each
    argv in turn.  Returns, after the import and after each command, the
    loaded ``fano4`` modules and the modules that command added."""
    script = f"""
import contextlib, io, sys
def fano4_modules():
    return sorted(m for m in sys.modules if m == "fano4" or m.startswith("fano4."))
before = set(sys.modules)
import fano4.cli as cli
steps = [(fano4_modules(), sorted(set(sys.modules) - before))]
for argv in {argvs!r}:
    before = set(sys.modules)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    steps.append((fano4_modules(), sorted(set(sys.modules) - before)))
import json
print(json.dumps(steps))
"""
    steps = json.loads(run_fresh(script).splitlines()[-1])
    return [(set(fano4_mods), set(added)) for fano4_mods, added in steps]


def test_cli_import_and_list_load_only_catalog_and_errors():
    (after_import, _), (after_list, added) = loaded_after(["list"])
    assert after_import <= CLI_MODULES
    assert after_list <= CLI_MODULES
    assert not {m for m in added if m.startswith("fano4.")}


def test_cones_command_adds_only_the_cones_module():
    (after_import, _), (after_cones, _) = loaded_after(["cones", "7", "1", "2"])
    assert after_cones - after_import == {"fano4.cones"}


def test_info_does_not_load_the_reference_tables():
    (_, on_import), (after_info, added) = loaded_after(["info", "7", "1", "2"])
    assert "fano4.report" in after_info
    assert "fano4.golden" not in after_info
    assert not {"json", "csv"} & (on_import | added)


def test_verify_loads_the_tables_but_not_json_or_csv():
    (_, on_import), (after_verify, added) = loaded_after(["verify"])
    assert "fano4.golden" in after_verify
    assert not {"json", "csv"} & (on_import | added)


#: modules that records built with ``dataclasses`` would load at every start
INTROSPECTION = {"dataclasses", "inspect"}


#: every command, as the loading tests run it
COMMANDS = [
    ["list"], ["cones", "7", "1", "2"], ["info", "7", "1", "2"], ["verify"],
    *(["export", "--format", fmt] for fmt in ("json", "csv", "markdown")),
]


def _runnable(argv: list[str], out: Path) -> list[str]:
    if argv[0] == "export":
        return ["--quiet", *argv, "--out", str(out)]
    return argv


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_no_command_loads_dataclasses_or_inspect(argv, tmp_path):
    (_, on_import), (_, added) = loaded_after(_runnable(argv, tmp_path / "out"))
    assert not INTROSPECTION & (on_import | added)


#: ``fractions`` and the modules it imports; every record value is an int
NUMERIC = {"fractions", "decimal", "numbers"}


def _added_by_each_step(tmp_path: Path):
    """The import of ``fano4.cli``, then each command of ``COMMANDS``, paired
    with the modules it added.  One interpreter runs every command in turn:
    what one command loaded, the next would still show."""
    steps = loaded_after(*(_runnable(argv, tmp_path / "out")
                           for argv in COMMANDS))
    return zip([["import"], *COMMANDS], (added for _, added in steps))


def test_no_command_loads_fractions(tmp_path):
    for step, added in _added_by_each_step(tmp_path):
        assert not NUMERIC & added, step


#: what argparse loads; a plain command is parsed without it
PARSING = {"argparse", "gettext"}


def test_no_plain_command_loads_argparse(tmp_path):
    for step, added in _added_by_each_step(tmp_path):
        assert not PARSING & added, step


def test_importing_every_module_loads_neither_dataclasses_nor_inspect():
    script = """
import json, sys
before = set(sys.modules)
import fano4.golden
steps = [sorted(set(sys.modules) - before)]
import fano4.catalog, fano4.classify, fano4.cli, fano4.cones, fano4.errors
import fano4.hodge, fano4.intersect, fano4.report
steps.append(sorted(set(sys.modules) - before))
print(json.dumps(steps))
"""
    golden_only, everything = json.loads(run_fresh(script))
    assert "fano4.golden" in golden_only and "fano4.report" in everything
    assert not (INTROSPECTION | NUMERIC | PARSING) & set(everything)


#: the modules whose record types hold evaluated annotations.  ``cones``
#: keeps ``from __future__ import annotations``: its annotations name its
#: own classes before they exist and ``Rational``, which it imports only
#: for type checkers, so its ``NefRay`` and ``ConeData`` keep strings
EVALUATED_ANNOTATIONS = ("classify", "golden", "hodge", "intersect", "report")


@pytest.mark.parametrize("name", EVALUATED_ANNOTATIONS)
def test_record_types_declare_real_types(name):
    # typing turns each string annotation of a NamedTuple into a ForwardRef
    # when the class is created, and keeps that in __annotations__
    module = importlib.import_module(f"fano4.{name}")
    records = [obj for obj in vars(module).values()
               if isinstance(obj, type) and issubclass(obj, tuple)
               and obj.__module__ == module.__name__
               and "__annotations__" in vars(obj)]
    assert records
    for cls in records:
        postponed = {field: annotation
                     for field, annotation in cls.__annotations__.items()
                     if isinstance(annotation, (str, ForwardRef))}
        assert not postponed, cls.__name__


#: the scalar paths that need ``Fraction``, each on its first use in a fresh
#: interpreter; each script prints what the test compares, and all but
#: ``caller_fraction`` (whose caller builds one first) check that importing
#: ``fano4`` left ``fractions`` unloaded
FIRST_USE = {
    "float_refused": """
import sys
from fano4.cones import divisor
from fano4.catalog import FamilyParams
assert "fractions" not in sys.modules
for bad in (0.5, True):
    try:
        divisor(FamilyParams(7, 1, 2), bad, 0, 0)
    except TypeError as exc:
        print(exc)
""",
    "caller_fraction": """
from fractions import Fraction
half, two = Fraction(1, 2), Fraction(4, 2)
import fano4.cones as cones
from fano4.catalog import FamilyParams
p = FamilyParams(7, 1, 2)
D = cones.divisor(p, half, two, 0)
C = cones.curve_combo(p, {cones.CurveGen.F: two})
assert D.coords == (half, 2, 0) and type(D.coords[1]) is int
assert C.combo == ((cones.CurveGen.F, 2),) and type(C.combo[0][1]) is int
print("ok")
""",
    "rational_pairing_and_basis_roundtrip": """
import sys
import fano4.cones as cones
from fano4.catalog import FamilyParams
assert "fractions" not in sys.modules
from fractions import Fraction
p = FamilyParams(7, 1, 2)
D = cones.divisor(p, Fraction(1, 2), Fraction(1, 3), Fraction(-2, 5))
value = cones.pairing(D, cones.curve_combo(p, {cones.CurveGen.F: 1}))
assert type(value) is Fraction and value == Fraction(11, 15)
assert cones.from_alternate_basis(p, cones.to_alternate_basis(D)) == D
print("ok")
""",
    "riemann_roch_quarter": """
import sys
from fano4.intersect import riemann_roch_chi
assert "fractions" not in sys.modules
value = riemann_roch_chi(1, 1, 0)
from fractions import Fraction
assert type(value) is Fraction and value == Fraction(1, 4)
print("ok")
""",
}


@pytest.mark.parametrize("case", sorted(FIRST_USE))
def test_rational_paths_work_on_first_use(case):
    expected = ("expected an int or Fraction scalar, got float 0.5\n"
                "expected an int or Fraction scalar, got bool True\n"
                if case == "float_refused" else "ok\n")
    assert run_fresh(FIRST_USE[case]) == expected


def test_every_export_resolves_to_its_home_module_object():
    for name in fano4.__all__:
        if name == "__version__":
            continue
        home = importlib.import_module(f"fano4.{fano4._HOME[name]}")
        assert getattr(fano4, name) is getattr(home, name), name


def test_all_is_unique_and_listed_by_dir():
    assert len(set(fano4.__all__)) == len(fano4.__all__)
    listing = dir(fano4)
    assert "__all__" in listing
    assert set(fano4.__all__) <= set(listing)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        fano4.no_such_name


def test_catalog_is_the_module():
    assert isinstance(fano4.catalog, ModuleType)
    assert fano4.catalog is sys.modules["fano4.catalog"]
    assert [z.id for z in fano4.catalog.catalog()] == list(range(1, 8))
    assert "catalog" not in fano4.__all__


def test_catalog_is_the_module_in_a_fresh_interpreter():
    script = ("import fano4, types; "
              "assert isinstance(fano4.catalog, types.ModuleType); "
              "print(len(fano4.catalog.catalog()))")
    assert run_fresh(script).strip() == "7"


#: every module of the package, the package itself first
MODULES = ["fano4", *(f"fano4.{info.name}"
                      for info in pkgutil.iter_modules(fano4.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_module_declares_all_and_binds_it(name):
    # without __all__, a star import would bind the module's own imports
    module = importlib.import_module(name)
    assert "__all__" in vars(module)
    namespace: dict[str, object] = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)


def test_star_import_binds_every_public_name():
    namespace: dict[str, object] = {}
    exec("from fano4 import *", namespace)
    assert set(fano4.__all__) <= set(namespace)
    assert namespace["verify_all"] is fano4.report.verify_all


def _blowup(bad, base_entry=None, centre_entry=None):
    """surface_blowup_invariants on the bundle degrees and the blow-up
    centre of X^7_{1,2}, with one entry of either replaced by ``bad``."""
    p = fano4.FamilyParams(7, 1, 2)
    base = fano4.p1_bundle_invariants(p)
    centre = fano4.intersect.surface_centre(p)
    if base_entry:
        base = base._replace(**{base_entry: bad})
    if centre_entry:
        centre = centre._replace(**{centre_entry: bad})
    return fano4.surface_blowup_invariants(base, centre)


#: one entry point per public function an int reaches.  A family's twist and
#: degree are type-checked once, by the FamilyParams constructor that every
#: family-level function takes (tests/test_catalog.py), so the entry of a
#: family-level function puts the bad value where its output enters a
#: raw-number operation instead
NON_INT_ENTRIES = {
    # chi(O_A) = 1 + h^{0,2}(A)
    "surface_h02": lambda bad: _blowup(bad, centre_entry="chi_OV"),
    # K_A^2, which Noether's formula turns into h^{1,1}(A)
    "hodge_of_surface": lambda bad: _blowup(bad, centre_entry="KV_sq"),
    # chi(O_X), the alternating sum of the h^{0,q}(X)
    "hodge_of_fourfold": lambda bad: fano4.riemann_roch_chi(100, 4, bad),
    "projective_space": lambda bad: fano4.projective_space(bad),
    "bundle_formula": lambda bad: fano4.bundle_formula(
        fano4.projective_space(1), bad),
    # K_Z . c1(E)^2 = -i*a^2*delta, the one bundle entry the twist reaches
    "split_bundle_base": lambda bad: fano4.projective_bundle_invariants(
        fano4.intersect.split_bundle_base(fano4.FamilyParams(7, 1, 2))
        ._replace(KW_c1sq=bad)),
    # c2(N) = a*d^2*delta and (K_Y|A)^2 = d*delta*(a+i)^2
    "surface_centre_a": lambda bad: _blowup(bad, centre_entry="c2N"),
    "surface_centre_d": lambda bad: _blowup(bad, centre_entry="KYV_sq"),
    "p1_bundle_invariants": lambda bad: _blowup(bad, base_entry="chi_antiK"),
    "chi_tangent_k4": lambda bad: fano4.chi_tangent(bad, 5, 0, 0, 0),
    "chi_tangent_h22": lambda bad: fano4.chi_tangent(100, 5, 0, 0, bad),
    "tangent_bounds": lambda bad: fano4.tangent_bounds(
        fano4.FamilyParams(7, 1, 2), bad),
}


@pytest.mark.parametrize("bad", [1.0, True], ids=["float", "bool"])
@pytest.mark.parametrize("entry", sorted(NON_INT_ENTRIES))
def test_entry_points_reject_floats_and_bools(entry, bad):
    # 1 is valid for every one of them, so only the type can be refused; the
    # cache of projective_space holds 1 and must not answer for 1.0 or True
    assert fano4.projective_space(1) is fano4.projective_space(1)
    with pytest.raises(TypeError):
        NON_INT_ENTRIES[entry](bad)


#: every public function that takes a family as one FamilyParams
FAMILY_FUNCTIONS = [
    *(f"intersect.{name}" for name in (
        "split_bundle_base", "p1_bundle_invariants", "surface_centre",
        "k4_closed_terms", "closed_degrees", "fano4_invariants")),
    *(f"hodge.{name}" for name in (
        "surface_h02", "hodge_of_surface",
        "hodge_of_fourfold")),
    "classify.h0_line_bundle",
]


@pytest.mark.parametrize("name", FAMILY_FUNCTIONS)
def test_family_functions_refuse_a_plain_tuple(name):
    # a bare triple has skipped the FamilyParams checks, so it must not
    # yield a value
    module, function = name.split(".")
    fn = getattr(importlib.import_module(f"fano4.{module}"), function)
    params = fano4.FamilyParams(7, 1, 2)
    fn(params)
    with pytest.raises(AttributeError):
        fn(tuple(params))


def test_readme_quick_start():
    result = doctest.testfile(str(ROOT / "README.md"), module_relative=False)
    assert result.attempted >= 5
    assert result.failed == 0
