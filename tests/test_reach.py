"""Every function of ``src/fano4`` serves a product path, or gives its reason.

A fresh interpreter imports ``fano4`` under ``sys.setprofile`` and runs the
product paths: the 28-family pass, ``verify_all``, the three exports, every
command pinned in ``bench/expected.json``, and the help, version and error
exits of the command line.  Each code object it enters is mapped to its
``def`` by file, first line and name (``co_qualname`` needs Python 3.11).
The ``def``s that no path enters must be exactly those of ``UNREACHED``, each
with the reason it stays, so a new function that no path calls fails here,
and so does a pinned one that a path starts to call.  The process must be
fresh: a warm ``lru_cache`` or a name that the lazy ``fano4.__getattr__`` has
already bound would hide a call.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "fano4"

ALGEBRA = "exact_algebra workload"
DEMO = "demo 02"
INPUT = "checks caller input"
PROTOCOL = "value-type protocol"

#: every def that no product path enters, with the reason it stays
UNREACHED = {
    "fano4.__dir__": "PEP 562 dir()",
    "catalog.FamilyParams.__setattr__": "immutability guard",
    "cli.run": "process entry point, run in a child",
    "cones._load_fraction": ALGEBRA,
    "cones._exact": ALGEBRA,
    "cones._over_lcm": ALGEBRA,
    "cones._reduced": ALGEBRA,
    "cones.DivisorClass.__new__": ALGEBRA,
    "cones.DivisorClass._combined": PROTOCOL,
    "cones.DivisorClass.__add__": PROTOCOL,
    "cones.DivisorClass.__sub__": PROTOCOL,
    "cones.DivisorClass.__mul__": INPUT,
    "cones.DivisorClass.__radd__": INPUT,
    "cones.DivisorClass.__rmul__": PROTOCOL,
    "cones._not_a_family": INPUT,
    "cones._same_context": INPUT,
    "cones.divisor": ALGEBRA,
    "cones.CurveClass.__new__": ALGEBRA,
    "cones.CurveClass.__add__": PROTOCOL,
    "cones.CurveClass.__rmul__": PROTOCOL,
    "cones.curve_combo": ALGEBRA,
    "cones.to_alternate_basis": ALGEBRA,
    "cones.from_alternate_basis": ALGEBRA,
    "cones.is_fano": ALGEBRA,
    "hodge.HodgePolynomial.as_dict": ALGEBRA,
    "hodge.HodgePolynomial.betti": DEMO,
    "hodge.HodgePolynomial.__eq__": PROTOCOL,
    "hodge.HodgePolynomial.__hash__": PROTOCOL,
    "hodge.HodgePolynomial.__repr__": PROTOCOL,
    "hodge.hodge_of_threefold": DEMO,
    "hodge.hodge_of_surface": DEMO,
    "intersect._check_ints": ALGEBRA,
    "intersect.projective_bundle_invariants": ALGEBRA,
    "intersect.surface_blowup_invariants": ALGEBRA,
    "intersect.riemann_roch_chi": ALGEBRA,
}

#: run by a fresh interpreter: the product paths under a profiler that keeps
#: each code object entered; prints (file, first line, name) of each
PRODUCT_PATHS = """
import io, json, sys

entered = set()


def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)


def exit_code(main, argv):
    sys.stdout = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    sys.stderr = io.StringIO()
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code
    finally:
        sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__


with open(sys.argv[1], encoding="utf-8") as fh:
    pinned = [command.split() for command in json.load(fh)["cli"]]
sys.setprofile(profile)
import fano4
from fano4.cli import main

records = fano4.build_all_records()
assert fano4.verify_all(records).ok
for fmt in ("json", "csv", "markdown"):
    fano4.export(records, fmt)
codes = [exit_code(main, argv) for argv in pinned]
codes += [exit_code(main, argv) for argv in (["--help"], ["--version"])]
codes += [exit_code(main, argv) for argv in (
    [], ["info", "1", "0"], ["export", "--format", "xml"],
    ["info", "9", "0", "1"], ["cones", "7", "4", "1"])]
sys.setprofile(None)
assert codes == [0] * (len(pinned) + 2) + [2] * 5, codes
print(json.dumps(sorted({(code.co_filename, code.co_firstlineno, code.co_name)
                         for code in entered})))
"""


def defs(path: Path):
    """(first line, name, qualified name) of each def in a module; the first
    line of a decorated def is that of its first decorator, as in its code
    object."""
    found = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno,
                             *(d.lineno for d in child.decorator_list)])
                found.append((first, child.name, prefix + child.name))
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def test_each_def_that_no_product_path_enters_is_pinned_with_a_reason():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, "-c", PRODUCT_PATHS,
         str(ROOT / "bench" / "expected.json")],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    entered = {(str(Path(file).resolve()), line, name)
               for file, line, name in json.loads(result.stdout)}
    unreached = set()
    for path in sorted(PACKAGE.glob("*.py")):
        module = "fano4" if path.stem == "__init__" else path.stem
        for line, name, qualname in defs(path):
            if (str(path.resolve()), line, name) not in entered:
                unreached.add(f"{module}.{qualname}")
    # a def that joins has no product caller: call it, delete it, or pin it
    # with its reason; one that leaves has gained a caller: unpin it
    joined = sorted(unreached - UNREACHED.keys())
    left = sorted(UNREACHED.keys() - unreached)
    assert (joined, left) == ([], [])
