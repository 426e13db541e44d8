"""The three workloads: seeded inputs, one op each, and the check of its output.

* ``library_verify`` -- one op is a full in-process pass: build the 28
  records, verify them against the reference tables, export json, csv and
  markdown.
* ``cli_cold`` -- one op is one fresh ``python -m fano4.cli`` process, drawn
  from a seeded mix of ``list``, ``info``, ``cones``, ``verify`` and
  ``export``.
* ``exact_algebra`` -- one op is one call group into the general rational
  arithmetic of ``cones``, ``hodge`` and ``intersect``, with inputs the 28
  records never produce.

Every op's output is checked against a value the benchmark holds on its own:
pinned sha256 hashes for exports and CLI output, and independent derivations
for the algebra.  Inputs are drawn in shuffled blocks holding each op kind
once, so every seed runs the same mix in a different order.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import random
import subprocess
import sys
import threading
from collections import defaultdict
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
EXPECTED_PATH = BENCH / "expected.json"
MODULES = ("catalog", "intersect", "hodge", "cones", "classify", "golden",
           "report", "cli")
FORMATS = ("json", "csv", "markdown")
CHILD_TIMEOUT_S = 60


class SourceMissing(RuntimeError):
    pass


def load() -> SimpleNamespace:
    """Import fano4 from this checkout's ``src/``; never from elsewhere."""
    if not (SRC / "fano4" / "__init__.py").is_file():
        raise SourceMissing(f"no fano4 package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    mods = SimpleNamespace(**{name: importlib.import_module(f"fano4.{name}")
                              for name in MODULES})
    if Path(mods.report.__file__).resolve().parent != SRC / "fano4":
        raise SourceMissing(f"fano4 was imported from {mods.report.__file__}")
    return mods


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def run_child(argv: list[str], env: dict[str, str]) -> tuple[int, bytes, int]:
    """Run ``python <argv>`` from the checkout root; return its exit code,
    its merged stdout/stderr and its peak resident memory in KiB."""
    proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss


# -- library_verify ------------------------------------------------------------

def library_inputs(rng: random.Random, mods, expected: dict) -> list:
    """Only the export order varies: one shuffled format order per pass."""
    return [tuple(rng.sample(FORMATS, len(FORMATS))) for _ in range(64)]


def library_op(mods, order):
    report = mods.report
    records = report.build_all_records()
    verification = report.verify_all(records)
    return records, verification, {fmt: report.export(records, fmt)
                                   for fmt in order}


def library_check(order, out, expected: dict) -> bool:
    records, verification, exports = out
    return (len(records) == 28 and verification.ok
            and verification.pass_count == 28 and verification.fail_count == 0
            and all(sha256(exports[fmt]) == expected["export"][fmt]
                    for fmt in order))


# -- cli_cold ------------------------------------------------------------------

CLI_COMMANDS = ("list", "info", "cones", "verify", "export")


def admissible_families(expected: dict) -> list[tuple[str, str, str]]:
    """The 28 triples, read from the pinned ``info`` outputs."""
    return sorted(tuple(key.split()[1:]) for key in expected["cli"]
                  if key.startswith("info "))


def cli_argv(command: str, rng: random.Random,
             families: list[tuple[str, str, str]]) -> list[str]:
    if command in ("info", "cones"):
        return [command, *rng.choice(families)]
    if command == "export":
        return ["export", "--format", rng.choice(FORMATS)]
    return [command]


def cli_inputs(rng: random.Random, mods, expected: dict) -> list[list[str]]:
    families = admissible_families(expected)
    ops = []
    for _ in range(64):
        block = list(CLI_COMMANDS)
        rng.shuffle(block)
        ops.extend(cli_argv(command, rng, families) for command in block)
    return ops


def cli_op(mods, argv):
    return run_child(["-m", "fano4.cli", *argv], child_env())


def cli_check(argv, out, expected: dict) -> bool:
    code, stdout, _ = out
    return code == 0 and sha256(stdout) == expected["cli"][" ".join(argv)]


# -- exact_algebra -------------------------------------------------------------

#: Fano index of each base 3-fold, from the source classification.
INDEX = {1: 2, 2: 2, 3: 2, 4: 2, 5: 2, 6: 3, 7: 4}
ALGEBRA_KINDS = ("pairing", "basis_roundtrip", "is_fano", "hodge_product",
                 "hodge_formulas", "intersect_generic")


def _pairing_column(gen: str, a: int, d: int) -> tuple[int, int, int]:
    """A column of the divisor-curve pairing table in the ``cones``
    docstring, over the divisor basis (phi*H, Ghat, E)."""
    return {"F": (0, 1, -1), "Fhat": (0, 0, 1), "C_G": (1, 0, 0),
            "C_Ghat": (1, a - d, d)}[gen]


def _rational(rng: random.Random, lo: int, hi: int) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, 12))


def _poly(rng: random.Random) -> dict[tuple[int, int], int]:
    return {(rng.randint(0, 4), rng.randint(0, 4)): rng.randint(-9, 9)
            for _ in range(rng.randint(1, 8))}


def _family(rng: random.Random, mods):
    return mods.catalog.FamilyParams(rng.randint(1, 7), rng.randint(0, 6),
                                     rng.randint(1, 9))


def _algebra_input(kind: str, rng: random.Random, mods):
    cones, intersect = mods.cones, mods.intersect
    if kind == "pairing":
        combo = {gen: _rational(rng, 0, 30)
                 for gen in rng.sample(list(cones.CurveGen), rng.randint(1, 4))}
        return (kind, _family(rng, mods),
                tuple(_rational(rng, -30, 30) for _ in range(3)), combo)
    if kind == "basis_roundtrip":
        return (kind, _family(rng, mods),
                tuple(_rational(rng, -30, 30) for _ in range(3)))
    if kind == "is_fano":
        return (kind, _family(rng, mods))
    if kind == "hodge_product":
        return (kind, _poly(rng), _poly(rng))
    if kind == "hodge_formulas":
        return (kind, _poly(rng), rng.randint(1, 3), _poly(rng),
                rng.randint(2, 4))
    # intersect_generic: raw numbers chosen so every 1/2 and 1/3 cancels
    kw3, c1sq = rng.randint(-200, 200), rng.randint(-200, 200)
    kyv, kvkyv = rng.randint(-300, 300), rng.randint(-300, 300)
    bundle = intersect.BundleInput(
        KW3=kw3, KW_c1sq=c1sq + (kw3 + c1sq) % 2,
        KW_c2E=rng.randint(-50, 50), KW_c2W=3 * rng.randint(-40, 40),
        chi_O=rng.randint(-3, 3))
    centre = intersect.BlowupCentreData(
        KYV_sq=kyv, KV_KYV=kvkyv + (kyv + kvkyv) % 2,
        KV_sq=rng.randint(-300, 300), c2N=rng.randint(-100, 100),
        chi_OV=rng.randint(-5, 5))
    return (kind, bundle, centre)


def algebra_inputs(rng: random.Random, mods, expected: dict) -> list:
    """One op is a block of calls holding each kind once, in seeded order."""
    ops = []
    for _ in range(512):
        block = list(ALGEBRA_KINDS)
        rng.shuffle(block)
        ops.append([_algebra_input(kind, rng, mods) for kind in block])
    return ops


def algebra_op(mods, block):
    return [_algebra_call(mods, inp) for inp in block]


def algebra_check(block, outs, expected: dict) -> bool:
    return all(_algebra_call_ok(inp, out) for inp, out in zip(block, outs))


def _algebra_call(mods, inp):
    cones, hodge, intersect = mods.cones, mods.hodge, mods.intersect
    kind = inp[0]
    if kind == "pairing":
        _, params, coords, combo = inp
        D = cones.divisor(params, *coords)
        C = cones.curve_combo(params, combo)
        return D, C, cones.pairing(D, C)
    if kind == "basis_roundtrip":
        _, params, coords = inp
        D = cones.divisor(params, *coords)
        alternate = cones.to_alternate_basis(D)
        return D, alternate, cones.from_alternate_basis(params, alternate)
    if kind == "is_fano":
        return cones.is_fano(inp[1])
    if kind == "hodge_product":
        return hodge.HodgePolynomial(inp[1]) * hodge.HodgePolynomial(inp[2])
    if kind == "hodge_formulas":
        _, w, n, v, c = inp
        eW = hodge.HodgePolynomial(w)
        return (hodge.bundle_formula(eW, n),
                hodge.blowup_formula(eW, hodge.HodgePolynomial(v), c))
    _, bundle, centre = inp
    base = intersect.projective_bundle_invariants(bundle)
    blown = intersect.surface_blowup_invariants(base, centre)
    return base, blown, intersect.riemann_roch_chi(blown.K4, blown.K2c2,
                                                   bundle.chi_O)


def _convolve(x: dict, y: dict) -> dict:
    out: dict = defaultdict(int)
    for (p1, q1), c1 in x.items():
        for (p2, q2), c2 in y.items():
            out[(p1 + p2, q1 + q2)] += c1 * c2
    return {pq: c for pq, c in out.items() if c}


def _add(x: dict, y: dict) -> dict:
    out = defaultdict(int, x)
    for pq, c in y.items():
        out[pq] += c
    return {pq: c for pq, c in out.items() if c}


def _diagonal(n: int) -> dict:
    return {(i, i): 1 for i in range(n + 1)}


def _riemann_roch(K4: int, K2c2: int, chi_O: int) -> Fraction:
    return chi_O + Fraction(2 * K4 + K2c2, 12)


def _algebra_call_ok(inp, out) -> bool:
    kind = inp[0]
    if kind == "pairing":
        _, params, coords, combo = inp
        D, C, value = out
        want = sum(c * sum(x * m for x, m in zip(
                       coords, _pairing_column(gen.value, params.a, params.d)))
                   for gen, c in combo.items())
        return (D.coords == coords and dict(C.combo) == {
                    g: c for g, c in combo.items() if c}
                and value == want)
    if kind == "basis_roundtrip":
        _, params, coords = inp
        D, alternate, back = out
        x, y, z = coords
        a, d = params.a, params.d
        return (alternate == (x + a * y + d * (z - y), y, y - z)
                and back.coords == coords and back.context == params)
    if kind == "is_fano":
        p = inp[1]
        i = INDEX[p.z_id]
        return out is (p.a <= i - 1 and p.d - p.a <= i - 1)
    if kind == "hodge_product":
        return out.as_dict() == _convolve(inp[1], inp[2])
    if kind == "hodge_formulas":
        _, w, n, v, c = inp
        exceptional = _add(_diagonal(c - 1), {(0, 0): -1})
        bundle, blowup = out
        return (bundle.as_dict() == _convolve(w, _diagonal(n))
                and blowup.as_dict() == _add(w, _convolve(v, exceptional)))
    _, bundle, centre = inp
    base, blown, rr = out
    return (_riemann_roch(base.K4, base.K2c2, bundle.chi_O) == base.chi_antiK
            and _riemann_roch(blown.K4, blown.K2c2, bundle.chi_O) == blown.chi_antiK
            and rr == blown.chi_antiK)


# -- registry ------------------------------------------------------------------

WORKLOADS = {
    "library_verify": SimpleNamespace(inputs=library_inputs, op=library_op,
                                      check=library_check),
    "cli_cold": SimpleNamespace(inputs=cli_inputs, op=cli_op, check=cli_check),
    "exact_algebra": SimpleNamespace(inputs=algebra_inputs, op=algebra_op,
                                     check=algebra_check),
}


def make_inputs(workload: str, seed: int, mods, expected: dict) -> list:
    return WORKLOADS[workload].inputs(random.Random(seed), mods, expected)


def setup(workload: str, seed: int) -> list:
    """Everything a run does before its first op: import fano4 and draw the
    inputs.  Timed in fresh interpreters for ``setup_s``."""
    mods = load()
    return make_inputs(workload, seed, mods, load_expected())
