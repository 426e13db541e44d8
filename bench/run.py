"""fano4 benchmark: one run of one workload.

    python3 bench/run.py --workload library_verify --seed 1 --seconds 15 --trace 0

Workloads: ``library_verify``, ``cli_cold`` and ``exact_algebra`` (see
``workloads.py`` and ``README.md``).  With ``--trace 0`` the run measures the
end-to-end metrics with no tracing; with ``--trace 1`` it wraps fano4's public
functions (``tracer.py``) and reports the per-layer metrics instead.  Metric
names and units are the ones declared in ``BENCHMARK.json``.  The last line of
standard output is one JSON object::

    {"correct": true, "attempted": 1234, "failed": 0,
     "metrics": {"op_ms_p50": {"value": 11.93, "unit": "ms"}, ...}}

Every op's output is checked; a failed or wrong op counts in ``failed``.  The
end-to-end times are scaled to a nominal host speed (``calibrate.py``).  The
run exits 2 without a result when the checkout holds no ``src/fano4``.
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import sys
import tracemalloc
from collections import defaultdict
from time import perf_counter, perf_counter_ns

import calibrate
import tracer as tracing
import workloads

SETUP_REPEATS = 15
PROBE_REPEATS = 5
WARMUP_OPS = 2
#: traced-run minimums for the segments other than the workload's own
MIN_LIBRARY_PASSES = 10
MIN_ALGEBRA_OPS = 100
MIN_CLI_BLOCKS = 3
WARM_MAIN_OPS = 50


def declared_units() -> dict[str, str]:
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"]
            for key in ("end_to_end", "per_layer") for m in spec[key]}


class Tally:
    """Ops attempted and failed, across every stretch of the run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool, what: str = "") -> None:
        """Count one op; name the first failed one on stderr."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if self.failed == 1:
                print(f"failed op: {what}", file=sys.stderr)


def attempt(call, inp, check, expected, tally: Tally):
    """Run one op as ``call()``, check its output for input ``inp``, tally the
    outcome; return the op's duration in ns and its output (None if it
    raised)."""
    start = perf_counter_ns()
    try:
        out = call()
    except Exception as exc:  # an op that raises is a failed op, not a crash
        end = perf_counter_ns()
        tally.record(False, f"{inp!r}: {type(exc).__name__}: {exc}")
        return end - start, None
    end = perf_counter_ns()
    tally.record(check(inp, out, expected), f"{inp!r}: wrong output")
    return end - start, out


def p50(values) -> float:
    return statistics.median(values)


def p90(values) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def per(num, den):
    return num / den if num is not None and den else None


# -- end-to-end run ------------------------------------------------------------

def measure_setup(workload: str, seed: int) -> float:
    """Median over fresh interpreters of importing fano4 and drawing inputs,
    each scaled by the host speed probed just before and after it."""
    code = (f"import sys, time; sys.path.insert(0, {str(workloads.BENCH)!r}); "
            "import workloads; t = time.perf_counter(); "
            f"workloads.setup({workload!r}, {seed}); "
            "print(repr(time.perf_counter() - t))")
    cal = calibrate.Calibrator(window_s=0)
    for _ in range(SETUP_REPEATS):
        status, out, _ = workloads.run_child(["-c", code], workloads.child_env())
        if status != 0:
            raise RuntimeError(f"set-up probe failed: {out.decode(errors='replace')}")
        cal.add(round(float(out.split()[-1]) * 1e9))
    return p50(cal.scaled) / 1e9


def peak_mem_kib(workload: str, w, mods, inputs) -> float | None:
    """tracemalloc peak, in an untimed pass: one ``verify_all()`` from scratch
    on library_verify, the median over every op's own peak on exact_algebra.
    cli_cold reads its children's peak RSS instead (see :func:`timed_run`).
    An op that raises is left out here; the timed loop counts it as failed."""
    if workload == "cli_cold":
        return None
    tracemalloc.start()
    try:
        if workload == "library_verify":
            mods.report.verify_all()
            return tracemalloc.get_traced_memory()[1] / 1024
        peaks = []
        for inp in inputs:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            w.op(mods, inp)
            peaks.append(tracemalloc.get_traced_memory()[1] - before)
        return p50(peaks) / 1024
    except Exception:
        return None
    finally:
        tracemalloc.stop()


def timed_run(workload, seed, seconds, mods, inputs, expected, tally) -> dict:
    w = workloads.WORKLOADS[workload]
    setup_s = measure_setup(workload, seed)
    peak = peak_mem_kib(workload, w, mods, inputs)
    for inp in inputs[:WARMUP_OPS]:
        attempt(lambda: w.op(mods, inp), inp, w.check, expected, Tally())
        calibrate.probe()
    cal = calibrate.Calibrator()
    rss = []
    deadline = perf_counter() + seconds
    i = 0
    while perf_counter() < deadline or i == 0:
        inp = inputs[i % len(inputs)]
        i += 1
        ns, out = attempt(lambda: w.op(mods, inp), inp, w.check, expected, tally)
        cal.add(ns)
        if workload == "cli_cold" and out is not None:
            rss.append(out[2])
    cal.flush()
    durations = cal.scaled
    print(f"host speed factor, median over {len(cal.factors)} windows: "
          f"{p50(cal.factors):.3f}", file=sys.stderr)
    if workload == "cli_cold":
        peak = p50(rss) if rss else None
    return {
        "op_ms_p50": p50(durations) / 1e6,
        "op_ms_p90": p90(durations) / 1e6,
        "ops_per_s": len(durations) / (sum(durations) / 1e9),
        "setup_s": setup_s,
        "success_rate": (tally.attempted - tally.failed) / tally.attempted,
        "peak_mem_kib": peak,
    }


# -- traced run: one segment per op kind ----------------------------------------

def _until(seconds, minimum):
    """Yield 0, 1, 2, ... for ``seconds`` (if given) and at least ``minimum``
    times."""
    deadline = perf_counter() + (seconds or 0)
    i = 0
    while i < minimum or (seconds and perf_counter() < deadline):
        yield i
        i += 1


def library_segment(tr, mods, inputs, expected, seconds, tally) -> dict:
    """Alternate untraced and traced passes; spans come from the traced ones."""
    w = workloads.WORKLOADS["library_verify"]
    agg = tracing.Aggregate()
    plain, records = [], 0
    for i in _until(seconds, MIN_LIBRARY_PASSES):
        order = inputs[i % len(inputs)]
        op = lambda: w.op(mods, order)  # noqa: E731
        ns, _ = attempt(op, order, w.check, expected, tally)
        plain.append(ns)
        tr.install()
        try:
            _, out = attempt(lambda: tr.run_op("pass", op, agg), order, w.check,
                             expected, tally)
        finally:
            tr.uninstall()
        records += len(out[0]) if out else 0

    def calls(name):
        return agg.count[name] if name in agg.count else None

    def total_us(name):
        return agg.total_ns[name] / 1e3 if name in agg.count else None

    def self_us(name):
        return agg.self_ns[name] / 1e3 if name in agg.count else None

    def per_call_us(name):
        return per(total_us(name), calls(name))

    def per_record(value):
        return per(value, records)

    pass_ns = sum(agg.op_ns)
    passes = len(agg.op_ns)
    layer_self = {layer: agg.layer_self_ns[layer] for layer in tracing.LAYERS}
    attempts = agg.edges.get(("catalog.enumerate_families", "catalog.validate_params"))
    m = {
        "catalog.validate_params.calls_per_record":
            per_record(calls("catalog.validate_params")),
        "catalog.enumerate_families.us": per_call_us("catalog.enumerate_families"),
        "catalog.enumerate.admissible_per_attempt": per(records, attempts),
        "intersect.fano4_invariants.us_per_record":
            per_record(total_us("intersect.fano4_invariants")),
        "hodge.hodge_of_fourfold.us_per_record":
            per_record(total_us("hodge.hodge_of_fourfold")),
        "hodge.HodgePolynomial.mul.calls_per_record":
            per_record(calls("hodge.HodgePolynomial.mul")),
        "classify.us_per_record": per_record(agg.layer_entry_ns["classify"] / 1e3),
        "cones.anticanonical.us_per_record":
            per_record(total_us("cones.anticanonical")),
        "cones.ne_generators.us_per_record":
            per_record(total_us("cones.ne_generators")),
        "cones.nef_rays.us_per_record": per_record(total_us("cones.nef_rays")),
        "cones.pairing.calls_per_record": per_record(calls("cones.pairing")),
        "cones.pairing.us_per_call": per_call_us("cones.pairing"),
        "cones.self_share": per(layer_self["cones"], pass_ns),
        "report.build_record.self_us_per_record":
            per_record(self_us("report.build_record")),
        "golden.golden_tables.us": per_call_us("golden.golden_tables"),
        "report.verify_all.diff_us":
            per(self_us("report.verify_all"), calls("report.verify_all")),
        "trace.attributed_share": per(sum(layer_self.values()), pass_ns),
        "trace.overhead_ratio": per(p50(agg.op_ns), p50(plain)),
    }
    for fmt in workloads.FORMATS:
        m[f"report.export.{fmt}_us"] = per_call_us(f"report.export.{fmt}")
    for layer, ns in layer_self.items():
        m[f"{layer}.self_us_per_pass"] = per(ns / 1e3, passes)
    return m


def algebra_segment(tr, mods, inputs, expected, seconds, tally) -> dict:
    w = workloads.WORKLOADS["exact_algebra"]
    agg = tracing.Aggregate()
    tr.install()
    try:
        for i in _until(seconds, MIN_ALGEBRA_OPS):
            inp = inputs[i % len(inputs)]
            attempt(lambda: tr.run_op("algebra", lambda: w.op(mods, inp), agg),
                    inp, w.check, expected, tally)
    finally:
        tr.uninstall()

    def us_per(names, count_name):
        if not all(n in agg.count for n in names):
            return None
        return per(sum(agg.total_ns[n] for n in names) / 1e3, agg.count[count_name])

    return {
        "cones.pairing.us_per_call": us_per(["cones.pairing"], "cones.pairing"),
        "cones.curve_combo.us_per_call":
            us_per(["cones.curve_combo"], "cones.curve_combo"),
        "cones.basis_roundtrip.us_per_call":
            us_per(["cones.to_alternate_basis", "cones.from_alternate_basis"],
                   "cones.from_alternate_basis"),
        "cones.is_fano.us_per_call": us_per(["cones.is_fano"], "cones.is_fano"),
        "hodge.HodgePolynomial.mul.us_per_call":
            us_per(["hodge.HodgePolynomial.mul"], "hodge.HodgePolynomial.mul"),
        "intersect.generic.us_per_call":
            us_per(["intersect.projective_bundle_invariants",
                    "intersect.surface_blowup_invariants",
                    "intersect.riemann_roch_chi"],
                   "intersect.surface_blowup_invariants"),
    }


def import_ms(env) -> float:
    """``import fano4.cli`` as ``python -X importtime`` reports it."""
    status, out, _ = workloads.run_child(
        ["-X", "importtime", "-c", "import fano4.cli"], env)
    for line in out.decode().splitlines():
        fields = line.split("|")
        if status == 0 and len(fields) == 3 and fields[2].strip() == "fano4.cli":
            return int(fields[1]) / 1e3
    raise RuntimeError(f"no importtime line for fano4.cli: {out[-500:]!r}")


def warm_main(mods, argv) -> tuple[int, bytes, None]:
    """``cli.main(argv)`` in this process, with stdout captured as bytes; the
    result has the shape of :func:`workloads.run_child`'s."""
    buf = io.BytesIO()
    text = io.TextIOWrapper(buf, encoding="utf-8", write_through=True)
    saved, sys.stdout = sys.stdout, text
    try:
        status = mods.cli.main(list(argv))
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout = saved
    return status, buf.getvalue(), None


def cli_segment(tr, mods, inputs, expected, seconds, tally) -> dict:
    w = workloads.WORKLOADS["cli_cold"]
    env = workloads.child_env()
    interp = []
    for _ in range(PROBE_REPEATS):
        start = perf_counter_ns()
        workloads.run_child(["-c", "pass"], env)
        interp.append((perf_counter_ns() - start) / 1e6)
    m = {"cli.interp_ms": p50(interp),
         "cli.import_ms": p50([import_ms(env) for _ in range(PROBE_REPEATS)])}
    by_command = defaultdict(list)
    block = len(workloads.CLI_COMMANDS)
    for i in _until(seconds, MIN_CLI_BLOCKS * block):
        argv = inputs[i % len(inputs)]
        ns, _ = attempt(lambda: w.op(mods, argv), argv, w.check, expected, tally)
        by_command[argv[0]].append(ns / 1e6)
    for command in workloads.CLI_COMMANDS:
        m[f"cli.{command}.ms_p50"] = p50(by_command[command])
    warm = []
    for argv in inputs[:WARM_MAIN_OPS if seconds else MIN_CLI_BLOCKS * block]:
        ns, _ = attempt(lambda: warm_main(mods, argv), argv, w.check, expected,
                        tally)
        warm.append(ns / 1e3)
    m["cli.main.us_p50"] = p50(warm)
    return m


SEGMENTS = {
    "library_verify": library_segment,
    "exact_algebra": algebra_segment,
    "cli_cold": cli_segment,
}


def traced_run(workload, seed, seconds, mods, inputs, expected, tally) -> dict:
    """The workload's own segment runs for ``seconds``; the other two run a
    short fixed amount, so every per-layer metric is measured in every run.
    A metric both segments give is taken from the workload's own."""
    tr = tracing.Tracer()
    metrics: dict = {}
    for name in [workload, *(s for s in SEGMENTS if s != workload)]:
        own = name == workload
        seg_inputs = inputs if own else workloads.make_inputs(name, seed, mods,
                                                              expected)
        seg = SEGMENTS[name](tr, mods, seg_inputs, expected,
                             seconds if own else None, tally)
        for key, value in seg.items():
            if metrics.get(key) is None:
                metrics[key] = value
    if tr.missing:
        print(f"not in fano4, metrics absent: {sorted(tr.missing)}", file=sys.stderr)
    out_dir = workloads.BENCH / "out"
    out_dir.mkdir(exist_ok=True)
    tr.write(out_dir / f"trace-{workload}-seed{seed}.tsv")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        mods = workloads.load()
    except workloads.SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    units = declared_units()
    expected = workloads.load_expected()
    inputs = workloads.make_inputs(args.workload, args.seed, mods, expected)
    tally = Tally()
    run = traced_run if args.trace else timed_run
    values = run(args.workload, args.seed, args.seconds, mods, inputs, expected, tally)
    undeclared = set(values) - set(units)
    if undeclared:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {sorted(undeclared)}")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if values.get(name) is not None}
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
