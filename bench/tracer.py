"""Spans around calls into fano4's public functions, recorded from outside.

A :class:`Tracer` replaces every binding of each timed function -- in its own
module, in each fano4 module that imported it by name, and in the package
re-export -- with a wrapper that records one span per call.  Intra-module
calls (``nef_rays`` -> ``pairing``) go through the module globals, so they
are caught too.  ``fano4`` itself is never edited: the wrappers are installed
for a traced stretch of the run and the original bindings restored after it.

A span is ``(span_id, parent_id, name, start_ns, end_ns)``; every span of one
op shares the op's id.  The spans of an op are folded into per-name and
per-layer aggregates when the op ends.  The raw spans of the first
``KEEP_OPS`` ops of each kind are kept in memory and written out when the run
ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter_ns

#: module -> public functions to time.  Span names are "<module>.<function>";
#: the module name is the layer name.  Every public function one layer calls
#: in another is listed, so that its time is charged to its own layer.  The
#: ``cli`` layer is measured by whole processes and warm ``main`` calls
#: instead (see ``run.py``).
TIMED = {
    "catalog": ("validate_params", "enumerate_families"),
    "intersect": ("fano4_invariants", "p1_bundle_invariants",
                  "projective_bundle_invariants", "surface_blowup_invariants",
                  "riemann_roch_chi"),
    "hodge": ("hodge_of_fourfold", "bundle_formula", "blowup_formula",
              "HodgePolynomial.__mul__"),
    "cones": ("anticanonical", "ne_generators", "nef_rays", "pairing",
              "is_fano", "is_fibre_like", "curve_combo", "to_alternate_basis",
              "from_alternate_basis"),
    "classify": ("base_locus", "rationality", "toric_label", "chi_tangent",
                 "tangent_bounds"),
    "golden": ("golden_tables",),
    "report": ("build_all_records", "build_record", "verify_all", "export"),
}

LAYERS = tuple(TIMED)


def _span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.replace('__mul__', 'mul')}"


def _export_name(args, kwargs) -> str:
    fmt = kwargs.get("format", args[1] if len(args) > 1 else "?")
    return f"report.export.{fmt}"


class Aggregate:
    """Per-name and per-layer sums over the folded ops."""

    def __init__(self) -> None:
        self.count: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.edges: dict[tuple[str, str], int] = defaultdict(int)
        self.layer_self_ns: dict[str, int] = defaultdict(int)
        # time spent in a layer when entered from another layer (its
        # inclusive time, without double-counting its own nested calls)
        self.layer_entry_ns: dict[str, int] = defaultdict(int)
        self.op_ns: list[int] = []

    def fold(self, spans: list[tuple[int, int, str, int, int]]) -> None:
        names = {sid: name for sid, _, name, _, _ in spans}
        child_ns: dict[int, int] = defaultdict(int)
        for _, parent, _, start, end in spans:
            child_ns[parent] += end - start
        for sid, parent, name, start, end in spans:
            dur = end - start
            own = dur - child_ns[sid]
            layer = name.split(".", 1)[0]
            parent_name = names.get(parent, "")
            self.count[name] += 1
            self.total_ns[name] += dur
            self.self_ns[name] += own
            self.edges[(parent_name, name)] += 1
            self.layer_self_ns[layer] += own
            if parent_name.split(".", 1)[0] != layer:
                self.layer_entry_ns[layer] += dur
            if parent == 0:
                self.op_ns.append(dur)


#: ops of each kind whose raw spans are kept and written out
KEEP_OPS = 5


class Tracer:
    def __init__(self) -> None:
        self.kept: list[tuple[int, list]] = []
        self._kept_per_kind: dict[str, int] = defaultdict(int)
        self.missing: set[str] = set()
        self._stack = [0]
        self._next_id = 1
        self._spans: list[tuple[int, int, str, int, int]] = []
        self._op_id = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- installing the wrappers -------------------------------------------

    def install(self) -> None:
        """Wrap every binding of every timed function that exists."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "fano4" or name.startswith("fano4.")]
        for module_name, attrs in TIMED.items():
            module = importlib.import_module(f"fano4.{module_name}")
            for attr in attrs:
                owner, _, fname = attr.rpartition(".")
                holder = getattr(module, owner) if owner else module
                original = getattr(holder, fname, None)
                if original is None:
                    self.missing.add(f"{module_name}.{attr}")
                    continue
                wrapper = self._wrap(_span_name(module_name, attr), original)
                self._rebind(holder, fname, wrapper)
                if not owner:
                    for other in modules:
                        if other is not module and other.__dict__.get(fname) is original:
                            self._rebind(other, fname, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._restore):
            setattr(holder, attr, original)
        self._restore.clear()

    def _rebind(self, holder, attr: str, wrapper) -> None:
        self._restore.append((holder, attr, holder.__dict__[attr]))
        setattr(holder, attr, wrapper)

    def _wrap(self, name: str, fn):
        stack = self._stack
        spans = self._spans
        namer = _export_name if name == "report.export" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans.append((sid, parent,
                              namer(args, kwargs) if namer else name, start, end))
        return wrapper

    # -- ops ---------------------------------------------------------------

    def run_op(self, name: str, fn, agg: Aggregate):
        """Run ``fn()`` as one traced op under a root span ``bench.<name>``;
        fold its spans into ``agg``.  Returns ``fn()``'s result."""
        self._op_id += 1
        sid = self._next_id
        self._next_id = sid + 1
        self._stack.append(sid)
        start = perf_counter_ns()
        try:
            return fn()
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self._spans.append((sid, 0, f"bench.{name}", start, end))
            spans = self._spans[:]
            self._spans.clear()
            agg.fold(spans)
            if self._kept_per_kind[name] < KEEP_OPS:
                self._kept_per_kind[name] += 1
                self.kept.append((self._op_id, spans))

    def write(self, path) -> None:
        """Write the kept spans as tab-separated
        ``op_id span_id parent_id name start_ns end_ns`` lines."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op_id\tspan_id\tparent_id\tname\tstart_ns\tend_ns\n")
            for op_id, spans in self.kept:
                for sid, parent, name, start, end in sorted(spans):
                    fh.write(f"{op_id}\t{sid}\t{parent}\t{name}\t{start}\t{end}\n")
