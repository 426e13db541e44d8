"""The process-lifetime caches of ``fano4``, each named with its reason.

``library_verify``'s ``peak_mem_kib`` traces the first ``verify_all()`` of a
process, so a ``functools`` cache that the pass fills counts there in full.
A new one must join ``PROCESS_CACHES`` with a one-line reason.  This module
uses the stdlib and ``fano4`` alone: the CI step "Memory of the first pass"
reads the table and prints each cache's ``cache_info()``.
"""

from __future__ import annotations

import importlib
import pkgutil
from types import ModuleType

import fano4

#: "module.name" of every functools cache in src/fano4 -> why it stays
PROCESS_CACHES = {
    "hodge.projective_space":
        "e(P^n) for small n, shared by the bundle and blow-up formulas",
    "hodge._exceptional_factor":
        "e(P^{c-1}) - e(P^0) per codimension c; the pass reads c = 2 only",
    "hodge._bundle_over_threefold":
        "e(Z)*e(P^1) per h^{1,2}(Z): 5 values over the 28 families",
}


def fano4_modules() -> list[ModuleType]:
    """The package and each of its modules, imported."""
    return [fano4, *(importlib.import_module(f"fano4.{info.name}")
                     for info in pkgutil.iter_modules(fano4.__path__))]


def process_caches() -> dict[str, object]:
    """Every module global with a ``cache_info``, by "module.name", in the
    module it is defined in (a re-export is not counted twice)."""
    found = {}
    for module in fano4_modules():
        for name, value in vars(module).items():
            if (hasattr(value, "cache_info")
                    and getattr(value, "__module__", None) == module.__name__):
                found[f"{module.__name__.removeprefix('fano4.')}.{name}"] = value
    return found


def test_every_process_cache_is_named_with_its_reason():
    assert sorted(process_caches()) == sorted(PROCESS_CACHES)
    assert all(PROCESS_CACHES.values())


def test_the_pairing_table_is_built_per_call():
    from fano4 import cones

    first, second = cones._pairing_columns(7, 2), cones._pairing_columns(7, 2)
    assert type(first) is tuple and first == second
    assert first is not second
