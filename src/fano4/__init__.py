"""Exact-arithmetic invariants of the 28 deformation families of smooth Fano
4-folds with Picard number 3 that contain a prime divisor of Picard rank 1.

Each family is built from a triple (Z, a, d): Z one of seven Fano 3-folds of
Picard number 1 and index >= 2, Y = P(O_Z + O_Z(a)) the split P^1-bundle, and
X the blow-up of Y along a surface lying over a smooth member of |O_Z(d)|.
The package enumerates the admissible triples, computes Hodge numbers,
anticanonical degrees and tangent-sheaf cohomology from first principles
(several independent routes each, all in exact integer/rational arithmetic),
models the curve and nef cones, and verifies everything against embedded
reference tables.

Every public name of a library module is also a package name:
``fano4.verify_all`` is ``fano4.report.verify_all``.  Each module's
``__all__`` is its entry of ``_EXPORTS`` below, the one list of these names.
The one exception is ``catalog``: ``fano4.catalog`` is always the module, and
the catalogue itself is ``fano4.catalog.catalog()``.  Importing the package
loads no submodule; a package name imports only its home module, on first
access (PEP 562), so a program pays only for the modules it uses.

The ``fano4`` command line, :mod:`fano4.cli`, keeps its own ``__all__`` and
is not re-exported.  It loads ``catalog`` and ``errors`` for ``list``, adds
``cones`` for ``cones``, and loads the rest only for ``info``, ``verify``
and ``export``, none of which loads ``fractions``, and loads ``argparse``
only for help, the version and usage errors.
"""

__version__ = "0.1.0"

#: home module -> its public names, which are its ``__all__``; the package
#: re-exports each name that is not also a module name
_EXPORTS = {
    "catalog": ("HBaseLocus", "FanoThreefold", "FamilyParams", "catalog",
                "threefold", "validate_params", "require_admissible",
                "enumerate_families"),
    "hodge": ("HodgePolynomial", "FourfoldHodge", "projective_space",
              "bundle_formula", "blowup_formula", "surface_h02",
              "hodge_of_threefold", "hodge_of_surface", "hodge_of_fourfold"),
    "intersect": ("BundleInput", "BlowupCentreData", "CanonicalDegrees",
                  "projective_bundle_invariants", "surface_blowup_invariants",
                  "riemann_roch_chi", "split_bundle_base", "surface_centre",
                  "p1_bundle_invariants", "fano4_invariants",
                  "k4_closed_terms", "closed_degrees"),
    "cones": ("DivisorClass", "CurveGen", "CurveClass", "RayLabel", "NefRay",
              "ConeData", "FibreLike", "divisor", "curve_combo",
              "pairing_matrix", "pairing", "to_alternate_basis",
              "from_alternate_basis", "anticanonical", "ne_generators",
              "nef_rays", "cone_data", "is_fano", "is_fibre_like"),
    "classify": ("BaseLocusKind", "Rationality", "ToricLabel",
                 "TangentBounds", "base_locus", "rationality", "toric_label",
                 "h0_line_bundle", "chi_tangent", "tangent_bounds"),
    "report": ("FamilyRecord", "Mismatch", "VerificationReport",
               "build_record", "build_records", "build_all_records",
               "verify_all", "export", "EXPORT_FIELDS"),
    "golden": ("GoldenThreefold", "GoldenFamilyRow", "GoldenTangentRow",
               "GoldenTables", "golden_tables"),
    "errors": ("ConsistencyError", "IntegrityError", "ContextMismatchError",
               "agree", "integral", "at_least"),
}

_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names if name not in _EXPORTS}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    from importlib import import_module

    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
