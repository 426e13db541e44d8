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

Importing the package loads no submodule.  A public name such as
``fano4.verify_all`` imports its home module on first access (PEP 562), so a
program pays only for the modules it uses; the ``fano4`` command line loads
``catalog`` and ``errors`` for ``list``, adds ``cones`` for ``cones``, and
loads the rest only for ``info``, ``verify`` and ``export``, none of which
loads ``fractions``, and loads ``argparse`` only for help, the version and
usage errors (see :mod:`fano4.cli`).  ``fano4.catalog`` is always the
module; the catalogue itself is ``fano4.catalog.catalog()``.
"""

__version__ = "0.1.0"

#: home module -> the public names the package re-exports from it
_EXPORTS = {
    "catalog": ("FanoThreefold", "FamilyParams", "HBaseLocus", "threefold",
                "validate_params", "enumerate_families"),
    "hodge": ("HodgePolynomial", "FourfoldHodge", "projective_space",
              "bundle_formula", "blowup_formula", "surface_h02",
              "hodge_of_threefold", "hodge_of_fourfold"),
    "intersect": ("BundleInput", "BlowupCentreData", "CanonicalDegrees",
                  "FourfoldInvariants", "projective_bundle_invariants",
                  "surface_blowup_invariants", "riemann_roch_chi",
                  "p1_bundle_invariants", "fano4_invariants"),
    "cones": ("DivisorClass", "CurveClass", "CurveGen", "NefRay", "RayLabel",
              "FibreLike", "anticanonical", "pairing", "pairing_matrix",
              "to_alternate_basis", "ne_generators", "nef_rays", "ConeData",
              "cone_data", "is_fano", "is_fibre_like"),
    "classify": ("BaseLocusKind", "Rationality", "ToricLabel",
                 "TangentBounds", "base_locus", "rationality", "toric_label",
                 "h0_line_bundle", "chi_tangent", "tangent_bounds"),
    "report": ("FamilyRecord", "Mismatch", "VerificationReport",
               "build_record", "build_records", "build_all_records",
               "verify_all", "export"),
    "golden": ("GoldenTables", "golden_tables"),
    "errors": ("ConsistencyError", "IntegrityError", "ContextMismatchError"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

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
