"""Exact symbolic engine for the rank dynamics of formal generic submanifolds.

The package builds iterated Segre mappings of a manifold given by polynomial
defining functions, certifies the generic ranks of the iterates and their
stabilization, computes the CR orbit data through two independent routes
(bracket closure and annihilator kernels), and verifies the relating
identities exactly over the Gaussian rationals.

Importing the package loads none of its modules.  Each name below resolves
on first use (PEP 562): ``from segre import verify_all`` imports
``segre.orbit`` and returns its ``verify_all``.  So a run compiles only the
modules it needs; ``segre rank`` never loads ``segre.orbit`` or
``segre.fields``.
"""

from importlib import import_module

__version__ = "0.1.0"

# the module that defines each exported name
_EXPORTS = {
    "config": ("DEFAULT_SEED", "RunConfig"),
    "coords": ("Dims",),
    "errors": (
        "ConfigError",
        "GenericityError",
        "InconclusiveError",
        "InternalConsistencyError",
        "ManifoldError",
        "RealityError",
        "SegreError",
        "SplitError",
    ),
    "expressions": (
        "GenericManifold",
        "ManifoldSpec",
        "ParseError",
        "load_manifold",
        "load_manifold_file",
        "manifold_from_graph_series",
        "manifold_from_rho_series",
        "parse_expression",
        "variable_table",
    ),
    "fields": (
        "FormalVectorField",
        "LieHullReport",
        "bracket",
        "cr_basis",
        "lie_hull_dimension",
    ),
    "implicit": ("GraphForm", "check_reality", "solve_graph"),
    "maps": ("SegreMapping", "VariableCapError"),
    "orbit": (
        "CheckResult",
        "MirrorManifold",
        "OrbitIdealReport",
        "OrbitReport",
        "VerificationReport",
        "mirror_sigma",
        "orbit_annihilator",
        "orbit_ideal_in_M",
        "verify_all",
    ),
    "rank": ("RankCertificate", "RankProfile", "generic_rank", "rank_profile"),
    "series": (
        "CompositionError",
        "FormalMap",
        "GaussianRational",
        "I",
        "ONE",
        "SeriesError",
        "TruncatedSeries",
        "ZERO",
        "gauss",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = tuple(_MODULE_OF)


def __getattr__(name: str):
    # called only for names not yet in the module's globals; a submodule
    # name raises here, and ``from segre import cli`` then imports it
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
