"""Exact symbolic engine for the rank dynamics of formal generic submanifolds.

The package builds iterated Segre mappings of a manifold given by polynomial
defining functions, certifies the generic ranks of the iterates and their
stabilization, computes the CR orbit data through two independent routes
(bracket closure and annihilator kernels), and verifies the relating
identities exactly over the Gaussian rationals.
"""

from .config import DEFAULT_SEED, RunConfig
from .coords import Dims
from .errors import (
    ConfigError,
    GenericityError,
    InconclusiveError,
    InternalConsistencyError,
    ManifoldError,
    RealityError,
    SegreError,
    SplitError,
)
from .expressions import (
    GenericManifold,
    ManifoldSpec,
    ParseError,
    load_manifold,
    load_manifold_file,
    manifold_from_graph_series,
    manifold_from_rho_series,
    parse_expression,
    variable_table,
)
from .fields import (
    FormalVectorField,
    LieHullReport,
    bracket,
    cr_basis,
    lie_hull_dimension,
    sigma_field,
)
from .implicit import GraphForm, check_reality, ideal_member, solve_graph
from .maps import (
    IteratedSegre,
    SegreManifoldParam,
    SegreMapping,
    ThetaPhi,
    VariableCapError,
    iterate,
    make_T,
    make_theta_phi,
    pushforward_residuals,
)
from .orbit import (
    CheckResult,
    MirrorManifold,
    OrbitIdealReport,
    OrbitReport,
    VerificationReport,
    mirror_sigma,
    orbit_annihilator,
    orbit_ideal_in_M,
    verify_all,
)
from .rank import (
    RankCertificate,
    RankProfile,
    generic_rank,
    minor_determinant,
    rank_profile,
)
from .series import (
    CompositionError,
    FormalMap,
    GaussianRational,
    I,
    ONE,
    SeriesError,
    TruncatedSeries,
    ZERO,
    gauss,
    jacobian,
    series_match,
)

__version__ = "0.1.0"
