"""Exact and stochastic tools for reflection-group deformations of calculus.

The package builds finite root systems with multiplicity functions, applies
the associated deformed directional derivatives and Laplacians to exact
polynomials, relates the forward generator of the reflection-symmetric
diffusion to trapped particle Hamiltonians through an explicit space-time
scaling, and simulates the diffusion itself, including its collapse onto
classical polynomial zeros as the multiplicities grow.
"""

from .cm import (
    CMParams,
    SideBySide,
    SpinChainMatrix,
    cm_apply,
    conjugation_sides,
    ground_energy,
    ground_energy_a_type,
    groundstate_residual,
    groundstate_value,
    pf_matrix,
    transformed_hamiltonian_check,
    w_gradient,
    w_laplacian,
    w_value,
)
from .dunkl import (
    DunklContext,
    PolyFunction,
    commutator,
    dunkl_apply,
    dunkl_direction,
    dunkl_laplacian_direct,
    dunkl_laplacian_expanded,
    kbe_generator,
    kfe_generator,
    live_dots,
)
from .errors import (
    ConfigError,
    DegreeCapError,
    DimensionError,
    DunklLabError,
    ExactModeError,
    HyperplaneError,
    InvalidRootError,
    PolynomialDivisionError,
    SamplingError,
    StepUnderflowError,
    UnsupportedFamilyError,
)
from .polyx import (
    MultiPoly,
    alternating_quotient,
    compose_reflection,
    discriminant_poly,
    divide_by_linear,
    format_poly,
    parse_poly,
    weight_poly,
)
from .rootsys import (
    Root,
    RootSystem,
    build_root_system,
    chamber_vector,
    check_closure,
    compute_orbits,
    discriminant,
    reflect,
    sample_generic_point,
    weight,
)
from .sde import (
    EnsembleResult,
    FreezeSample,
    MomentReport,
    SimConfig,
    Trajectory,
    deterministic_freeze_ode,
    freezing_experiment,
    hermite_electrostatic_residual,
    hermite_roots,
    laguerre_electrostatic_residual,
    laguerre_freezing_probe,
    laguerre_roots,
    moment_from_result,
    moment_law_report,
    replay_path,
    simulate,
)
from .suites import SUITES, SuiteResult, run_suites
from .transform import (
    IdentityReport,
    TestFunction,
    corollary1_residual,
    corollary1_sides,
    inverse_substitute,
    lemma2_check,
    similarity_identities_check,
    substitute,
    theorem1_residual,
    theorem1_sides,
    triple_sum_check_a,
    unconfined_map_check,
)

__version__ = "0.1.0"
