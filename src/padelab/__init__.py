"""Multipoint Pade approximation of Cauchy transforms with polar parts.

High-precision construction of diagonal multipoint Pade approximants to
functions of the form (Cauchy transform of a complex measure on real
intervals) + (rational part), together with potential-theoretic checkers
for their pole distribution, convergence rate, and pole attraction.
"""

from .algebra import (
    Poly,
    parse_complex,
    poly_derivative_at,
    poly_eval,
    poly_roots,
    set_precision,
    to_mpc,
    working_precision,
)
from .checkers import (
    angle,
    check_capacity_convergence,
    check_pole_attraction,
    check_pole_distribution,
    covering_system,
    variation_budget,
)
from .cli import ProblemConfig, RunRecord, check, emit_outputs, load_config, run
from .errors import (
    CarrierHit,
    ConvergenceFailure,
    DegenerateChoice,
    InvalidConfig,
    MassMismatch,
    PadelabError,
    PointAtPole,
    PointOnSupport,
    PoleOnNode,
    QuadFailure,
    RootFailure,
    SolveFailure,
    UnwrapFailure,
)
from .measure import (
    ComplexMeasure,
    DensityExpr,
    MeasureComponent,
    RationalPart,
    argument_variation_f64,
    cauchy_transform,
    eval_F,
    moments,
)
from .pade import (
    PadeApproximant,
    PadeFamily,
    assemble_orthogonality_system,
    error_eval,
    recover_p,
    solve_family,
    solve_qn,
)
from .potential import (
    DiscreteMeasure,
    IntervalSystem,
    SpectralMeasure,
    balayage,
    equilibrium_measure,
    green_potential,
    log_potential,
    weakstar_distance,
)
from .scheme import (
    AsymptoticDistribution,
    CircleScheme,
    ClassicalScheme,
    ExplicitScheme,
    InterpolationScheme,
    admissibility_report,
    make_scheme,
)

__version__ = "0.1.0"
