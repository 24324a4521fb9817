"""Blow-up time bounds and simulations for two-component reaction-diffusion
systems with Robin boundary conditions."""

from .bounds import (
    LowerBoundResult,
    UpperBoundResult,
    compute_K,
    lower_bound_blowup,
    lower_bound_pipeline,
    select_betas,
    upper_bound_blowup,
)
from .functionals import (
    EnergySample,
    FieldPair,
    boundary_integral,
    check_trace_monitors,
    energy_sample,
    interior_integral,
)
from .geometry import (
    DomainSpec,
    GeometryConstants,
    Mesh,
    build_mesh,
    geometry_constants,
)
from .nonlinearity import (
    HypothesisReport,
    Nonlinearity,
    check_A2_A3,
    check_A2prime,
    check_H1,
    check_H2_H3,
    classify_absorption,
    make_absorption,
    make_gradient_homogeneous,
    make_power_product,
    shape_constant,
    shape_exp_decay,
    shape_power,
)
from .oracle import OdeTrace, brute_force_integral, ode_reduce
from .solver import (
    BlowupEstimate,
    SolveTrace,
    SolverConfig,
    estimate_blowup_time,
    rhs,
    simulate,
    step,
)

__version__ = "0.1.0"
