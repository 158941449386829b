"""Stochastic jump kinetics toolkit.

Exact simulation of mass-action jump processes (single paths, coupled
pairs under common randomness, ensembles), closed-form stability
constants from the network stoichiometry, moment and perturbation bound
curves, and a truncated master-equation oracle for cross-validation.

Importing the package loads numpy only; each scipy subpackage and
``multiprocessing`` are imported inside the functions that call them.
"""

from .analyzer import (
    StabilityReport,
    analyze,
    drift_constants,
    find_weight_vector,
    growth_constants,
    lipschitz_constants,
    log_norm,
    log_norm_rank1,
    one_sided_constants,
    ray_diagnostic,
)
from .bounds import (
    BoundCurve,
    asymptotic_check,
    coefficient_perturbation_curve,
    cubic_blowup_lowerbound,
    first_moment_curve,
    initial_perturbation_curve,
    ode_divergence_bound,
    pth_moment_curve,
    second_moment_curve,
)
from .cme import (
    build_generator,
    cme_moments,
    enumerate_states,
    integrate_cme,
    point_mass,
)
from .engine import (
    MomentTable,
    PerturbationSpec,
    SimConfig,
    Trajectory,
    batch_states,
    coupled_rms,
    ensemble_moments,
    integrate_rre,
    mix64,
    simulate_coupled,
    simulate_direct,
    simulate_rtc,
)
from .model import (
    Propensity,
    Reaction,
    ReactionNetwork,
    apply_reaction,
    drift_eval,
    propensity_eval,
    validate_network,
)
from .parser import ModelError, parse_model, serialize_model
from .presets import PRESETS, get_preset

__version__ = "0.1.0"
