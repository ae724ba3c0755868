"""Numerical laboratory for 1-D transport on the unit interval.

Characteristics-based solvers for the linear transport equation and the
continuity equation with inflow boundary, logarithmic state norms, decay
certificates along simulated trajectories, and a closed-loop production-line
model solved by fixed-point iteration.  Scenario files and a CLI drive full
studies; see the README for the file format.
"""

from .bounds import (INF, BoundCertificate, TrajectoryRun, bias_experiment,
                     boundary_coefficient, canonical_estimate, certify,
                     continuity_run, mu_is_valid, transport_run)
from .continuity import equilibrium_profile, log_state_problem, solve_continuity
from .expr import Expression, ExpressionError, parse
from .fields import (BoundarySignal, FieldValidationError, Grid,
                     InitialProfile, SpaceTimeField, TransportCoefficients,
                     VelocityField, check_compatibility_continuity,
                     check_compatibility_transport)
from .manufacturing import (ClosedLoopRun, ManufacturingError,
                            ProductionScenario, contraction_window,
                            envelope_check, fixed_point_velocity,
                            manufacturing_run, simulate_closed_loop,
                            terminal_time)
from .norms import (fading_memory_max, heaviside_h, lp_log_norm, lp_norm,
                    sup_log_norm)
from .oracle import upwind_solve
from .scenarios import (Scenario, ScenarioError, load_scenario,
                        parse_scenario_text, random_continuity_scenario,
                        random_transport_scenario, simulation, trajectory_run)
from .transport import SolutionField, TransportProblem, solve_field, solve_point

__all__ = [
    "INF",
    "BoundCertificate",
    "TrajectoryRun",
    "bias_experiment",
    "boundary_coefficient",
    "canonical_estimate",
    "certify",
    "continuity_run",
    "mu_is_valid",
    "transport_run",
    "equilibrium_profile",
    "log_state_problem",
    "solve_continuity",
    "Expression",
    "ExpressionError",
    "parse",
    "BoundarySignal",
    "FieldValidationError",
    "Grid",
    "InitialProfile",
    "SpaceTimeField",
    "TransportCoefficients",
    "VelocityField",
    "check_compatibility_continuity",
    "check_compatibility_transport",
    "ClosedLoopRun",
    "ManufacturingError",
    "ProductionScenario",
    "contraction_window",
    "envelope_check",
    "fixed_point_velocity",
    "manufacturing_run",
    "simulate_closed_loop",
    "terminal_time",
    "fading_memory_max",
    "heaviside_h",
    "lp_log_norm",
    "lp_norm",
    "sup_log_norm",
    "upwind_solve",
    "Scenario",
    "ScenarioError",
    "load_scenario",
    "parse_scenario_text",
    "random_continuity_scenario",
    "random_transport_scenario",
    "simulation",
    "trajectory_run",
    "SolutionField",
    "TransportProblem",
    "solve_field",
    "solve_point",
]
