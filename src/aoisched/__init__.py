"""Transmission scheduling for multi-sensor monitoring over a two-state Markov channel.

The package tracks two ages per sensor (buffer side and monitor side),
solves the exact truncated average-cost MDP, builds a low-complexity
structure-informed scheduling policy from per-sensor value decomposition,
tests spectral-radius stability conditions, and runs seeded Monte Carlo
policy comparisons.
"""

from .model import (
    ArrivalProcess,
    BernoulliArrival,
    ChannelSpec,
    ConvergenceError,
    EstimationTracePenalty,
    ExponentialPenalty,
    MarkovArrival,
    PenaltyFunction,
    SensorSpec,
    SystemSpec,
    solve_steady_state_covariance,
    spectral_radius,
)
from .dynamics import JointState, SensorState, initial_state, step_system
from .mdp import (
    ActionSet,
    PolicyTable,
    StateSpace,
    ValueTable,
    check_value_monotonicity,
    relative_value_iteration,
    solve_optimal_policy,
    transition_distribution,
)
from .decomposed import (
    PerSensorValue,
    SispPolicy,
    ThresholdTable,
    build_policy_table,
    build_policy_table_with_pruning,
    default_randomized_probs,
    extract_thresholds,
    solve_per_sensor_value,
    solve_sisp_values,
)
from .stability import FeasibleRegion, StabilityReport, feasible_region, stability_check
from .sim import ExperimentPlan, divergence_probe, monte_carlo, run_episode

__version__ = "0.1.0"
