"""Simulation and tuning laboratory for under-tuned super-twisting speed loops.

A loop whose integral gain sits below the perturbation-rate bound does not
converge in finite time; under periodic forcing it settles instead on a
limit cycle of the forcing period whose width shrinks quadratically with
that period.  This package simulates such loops (including a virtual motor
with friction and cogging), measures the cycles, and selects gains from
accuracy specifications.
"""

from .analysis import (AperiodicSignalError, BoundTable, InsufficientDataError,
                       LimitCycleReport, bound_comparison_table, build_report,
                       default_tolerance, estimate_period, final_periods,
                       scaling_fit, stroboscopic_convergence)
from .dynamics import Gains, default_layer_width, saturation, twisting_action
from .integrator import (DivergenceError, IntegrationConfig, Trajectory,
                         detect_crossings, integrate)
from .plant import MotorModel, simulate_motor_loop
from .signals import (FrictionCoggingModel, MotionProfile, SinusoidPerturbation,
                      bound_L, constant_speed_characterization, eval_q)
from .tuning import (AccuracySpec, InfeasibleSpecError, check_averaged_conditions,
                     cycle_width_bound, finite_time_gains, optimize_gains,
                     tight_bound_feasible, tight_width_bound, tune_k2)
from .runner import RunResult, ScenarioConfig, emit_outputs, run_scenario

__version__ = "0.1.0"
