"""Tabular batch-RL regularization toolkit.

Three transition-matrix regularizers in a common weighted-average form,
exact policy iteration over the regularized models, and a deterministic
Monte-Carlo harness measuring policy loss and transition-matrix MSE.
"""

from .data import CollectionConfig, Dataset, StartMode, generate_dataset
from .environments import (GridNoiseConfig, MdpSpecError, build_cliff_walk,
                           build_interconnected_grid, build_two_goals,
                           cliff_near_goal_states, load_mdp_spec, save_mdp_spec)
from .estimation import CountsTensor, EstimatedModel, count, mle_model
from .evaluation import MseResult, transition_mse
from .harness import (ConfigError, ExperimentConfig, ResultRow, builtin_presets,
                      config_hash, emit_csv, emit_summary, load_experiment_config,
                      run_experiment)
from .mdp import DEFAULT_GAMMA, TabularMdp, apply_reward_shift, validate_mdp
from .planning import (PlanningProblem, PolicyIterationError, greedy_from_q,
                       policy_evaluation, policy_iteration, q_from_values, q_gaps)
from .regularizers import RegularizedModel, implied_prior_magnitude, regularize
from .seeding import child_seed

__version__ = "0.1.0"
