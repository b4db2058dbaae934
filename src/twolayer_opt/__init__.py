"""Two-layer network training with SGD-GD and first-order => global
optimality certificates."""

from .activations import (ACTIVATION_NAMES, PAPER_ACTIVATIONS,
                          ActivationFunction, builtin_activation)
from .dataset import Dataset, Provenance, generate_inputs, make_realizable
from .diagnostics import (GlobalCertificate, LipschitzEstimate, RankReport,
                          certificate, certify, collection_rank,
                          lipschitz_ball_bound, lipschitz_estimates,
                          perturbation_rank_trial, svd_rank)
from .errors import (ConfigError, FormatError, IoError, NumericsError,
                     ShapeError)
from .model import (NetworkParams, StationaritySystem, forward, grad_theta,
                    grad_W, loss, random_params, residuals,
                    stationarity_system)
from .optimizer import (RunConfig, TrajectoryRecord, inner_sgd, outer_step,
                        project_ball, prox_ball, run, solve_theta_star)

__version__ = "0.1.0"
