"""Two-layer network training with SGD-GD and first-order => global
optimality certificates."""

from .activations import (ACTIVATION_NAMES, PAPER_ACTIVATIONS,
                          ActivationFunction, builtin_activation, c1_probe,
                          vector_apply)
from .dataset import (Dataset, Provenance, Teacher, generate_inputs,
                      label_with_teacher, make_realizable, random_teacher)
from .diagnostics import (GlobalCertificate, LipschitzEstimate, RankReport,
                          certify, collection_rank, lipschitz_ball_bound,
                          lipschitz_estimates, perturbation_rank_trial,
                          svd_rank)
from .errors import (ConfigError, FormatError, IoError, NumericsError,
                     ShapeError)
from .model import (NetworkParams, StationaritySystem, forward, grad_theta,
                    grad_W, loss, residuals, stationarity_system)
from .optimizer import (RunConfig, TrajectoryRecord, inner_sgd, outer_step,
                        prox_ball, run, solve_theta_star)

__version__ = "0.1.0"
